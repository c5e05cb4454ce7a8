"""Same-bits check: the artifacts of one commit against another's.

    python3 .github/same_bits.py run OUT_DIR
    python3 .github/same_bits.py compare THIS_DIR PARENT_DIR

`run` writes, into OUT_DIR, the history CSVs, checkpoints, predictions and
reports of a fixed set of runs of whichever qembed is importable (put a
tree's `src` on PYTHONPATH to pick it):
- the README's toy.cfg trained through the CLI, once as written and once
  with a 3-qubit 2-layer head read out on qubit 2 (an ansatz with a CX
  chain and several RY gates per layer, which a mini-batch's rows share);
- the toy data scored with the toy checkpoint (predict CSV and eval JSON),
  and a 10 000-row CSV predicted with the toy and the 3-qubit checkpoints
  (past the readout's row blocks);
- gradient audits through the CLI (toy.cfg, a 3-qubit 2-layer bypass head
  read out on qubit 2, and the default encoder at 1, 2 and 20 samples; at
  1 sample, the benchmark's case, a block holds 64 pairs of copies) and the
  library (the trained encoder model below). The CLI prints deviations as
  `%.3e`, so each CLI case's groups are also run through the library and
  written as `repr`s, at full precision;
- a small encoder model trained through the library;
- the float64 bytes (`tobytes()`) of the feature rows `load_embeddings`
  reads from the toy data and the 10 000-row CSV, so the CSV reader's
  values are compared directly and not only through the scores;
- the library `qembed.predict` tuples, one repr per line, of the toy data
  on the toy and the 3-qubit checkpoints and of the encoder model's 40
  training images, each row scored alone;
- a 10-seed CLI benchmark;
- fresh, untrained `model_from_config` checkpoints of the toy head, the
  3-qubit 2-layer head read out on qubit 2 and the default encoder, each
  at seeds 0 and 7, so the builders' own draws are compared too.
A command that fails still leaves its stdout to compare.

`compare` prints, for every file either directory holds (the sorted union
of their relative paths), whether its sha256 is the same in both, differs,
or which side lacks it. It reports only and exits 0.
"""
import hashlib
import subprocess
import sys
from pathlib import Path

TOY_CFG = """\
model.bypass_encoder = true
model.n_qubits = 1
fm.reps = 2
fm.scale = 2.0
ansatz.layers = 1
train.optimizer = adam
train.lr = 0.05
train.epochs = 200
train.batch = 16
train.patience = 25
train.seed = 0
"""


def run(out: Path) -> None:
    import numpy as np

    import qembed
    from qembed.checkpoint import load_checkpoint, save_checkpoint
    from qembed.config import (default_config, image_shape_from, load_config,
                               model_from_config, parse_config_file)
    from qembed.data import EmbeddingRecord, load_embeddings
    from qembed.encoder import EncoderConfig
    from qembed.gradcheck import draw_samples, gradient_check
    from qembed.model import make_encoder_model
    from qembed.training import TrainingConfig, train

    out.mkdir(parents=True, exist_ok=True)
    print("qembed from", Path(qembed.__file__).parent)
    toy_cfg = out / "toy.cfg"
    toy_cfg.write_text(TOY_CFG)
    cli = [sys.executable, "-m", "qembed"]
    subprocess.run(cli + ["synth", "--n", "200", "--d", "16", "--sep", "6", "--seed", "1",
                          "--out", str(out / "data.csv")], check=True)
    subprocess.run(cli + ["train", "--data", str(out / "data.csv"), "--config", str(toy_cfg),
                          "--out", str(out / "toy.ckpt"),
                          "--history", str(out / "toy-history.csv")], check=True)
    subprocess.run(cli + ["train", "--data", str(out / "data.csv"), "--config", str(toy_cfg),
                          "--set", "model.n_qubits=3", "--set", "ansatz.layers=2",
                          "--set", "model.readout_qubit=2", "--set", "train.epochs=5",
                          "--out", str(out / "wide.ckpt"),
                          "--history", str(out / "wide-history.csv")], check=True)
    # 10 000 rows: past the readout's block edges (4 096 rows a block at
    # 1 qubit, 1 024 at 3), which the 200-row predict never reaches
    subprocess.run(cli + ["synth", "--n", "10000", "--d", "16", "--sep", "6", "--seed", "2",
                          "--out", str(out / "rows.csv")], check=True)
    encoder = ["model.bypass_encoder=false"]
    wide = ["model.n_qubits=3", "ansatz.layers=2", "model.readout_qubit=2"]
    # (name, config file, --set assignments, --samples), each at --seed 7
    audits = [("toy", toy_cfg, [], 3), ("encoder-1", None, encoder, 1),
              ("encoder", None, encoder, 2), ("encoder-20", None, encoder, 20),
              ("wide", None, wide, 5)]
    # stdout only: a failed audit exits 1 and is still a report to compare
    scoring = ["--data", str(out / "data.csv"), "--checkpoint", str(out / "toy.ckpt")]
    for name, args in [
        ("predict.csv", ["predict", *scoring]),
        ("predict-rows-toy.csv", ["predict", "--data", str(out / "rows.csv"),
                                  "--checkpoint", str(out / "toy.ckpt")]),
        ("predict-rows-wide.csv", ["predict", "--data", str(out / "rows.csv"),
                                   "--checkpoint", str(out / "wide.ckpt")]),
        ("eval.json", ["eval", *scoring]),
        *[(f"gradcheck-{name}.txt",
           ["gradcheck", *(["--config", str(cfg)] if cfg else []),
            *[arg for a in sets for arg in ("--set", a)],
            "--samples", str(samples), "--seed", "7"])
          for name, cfg, sets, samples in audits],
        ("benchmark.txt", ["benchmark", "--n-seeds", "10", "--config", str(toy_cfg),
                           "--set", "train.epochs=30"]),
    ]:
        result = subprocess.run(cli + args, capture_output=True, text=True)
        print(args[0], "exit", result.returncode, result.stderr.strip())
        (out / name).write_text(result.stdout)
    for name, cfg, sets, samples in audits:
        config = load_config(cfg, sets)
        audited = model_from_config(config, seed=7)
        shape = None if config["model.bypass_encoder"] else image_shape_from(config)
        drawn = draw_samples(audited, samples, np.random.default_rng(7), image_shape=shape)
        groups = gradient_check(audited, drawn)[1]
        (out / f"gradcheck-{name}-groups.txt").write_text(
            "".join(f"{g!r}\n" for g in groups.values()))
    images = np.random.default_rng(0).normal(size=(40, 4, 4, 1))
    data = [EmbeddingRecord(id=f"r{i}", features=x, label=int(x[:2].sum() > 0))
            for i, x in enumerate(images)]
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16, out_dim=16)
    model = make_encoder_model(cfg, (4, 4, 1), seed=0)
    model, history = train(data, model, TrainingConfig(learning_rate=0.01, max_epochs=3,
                                                       batch_size=8, optimizer="adam"))
    history.write_csv(out / "encoder-history.csv")
    save_checkpoint(out / "encoder.ckpt", model)
    samples = draw_samples(model, 5, np.random.default_rng(7), image_shape=(4, 4, 1))
    groups = gradient_check(model, samples)[1]
    (out / "gradcheck-groups.txt").write_text("".join(f"{g!r}\n" for g in groups.values()))
    for name in ("data", "rows"):
        features = np.stack([rec.features for rec in load_embeddings(out / f"{name}.csv")])
        (out / f"features-{name}.bin").write_bytes(features.tobytes())
    rows = [rec.features for rec in load_embeddings(out / "data.csv")[:200]]
    for name, scored, inputs in [("toy", load_checkpoint(out / "toy.ckpt"), rows),
                                 ("wide", load_checkpoint(out / "wide.ckpt"), rows),
                                 ("encoder", model, images)]:
        lines = "".join(f"{qembed.predict(scored, x)!r}\n" for x in inputs)
        (out / f"predict-library-{name}.txt").write_text(lines)
    toy = parse_config_file(toy_cfg)
    for name, config in [
        ("toy", toy),
        ("wide", {**toy, "model.n_qubits": 3, "ansatz.layers": 2, "model.readout_qubit": 2}),
        ("encoder", {**default_config(), "model.bypass_encoder": False}),
    ]:
        for seed in (0, 7):
            save_checkpoint(out / f"fresh-{name}-{seed}.ckpt", model_from_config(config, seed=seed))


def _digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file()
    }


def compare(this_dir: Path, parent_dir: Path) -> None:
    this, parent = _digests(this_dir), _digests(parent_dir)
    names = sorted(this.keys() | parent.keys())
    for name in names:
        if name not in parent:
            print(f"{name}: written at this commit only ({this[name]})")
        elif name not in this:
            print(f"{name}: written at the parent commit only ({parent[name]})")
        elif this[name] == parent[name]:
            print(f"{name}: same sha256 as the parent commit ({this[name]})")
        else:
            print(f"{name}: DIFFERS from the parent commit "
                  f"(this {this[name]}, parent {parent[name]})")
    same = sum(this.get(name) == parent.get(name) for name in names)
    print(f"{same} of {len(names)} file(s) have the same sha256 at both commits")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(Path(sys.argv[2]))
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        sys.exit(__doc__)
