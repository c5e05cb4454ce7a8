"""CLI surface: subcommands, config files, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qembed.checkpoint import save_checkpoint
from qembed.cli import main
from qembed.config import apply_overrides, default_config, parse_config_file
from qembed.data import load_embeddings
from qembed.encoder import EncoderConfig
from qembed.model import make_bypass_model, make_encoder_model
from qembed.training import predict

TOY_CFG = """
# toy training setup
model.bypass_encoder = true
model.n_qubits = 1
fm.reps = 2
fm.scale = 2.0
ansatz.layers = 1
train.optimizer = adam
train.lr = 0.05
train.epochs = 30
train.batch = 16
train.patience = 30
train.seed = 1
"""


def write_cfg(tmp_path, text=TOY_CFG, name="toy.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_config_defaults_and_file(tmp_path):
    cfg = parse_config_file(write_cfg(tmp_path))
    assert cfg["train.optimizer"] == "adam"
    assert cfg["train.lr"] == 0.05
    assert cfg["fm.scale"] == 2.0
    assert cfg["train.min_delta"] == default_config()["train.min_delta"]


def test_config_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "train.lrr = 0.1\n")
    with pytest.raises(ValueError, match="train.lrr"):
        parse_config_file(path)


def test_config_bad_bool_rejected(tmp_path):
    path = write_cfg(tmp_path, "model.bypass_encoder = yes\n")
    with pytest.raises(ValueError, match="true or false"):
        parse_config_file(path)


@pytest.mark.parametrize("text, lineno, message", [
    ("# tuned\ntrain.lr = 0.1\ntrain.epochz = 3\n", 3, "unknown config key 'train.epochz'"),
    ("fm.reps = 2\n\nfm.reps = two\n", 3, "fm.reps: cannot parse 'two' as int"),
    ("model.bypass_encoder = yes  # comment\n", 1, "expected true or false, got 'yes'"),
    ("train.lr = 0.1\nfm.reps = 2\ntrain.lr=0.5\n", 3,
     "duplicate key 'train.lr' (first set on line 1)"),
], ids=["unknown-key", "bad-int", "bad-bool", "repeated-key"])
def test_config_error_names_file_and_line(tmp_path, text, lineno, message):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value).startswith(f"{path}:{lineno}: "), str(info.value)
    assert message in str(info.value)


def test_config_overrides():
    cfg = apply_overrides(default_config(), ["train.lr=0.2", "encoder.depth=3"])
    assert cfg["train.lr"] == 0.2
    assert cfg["encoder.depth"] == 3
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(default_config(), ["nope=1"])


# ---------------------------------------------------------------------------
# Usage errors
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["synth", "--n", "10", "--d", "2", "--out", "x.csv", "--bogus"]) == 2


# ---------------------------------------------------------------------------
# synth / train / eval / predict
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = main(["synth", "--n", "30", "--d", "4", "--sep", "6", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    records = load_embeddings(out)
    assert len(records) == 30
    assert len(records[0].features) == 4


def test_module_entry_point_runs_the_cli(tmp_path):
    out = tmp_path / "x.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-m", "qembed.cli", "synth", "--n", "4", "--d", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert len(load_embeddings(out)) == 4


def test_package_entry_point_runs_the_cli(tmp_path):
    out = tmp_path / "x.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-m", "qembed", "synth", "--n", "4", "--d", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert len(load_embeddings(out)) == 4


def test_synth_invalid_size_fails_validation(tmp_path, capsys):
    assert main(["synth", "--n", "1", "--d", "4", "--out", str(tmp_path / "x.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_synth_rejects_non_finite_separation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "--n", "10", "--d", "2", "--sep", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: separation must be finite and >= 0, got nan\n"
    assert not out.exists()


def test_train_eval_predict_round_trip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ckpt = tmp_path / "model.ckpt"
    hist = tmp_path / "history.csv"
    assert main(["synth", "--n", "200", "--d", "16", "--sep", "6", "--seed", "1",
                 "--out", str(data)]) == 0
    cfg = write_cfg(tmp_path)
    assert main(["train", "--data", str(data), "--config", cfg,
                 "--out", str(ckpt), "--history", str(hist)]) == 0
    assert ckpt.exists() and hist.exists()
    header = hist.read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,val_f1,grad_norm"
    capsys.readouterr()

    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] > 0.9
    assert set(report["confusion"]) == {"tp", "fp", "tn", "fn"}

    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--min-f1", "0.999999"]) in (0, 1)  # depends on run; must not crash
    capsys.readouterr()

    pred_out = tmp_path / "preds.csv"
    assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(pred_out)]) == 0
    lines = pred_out.read_text().splitlines()
    assert lines[0] == "id,label,p0,p1"
    assert len(lines) == 201


@pytest.mark.parametrize("n_qubits", [1, 3])
def test_predict_csv_matches_library_predict_per_row(tmp_path, capsys, n_qubits):
    data = tmp_path / "data.csv"
    ckpt = tmp_path / "model.ckpt"
    pred = tmp_path / "pred.csv"
    assert main(["synth", "--n", "300", "--d", "5", "--seed", "4", "--out", str(data)]) == 0
    model = make_bypass_model(in_dim=5, n_qubits=n_qubits, ansatz_layers=2, seed=4,
                              readout_qubit=n_qubits - 1)
    save_checkpoint(ckpt, model)
    assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(pred)]) == 0
    lines = ["id,label,p0,p1"]
    for rec in load_embeddings(data):
        label, p0, p1 = predict(model, rec.features)
        lines.append(f"{rec.id},{label},{p0!r},{p1!r}")
    assert pred.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_scoring_rejects_csv_width_at_load(tmp_path, capsys, command):
    data = tmp_path / "wide.csv"
    ckpt = tmp_path / "model.ckpt"
    assert main(["synth", "--n", "10", "--d", "4", "--out", str(data)]) == 0
    save_checkpoint(ckpt, make_bypass_model(in_dim=3, seed=0))
    capsys.readouterr()
    assert main([command, "--data", str(data), "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {data}: 4 feature column(s), but checkpoint {ckpt} has in_dim 3\n"
    )


def test_eval_min_f1_failure_exit_code(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ckpt = tmp_path / "model.ckpt"
    main(["synth", "--n", "40", "--d", "4", "--sep", "0", "--seed", "3", "--out", str(data)])
    cfg = write_cfg(tmp_path, TOY_CFG.replace("train.epochs = 30", "train.epochs = 2"))
    assert main(["train", "--data", str(data), "--config", cfg, "--out", str(ckpt),
                 "--history", str(tmp_path / "h.csv")]) == 0
    # inseparable data cannot reach F1 = 1.0
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--min-f1", "1.0"]) == 1


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "high"])
def test_eval_rejects_a_min_f1_that_is_not_finite_before_reading_the_checkpoint(
    tmp_path, capsys, threshold
):
    """F1 < nan is False, so a nan threshold would pass any model."""
    code = main(["eval", "--data", str(tmp_path / "none.csv"),
                 "--checkpoint", str(tmp_path / "none.ckpt"), f"--min-f1={threshold}"])
    assert code != 0
    err = capsys.readouterr().err
    assert f"argument --min-f1: expected a finite number, got '{threshold}'" in err
    assert "none.ckpt" not in err


@pytest.mark.parametrize("command", [
    ["train", "--data", "none.csv"],
    ["benchmark", "--data", "none.csv"],
    ["gradcheck"],
    ["dump-circuit", "--features", "0.5"],
])
@pytest.mark.parametrize("line, key, message", [
    ("train.batch = 0", "train.batch", "batch_size must be >= 1, got 0"),
    ("model.n_qubits = 0", "model.n_qubits", "n_qubits must be in [1, 20], got 0"),
    ("fm.reps = 0", "fm.reps", "repetitions must be >= 1, got 0"),
    ("ansatz.layers = -1", "ansatz.layers", "layers must be >= 0, got -1"),
    ("model.readout_qubit = 5", "model.readout_qubit", "readout_qubit must be in [0, 1), got 5"),
    ("model.readout_qubit = -1", "model.readout_qubit",
     "readout_qubit must be in [0, 1), got -1"),
    ("reduction.in_dim = 0", "reduction.in_dim", "in_dim must be at least 1, got 0"),
    ("train.seed = -1", "train.seed", "seed must be >= 0, got -1"),
    ("train.lr = inf", "train.lr", "learning_rate must be finite and >= 0, got inf"),
    ("train.lr = nan", "train.lr", "learning_rate must be finite and >= 0, got nan"),
    ("train.lr = -0.1", "train.lr", "learning_rate must be finite and >= 0, got -0.1"),
    ("train.epochs = 0", "train.epochs", "max_epochs must be >= 1, got 0"),
    ("train.optimizer = rmsprop", "train.optimizer",
     "optimizer must be one of ('sgd', 'sgd-momentum', 'adam'), got 'rmsprop'"),
    ("train.momentum = 1", "train.momentum", "momentum must be in [0, 1), got 1.0"),
    ("train.beta1 = -0.5", "train.beta1", "adam_beta1 must be in [0, 1), got -0.5"),
    ("train.beta2 = 1.5", "train.beta2", "adam_beta2 must be in [0, 1), got 1.5"),
    ("train.adam_eps = 0", "train.adam_eps", "adam_eps must be finite and > 0, got 0.0"),
    ("train.patience = 0", "train.patience", "patience must be >= 1, got 0"),
    ("train.min_delta = -1", "train.min_delta", "min_delta must be finite and >= 0, got -1.0"),
    ("train.val_fraction = 1", "train.val_fraction",
     "validation_fraction must be in [0, 1), got 1.0"),
    ("fm.scale = 0", "fm.scale", "scale must be finite and nonzero, got 0.0"),
    # encoder keys are checked for encoder models only (model.bypass_encoder = false)
    ("encoder.patch = 0", "encoder.patch", "patch_size must be >= 1, got 0"),
    ("encoder.dim = 0", "encoder.dim", "embed_dim must be >= 1, got 0"),
    ("encoder.depth = -1", "encoder.depth", "layers must be >= 0, got -1"),
    ("encoder.heads = 0", "encoder.heads", "heads must be >= 1, got 0"),
    ("encoder.ffn_hidden = 0", "encoder.ffn_hidden", "ffn_hidden must be >= 1, got 0"),
    ("encoder.out_dim = 0", "encoder.out_dim", "out_dim must be >= 1, got 0"),
])
def test_config_values_out_of_range_fail_at_load_time(tmp_path, capsys, monkeypatch,
                                                      command, line, key, message):
    """Every command that takes a config rejects a value out of range before
    it reads any data file, naming the key and the file line that set it;
    a --set value is named by its key alone."""
    monkeypatch.chdir(tmp_path)
    bypass = "false" if key.startswith("encoder.") else "true"
    cfg = write_cfg(tmp_path, f"# run\nmodel.bypass_encoder = {bypass}\n{line}\n")
    assert main([*command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:3: {message} (config key {key})\n"
    assert captured.out == ""
    assert main([*command, "--config", cfg, "--set", line.replace(" ", "")]) == 1
    assert capsys.readouterr().err == f"error: {message} (config key {key})\n"


@pytest.mark.parametrize("command", [
    ["gradcheck", "--samples", "1"],
    ["dump-circuit", "--features", "0.5"],
])
@pytest.mark.parametrize("line, key, message, shape", [
    ("encoder.image_h = 0", "encoder.image_h", "image_h must be >= 1, got 0", (0, 4, 1)),
    ("encoder.image_w = -2", "encoder.image_w", "image_w must be >= 1, got -2", (4, -2, 1)),
    ("encoder.channels = 0", "encoder.channels", "channels must be >= 1, got 0", (4, 4, 0)),
    ("encoder.image_h = 3", "encoder.image_h", "image_h 3 must be divisible by patch_size 2",
     (3, 4, 1)),
    ("encoder.image_w = 5", "encoder.image_w", "image_w 5 must be divisible by patch_size 2",
     (4, 5, 1)),
])
def test_encoder_image_shape_out_of_range_fails_at_load_time(tmp_path, capsys, monkeypatch,
                                                             command, line, key, message, shape):
    """An encoder model's image height, width and channels are each at
    least 1, and the height and width divide by encoder.patch; a bad one
    is named by its key, after the file line that set it."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, f"# run\nmodel.bypass_encoder = false\n{line}\n")
    assert main([*command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:3: {message} (config key {key})\n"
    assert captured.out == ""
    overrides = ["--set", "model.bypass_encoder=false", "--set", line.replace(" ", "")]
    assert main([*command, *overrides]) == 1
    assert capsys.readouterr().err == f"error: {message} (config key {key})\n"
    # the library's builder keeps the same ranges
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=1, heads=2, ffn_hidden=16)
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_encoder_model(cfg, shape)


def test_encoder_config_values_fail_at_load_time(capsys):
    code = main(["gradcheck", "--set", "model.bypass_encoder=false", "--set", "encoder.heads=3"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: embed_dim 8 must be divisible by heads 3 (config key encoder.dim)\n"
    )
    # a bypass model builds no encoder, so its encoder keys are not checked
    assert main(["dump-circuit", "--features", "0.5", "--set", "encoder.heads=3"]) == 0
    # nor does an encoder model's reduction read reduction.in_dim
    assert main(["dump-circuit", "--features", "0.5", "--set", "model.bypass_encoder=false",
                 "--set", "reduction.in_dim=0"]) == 0


def test_train_refuses_encoder_mode(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "20", "--d", "4", "--out", str(data)])
    code = main(["train", "--data", str(data), "--set", "model.bypass_encoder=false",
                 "--out", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")])
    assert code == 1
    assert "bypass_encoder" in capsys.readouterr().err


def test_train_rejects_more_qubits_than_the_simulator_holds(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "20", "--d", "4", "--out", str(data)])
    capsys.readouterr()
    cfg = write_cfg(tmp_path, TOY_CFG.replace("model.n_qubits = 1", "model.n_qubits = 21"))
    out = tmp_path / "m.ckpt"
    code = main(["train", "--data", str(data), "--config", cfg, "--out", str(out),
                 "--history", str(tmp_path / "h.csv")])
    assert code == 1
    assert "n_qubits must be in [1, 20], got 21" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, field", [
    (["train.momentum=nan"], "momentum"),
    (["train.optimizer=adam", "train.beta2=1.0"], "adam_beta2"),
    (["train.min_delta=nan"], "min_delta"),
])
def test_train_rejects_invalid_optimizer_values_by_name(tmp_path, capsys, overrides, field):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "20", "--d", "4", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    sets = [arg for value in ["train.epochs=30", *overrides] for arg in ("--set", value)]
    code = main(["train", "--data", str(data), *sets, "--out", str(out),
                 "--history", str(tmp_path / "h.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()


def test_train_unknown_config_key_fails(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--n", "20", "--d", "4", "--out", str(data)])
    cfg = write_cfg(tmp_path, "train.turbo = on\n")
    assert main(["train", "--data", str(data), "--config", cfg]) == 1
    assert "train.turbo" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark / gradcheck / dump-circuit
# ---------------------------------------------------------------------------

def test_benchmark_synthetic_sweep(tmp_path, capsys):
    runs = tmp_path / "runs"
    code = main([
        "benchmark", "--synth-n", "30", "--synth-d", "3", "--synth-sep", "6",
        "--seeds", "0,1,2", "--set", "train.epochs=5", "--set", "train.optimizer=adam",
        "--set", "train.lr=0.05", "--set", "train.batch=8",
        "--method", "toy-run", "--row", "External Baseline,0.0370,0.728",
        "--history-dir", str(runs),
    ])
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out[: out.index("}\n") + 1] + "")  # first JSON object
    assert summary["runs"] == 3
    assert "Median F1" in out and "toy-run" in out and "External Baseline" in out
    assert sorted(p.name for p in runs.iterdir()) == [
        "history_seed0.csv", "history_seed1.csv", "history_seed2.csv",
    ]


def test_benchmark_fixed_dataset(tmp_path, capsys):
    data = tmp_path / "fixed.csv"
    main(["synth", "--n", "24", "--d", "3", "--sep", "6", "--seed", "9", "--out", str(data)])
    capsys.readouterr()
    code = main([
        "benchmark", "--data", str(data), "--seeds", "0,1",
        "--set", "train.epochs=4", "--set", "train.optimizer=adam",
        "--set", "train.lr=0.05", "--set", "train.batch=8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert '"runs": 2' in out


def test_benchmark_rejects_repeated_seed(capsys):
    code = main(["benchmark", "--seeds", "1,2,1", "--synth-n", "20", "--synth-d", "3",
                 "--set", "train.epochs=1"])
    assert code == 1
    assert "error: seed 1 is listed more than once" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, message", [
    ("-1,2", "seed must be >= 0, got -1"),
    ("1,x", "--seeds expects comma-separated integers, got '1,x'"),
    ("", "--seeds expects comma-separated integers, got ''"),
    ("1,,2", "--seeds expects comma-separated integers, got '1,,2'"),
    ("1,2,", "--seeds expects comma-separated integers, got '1,2,'"),
], ids=["negative", "not-an-integer", "empty", "empty-entry", "trailing-comma"])
def test_benchmark_rejects_a_bad_seed_before_any_run(seeds, message, tmp_path, capsys):
    history = tmp_path / "runs"
    code = main(["benchmark", f"--seeds={seeds}", "--synth-n", "20", "--synth-d", "3",
                 "--set", "train.epochs=1", "--history-dir", str(history)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not history.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--n-seeds", "-3", "--n-seeds must be >= 2, got -3"),
    ("--synth-n", "0", "--synth-n must be >= 2, got 0"),
    ("--synth-d", "0", "--synth-d must be >= 1, got 0"),
    ("--synth-sep", "nan", "--synth-sep must be a finite number >= 0, got 'nan'"),
], ids=["n-seeds", "synth-n", "synth-d", "synth-sep"])
def test_benchmark_rejects_a_bad_count_before_any_run(flag, value, message, tmp_path, capsys,
                                                      monkeypatch):
    """A bad count or separation is named by its flag before the sweep
    starts: no seed trains and no worker is forked."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("qembed.cli.run_benchmark", no_sweep)
    history = tmp_path / "runs"
    code = main(["benchmark", "--synth-n", "20", "--synth-d", "3", "--set", "train.epochs=1",
                 "--history-dir", str(history), f"{flag}={value}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not history.exists()


@pytest.mark.parametrize("n_seeds", ["5", "10"])
def test_benchmark_takes_seeds_or_n_seeds_not_both(n_seeds, tmp_path, capsys):
    """--n-seeds 10 names the default count, and is refused beside --seeds too."""
    history = tmp_path / "runs"
    code = main(["benchmark", "--seeds", "3,4", "--n-seeds", n_seeds, "--synth-n", "20",
                 "--synth-d", "3", "--set", "train.epochs=1", "--history-dir", str(history)])
    assert code == 2
    captured = capsys.readouterr()
    assert "argument --n-seeds: not allowed with argument --seeds" in captured.err
    assert captured.out == "" and not history.exists()


@pytest.mark.parametrize("command", [
    ["synth", "--n", "10", "--d", "2", "--out", "x.csv"],
    ["train", "--data", "none.csv"],
    ["gradcheck"],
], ids=["synth", "train", "gradcheck"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_flags_take_a_non_negative_integer(command, seed, tmp_path, capsys, monkeypatch):
    """A bad --seed is a usage error naming the flag, before any file is
    read or written."""
    monkeypatch.chdir(tmp_path)
    assert main([*command, f"--seed={seed}"]) == 2
    captured = capsys.readouterr()
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("row", [
    "Paper,nan,0.9", "Paper,0.05,inf", "Paper,-inf,0.9", "Paper,0.05", "Paper,x,0.9",
])
def test_benchmark_rejects_a_row_without_a_finite_sd_and_median(row, capsys):
    """A bad --row is named before any seed trains, and no table prints."""
    code = main(["benchmark", "--seeds", "0", "--synth-n", "20", "--synth-d", "3",
                 "--set", "train.epochs=1", "--row", "Baseline,0.04,0.7", "--row", row])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --row expects 'Label,sd,median' with a finite sd and median, got {row!r}\n"
    )
    assert captured.out == ""


def test_gradcheck_bypass_passes(capsys):
    code = main(["gradcheck", "--set", "model.bypass_encoder=true",
                 "--set", "reduction.in_dim=5", "--seed", "7", "--samples", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reduction.w" in out and "ansatz.theta" in out
    assert "gradient check passed" in out


def test_gradcheck_encoder_passes(capsys):
    code = main(["gradcheck", "--set", "model.bypass_encoder=false",
                 "--set", "encoder.dim=4", "--set", "encoder.depth=1",
                 "--set", "encoder.heads=1", "--set", "encoder.ffn_hidden=4",
                 "--set", "encoder.out_dim=4", "--seed", "7", "--samples", "1"])
    assert code == 0
    assert "encoder.layer.0.attn.wq" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--set", "reduction.in_dim=-1"], "in_dim must be at least 1, got -1"),
    (["--set", "reduction.in_dim=0"], "in_dim must be at least 1, got 0"),
    (["--samples", "0"], "at least 1 sample, got 0"),
    (["--h", "0"], "h must be finite and > 0, got 0.0"),
    (["--abs-tol", "nan"], "abs_tol must be finite and >= 0, got nan"),
    (["--rel-tol", "-1"], "rel_tol must be finite and >= 0, got -1.0"),
], ids=["in-dim-negative", "in-dim-zero", "zero-samples", "h-zero", "abs-tol-nan", "rel-tol-negative"])
def test_gradcheck_rejects_non_positive_sizes(argv, message, capsys):
    code = main(["gradcheck", *argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "gradient check passed" not in captured.out


def test_gradcheck_names_h_when_a_shift_makes_features_non_finite(capsys):
    """Every sample's features are finite; only a +-h shift overflows them,
    so the error names the shifted scalar and h, not a sample. The one
    error line is all of stderr: no numpy overflow warning is printed."""
    code = main(["gradcheck", "--set", "reduction.in_dim=5", "--seed", "7",
                 "--samples", "2", "--h", "1e308"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: shifting reduction.w scalar 1 by h=1e+308: features must be finite\n"
    )
    assert "gradient check passed" not in captured.out


def test_gradcheck_names_an_encoder_shift_that_overflows(capsys):
    """A shift that overflows the encoder's intermediates is named by the one
    error line, which is all of stderr: no numpy warning comes first."""
    code = main(["gradcheck", "--set", "model.bypass_encoder=false", "--samples", "1",
                 "--h", "1e160"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: shifting encoder.patch_projection scalar 1 by h=1e+160: features must be finite\n"
    )
    assert "gradient check passed" not in captured.out


def test_dump_circuit_text(capsys):
    code = main(["dump-circuit", "--features", "0.7", "--set", "ansatz.layers=0",
                 "--theta", "0.3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "H 0",
        "U1 0 1.4",
        "H 0",
        "U1 0 1.4",
        "RY 0 0.3",
    ]


@pytest.mark.parametrize("flags, message", [
    (["--features", ""], "--features expects comma-separated numbers, got ''"),
    (["--features", "0.5,,"], "--features expects comma-separated numbers, got '0.5,,'"),
    (["--features", "0.5", "--theta", ""], "--theta expects comma-separated numbers, got ''"),
    (["--features", "0.5", "--theta", "0.1,,0.2"],
     "--theta expects comma-separated numbers, got '0.1,,0.2'"),
    (["--features", "0.5", "--theta", "0.1,x"],
     "--theta expects comma-separated numbers, got '0.1,x'"),
], ids=["empty-features", "empty-feature-entry", "empty-theta", "empty-theta-entry",
        "theta-not-a-number"])
def test_dump_circuit_rejects_an_empty_value_or_entry(flags, message, capsys):
    """An empty --theta is not read as a missing one (all-zero angles), and
    no empty entry is dropped."""
    assert main(["dump-circuit", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_dump_circuit_two_qubits(capsys):
    code = main(["dump-circuit", "--features", "0.5,0.25",
                 "--set", "model.n_qubits=2", "--set", "fm.reps=1",
                 "--set", "ansatz.layers=1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["H 0", "U1 0 1.0", "H 1", "U1 1 0.5"]
    assert "CX 0 1" in lines


def test_predict_on_malformed_checkpoint_fails_with_path(tmp_path, capsys):
    data = tmp_path / "data.csv"
    ckpt = tmp_path / "model.ckpt"
    assert main(["synth", "--n", "10", "--d", "3", "--out", str(data)]) == 0
    save_checkpoint(ckpt, make_bypass_model(in_dim=3, seed=0))
    text = ckpt.read_text()
    ckpt.write_text(text.replace("param ansatz.theta 2\n", "param ansatz.theta 2\nnan "))
    capsys.readouterr()
    assert main(["predict", "--data", str(data), "--checkpoint", str(ckpt)]) == 1
    assert f"{ckpt}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_encoder_checkpoint_is_rejected_at_load(tmp_path, capsys, command):
    ckpt = tmp_path / "enc.ckpt"
    config = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=8)
    save_checkpoint(ckpt, make_encoder_model(config, (4, 4, 1), seed=0))
    data = tmp_path / "data.csv"
    assert main(["synth", "--n", "10", "--d", "16", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main([command, "--data", str(data), "--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {ckpt}: encoder checkpoint" in captured.err
    assert "library API" in captured.err
