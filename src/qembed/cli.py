"""Command-line surface: train, eval, predict, benchmark, gradcheck, synth,
dump-circuit.

Exit status: 0 on success, 1 on validation or tolerance failure (bad data
files, failed gradient check, missed --min-f1), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .benchmark import run_benchmark
from .checkpoint import load_checkpoint, save_checkpoint
from .circuits import build_real_amplitudes, build_z_feature_map, serialize_gates
from .config import (
    image_shape_from,
    load_config,
    model_from_config,
    specs_from,
    training_config_from,
)
from .data import generate_synthetic, load_embeddings, write_embeddings
from .gradcheck import DEFAULT_ABS_TOL, DEFAULT_H, DEFAULT_REL_TOL
from .gradcheck import draw_samples, format_report, gradient_check
from .metrics import format_comparison_table
from .model import readout_p0
from .training import decide_label, evaluate, train


def _load_config(args) -> dict:
    return load_config(args.config, args.set or [])


def _finite_float(text: str) -> float:
    """A threshold's argparse type: nan would pass every comparison."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A --seed flag's argparse type: numpy's generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _cmd_synth(args) -> int:
    records = generate_synthetic(args.n, args.d, args.sep, args.seed)
    write_embeddings(args.out, records)
    print(f"wrote {len(records)} records of dimension {args.d} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.seed is not None:
        config["train.seed"] = args.seed
    if not config["model.bypass_encoder"]:
        raise ValueError(
            "CLI training consumes embedding CSVs; set model.bypass_encoder = true "
            "(encoder models are trained through the library API)"
        )
    dataset = load_embeddings(args.data)
    model = model_from_config(config, seed=config["train.seed"], in_dim=len(dataset[0].features))
    train_config = training_config_from(config)
    model, history = train(dataset, model, train_config)
    save_checkpoint(args.out, model)
    history.write_csv(args.history)
    best = history.records[history.best_epoch]
    print(
        f"trained {len(history.records)} epoch(s); best epoch {best.epoch}: "
        f"val_loss={best.val_loss:.6f} val_f1={best.val_f1:.4f}"
    )
    print(f"checkpoint: {args.out}")
    print(f"history: {args.history}")
    return 0


def _load_scoring_inputs(args):
    """(model, dataset) of --checkpoint and --data, rejected at load time
    unless the model is a bypass model taking the CSV's width."""
    model = load_checkpoint(args.checkpoint)
    if not model.bypass:
        # v1 checkpoints record no image H x W to reshape a flat CSV row with
        raise ValueError(
            f"{args.checkpoint}: encoder checkpoint; the CLI scores embedding CSVs with bypass "
            "models only (encoder models are scored through the library API)"
        )
    dataset = load_embeddings(args.data)
    width = len(dataset[0].features)
    if width != model.reduction.in_dim:
        raise ValueError(
            f"{args.data}: {width} feature column(s), but checkpoint {args.checkpoint} "
            f"has in_dim {model.reduction.in_dim}"
        )
    return model, dataset


def _cmd_eval(args) -> int:
    model, dataset = _load_scoring_inputs(args)
    report = evaluate(model, dataset)
    print(json.dumps(report.to_dict(), indent=2))
    if args.min_f1 is not None and report.f1 < args.min_f1:
        print(f"F1 {report.f1:.4f} below required {args.min_f1}", file=sys.stderr)
        return 1
    return 0


def _cmd_predict(args) -> int:
    model, dataset = _load_scoring_inputs(args)
    p0s = readout_p0(model, [rec.features for rec in dataset])
    lines = ["id,label,p0,p1"]
    # one float per row as it is written: a list of every row's float held
    # beside `lines` raised the peak RSS of a 20 000-row predict by about 1 MiB
    for rec, p0 in zip(dataset, map(float, p0s)):
        lines.append(f"{rec.id},{decide_label(p0)},{p0!r},{1.0 - p0!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(dataset)} prediction(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _list_flag(flag: str, text: str, kind, what: str) -> list:
    """The comma-separated entries of `flag`'s value `text`, each read by
    `kind`; an empty value or entry is rejected, as a bad one is, naming
    the flag."""
    try:
        return [kind(entry) for entry in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _comparison_row(text: str) -> tuple[str, float, float]:
    """One --row value, 'Label,sd,median' with a finite SD and median."""
    try:
        label, sd, median = text.split(",")
        return label, _finite_float(sd), _finite_float(median)
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise ValueError(f"--row expects 'Label,sd,median' with a finite sd and median, got {text!r}")


def _at_least(flag: str, value: int, least: int) -> int:
    """A count flag's value, rejected below `least` with the flag's name."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    return value


def _separation(text: str) -> float:
    """--synth-sep's value: a finite distance, 0 or more."""
    try:
        value = _finite_float(text)
    except argparse.ArgumentTypeError:
        value = -1.0
    if value < 0.0:
        raise ValueError(f"--synth-sep must be a finite number >= 0, got {text!r}")
    return value


def _cmd_benchmark(args) -> int:
    config = _load_config(args)
    if not config["model.bypass_encoder"]:
        raise ValueError("benchmark runs on embedding CSVs or synthetic vectors only")
    rows = [_comparison_row(text) for text in args.row or []]
    if args.seeds is None:
        n_seeds = 10 if args.n_seeds is None else _at_least("--n-seeds", args.n_seeds, 2)
        seeds = list(range(n_seeds))
    else:
        seeds = _list_flag("--seeds", args.seeds, int, "integers")
    if args.data:
        fixed = load_embeddings(args.data)
        make_dataset = lambda seed: fixed  # noqa: E731 - data fixed, seed drives init/shuffle
        dim = len(fixed[0].features)
    else:
        n = _at_least("--synth-n", args.synth_n, 2)
        dim = _at_least("--synth-d", args.synth_d, 1)
        separation = _separation(args.synth_sep)
        make_dataset = lambda seed: generate_synthetic(n, dim, separation, seed)  # noqa: E731
    make_model = lambda seed: model_from_config(config, seed=seed, in_dim=dim)  # noqa: E731
    summary = run_benchmark(
        make_dataset,
        make_model,
        training_config_from(config),
        seeds,
        method=args.method,
        history_dir=args.history_dir,
    )
    print(json.dumps(summary.to_dict(), indent=2))
    print()
    print(format_comparison_table([(summary.method, summary.sd_f1, summary.median_f1), *rows]))
    return 0


def _cmd_gradcheck(args) -> int:
    config = _load_config(args)
    model = model_from_config(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    image_shape = None if config["model.bypass_encoder"] else image_shape_from(config)
    samples = draw_samples(model, args.samples, rng, image_shape=image_shape)
    ok, groups = gradient_check(
        model, samples, h=args.h, abs_tol=args.abs_tol, rel_tol=args.rel_tol
    )
    print(format_report(groups))
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


def _cmd_dump_circuit(args) -> int:
    config = _load_config(args)
    fm, an = specs_from(config)
    features = _list_flag("--features", args.features, float, "numbers")
    if args.theta is None:
        theta = [0.0] * an.parameter_count()
    else:
        theta = _list_flag("--theta", args.theta, float, "numbers")
    gates = build_z_feature_map(features, fm) + build_real_amplitudes(theta, an)
    print(serialize_gates(gates))
    return 0


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qembed",
        description="Hybrid quantum-classical binary classifier toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="write a synthetic two-cluster embedding CSV")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--d", type=int, required=True, help="feature dimension")
    p.add_argument("--sep", type=float, default=6.0, help="cluster mean separation")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train on an embedding CSV")
    p.add_argument("--data", required=True, help="embedding CSV")
    _add_config_flags(p)
    p.add_argument("--seed", type=_seed, help="override train.seed")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--history", default="history.csv", help="history CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--min-f1", type=_finite_float, help="exit 1 when F1 falls below this")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="per-record label and probabilities")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("benchmark", help="multi-seed sweep with median-F1/SD summary")
    p.add_argument("--data", help="fixed embedding CSV (else synthetic per seed)")
    p.add_argument("--synth-n", type=int, default=200)
    p.add_argument("--synth-d", type=int, default=16)
    p.add_argument("--synth-sep", default="6.0")
    _add_config_flags(p)
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", help="comma-separated seed list")
    # no default: argparse counts a flag set to its default as absent
    seeds.add_argument("--n-seeds", type=int, help="use seeds 0..n-1 (default 10)")
    p.add_argument("--method", default="Transformer-based", help="label for the table row")
    p.add_argument(
        "--row",
        action="append",
        metavar="LABEL,SD,MEDIAN",
        help="extra externally supplied comparison row (repeatable)",
    )
    p.add_argument("--history-dir", help="write per-seed history CSVs here")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    _add_config_flags(p)
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--h", type=float, default=DEFAULT_H)
    p.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-circuit", help="print the gate list as plain text")
    p.add_argument("--features", required=True, help="comma-separated feature values")
    p.add_argument("--theta", help="comma-separated ansatz angles (default zeros)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_dump_circuit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
