"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria:
    1. closed-form feature-map readout on a 1001-point grid (1e-12)
    2. norm conservation over 1000 random circuits (1e-12)
    3. every toy-model gradient vs central finite differences
       (max(1e-6 abs, 1e-4 rel), h = 1e-5, 20 samples)
    4. attention invariants: softmax rows (1e-9), permutation
       equivariance with zero positions (1e-10)
    5. end-to-end learning on the 6-sigma synthetic task (val F1 >= 0.95
       within 200 epochs)
    6. 10-seed benchmark protocol with recomputable median/SD (1e-12) in
       the comparison-table format
    7. bit-identical training runs (history CSV + checkpoint)
    8. single-sample convexity: non-increasing loss, final < 0.01

The published scores of the original large-scale study (median F1 0.774,
SD 0.0052) are deliberately not targets here: they require a private
dataset and pretrained weights. Criterion 6 checks only the protocol and
the table format.
"""
import math

import numpy as np
import pytest

from qembed.benchmark import run_benchmark
from qembed.circuits import AnsatzSpec, FeatureMapSpec, quantum_forward
from qembed.cli import main as cli_main
from qembed.data import EmbeddingRecord, generate_synthetic
from qembed.encoder import EncoderConfig, init_encoder_weights, softmax_rows
from qembed.gradcheck import draw_samples, gradient_check
from qembed.metrics import format_comparison_table, median, population_sd
from qembed.model import make_bypass_model, make_encoder_model
from qembed.statevector import StateVector, apply_gate, cx, h, ry, u1
from qembed.training import TrainingConfig, train

from probe import probe_cache


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_closed_form_feature_map():
    fm = FeatureMapSpec(n_qubits=1, repetitions=2, scale=2.0)
    an = AnsatzSpec(n_qubits=1, layers=0)
    worst = 0.0
    for y in np.linspace(-2 * math.pi, 2 * math.pi, 1001):
        p0 = quantum_forward([y], [0.0], fm, an).p0
        worst = max(worst, abs(p0 - math.cos(y) ** 2))
    report(1, worst < 1e-12, f"max |P(0) - cos^2(y)| = {worst:.3e} over 1001 grid points")


def test_criterion_2_norm_conservation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        for _ in range(int(rng.integers(1, 13))):
            kind = rng.choice(["H", "U1", "RY", "CX"] if n == 2 else ["H", "U1", "RY"])
            q = int(rng.integers(0, n))
            if kind == "CX":
                state = apply_gate(state, cx(q, 1 - q))
            elif kind == "H":
                state = apply_gate(state, h(q))
            elif kind == "U1":
                state = apply_gate(state, u1(q, float(rng.uniform(-7, 7))))
            else:
                state = apply_gate(state, ry(q, float(rng.uniform(-7, 7))))
        worst = max(worst, abs(float(np.linalg.norm(state.amplitudes)) - 1.0))
    report(2, worst < 1e-12, f"max norm drift {worst:.3e} over 1000 random circuits")


def test_criterion_3_gradient_oracle():
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16, out_dim=16)
    model = make_encoder_model(cfg, (4, 4, 1), n_qubits=1, ansatz_layers=1, seed=7)
    rng = np.random.default_rng(7)
    samples = draw_samples(model, 20, rng, image_shape=(4, 4, 1))
    ok, groups = gradient_check(model, samples, h=1e-5, abs_tol=1e-6, rel_tol=1e-4)
    worst_abs = max(g.max_abs_dev for g in groups.values())
    checked = sum(g.checked for g in groups.values())
    report(3, ok, f"{checked} gradient entries checked, worst abs dev {worst_abs:.3e}")


def test_criterion_4_attention_invariants():
    rng = np.random.default_rng(4)
    rows_ok = True
    for _ in range(200):
        weights = softmax_rows(rng.normal(scale=4.0, size=(4, 4)))
        rows_ok &= bool(np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-9))

    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16,
                        use_class_token=False)
    enc = init_encoder_weights(cfg, (4, 4, 1), rng)
    perm_ok = True
    for _ in range(20):
        x = rng.normal(size=(4, 8))
        perm = rng.permutation(4)
        delta = (probe_cache(x[perm], enc.layers, cfg.heads).top
                 - probe_cache(x, enc.layers, cfg.heads).top[perm])
        perm_ok &= bool(np.max(np.abs(delta)) < 1e-10)
    report(4, rows_ok and perm_ok,
           "softmax rows sum to 1 (1e-9); permutation equivariance (1e-10)")


def test_criterion_5_end_to_end_learning():
    dataset = generate_synthetic(200, 16, 6.0, seed=0)
    model = make_bypass_model(in_dim=16, n_qubits=1, ansatz_layers=1, seed=0)
    config = TrainingConfig(
        learning_rate=0.05, max_epochs=200, batch_size=16, optimizer="adam",
        seed=0, patience=25, min_delta=1e-4, validation_fraction=0.2,
    )
    model, history = train(dataset, model, config)
    best = history.records[history.best_epoch]
    report(5, best.val_f1 >= 0.95,
           f"validation F1 {best.val_f1:.4f} after {len(history.records)} epoch(s) "
           f"(6-sigma clusters bound error near 0.13%)")


def test_criterion_6_benchmark_protocol():
    seeds = list(range(10))
    summary = run_benchmark(
        make_dataset=lambda seed: generate_synthetic(200, 16, 6.0, seed),
        make_model=lambda seed: make_bypass_model(in_dim=16, n_qubits=1, ansatz_layers=1, seed=seed),
        config=TrainingConfig(
            learning_rate=0.05, max_epochs=120, batch_size=16, optimizer="adam",
            patience=20, min_delta=1e-4, validation_fraction=0.2,
        ),
        seeds=seeds,
        method="Transformer-based",
    )
    recompute_ok = (
        abs(summary.median_f1 - median(summary.f1_scores)) < 1e-12
        and abs(summary.sd_f1 - population_sd(summary.f1_scores)) < 1e-12
        and summary.seeds == tuple(seeds)
    )
    table = format_comparison_table([
        (summary.method, summary.sd_f1, summary.median_f1),
        ("Classical Baseline", 0.0370, 0.728),  # externally supplied row
    ])
    table_ok = "Method" in table and "Standard Deviation" in table and "Median F1" in table
    print(table)
    report(6, recompute_ok and table_ok,
           f"10-seed sweep: median F1 {summary.median_f1:.3f}, SD {summary.sd_f1:.4f}, "
           f"both recomputable from the per-seed list")


def test_criterion_7_training_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--n", "60", "--d", "4", "--sep", "6", "--seed", "5",
                     "--out", str(data)]) == 0
    outputs = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.ckpt"
        hist = tmp_path / f"history_{run}.csv"
        code = cli_main([
            "train", "--data", str(data), "--seed", "5",
            "--set", "train.epochs=10", "--set", "train.optimizer=adam",
            "--set", "train.lr=0.05", "--set", "train.batch=8",
            "--out", str(ckpt), "--history", str(hist),
        ])
        assert code == 0
        outputs.append((ckpt.read_bytes(), hist.read_bytes()))
    same = outputs[0] == outputs[1]
    report(7, same, "two identical runs produced bit-identical checkpoint and history")


def test_criterion_8_convexity_sanity():
    model = make_bypass_model(in_dim=2, n_qubits=1, ansatz_layers=0, seed=8)
    dataset = [EmbeddingRecord(id="only", features=np.array([1.0, 0.5]), label=1)]
    config = TrainingConfig(
        learning_rate=0.05, max_epochs=500, batch_size=1, optimizer="sgd",
        seed=8, patience=500, min_delta=0.0, validation_fraction=0.0,
    )
    model, history = train(dataset, model, config)
    losses = [r.train_loss for r in history.records]
    monotone = all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    final = history.records[history.best_epoch].val_loss
    report(8, monotone and final < 0.01,
           f"loss non-increasing over {len(losses)} epochs, final {final:.2e}")
