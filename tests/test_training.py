"""Training loop: determinism, convergence, early stopping, batching."""
import math

import numpy as np
import pytest

import qembed.model as model_module
from qembed.data import EmbeddingRecord
from qembed.model import (
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
    readout_p0,
)
from qembed.autodiff import backward, bce_loss
from qembed.encoder import EncoderConfig
from qembed.metrics import compute_metrics
from qembed.training import (
    TrainingConfig,
    _mean_loss_and_f1,
    decide_label,
    evaluate,
    predict,
    stratified_split,
    train,
)

LN2 = math.log(2.0)


def records(features, labels):
    return [
        EmbeddingRecord(id=f"r{i}", features=np.asarray(f, dtype=float), label=int(y))
        for i, (f, y) in enumerate(zip(features, labels))
    ]


def two_blob_dataset(n=40, d=4, sep=6.0, seed=0):
    rng = np.random.default_rng(seed)
    direction = np.zeros(d)
    direction[0] = 1.0
    half = n // 2
    feats = np.vstack(
        [
            (sep / 2) * direction + rng.normal(size=(half, d)),
            -(sep / 2) * direction + rng.normal(size=(n - half, d)),
        ]
    )
    labels = [1] * half + [0] * (n - half)
    return records(feats, labels)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(optimizer="lbfgs")
    with pytest.raises(ValueError):
        TrainingConfig(validation_fraction=1.0)


def test_empty_dataset_rejected():
    model = make_bypass_model(in_dim=2, seed=0)
    with pytest.raises(ValueError):
        train([], model, TrainingConfig(max_epochs=1))


def test_dimension_mismatch_rejected():
    model = make_bypass_model(in_dim=3, seed=0)
    with pytest.raises(ValueError):
        train(records([[1.0, 2.0]], [1]), model, TrainingConfig(max_epochs=1))


def test_bad_label_rejected():
    model = make_bypass_model(in_dim=2, seed=0)
    with pytest.raises(ValueError):
        train(records([[1.0, 2.0]], [2]), model, TrainingConfig(max_epochs=1))


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------

def test_stratified_split_keeps_both_classes():
    rng = np.random.default_rng(1)
    labels = [1] * 10 + [0] * 10
    train_idx, val_idx = stratified_split(labels, 0.2, rng)
    assert len(val_idx) == 4 and len(train_idx) == 16
    assert {labels[i] for i in val_idx} == {0, 1}
    assert {labels[i] for i in train_idx} == {0, 1}
    assert not set(train_idx) & set(val_idx)


def test_zero_fraction_validates_on_train():
    rng = np.random.default_rng(2)
    train_idx, val_idx = stratified_split([0, 1, 1], 0.0, rng)
    assert train_idx == [0, 1, 2]
    assert val_idx == [0, 1, 2]


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

def test_single_sample_drives_probability_to_one():
    """Landscape -log cos(y)^2 is minimized at y = 0; descent gets there."""
    model = make_bypass_model(in_dim=2, ansatz_layers=0, seed=3)
    data = records([[1.0, 0.5]], [1])
    config = TrainingConfig(
        learning_rate=0.1, max_epochs=500, batch_size=1, optimizer="sgd",
        seed=3, validation_fraction=0.0, patience=500, min_delta=0.0,
    )
    model, history = train(data, model, config)
    assert history.records[history.best_epoch].val_loss < 0.01
    _, p0, _ = predict(model, data[0].features)
    assert p0 > 0.99


def test_zero_learning_rate_changes_nothing():
    model = make_bypass_model(in_dim=2, seed=4)
    before = {k: v.copy() for k, v in named_parameters(model).items()}
    data = records([[0.3, -0.2], [0.1, 0.9]], [1, 0])
    config = TrainingConfig(
        learning_rate=0.0, max_epochs=5, batch_size=2, optimizer="sgd",
        seed=4, validation_fraction=0.0, patience=100,
    )
    model, history = train(data, model, config)
    for name, arr in named_parameters(model).items():
        assert np.array_equal(arr, before[name])
    losses = [r.train_loss for r in history.records]
    assert all(l == losses[0] for l in losses)


def test_contradictory_labels_floor_at_ln2():
    """Identical features with opposite labels cannot beat ln 2 per sample."""
    model = make_bypass_model(in_dim=2, seed=5)
    data = records([[1.0, 1.0], [1.0, 1.0]], [1, 0])
    config = TrainingConfig(
        learning_rate=0.05, max_epochs=60, batch_size=2, optimizer="sgd",
        seed=5, validation_fraction=0.0, patience=100,
    )
    _, history = train(data, model, config)
    for rec in history.records:
        assert rec.train_loss >= LN2 - 1e-12


def test_single_sample_loss_non_increasing_at_small_lr():
    model = make_bypass_model(in_dim=2, ansatz_layers=0, seed=6)
    data = records([[1.0, 0.5]], [1])
    config = TrainingConfig(
        learning_rate=0.05, max_epochs=200, batch_size=1, optimizer="sgd",
        seed=6, validation_fraction=0.0, patience=500, min_delta=0.0,
    )
    _, history = train(data, model, config)
    losses = [r.train_loss for r in history.records]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_separable_blobs_reach_high_f1():
    data = two_blob_dataset(n=60, d=4, sep=6.0, seed=7)
    model = make_bypass_model(in_dim=4, seed=7)
    config = TrainingConfig(
        learning_rate=0.02, max_epochs=100, batch_size=8, seed=7,
        validation_fraction=0.2, patience=100,
    )
    model, history = train(data, model, config)
    assert history.records[history.best_epoch].val_f1 >= 0.9


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

def test_determinism_bitwise():
    data = two_blob_dataset(n=30, d=3, sep=4.0, seed=8)
    config = TrainingConfig(learning_rate=0.1, max_epochs=10, batch_size=4, seed=8)
    run = []
    for _ in range(2):
        model = make_bypass_model(in_dim=3, seed=8)
        model, history = train(data, model, config)
        run.append((history.csv_text(), {k: v.copy() for k, v in named_parameters(model).items()}))
    assert run[0][0] == run[1][0]
    for name in run[0][1]:
        assert np.array_equal(run[0][1][name], run[1][1][name])


def test_returned_model_has_min_validation_loss():
    data = two_blob_dataset(n=20, d=3, sep=2.0, seed=9)
    model = make_bypass_model(in_dim=3, seed=9)
    config = TrainingConfig(
        learning_rate=0.3, max_epochs=25, batch_size=4, seed=9,
        validation_fraction=0.0, patience=100,
    )
    model, history = train(data, model, config)
    best = min(r.val_loss for r in history.records)
    assert history.records[history.best_epoch].val_loss == best
    # returned parameters reproduce that loss on the validation (= full) set
    losses = [
        bce_loss(model_forward(model, rec.features).p0,
                 model_forward(model, rec.features).p1, rec.label)
        for rec in data
    ]
    assert math.isclose(float(np.mean(losses)), best, rel_tol=1e-12)


def test_full_batch_single_epoch_equals_manual_gradient_step():
    data = two_blob_dataset(n=12, d=3, sep=3.0, seed=10)
    manual = make_bypass_model(in_dim=3, seed=10)
    params = named_parameters(manual)
    grad_sum = {k: np.zeros_like(v) for k, v in params.items()}
    for rec in data:
        cache = model_forward(manual, rec.features)
        grads = backward(manual, cache, rec.label)
        for k in grad_sum:
            grad_sum[k] += grads[k]
    lr = 0.2
    expected = {k: params[k] - lr * grad_sum[k] / len(data) for k in params}

    trained = make_bypass_model(in_dim=3, seed=10)
    config = TrainingConfig(
        learning_rate=lr, max_epochs=1, batch_size=len(data), optimizer="sgd",
        seed=10, validation_fraction=0.0, patience=10,
    )
    trained, _ = train(data, trained, config)
    for k, arr in named_parameters(trained).items():
        assert np.allclose(arr, expected[k], atol=1e-12)


def test_early_stopping_stops_on_plateau():
    data = records([[1.0, 1.0], [1.0, 1.0]], [1, 0])  # loss is stuck at ln 2
    model = make_bypass_model(in_dim=2, seed=11)
    model.reduction.w[:] = 0.0
    model.reduction.b[:] = math.pi / 4  # p0 = 0.5, gradient-free symmetric point
    model.theta[:] = 0.0
    config = TrainingConfig(
        learning_rate=0.1, max_epochs=500, batch_size=2, optimizer="sgd",
        seed=11, validation_fraction=0.0, patience=5, min_delta=1e-4,
    )
    _, history = train(data, model, config)
    assert len(history.records) <= 10


def test_freeze_encoder_keeps_encoder_weights():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=1, ffn_hidden=4, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 1), seed=12)
    rng = np.random.default_rng(12)
    data = [
        EmbeddingRecord(id=f"i{i}", features=rng.normal(size=(4, 4, 1)), label=i % 2)
        for i in range(6)
    ]
    before = {k: v.copy() for k, v in named_parameters(model).items()}
    config = TrainingConfig(
        learning_rate=0.1, max_epochs=2, batch_size=3, seed=12,
        validation_fraction=0.0, patience=10, freeze_encoder=True,
    )
    model, _ = train(data, model, config)
    after = named_parameters(model)
    for name in after:
        if name.startswith("encoder."):
            assert np.array_equal(after[name], before[name]), name
    assert not np.array_equal(after["reduction.w"], before["reduction.w"])


def test_adam_and_momentum_also_learn():
    # momentum 0.9 amplifies steps ~10x, so its stable rate sits much lower
    data = two_blob_dataset(n=40, d=3, sep=6.0, seed=13)
    for optimizer, lr, epochs in (("adam", 0.05, 40), ("sgd-momentum", 0.002, 150)):
        model = make_bypass_model(in_dim=3, seed=13)
        config = TrainingConfig(
            learning_rate=lr, max_epochs=epochs, batch_size=8, optimizer=optimizer,
            seed=13, validation_fraction=0.2, patience=epochs,
        )
        _, history = train(data, model, config)
        assert history.records[history.best_epoch].val_f1 >= 0.85, optimizer


# ---------------------------------------------------------------------------
# predict / evaluate
# ---------------------------------------------------------------------------

def test_decision_rule_and_tie_policy():
    assert decide_label(0.9) == 1
    assert decide_label(0.1) == 0
    assert decide_label(0.5) == 1  # documented tie rule


def test_predict_labels_follow_p0():
    model = make_bypass_model(in_dim=2, ansatz_layers=0, seed=14)
    model.reduction.w[:] = 0.0
    model.theta[:] = 0.0
    model.reduction.b[:] = 0.0  # y = 0 -> p0 = 1
    label, p0, p1 = predict(model, np.zeros(2))
    assert label == 1 and math.isclose(p0, 1.0, abs_tol=1e-12)
    model.reduction.b[:] = math.pi / 2  # y = pi/2 -> p0 = 0
    label, p0, _ = predict(model, np.zeros(2))
    assert label == 0 and p0 < 1e-12


def test_constant_half_probability_predicts_all_positive():
    model = make_bypass_model(in_dim=2, ansatz_layers=0, seed=15)
    model.reduction.w[:] = 0.0
    model.theta[:] = 0.0
    # a hair below pi/4 keeps the constant p0 on the >= 0.5 side of the tie
    model.reduction.b[:] = math.pi / 4 - 1e-9
    data = records([[0.1, 0.2], [0.5, -0.5], [1.0, 1.0], [0.2, 0.3]], [1, 0, 1, 0])
    _, p0, _ = predict(model, data[0].features)
    assert math.isclose(p0, 0.5, abs_tol=1e-8)
    report = evaluate(model, data)
    assert report.recall == 1.0
    assert report.precision == 0.5  # positive prevalence
    assert report.tp + report.fp == len(data)


def test_evaluate_perfect_model():
    model = make_bypass_model(in_dim=1, ansatz_layers=0, seed=16)
    model.reduction.w[:, 0] = math.pi / 4
    model.reduction.b[:] = 0.0
    model.theta[:] = 0.0
    # features +-1 -> y = +-pi/4... p0 = 0.5 at both; use +-0/2 spread instead
    data = records([[0.0], [2.0]], [1, 0])  # y = 0 -> p0 = 1; y = pi/2 -> p0 = 0
    report = evaluate(model, data)
    assert report.accuracy == 1.0 and report.f1 == 1.0


def test_evaluate_is_deterministic():
    model = make_bypass_model(in_dim=3, seed=17)
    data = two_blob_dataset(n=16, d=3, sep=2.0, seed=17)
    assert evaluate(model, data) == evaluate(model, data)


def test_evaluate_empty_dataset():
    model = make_bypass_model(in_dim=3, seed=18)
    with pytest.raises(ValueError):
        evaluate(model, [])


def encoder_rows(n, shape=(4, 4, 1), seed=0):
    rng = np.random.default_rng(seed)
    return records(rng.normal(size=(n, *shape)), np.arange(n) % 2)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_readout_p0_blocks_match_per_row_forward(heads):
    """Row counts on both sides of the encoder block edge, bit for bit."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=heads, ffn_hidden=16,
                        use_class_token=heads != 2)
    model = make_encoder_model(cfg, (4, 4, 1), seed=heads)
    data = encoder_rows(300, seed=heads)
    expected = np.array([model_forward(model, rec.features).p0 for rec in data])
    for b in (1, 7, 129, 300):
        p0 = readout_p0(model, [rec.features for rec in data[:b]])
        assert p0.shape == (b,)
        assert np.array_equal(p0, expected[:b]), b
    assert readout_p0(model, []).shape == (0,)


@pytest.mark.parametrize("n", range(1, 11))
def test_readout_p0_circuit_blocks_match_per_row_forward(n, monkeypatch):
    """Bypass rows across circuit block edges (5 rows a block here), bit for bit."""
    monkeypatch.setattr(model_module, "_BLOCK_AMPLITUDES", 5 << n)
    rng = np.random.default_rng(200 + n)
    model = make_bypass_model(
        in_dim=6, n_qubits=n, fm_repetitions=int(rng.integers(1, 4)),
        fm_scale=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
        ansatz_layers=int(rng.integers(0, 4)), seed=n, readout_qubit=int(rng.integers(0, n)),
    )
    model.theta[:] = rng.normal(0.0, 2.0, size=model.theta.shape)
    x = rng.normal(0.0, 3.0, size=(12, 6))
    expected = np.array([model_forward(model, row).p0 for row in x])
    for b in (1, 5, 6, 12):
        assert np.array_equal(readout_p0(model, list(x[:b])), expected[:b]), b
    assert np.array_equal(readout_p0(model, x), expected)


def test_readout_p0_rejects_rows_as_model_forward_does():
    model = make_bypass_model(in_dim=3, seed=5)
    good = np.ones(3)
    cases = [
        [good, np.ones(4)],                       # width
        [good, np.ones(3), np.ones(2)],           # ragged
        [good, np.array([1.0, math.nan, 0.0])],   # non-finite feature
        [good, np.array([1.0, math.inf, 0.0]), np.ones(4)],  # first bad row wins
    ]
    for rows in cases:
        with pytest.raises(ValueError) as per_row:
            for row in rows:
                model_forward(model, row)
        with pytest.raises(ValueError) as block:
            readout_p0(model, rows)
        assert str(block.value) == str(per_row.value)
    model.theta = np.ones(3)
    with pytest.raises(ValueError, match="expected 2 ansatz parameter"):
        readout_p0(model, [good])


@pytest.mark.parametrize("kind", ["encoder", "bypass"])
def test_evaluate_and_validation_match_per_row_predict(kind):
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=6, layers=1, heads=2, ffn_hidden=8)
        model = make_encoder_model(cfg, (4, 6, 2), seed=27)
        data = encoder_rows(150, shape=(4, 6, 2), seed=27)
    else:
        model = make_bypass_model(in_dim=3, n_qubits=2, ansatz_layers=2, seed=27,
                                  readout_qubit=1)
        data = two_blob_dataset(n=40, d=3, sep=1.0, seed=27)
    rows = [predict(model, rec.features) for rec in data]
    assert [r[1] for r in rows] == [model_forward(model, rec.features).p0 for rec in data]
    labels = [rec.label for rec in data]
    assert evaluate(model, data) == compute_metrics([r[0] for r in rows], labels)
    p0 = readout_p0(model, [rec.features for rec in data])
    assert np.array_equal(p0, [r[1] for r in rows])
    indices = list(range(1, len(data), 2)) + [0]
    losses = [bce_loss(rows[i][1], rows[i][2], labels[i]) for i in indices]
    f1 = compute_metrics([rows[i][0] for i in indices], [labels[i] for i in indices]).f1
    assert _mean_loss_and_f1(model, data, indices) == (float(np.mean(losses)), f1)
