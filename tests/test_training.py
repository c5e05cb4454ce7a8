"""Training loop: determinism, convergence, early stopping, batching."""
import math
import sys
import warnings

import numpy as np
import pytest

import qembed.autodiff as autodiff_module
import qembed.circuits as circuits_module
import qembed.encoder as qembed_encoder
import qembed.gradcheck as qembed_gradcheck
import qembed.model as model_module
import qembed.statevector as statevector_module
import qembed.training as training_module
from qembed.data import EmbeddingRecord
from qembed.model import (
    HybridModel,
    features_p0,
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
    readout_p0,
    set_parameters,
)
from qembed.autodiff import ReductionLayer, backward, bce_loss, reduce_rows
from qembed.circuits import AnsatzSpec
from qembed.encoder import EncoderConfig
from qembed.gradcheck import draw_samples, gradient_check
from qembed.metrics import compute_metrics
from qembed.training import (
    EpochRecord,
    TrainingConfig,
    _make_optimizer,
    _mean_loss_and_f1,
    decide_label,
    evaluate,
    predict,
    row_gradients,
    stratified_split,
    train,
)

from per_image import image_forward, image_step

LN2 = math.log(2.0)


def snapshot_parameters(model):
    """A copy of every parameter array, keyed as `named_parameters` keys it."""
    return {name: array.copy() for name, array in named_parameters(model).items()}


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
    # optimizer values must be finite and in range; the message names the field
    for field, values, edge in [
        ("momentum", [math.nan, math.inf, -0.1, 1.0], 0.0),
        ("adam_beta1", [math.nan, -0.5, 1.0, 2.0], 0.0),
        ("adam_beta2", [math.nan, -math.inf, 1.0], 0.0),
        ("adam_eps", [math.nan, math.inf, 0.0, -1e-8], 1e-300),
        ("min_delta", [math.nan, math.inf, -1e-4], 0.0),
    ]:
        for value in values:
            with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
                TrainingConfig(**{field: value})
        assert getattr(TrainingConfig(**{field: edge}), field) == edge


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
        bce_loss(model_forward(model, rec.features).p0, rec.label)
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


@pytest.mark.parametrize("freeze", [False, True], ids=["train-encoder", "frozen"])
def test_returned_encoder_model_is_the_best_epochs(freeze):
    """A run whose best validation epoch comes before its last returns the
    arrays, bit for bit, of a fresh run stopped after that epoch."""
    def run(max_epochs):
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        config = TrainingConfig(learning_rate=0.3, max_epochs=max_epochs, batch_size=5,
                                optimizer="adam", seed=46, validation_fraction=0.25,
                                patience=10, freeze_encoder=freeze)
        return train(encoder_rows(24, seed=46), make_encoder_model(cfg, (4, 4, 1), seed=46),
                     config)

    model, history = run(6)
    assert 0 < history.best_epoch < len(history.records) - 1 == 5
    short, short_history = run(history.best_epoch + 1)
    assert short_history.records == history.records[: history.best_epoch + 1]
    expected = named_parameters(short)
    for name, array in named_parameters(model).items():
        assert array.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_readout_p0_blocks_match_per_row_forward(heads):
    """Row counts on both sides of the encoder block edge, bit for bit."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=heads, ffn_hidden=16,
                        use_class_token=heads != 2)
    model = make_encoder_model(cfg, (4, 4, 1), seed=heads)
    data = encoder_rows(300, seed=heads)
    expected = np.array([image_forward(model, rec.features)[1].p0 for rec in data])
    for b in (1, 7, 129, 300):
        p0 = readout_p0(model, [rec.features for rec in data[:b]])
        assert p0.shape == (b,)
        assert np.array_equal(p0, expected[:b]), b
    assert readout_p0(model, []).shape == (0,)


@pytest.mark.parametrize("n", range(1, 11))
def test_readout_p0_circuit_blocks_match_per_row_forward(n, monkeypatch):
    """Bypass rows across circuit block edges (5 rows a block here), bit for bit."""
    monkeypatch.setattr(circuits_module, "_BLOCK_AMPLITUDES", 5 << n)
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
    """A bad row is named by its index, with the message the per-image
    oracle gives that row alone; row shapes are checked before any value
    is."""
    model = make_bypass_model(in_dim=3, seed=5)
    good = np.ones(3)
    # (rows, the first bad row)
    cases = [
        ([good, np.ones(4)], 1),                                  # width
        ([good, np.ones(3), np.ones(2)], 2),                      # ragged
        ([good, np.array([1.0, math.nan, 0.0])], 1),              # non-finite feature
        ([good, np.array([1.0, math.inf, 0.0]), np.ones(4)], 2),  # shapes first
    ]
    # encoder rows: the bad row (row 35 of 40) falls in the second 32-row block
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
    encoder = make_encoder_model(cfg, (4, 4, 1), seed=5)
    images = list(np.random.default_rng(5).normal(size=(40, 4, 4, 1)))
    flat, non_finite, mixed = list(images), list(images), list(images)
    flat[35] = np.ones((4, 4))
    non_finite[35] = np.where(np.arange(16).reshape(4, 4, 1) == 9, math.nan, images[35])
    mixed[35] = images[35].reshape(2, 8, 1)
    wide = [np.ones(3)] * 40
    wide[35] = np.ones(4)
    cases = [(model, *case) for case in cases]
    cases += [(encoder, flat, 35), (encoder, non_finite, 35)]
    for m, rows, bad in cases:
        with pytest.raises(ValueError) as alone:
            image_forward(m, rows[bad])
        with pytest.raises(ValueError) as block:
            readout_p0(m, rows)
        assert str(block.value) == f"row {bad}: {alone.value}"
    with pytest.raises(ValueError, match=r"^row 1: input of shape \(2,\) does not match reduction in_dim 3"):
        features_p0(encoder, [np.ones(3), np.ones(2)])
    # each pass names row 35 before any parameter moves
    labels = [i % 2 for i in range(40)]
    for m, rows, message in [
        (model, wide, "row 35: input of shape (4,) does not match reduction in_dim 3"),
        (encoder, flat, "row 35: encoder input must be an (H, W, C) image, got shape (4, 4)"),
        (encoder, mixed, "row 35: inconsistent feature shapes: (2, 8, 1) vs (4, 4, 1)"),
    ]:
        before = snapshot_parameters(m)
        calls = [
            lambda: readout_p0(m, rows),
            lambda: evaluate(m, records(rows, labels)),
            lambda: gradient_check(m, list(zip(rows, labels))),
            lambda: train(records(rows, labels), m, TrainingConfig(max_epochs=1)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == message
        for name, a in named_parameters(m).items():
            assert a.tobytes() == before[name].tobytes(), name
    model.theta = np.ones(3)
    with pytest.raises(ValueError, match="expected 2 ansatz parameter"):
        readout_p0(model, [good])


@pytest.mark.parametrize("bad", [2, 35], ids=["first-block", "later-block"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["encoder", "bypass"])
def test_inference_names_the_first_non_finite_row(kind, value, bad, monkeypatch):
    """readout_p0, evaluate and predict name the first row whose features
    are not finite, counted across the 32-row encoder blocks and the circuit
    blocks (5 rows each here), with no numpy warning on the way there."""
    monkeypatch.setattr(circuits_module, "_BLOCK_AMPLITUDES", 5 << 1)
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        model = make_encoder_model(cfg, (4, 4, 1), seed=41)
        data = encoder_rows(40, seed=41)
    else:
        model = make_bypass_model(in_dim=4, seed=41)
        data = two_blob_dataset(n=40, seed=41)
    for i in (bad, bad + 3):
        data[i].features.flat[1] = value
    rows = [rec.features for rec in data]
    for call, row in [(lambda: readout_p0(model, rows), bad),
                      (lambda: evaluate(model, data), bad),
                      (lambda: predict(model, rows[bad]), 0)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as error:
                call()
        assert str(error.value) == f"row {row}: features must be finite"
        assert not caught, [str(w.message) for w in caught]


def test_readout_p0_names_a_row_whose_angles_overflow():
    """Finite features whose reductions overflow only once the feature map
    scales them: the search for the row warns about no overflow of its own
    (tier-1 fails on a numpy warning)."""
    model = make_bypass_model(in_dim=4, seed=41)
    model.reduction.b[:] = 1e308
    rows = [rec.features for rec in two_blob_dataset(n=6, seed=41)]
    with pytest.raises(ValueError) as error:
        readout_p0(model, rows)
    assert str(error.value) == "row 0: features must be finite"


def test_readout_p0_names_a_row_whose_reduction_overflows():
    """A reduction that overflows is named by the readout, with no numpy
    warning (tier-1 fails on one)."""
    model = make_bypass_model(in_dim=3, seed=41)
    model.reduction.w[0, 0] = 1e308
    with pytest.raises(ValueError) as error:
        readout_p0(model, [[10.0, 0.0, 0.0]])
    assert str(error.value) == "row 0: features must be finite"


def test_hybrid_model_rejects_parts_that_do_not_fit():
    """`HybridModel` runs the circuit layer's checks of the specs' qubit
    counts and of the ansatz angle count, with their messages, and its own
    of the reduction's width, of encoder weights, and of the encoder's
    out_dim."""
    bypass = make_bypass_model(in_dim=5, seed=5)
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
    encoder = make_encoder_model(cfg, (4, 4, 1), seed=5)
    parts = dict(reduction=bypass.reduction, theta=bypass.theta,
                 feature_map=bypass.feature_map, ansatz=bypass.ansatz)
    HybridModel(**parts)
    cases = [
        (dict(ansatz=AnsatzSpec(n_qubits=2)), "feature map has 1 qubit(s) but ansatz has 2"),
        (dict(theta=np.zeros(3)),
         "expected 2 ansatz parameter(s) for n_qubits=1, layers=1, got array of shape (3,)"),
        (dict(reduction=ReductionLayer(np.zeros((5, 2)), np.zeros(2))),
         "reduction emits 2 value(s) but the feature map expects 1"),
        (dict(encoder_config=cfg), "encoder config and weights must be provided together"),
        (dict(encoder_config=cfg, encoder_weights=encoder.encoder_weights),
         "encoder out_dim 3 does not match reduction in_dim 5"),
    ]
    for change, message in cases:
        with pytest.raises(ValueError) as error:
            HybridModel(**{**parts, **change})
        assert str(error.value) == message


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("kind", ["bypass", "encoder"])
@pytest.mark.parametrize("n_qubits,layers,scale,readout", [(1, 1, 2.0, 0), (3, 2, 1.5, 2)])
def test_builders_draw_the_head_by_its_init_rule(seed, kind, n_qubits, layers, scale, readout):
    """Each head array of a seeded model is its init rule drawn from
    `default_rng(seed)` after any encoder weights: reduction weights
    uniform in +-0.1 * sqrt(6 / (in_dim + n_qubits)), the bias at the
    neutral angle pi / (2 * scale), then ansatz angles normal(0, 0.1)."""
    head = dict(n_qubits=n_qubits, fm_scale=scale, ansatz_layers=layers, seed=seed,
                readout_qubit=readout)
    rng = np.random.default_rng(seed)
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=5)
        model = make_encoder_model(cfg, (4, 4, 1), **head)
        qembed_encoder.init_encoder_weights(cfg, (4, 4, 1), rng)
    else:
        model = make_bypass_model(in_dim=5, **head)
    limit = 0.1 * math.sqrt(6.0 / (5 + n_qubits))
    expected = {
        "reduction.w": rng.uniform(-limit, limit, size=(5, n_qubits)),
        "reduction.b": np.full(n_qubits, math.pi / (2.0 * scale)),
        "ansatz.theta": rng.normal(0.0, 0.1, size=n_qubits * (layers + 1)),
    }
    params = named_parameters(model)
    for name, array in expected.items():
        assert params[name].dtype == array.dtype and params[name].shape == array.shape, name
        assert (params[name] == array).all(), name


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
    assert [r[1] for r in rows] == [image_forward(model, rec.features)[1].p0 for rec in data]
    labels = [rec.label for rec in data]
    assert evaluate(model, data) == compute_metrics([r[0] for r in rows], labels)
    p0 = readout_p0(model, [rec.features for rec in data])
    assert np.array_equal(p0, [r[1] for r in rows])
    indices = list(range(1, len(data), 2)) + [0]
    losses = [bce_loss(rows[i][1], labels[i]) for i in indices]
    f1 = compute_metrics([rows[i][0] for i in indices], [labels[i] for i in indices]).f1
    rows, row_labels = [data[i].features for i in indices], [labels[i] for i in indices]
    assert _mean_loss_and_f1(model, rows, row_labels) == (float(np.mean(losses)), f1)


# ---------------------------------------------------------------------------
# One-row scoring: predict through model.row_p0
# ---------------------------------------------------------------------------

def assert_one_row_scores_as_blocks(model, xs):
    """predict's p0 of each row alone == readout_p0's p0 of that row in a
    block of all of them == model_forward's p0 of that row's features."""
    block = readout_p0(model, xs).tolist()
    assert len(xs) > 1 and len(block) == len(xs)
    for x, p0 in zip(xs, block):
        assert predict(model, x)[1] == p0 == image_forward(model, x)[1].p0
        assert model_module.row_p0(model, list(x)) == p0
        assert readout_p0(model, [x]).tolist() == [p0]


@pytest.mark.parametrize("n", range(1, 7))
def test_one_row_bypass_scores_as_blocks(n):
    """Seeded bypass heads of every depth 0-3 and readout qubit, reps 1-3
    and scales of both signs."""
    rng = np.random.default_rng(900 + n)
    for layers in range(4):
        for q in range(n):
            scale = (-1.0) ** (layers + q) * rng.uniform(0.5, 3.0)
            model = make_bypass_model(in_dim=5, n_qubits=n, fm_repetitions=int(rng.integers(1, 4)),
                                      fm_scale=scale, ansatz_layers=layers, seed=layers,
                                      readout_qubit=q)
            model.theta[:] = rng.normal(0.0, 2.0, size=model.theta.shape)
            model.reduction.b[:] = rng.normal(0.0, 1.0, size=n)
            xs = rng.normal(0.0, 3.0, size=(4, 5))
            # the 1-D reduction row_p0 runs is reduce_rows' row, bit for bit
            w, b = model.reduction.w, model.reduction.b
            assert np.array_equal(np.array([x @ w + b for x in xs]), reduce_rows(xs, model.reduction))
            assert_one_row_scores_as_blocks(model, xs)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("class_token", [True, False])
def test_one_row_encoder_scores_as_blocks(heads, class_token):
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=heads, ffn_hidden=8,
                        out_dim=6, use_class_token=class_token)
    model = make_encoder_model(cfg, (4, 6, 2), n_qubits=2, ansatz_layers=1, seed=heads,
                               readout_qubit=int(class_token))
    images = np.random.default_rng(heads).normal(size=(5, 4, 6, 2))
    assert_one_row_scores_as_blocks(model, images)
    one_qubit = make_encoder_model(cfg, (4, 6, 2), seed=heads)
    assert_one_row_scores_as_blocks(one_qubit, images)


def _wrong_theta_shape(model):
    model.theta = np.zeros(len(model.theta) + 3)


def _non_finite_theta(model):
    model.theta[-1] = math.inf


def _overflowing_reduction(model):
    model.reduction.w[:] = 1e308


def _cancelling_reduction(model):
    # inf + -inf: an invalid value, not only an overflow
    model.reduction.w[:] = 1e308
    model.reduction.w[1] = -1e308


@pytest.mark.parametrize("kind", ["bypass-1q", "bypass-3q", "encoder-1q"])
def test_one_row_errors_are_the_rows_paths(kind):
    """predict, and readout_p0 of one row, raise the rows path's error for
    each bad input or model, with no numpy warning."""
    n = 3 if kind == "bypass-3q" else 1
    if kind == "encoder-1q":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        build = lambda: make_encoder_model(cfg, (4, 4, 1), seed=41)  # noqa: E731
        good = np.random.default_rng(41).normal(size=(4, 4, 1))
        flat = "row 0: encoder input must be an (H, W, C) image, got shape (4, 4)"
    else:
        build = lambda: make_bypass_model(in_dim=3, n_qubits=n, seed=41)  # noqa: E731
        good = np.array([0.5, 1.0, 2.0])  # good + 1 times 1e308 overflows entry by entry
        flat = "row 0: input of shape (4, 4) does not match reduction in_dim 3"
    one = np.arange(good.size).reshape(good.shape) == 1
    p = 2 * n
    cases = [
        (np.ones((4, 4)), None, flat),
        (np.where(one, math.nan, good), None, "row 0: features must be finite"),
        (np.where(one, -math.inf, good), None, "row 0: features must be finite"),
        (good, _wrong_theta_shape, f"expected {p} ansatz parameter(s) for n_qubits={n}, "
                                   f"layers=1, got array of shape ({p + 3},)"),
        (good, _non_finite_theta, "RY angle must be finite"),
    ]
    if kind == "encoder-1q":
        # pixels that overflow the encoder
        cases.append((np.full(good.shape, 1e308), None, "row 0: features must be finite"))
    else:
        cases += [
            (np.ones(4), None, "row 0: input of shape (4,) does not match reduction in_dim 3"),
            (good + 1.0, _overflowing_reduction, "row 0: features must be finite"),
            (good + 1.0, _cancelling_reduction, "row 0: features must be finite"),
        ]
    for x, edit, message in cases:
        model = build()
        if edit is not None:
            edit(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for score in (predict, lambda m, row: readout_p0(m, [row])):
                with pytest.raises(ValueError) as info:
                    score(model, x)
                assert str(info.value) == message


# ---------------------------------------------------------------------------
# Encoder training over a row axis
# ---------------------------------------------------------------------------

class ArraySgdMomentum:
    """The per-array oracle of train's SGD and momentum step: one velocity
    array per parameter, each parameter array updated on its own."""

    def __init__(self, lr, beta):
        self.lr, self.beta, self.velocity = lr, beta, None

    def step(self, params, grads):
        if self.velocity is None:
            self.velocity = {name: np.zeros_like(g) for name, g in grads.items()}
        for name, g in grads.items():
            v = self.velocity[name]
            v *= self.beta
            v += g
            params[name] -= self.lr * v


class ArrayAdam:
    """The per-array oracle of train's Adam step."""

    def __init__(self, lr, beta1, beta2, eps):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, None, None

    def step(self, params, grads):
        if self.m is None:
            self.m = {name: np.zeros_like(g) for name, g in grads.items()}
            self.v = {name: np.zeros_like(g) for name, g in grads.items()}
        self.t += 1
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def array_optimizer(config):
    if config.optimizer == "adam":
        return ArrayAdam(config.learning_rate, config.adam_beta1, config.adam_beta2,
                         config.adam_eps)
    return ArraySgdMomentum(config.learning_rate,
                            config.momentum if config.optimizer == "sgd-momentum" else 0.0)


def per_sample_train(dataset, model, config):
    """train() as a strict per-sample loop: the per-image oracle's loss and
    gradients for every sample and the per-array optimizer, no early stop
    (patience >= max_epochs)."""
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = stratified_split(
        [rec.label for rec in dataset], config.validation_fraction, rng)
    trainable = {k: v for k, v in named_parameters(model).items()
                 if not (config.freeze_encoder and k.startswith("encoder."))}
    optimizer = array_optimizer(config)
    records_out, best_val, best = [], math.inf, snapshot_parameters(model)
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        losses, norms = [], []
        for start in range(0, len(order), config.batch_size):
            batch = [train_idx[i] for i in order[start : start + config.batch_size]]
            grad_sum = {k: np.zeros_like(v) for k, v in trainable.items()}
            for i in batch:
                loss, grads = image_step(model, dataset[i].features, dataset[i].label,
                                         not config.freeze_encoder)
                losses.append(loss)
                for k in grad_sum:
                    grad_sum[k] += grads[k]
            for k in grad_sum:
                grad_sum[k] *= 1.0 / len(batch)
            norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grad_sum.values())))
            optimizer.step(trainable, grad_sum)
        val_loss, val_f1 = _mean_loss_and_f1(
            model, [dataset[i].features for i in val_idx], [dataset[i].label for i in val_idx])
        records_out.append(EpochRecord(epoch, float(np.mean(losses)), val_loss, val_f1,
                                       float(np.mean(norms))))
        if val_loss < best_val:
            best_val, best = val_loss, snapshot_parameters(model)
    set_parameters(model, best)
    return model, records_out


def sparse_signed_zero_dataset(n, seed):
    """Two blobs over 5 features, column 2 -0.0 on all but every seventh
    row, so that whole mini-batches of its gradient rows are signed zeros."""
    data = two_blob_dataset(n=n, d=5, sep=2.0, seed=seed)
    for i, rec in enumerate(data):
        rec.features[2] = -0.0 if i % 7 else 0.5
    return data


@pytest.mark.parametrize("kind", ["train-encoder", "frozen", "bypass-1q", "bypass-3q"])
@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum", "sgd"])
def test_encoder_train_matches_per_sample_loop(optimizer, batch, kind):
    """History and final parameters equal a per-sample loop with per-array
    optimizer steps bit for bit."""
    def fresh_model():
        if kind.startswith("bypass"):
            n = int(kind[-2])
            return make_bypass_model(in_dim=5, n_qubits=n, ansatz_layers=1, seed=batch,
                                     readout_qubit=n - 1)
        cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2,
                            heads={1: 1, 5: 2, 16: 4}[batch], ffn_hidden=12, out_dim=6,
                            use_class_token=batch != 5)
        return make_encoder_model(cfg, (4, 6, 2), seed=batch)

    if kind.startswith("bypass"):
        data = sparse_signed_zero_dataset(24, seed=batch)
    else:
        data = encoder_rows(26, shape=(4, 6, 2), seed=batch)
    config = TrainingConfig(
        learning_rate=0.05 if optimizer == "adam" else 0.01, max_epochs=3, batch_size=batch,
        optimizer=optimizer, seed=batch, validation_fraction=0.25, patience=10,
        freeze_encoder=kind == "frozen",
    )
    expected_model, expected = per_sample_train(data, fresh_model(), config)
    model, history = train(data, fresh_model(), config)
    assert history.records == expected
    expected_params = named_parameters(expected_model)
    for name, arr in named_parameters(model).items():
        assert arr.tobytes() == expected_params[name].tobytes(), name


@pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum", "sgd"])
def test_flat_optimizer_step_equals_per_array_oracle(optimizer):
    """Five steps of train's optimizer on one flat vector give the bits of
    the per-array oracle's steps on the arrays it is made of."""
    rng = np.random.default_rng(len(optimizer))
    shapes = {"scalar": (), "vector": (7,), "matrix": (3, 4), "column": (5, 1)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    config = TrainingConfig(learning_rate=0.03, optimizer=optimizer, momentum=0.8)
    flat = _make_optimizer(config)
    oracle = array_optimizer(config)
    vector = np.concatenate([a.ravel() for a in params.values()])
    for _ in range(5):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grads["column"][::2] = -0.0
        flat.step(vector, np.concatenate([g.ravel() for g in grads.values()]))
        oracle.step(params, grads)
        assert vector.tobytes() == np.concatenate([a.ravel() for a in params.values()]).tobytes()


@pytest.mark.parametrize("kind", ["encoder", "frozen", "bypass"])
def test_train_updates_the_callers_arrays_in_place(kind):
    """Every array named_parameters gives before training is the model's
    array after it, and each trainable one holds new values."""
    if kind == "bypass":
        model = make_bypass_model(in_dim=4, n_qubits=2, ansatz_layers=1, seed=40)
        data = two_blob_dataset(n=20, seed=40)
    else:
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        model = make_encoder_model(cfg, (4, 4, 1), seed=40)
        data = encoder_rows(20, seed=40)
    before = named_parameters(model)
    values = snapshot_parameters(model)
    config = TrainingConfig(learning_rate=0.05, max_epochs=2, batch_size=4, optimizer="adam",
                            seed=40, freeze_encoder=kind == "frozen")
    returned, _ = train(data, model, config)
    assert returned is model
    after = named_parameters(model)
    assert list(after) == list(before)
    for name, array in after.items():
        assert array is before[name], name
        frozen = kind == "frozen" and name.startswith("encoder.")
        assert np.array_equal(array, values[name]) == frozen, name


ROW_STEP_MODELS = {
    **{f"heads-{h}-{'token' if token else 'no-token'}": (h, token)
       for h in (1, 2, 4) for token in (True, False)},
    "bypass-1q": 1,
    "bypass-3q": 3,
}


@pytest.mark.parametrize("rows", [1, 5, 16])
@pytest.mark.parametrize("kind", list(ROW_STEP_MODELS))
def test_row_gradients_equal_per_image_oracle(kind, rows, monkeypatch):
    """Each row's loss and every gradient row equal (==) the per-image
    oracle's; with encoder=False there are no encoder keys and no encoder
    backward runs."""
    rng = np.random.default_rng(rows)
    if kind.startswith("bypass"):
        n = ROW_STEP_MODELS[kind]
        model = make_bypass_model(in_dim=5, n_qubits=n, ansatz_layers=n - 1, seed=rows,
                                  readout_qubit=n - 1)
        x = rng.normal(size=(rows, 5))
    else:
        heads, token = ROW_STEP_MODELS[kind]
        cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=heads, ffn_hidden=6,
                            out_dim=5, use_class_token=token)
        model = make_encoder_model(cfg, (4, 6, 2), n_qubits=1 + (heads == 2), seed=rows)
        x = rng.normal(size=(rows, 4, 6, 2))
    labels = [int(y) for y in rng.integers(0, 2, size=rows)]
    backward_calls = []
    encode_backward = training_module.encode_backward
    monkeypatch.setattr(training_module, "encode_backward",
                        lambda *args: backward_calls.append(1) or encode_backward(*args))
    for encoder in (True, False):
        expected = [image_step(model, row, label, encoder) for row, label in zip(x, labels)]
        before = len(backward_calls)
        losses, grads, _ = row_gradients(model, x, labels, encoder)
        assert len(backward_calls) - before == (encoder and not model.bypass)
        assert losses == [loss for loss, _ in expected]
        assert list(grads) == list(expected[0][1])
        if not encoder:
            assert not any(name.startswith("encoder.") for name in grads)
        for name, g in grads.items():
            assert g.shape == (rows, *expected[0][1][name].shape), name
            for s, (_, row_grads) in enumerate(expected):
                assert np.array_equal(g[s], row_grads[name]), (name, s)
    assert backward_calls == ([] if model.bypass else [1])


@pytest.mark.parametrize("split", ["train", "validation"])
@pytest.mark.parametrize("kind, value", [("bypass", math.nan), ("bypass", math.inf),
                                         ("encoder", math.nan), ("encoder", -math.inf)])
def test_train_rejects_a_non_finite_row_before_any_step(kind, value, split):
    """A non-finite value in a training or a validation row is named by its
    row before the split, and no parameter moves."""
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        model = make_encoder_model(cfg, (4, 4, 1), seed=39)
        data = encoder_rows(40, seed=39)
    else:
        model = make_bypass_model(in_dim=4, seed=39)
        data = two_blob_dataset(n=40, seed=39)
    config = TrainingConfig(max_epochs=2, batch_size=4, seed=39, validation_fraction=0.25)
    train_idx, val_idx = stratified_split([rec.label for rec in data], 0.25,
                                          np.random.default_rng(39))
    bad = max(train_idx if split == "train" else val_idx)
    data[bad].features.flat[-1] = value
    before = snapshot_parameters(model)
    with pytest.raises(ValueError, match=rf"^row {bad}: input values must be finite$"):
        train(data, model, config)
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name].tobytes(), name


def trace_calls(monkeypatch, functions):
    """Wrap each function at every qembed module attribute that holds it, as
    the benchmark's tracer wraps it (so call the outermost one through its
    module). Returns the log of (name, caller, args),
    the caller being the innermost wrapped function on the stack, so that a
    call is "directly under" the function that logged as its caller."""
    log, stack = [], []
    for fn in functions:
        def wrapped(*args, _fn=fn, **kwargs):
            log.append((_fn.__name__, stack[-1] if stack else None, args))
            stack.append(_fn.__name__)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()

        for key, module in list(sys.modules.items()):
            if key == "qembed" or key.startswith("qembed."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
    return log


def row_calls(log):
    """(name, caller, shape of the rows argument) of each logged call: the
    feature row of model_forward, the images of encode_with_cache and the
    feature gradients of encode_backward (None for the others)."""
    position = {"model_forward": 1, "encode_with_cache": 0, "encode_backward": 0}
    return [(name, caller, np.shape(args[position[name]]) if name in position else None)
            for name, caller, args in log]


def traced_step_functions():
    return [training_module.train, qembed_gradcheck.gradient_check,
            qembed_gradcheck.draw_samples, model_module.model_forward,
            autodiff_module.backward, qembed_encoder.encode_with_cache,
            qembed_encoder.encode_backward]


@pytest.mark.parametrize("freeze", [False, True], ids=["train-encoder", "frozen"])
def test_encoder_train_runs_encoder_once_per_mini_batch(freeze, monkeypatch):
    """Counted at every module that binds them: one block encoder forward
    (and backward, unless frozen) per mini-batch, and one model_forward then
    one backward per sample directly under train."""
    log = trace_calls(monkeypatch, traced_step_functions())
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 1), seed=31)
    data = encoder_rows(23, seed=31)
    config = TrainingConfig(max_epochs=3, batch_size=5, seed=31, validation_fraction=0.2,
                            patience=10, freeze_encoder=freeze)
    train_idx, val_idx = stratified_split([rec.label for rec in data], 0.2,
                                          np.random.default_rng(31))
    _, history = training_module.train(data, model, config)
    assert len(history.records) == 3
    expected = [("train", None, None)]
    for epoch in range(3):
        for start in range(0, len(train_idx), 5):
            rows = min(5, len(train_idx) - start)
            expected += [("encode_with_cache", "train", (rows, 4, 4, 1))]
            expected += [("model_forward", "train", (4,)), ("backward", "train", None)] * rows
            expected += [] if freeze else [("encode_backward", "train", (rows, 4))]
        # validation encodes its rows as one block (readout_p0 calls encode)
        expected += [("encode_with_cache", "train", (len(val_idx), 4, 4, 1))]
    assert row_calls(log) == expected


@pytest.mark.parametrize("samples", [1, 3, 7])
def test_gradient_check_runs_one_row_step(samples, monkeypatch):
    """draw_samples makes one lone-image encode_with_cache and one
    model_forward per candidate; gradient_check's analytic half makes one
    block encode_with_cache, S model_forward and S backward calls directly
    under it, then one block encode_backward, and that encode is the only
    one of the live weights (the reduction and ansatz shifts read its
    features)."""
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
    model = make_encoder_model(cfg, (4, 4, 1), seed=38)
    log = trace_calls(monkeypatch, traced_step_functions())
    drawn = qembed_gradcheck.draw_samples(model, samples, np.random.default_rng(38),
                                          image_shape=(4, 4, 1))
    candidates = (len(log) - 1) // 2
    assert candidates >= samples
    assert row_calls(log) == [("draw_samples", None, None)] + [
        ("encode_with_cache", "draw_samples", (4, 4, 1)), ("model_forward", "draw_samples", (3,))
    ] * candidates
    log.clear()
    qembed_gradcheck.gradient_check(model, drawn)
    calls = row_calls(log)
    first = calls.index(("model_forward", "gradient_check", (3,)))
    assert calls[first - 1] == ("encode_with_cache", "gradient_check", (samples, 4, 4, 1))
    # that block encode is the audit's only one of the live weights
    live = [i for i, (name, _, args) in enumerate(log)
            if name == "encode_with_cache" and args[1] is model.encoder_weights]
    assert live == [first - 1]
    # the perturbed losses run encode_with_cache (through encode) but no step
    step = [("model_forward", "gradient_check", (3,)), ("backward", "gradient_check", None)]
    assert [c for c in calls if c[0] != "encode_with_cache"] == [
        ("gradient_check", None, None)] + step * samples + [
        ("encode_backward", "gradient_check", (samples, 3))]


@pytest.mark.parametrize(
    "kind, gates_per_circuit, angles",
    [("bypass-1q", 6, 4), ("encoder-1q", 6, 4), ("bypass-3q-2-layers", 25, 15)],
)
def test_train_runs_2p_plus_1_circuits_per_sample_step(kind, gates_per_circuit, angles,
                                                       monkeypatch):
    """The structure the benchmark's traced check counts: each sample-step is
    one model_forward with one run_circuit, then one backward with 2P more
    (P gate angles), every one on the full G-gate list. run_circuit is
    wrapped at every qembed module that holds it, as the tracer wraps it."""
    events = []
    original = statevector_module.run_circuit

    def run_circuit(state, gates):
        events.append(("run", len(gates)))
        return original(state, gates)

    for key, module in list(sys.modules.items()):
        if key != "qembed" and not key.startswith("qembed."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, run_circuit)
    for name in ("model_forward", "backward"):
        def logged(*args, _fn=getattr(training_module, name), _name=name, **kwargs):
            events.append((_name, None))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(training_module, name, logged)
    if kind == "encoder-1q":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4)
        model = make_encoder_model(cfg, (4, 4, 1), seed=41)
        data = encoder_rows(12, seed=41)
    else:
        n, layers = (3, 2) if kind == "bypass-3q-2-layers" else (1, 1)
        model = make_bypass_model(in_dim=4, n_qubits=n, ansatz_layers=layers, seed=41)
        data = two_blob_dataset(n=12, seed=41)
    config = TrainingConfig(max_epochs=2, batch_size=5, seed=41, validation_fraction=0.0,
                            patience=10)
    _, history = train(data, model, config)
    assert len(history.records) == 2
    step = [("model_forward", None), ("run", gates_per_circuit), ("backward", None)]
    step += [("run", gates_per_circuit)] * (2 * angles)
    assert events == step * (2 * len(data))


def head_case(kind, seed, n):
    """A model of one of the head-step kinds and its n rows and labels."""
    if kind == "encoder-1q":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4)
        model = make_encoder_model(cfg, (4, 4, 1), seed=seed)
        data = encoder_rows(n, seed=seed)
    else:
        qubits, layers = (3, 2) if kind == "bypass-3q-2-layers" else (1, 1)
        model = make_bypass_model(in_dim=4, n_qubits=qubits, ansatz_layers=layers, seed=seed,
                                  readout_qubit=qubits - 1)
        data = two_blob_dataset(n=n, seed=seed)
    rows = model_module.as_rows(model, [rec.features for rec in data])
    return model, rows, [rec.label for rec in data]


HEAD_KINDS = ["bypass-1q", "encoder-1q", "bypass-3q-2-layers"]


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_row_gradients_builds_the_ansatz_once_per_call_and_a_feature_map_per_row(
        kind, monkeypatch):
    """The head's set-up is made once per row_gradients call: one ansatz
    gate list, then one feature map per row, and each row's parameter
    shifts run on the list its forward built. Both builders are wrapped at
    every qembed module that holds them."""
    events = []
    for name in ("build_z_feature_map", "build_real_amplitudes"):
        original = getattr(circuits_module, name)

        def logged(*args, _fn=original, _name=name, **kwargs):
            events.append(_name)
            return _fn(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key != "qembed" and not key.startswith("qembed."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, logged)
    model, rows, labels = head_case(kind, 43, 5)
    for _ in range(2):
        losses, _, _ = row_gradients(model, rows, labels)
        assert len(losses) == 5
    assert events == (["build_real_amplitudes"] + ["build_z_feature_map"] * 5) * 2


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_row_gradients_read_the_current_theta(kind):
    """No ansatz outlives its row_gradients call: after theta changes in
    place, as train's update stage changes it, every row's loss and head
    gradients equal (==) a lone model_forward and backward at the new
    theta."""
    model, rows, labels = head_case(kind, 44, 6)
    theta = model.theta
    seen = []
    for _ in range(3):
        losses, grads, feats = row_gradients(model, rows, labels)
        for s, (feat, label) in enumerate(zip(feats, labels)):
            forward = model_forward(model, feat)
            assert losses[s] == bce_loss(forward.p0, label)
            for name, g in backward(model, forward, label).items():
                assert np.array_equal(grads[name][s], g), (name, s)
        seen.append(losses)
        model.theta += 0.4
        assert model.theta is theta
    assert seen[0] != seen[1] != seen[2]


@pytest.mark.parametrize("labels", [2, 6])
@pytest.mark.parametrize("kind", ["bypass-1q", "encoder-1q"])
def test_row_gradients_rejects_a_label_count_that_is_not_the_row_count(kind, labels,
                                                                       monkeypatch):
    """Rows and labels must pair up: a mismatch is named with both counts
    before any row runs, for a bypass and an encoder model alike."""
    log = trace_calls(monkeypatch, traced_step_functions())
    model, rows, all_labels = head_case(kind, 45, 5)
    with pytest.raises(ValueError) as error:
        training_module.row_gradients(model, rows, (all_labels * 2)[:labels])
    assert str(error.value) == f"5 row(s) but {labels} label(s)"
    assert log == []


@pytest.mark.parametrize("kind", ["bypass-1q", "encoder-1q"])
def test_row_gradients_rejects_zero_rows(kind, monkeypatch):
    """No rows is a named error before any row runs, for a bypass and an
    encoder model alike."""
    log = trace_calls(monkeypatch, traced_step_functions())
    model, rows, _ = head_case(kind, 46, 3)
    with pytest.raises(ValueError, match="^cannot compute gradients of zero rows$"):
        training_module.row_gradients(model, rows[:0], [])
    assert log == []


def test_train_rejects_encoder_inputs_that_are_not_images():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=1, ffn_hidden=4, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 4), seed=32)
    data = records(np.ones((4, 4, 4)), [0, 1, 0, 1])
    with pytest.raises(ValueError, match=r"^row 0: encoder input must be an \(H, W, C\) image, got shape \(4, 4\)$"):
        train(data, model, TrainingConfig(max_epochs=1))


@pytest.mark.parametrize("rows", [3, 4])
def test_encoder_blocks_of_2d_rows_fail_as_one_row_does(rows):
    """Rows of a block that would stack into one 3-D image are read one by one."""
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=1, ffn_hidden=4, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 4), seed=33)
    data = records(np.ones((rows, 4, 4)), np.arange(rows) % 2)
    with pytest.raises(ValueError) as alone:
        predict(model, data[0].features)
    assert "encoder input must be an (H, W, C) image, got shape (4, 4)" in str(alone.value)
    with pytest.raises(ValueError) as block:
        evaluate(model, data)
    assert str(block.value) == str(alone.value)


def test_encoder_rows_of_different_shapes_score_row_by_row():
    """(4, 4, 1) and (2, 8, 1) images both give 4 patches of 4 values, so each
    scores row by row, but together they do not stack into one row array and
    a block of them is rejected."""
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=4,
                        use_class_token=False)
    model = make_encoder_model(cfg, (4, 4, 1), seed=34)
    rng = np.random.default_rng(34)
    rows = [rng.normal(size=(4, 4, 1)), rng.normal(size=(2, 8, 1)), rng.normal(size=(4, 4, 1))]
    expected = [predict(model, row)[1] for row in rows]
    assert [readout_p0(model, [row])[0] for row in rows] == expected
    before = snapshot_parameters(model)
    message = r"inconsistent feature shapes: \(2, 8, 1\) vs \(4, 4, 1\)"
    with pytest.raises(ValueError, match=message):
        readout_p0(model, rows)
    with pytest.raises(ValueError, match=message):
        evaluate(model, records(rows, [0, 1, 1]))
    with pytest.raises(ValueError, match=message):
        gradient_check(model, list(zip(rows, [0, 1, 1])))
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name].tobytes(), name


def test_encoder_input_with_a_leading_axis_gives_one_message():
    """A (1, 4, 4, 1) sample is one image with a row axis, not an image."""
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=1, ffn_hidden=4, out_dim=3)
    model = make_encoder_model(cfg, (4, 4, 1), seed=36)
    x = np.random.default_rng(36).normal(size=(1, 4, 4, 1))
    # the row passes name the row: the per-image oracle takes one image, not rows
    message = r"^(row 0: )?encoder input must be an \(H, W, C\) image, got shape \(1, 4, 4, 1\)"
    calls = [
        lambda: image_forward(model, x),
        lambda: predict(model, x),
        lambda: readout_p0(model, [x]),
        lambda: gradient_check(model, [(x, 1)]),
        lambda: train(records([x, x], [0, 1]), model, TrainingConfig(max_epochs=1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("kind", ["encoder", "bypass"])
def test_row_inputs_take_empty_lists_and_gradient_check_takes_generators(kind):
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=3)
        model = make_encoder_model(cfg, (4, 4, 1), seed=37)
        samples = draw_samples(model, 3, np.random.default_rng(37), image_shape=(4, 4, 1))
    else:
        model = make_bypass_model(in_dim=3, n_qubits=2, seed=37)
        samples = draw_samples(model, 3, np.random.default_rng(37))
    assert readout_p0(model, []).shape == (0,)
    ok, groups = gradient_check(model, [])
    assert ok and all(g.checked == 0 for g in groups.values())
    expected = gradient_check(model, samples)
    assert sum(g.checked for g in expected[1].values()) > 0
    assert gradient_check(model, (pair for pair in samples)) == expected
