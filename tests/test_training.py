"""Training loop: determinism, convergence, early stopping, batching."""
import math

import numpy as np
import pytest

import qembed.autodiff as autodiff_module
import qembed.model as model_module
import qembed.training as training_module
from qembed.data import EmbeddingRecord
from qembed.model import (
    features_p0,
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
    readout_p0,
    set_parameters,
    snapshot_parameters,
)
from qembed.autodiff import backward, bce_loss
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
    """A row of the wrong shape is named by its index, with the message
    model_forward gives that row alone; row shapes are checked before any
    value is, and a non-finite value reads as model_forward reads it."""
    model = make_bypass_model(in_dim=3, seed=5)
    good = np.ones(3)
    # (rows, the first bad row, whether the block's message names it)
    cases = [
        ([good, np.ones(4)], 1, True),                                  # width
        ([good, np.ones(3), np.ones(2)], 2, True),                      # ragged
        ([good, np.array([1.0, math.nan, 0.0])], 1, False),             # non-finite feature
        ([good, np.array([1.0, math.inf, 0.0]), np.ones(4)], 2, True),  # shapes first
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
    cases += [(encoder, flat, 35, True), (encoder, non_finite, 35, False)]
    for m, rows, bad, named in cases:
        with pytest.raises(ValueError) as alone:
            model_forward(m, rows[bad])
        with pytest.raises(ValueError) as block:
            readout_p0(m, rows)
        assert str(block.value) == (f"row {bad}: {alone.value}" if named else str(alone.value))
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
    rows, row_labels = [data[i].features for i in indices], [labels[i] for i in indices]
    assert _mean_loss_and_f1(model, rows, row_labels) == (float(np.mean(losses)), f1)


# ---------------------------------------------------------------------------
# Encoder training over a row axis
# ---------------------------------------------------------------------------

def per_sample_train(dataset, model, config):
    """train() as a strict per-sample loop: model_forward and backward on the
    full model for every sample, no early stop (patience >= max_epochs)."""
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = stratified_split(
        [rec.label for rec in dataset], config.validation_fraction, rng)
    trainable = {k: v for k, v in named_parameters(model).items()
                 if not (config.freeze_encoder and k.startswith("encoder."))}
    optimizer = _make_optimizer(config)
    records_out, best_val, best = [], math.inf, snapshot_parameters(model)
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        losses, norms = [], []
        for start in range(0, len(order), config.batch_size):
            batch = [train_idx[i] for i in order[start : start + config.batch_size]]
            grad_sum = {k: np.zeros_like(v) for k, v in trainable.items()}
            for i in batch:
                cache = model_forward(model, dataset[i].features)
                losses.append(bce_loss(cache.p0, cache.p1, dataset[i].label))
                grads = backward(model, cache, dataset[i].label)
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


@pytest.mark.parametrize("freeze", [False, True], ids=["train-encoder", "frozen"])
@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum"])
def test_encoder_train_matches_per_sample_loop(optimizer, batch, freeze):
    """History and final parameters equal a per-sample loop bit for bit."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads={1: 1, 5: 2, 16: 4}[batch],
                        ffn_hidden=12, out_dim=6, use_class_token=batch != 5)
    data = encoder_rows(26, shape=(4, 6, 2), seed=batch)
    config = TrainingConfig(
        learning_rate=0.05 if optimizer == "adam" else 0.01, max_epochs=3, batch_size=batch,
        optimizer=optimizer, seed=batch, validation_fraction=0.25, patience=10,
        freeze_encoder=freeze,
    )
    expected_model, expected = per_sample_train(
        data, make_encoder_model(cfg, (4, 6, 2), seed=batch), config)
    model, history = train(data, make_encoder_model(cfg, (4, 6, 2), seed=batch), config)
    assert history.records == expected
    expected_params = named_parameters(expected_model)
    for name, arr in named_parameters(model).items():
        assert np.array_equal(arr, expected_params[name]), name


@pytest.mark.parametrize("freeze", [False, True], ids=["train-encoder", "frozen"])
def test_encoder_train_runs_encoder_once_per_mini_batch(freeze, monkeypatch):
    """Counted where train() binds them, and where the per-sample model_forward
    and backward bind them, which training must no longer reach."""
    calls = {}
    for module, name in [(training_module, "encode_with_cache"),
                         (training_module, "encode_backward"),
                         (model_module, "encode_with_cache"),
                         (autodiff_module, "encode_backward")]:
        key = f"{module.__name__.split('.')[-1]}.{name}"
        calls[key] = 0

        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=4, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 1), seed=31)
    data = encoder_rows(23, seed=31)
    config = TrainingConfig(max_epochs=3, batch_size=5, seed=31, validation_fraction=0.2,
                            patience=10, freeze_encoder=freeze)
    train_idx, _ = stratified_split([rec.label for rec in data], 0.2,
                                    np.random.default_rng(31))
    batches = 3 * math.ceil(len(train_idx) / 5)
    _, history = train(data, model, config)
    assert len(history.records) == 3
    assert calls == {"training.encode_with_cache": batches,
                     "training.encode_backward": 0 if freeze else batches,
                     "model.encode_with_cache": 0, "autodiff.encode_backward": 0}


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
    # the row passes name the row: model_forward takes one sample, not rows
    message = r"^(row 0: )?encoder input must be an \(H, W, C\) image, got shape \(1, 4, 4, 1\)"
    calls = [
        lambda: model_forward(model, x),
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
