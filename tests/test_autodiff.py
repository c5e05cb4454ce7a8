"""Hybrid gradients: parameter shift, BCE, reduction, full backward vs
finite differences."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qembed.autodiff import (
    ReductionLayer,
    backward,
    bce_grad_p0,
    bce_loss,
    circuit_angle_gradients,
    finite_diff_grad,
    reduce,
    reduce_rows,
)
from qembed.circuits import (
    AnsatzSpec,
    FeatureMapSpec,
    NonFiniteRowError,
    build_real_amplitudes,
    build_z_feature_map,
    quantum_forward,
)
from qembed.config import default_config, image_shape_from, model_from_config
from qembed import gradcheck
from qembed.encoder import EncoderConfig
from qembed.gradcheck import GroupDeviation, draw_samples, gradient_check
from qembed.model import (
    HybridModel,
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
    set_parameters,
)
from qembed.statevector import GateOp, apply_gate, marginal_zero_probability, new_zero_state

from per_image import image_loss, image_step

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# Reduction layer
# ---------------------------------------------------------------------------

def test_reduce_zero_weights_returns_bias():
    layer = ReductionLayer(w=np.zeros((4, 1)), b=np.array([0.3]))
    assert np.allclose(reduce(np.ones(4), layer), [0.3], atol=1e-15)


def test_reduce_one_hot_selects_row():
    rng = np.random.default_rng(0)
    layer = ReductionLayer(w=rng.normal(size=(5, 2)), b=np.zeros(2))
    for i in range(5):
        x = np.zeros(5)
        x[i] = 1.0
        assert np.allclose(reduce(x, layer), layer.w[i], atol=1e-15)


def test_reduce_matches_dot_loop():
    rng = np.random.default_rng(1)
    layer = ReductionLayer(w=rng.normal(size=(6, 3)), b=rng.normal(size=3))
    x = rng.normal(size=6)
    expected = [sum(x[i] * layer.w[i, j] for i in range(6)) + layer.b[j] for j in range(3)]
    assert np.allclose(reduce(x, layer), expected, atol=1e-12)


@pytest.mark.parametrize("rows, in_dim, n_out", [
    (1, 16, 1), (7, 16, 1), (2000, 16, 1), (64, 8, 3), (64, 100, 12), (5, 3, 2), (300, 33, 7),
])
def test_reduce_rows_matches_reduce_per_row(rows, in_dim, n_out):
    rng = np.random.default_rng(rows + in_dim + n_out)
    layer = ReductionLayer(w=rng.normal(size=(in_dim, n_out)), b=rng.normal(size=n_out))
    x = rng.normal(scale=3.0, size=(rows, in_dim))
    expected = np.array([reduce(row, layer) for row in x])
    assert np.array_equal(reduce_rows(x, layer), expected)
    # rows read from a strided view, as a column slice of a wider table
    wide = np.concatenate([np.ones((rows, 1)), x], axis=1)
    assert np.array_equal(reduce_rows(wide[:, 1:], layer), expected)


@pytest.mark.parametrize("rows, in_dim, n_out", [
    (1, 16, 1), (3, 16, 1), (5, 25, 2), (4, 7, 3), (2, 768, 4), (40, 33, 7),
])
def test_reduce_rows_copy_axis_matches_each_copy(rows, in_dim, n_out):
    """Copies of w, or of b, on a leading axis reduce x against each copy:
    copy k's rows are reduce_rows' bits against a layer holding copy k,
    whatever the copy's offset in the stack."""
    rng = np.random.default_rng(rows * in_dim + n_out)
    w, b = rng.normal(size=(in_dim, n_out)), rng.normal(size=n_out)
    x = rng.normal(scale=3.0, size=(rows, in_dim))
    w_copies = w + rng.normal(scale=1e-3, size=(5, in_dim, n_out))
    b_copies = b + rng.normal(scale=1e-3, size=(5, n_out))
    got_w = reduce_rows(x, SimpleNamespace(w=w_copies, b=b))
    got_b = reduce_rows(x, SimpleNamespace(w=w, b=b_copies))
    assert got_w.shape == got_b.shape == (5, rows, n_out)
    for k in range(5):
        assert np.array_equal(got_w[k], reduce_rows(x, ReductionLayer(w=w_copies[k].copy(), b=b)))
        assert np.array_equal(got_b[k], reduce_rows(x, ReductionLayer(w=w, b=b_copies[k].copy())))


def test_reduce_shape_mismatch():
    layer = ReductionLayer(w=np.zeros((4, 1)), b=np.zeros(1))
    with pytest.raises(ValueError):
        reduce(np.ones(3), layer)


# ---------------------------------------------------------------------------
# BCE loss
# ---------------------------------------------------------------------------

def test_bce_balanced_probability():
    assert math.isclose(bce_loss(0.5, 1), LN2, abs_tol=1e-12)


def test_bce_perfect_confidence():
    assert math.isclose(bce_loss(1.0, 1), 0.0, abs_tol=1e-9)


def test_bce_clamped_wrong_confidence():
    # -log(1e-12) = 12 ln 10
    assert math.isclose(bce_loss(1.0, 0), 12 * math.log(10), rel_tol=1e-12)


def test_bce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bce_loss(0.5, 2)
    with pytest.raises(ValueError):
        bce_loss(1.5, 1)


def test_bce_grad_is_reciprocal_for_positive_label():
    for p0 in (0.1, 0.3, 0.5, 0.9):
        assert math.isclose(bce_grad_p0(p0, 1), -1.0 / p0, rel_tol=1e-12)


def test_bce_grad_matches_finite_difference():
    for p0 in (0.2, 0.5, 0.8):
        for label in (0, 1):
            fd = finite_diff_grad(lambda t: bce_loss(t[0], label), [p0], 0)
            assert math.isclose(bce_grad_p0(p0, label), fd, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Parameter shift
# ---------------------------------------------------------------------------

def single_ry_d_theta(theta):
    """circuit_angle_gradients' d_theta of the lone RY(theta): feature 0
    makes the two-repetition map act as identity, so p0 = cos(theta/2)**2."""
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=0)
    _, d_theta = circuit_angle_gradients(quantum_forward([0.0], [theta], fm, an).gates, fm)
    assert d_theta.shape == (1,)
    return d_theta[0]


def test_shift_rule_on_single_ry():
    # p0 = cos(theta/2)**2, derivative -sin(theta)/2
    assert math.isclose(single_ry_d_theta(math.pi / 2), -0.5, abs_tol=1e-12)
    assert math.isclose(single_ry_d_theta(0.0), 0.0, abs_tol=1e-12)


def test_shift_rule_exact_across_angles():
    for theta in np.linspace(-math.pi, math.pi, 25):
        got = single_ry_d_theta(float(theta))
        assert math.isclose(got, -math.sin(theta) / 2.0, abs_tol=1e-12)


def test_feature_gradient_closed_form():
    """dp0/dy for p0 = cos(y)**2 via chained per-gate shifts."""
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=0)
    d_feat, _ = circuit_angle_gradients(quantum_forward([math.pi / 4], [0.0], fm, an).gates, fm)
    assert math.isclose(d_feat[0], -1.0, abs_tol=1e-12)
    d_feat, _ = circuit_angle_gradients(quantum_forward([0.0], [0.0], fm, an).gates, fm)
    assert math.isclose(d_feat[0], 0.0, abs_tol=1e-12)
    for y in np.linspace(-2.0, 2.0, 21):
        d_feat, _ = circuit_angle_gradients(quantum_forward([y], [0.0], fm, an).gates, fm)
        assert math.isclose(d_feat[0], -math.sin(2 * y), abs_tol=1e-12)


def test_circuit_gradients_match_finite_differences():
    """200 random configs, 1-2 qubits, 0-2 ansatz layers, 1e-6 absolute."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        layers = int(rng.integers(0, 3))
        reps = int(rng.integers(1, 3))
        fm = FeatureMapSpec(n_qubits=n, repetitions=reps)
        an = AnsatzSpec(n_qubits=n, layers=layers)
        feats = rng.uniform(-2, 2, size=n)
        theta = rng.uniform(-math.pi, math.pi, size=an.parameter_count())
        gates = quantum_forward(feats, theta, fm, an).gates
        d_feat, d_theta = circuit_angle_gradients(gates, fm)
        for q in range(n):
            fd = finite_diff_grad(lambda v: quantum_forward(v, theta, fm, an).p0, feats, q)
            assert abs(d_feat[q] - fd) < 1e-6
        for j in range(len(theta)):
            fd = finite_diff_grad(lambda v: quantum_forward(feats, v, fm, an).p0, theta, j)
            assert abs(d_theta[j] - fd) < 1e-6


def reference_gates(features, theta, n, reps, scale, layers):
    """The feature map and ansatz gate list, one new GateOp per gate."""
    gates = []
    for _ in range(reps):
        for q in range(n):
            gates += [GateOp("H", q), GateOp("U1", q, angle=scale * float(features[q]))]
    angles = iter(float(a) for a in theta)
    for _ in range(layers):
        gates += [GateOp("RY", q, angle=next(angles)) for q in range(n)]
        gates += [GateOp("CX", q + 1, control=q) for q in range(n - 1)]
    gates += [GateOp("RY", q, angle=next(angles)) for q in range(n)]
    return gates


def reference_p0(gates, n, readout):
    """P(0) of `readout` after applying the gates to |0...0> one at a time."""
    state = new_zero_state(n)
    for gate in gates:
        state = apply_gate(state, gate)
    return marginal_zero_probability(state, readout)


def test_circuit_kernels_equal_a_gate_by_gate_reference():
    """quantum_forward's p0 and both parameter-shift gradient arrays, under
    ==, on seeded random circuits: 1-4 qubits, 1-3 repetitions, 0-3 ansatz
    layers, a signed scale and every readout qubit."""
    rng = np.random.default_rng(12)
    for _ in range(25):
        n, reps, layers = (int(rng.integers(lo, hi)) for lo, hi in ((1, 5), (1, 4), (0, 4)))
        scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 3.0))
        fm = FeatureMapSpec(n_qubits=n, repetitions=reps, scale=scale)
        an = AnsatzSpec(n_qubits=n, layers=layers)
        feats = rng.normal(0.0, 2.0, size=n)
        theta = rng.normal(0.0, 2.0, size=an.parameter_count())
        gates = reference_gates(feats, theta, n, reps, scale, layers)
        assert build_z_feature_map(feats, fm) + build_real_amplitudes(theta, an) == gates
        for readout in range(n):
            assert quantum_forward(feats, theta, fm, an, readout).p0 == reference_p0(
                gates, n, readout)
            d_feat, d_theta = np.zeros(n), []
            for pos, gate in enumerate(gates):
                if gate.angle is None:
                    continue
                p0 = []
                for sign in (1.0, -1.0):
                    shifted = list(gates)
                    shifted[pos] = GateOp(gate.kind, gate.target,
                                          angle=gate.angle + sign * (math.pi / 2.0))
                    p0.append(reference_p0(shifted, n, readout))
                if gate.kind == "U1":
                    d_feat[gate.target] += scale * ((p0[0] - p0[1]) / 2.0)
                else:
                    d_theta.append((p0[0] - p0[1]) / 2.0)
            got_feat, got_theta = circuit_angle_gradients(
                quantum_forward(feats, theta, fm, an, readout).gates, fm, readout)
            assert np.array_equal(got_feat, d_feat)
            assert np.array_equal(got_theta, np.array(d_theta))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_on_polynomial():
    assert math.isclose(finite_diff_grad(lambda t: t[0] ** 2, [3.0], 0), 6.0, abs_tol=1e-8)


def test_finite_diff_on_constant():
    assert finite_diff_grad(lambda t: 1.25, [0.7], 0) == 0.0


def test_finite_diff_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        finite_diff_grad(lambda t: math.inf, [0.0], 0)


def test_loss_gradient_shift_vs_finite_difference():
    """bce(quantum_forward) d/dtheta: chained shift equals central difference."""
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=1)
    rng = np.random.default_rng(3)
    for label in (0, 1):
        y = float(rng.uniform(0.3, 1.2))
        theta = rng.uniform(-1.0, 1.0, size=2)
        _, d_theta = circuit_angle_gradients(quantum_forward([y], theta, fm, an).gates, fm)
        p0 = quantum_forward([y], theta, fm, an).p0
        chained = bce_grad_p0(p0, label) * d_theta

        def loss_of(vec):
            res = quantum_forward([y], vec, fm, an)
            return bce_loss(res.p0, label)

        for j in range(2):
            fd = finite_diff_grad(loss_of, theta, j)
            assert abs(chained[j] - fd) < 1e-6


# ---------------------------------------------------------------------------
# Full backward
# ---------------------------------------------------------------------------

def test_backward_requires_cache():
    model = make_bypass_model(in_dim=4, seed=0)
    with pytest.raises(RuntimeError):
        backward(model, None, 1)


def test_backward_bias_matches_finite_difference():
    model = make_bypass_model(in_dim=4, ansatz_layers=0, seed=4)
    model.reduction.w[:] = 0.0
    model.reduction.b[:] = 0.4
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    cache = model_forward(model, x)
    grads = backward(model, cache, 1)

    def loss_of_b(b):
        layer = ReductionLayer(w=model.reduction.w, b=np.array(b))
        y = reduce(x, layer)
        res = quantum_forward(y, model.theta, model.feature_map, model.ansatz)
        return bce_loss(res.p0, 1)

    fd = finite_diff_grad(loss_of_b, model.reduction.b, 0)
    assert abs(grads["reduction.b"][0] - fd) < 1e-6


def test_backward_zero_at_probability_extremum():
    # y = 0 puts p0 at its maximum; the inner derivative kills dL/dw
    model = make_bypass_model(in_dim=3, ansatz_layers=0, seed=6)
    model.reduction.w[:] = 0.0
    model.reduction.b[:] = 0.0
    model.theta[:] = 0.0
    cache = model_forward(model, np.array([0.5, -1.0, 2.0]))
    grads = backward(model, cache, 1)
    assert np.array_equal(grads["reduction.w"], np.zeros((3, 1)))


def test_chain_rule_factorization_bitwise():
    """dL/dw[j] == (dL/dy) * x[j] exactly when n_out = 1."""
    model = make_bypass_model(in_dim=5, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=5)
    grads = backward(model, model_forward(model, x), 0)
    dl_dy = grads["reduction.b"][0]
    assert np.array_equal(grads["reduction.w"][:, 0], dl_dy * x)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_backward_weight_gradient_is_the_outer_product_bit_for_bit(n_qubits):
    """dL/dw is np.outer(features, dL/dy), with dL/dy the bias gradient, in
    every bit: on seeded rows and labels of 1-3 qubit models, some
    features exactly 0 or -0."""
    rng = np.random.default_rng(40 + n_qubits)
    for seed in range(12):
        model = make_bypass_model(in_dim=5, n_qubits=n_qubits, seed=seed,
                                  readout_qubit=seed % n_qubits)
        x = rng.normal(size=5)
        x[seed % 5] = (0.0, -0.0)[seed % 2]
        grads = backward(model, model_forward(model, x), seed % 2)
        expected = np.outer(x, grads["reduction.b"])
        assert grads["reduction.w"].shape == expected.shape
        assert grads["reduction.w"].tobytes() == expected.tobytes()


def test_loss_decreases_along_negative_gradient():
    """Step 1e-4 along -grad reduces the loss on random instances."""
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        model = make_bypass_model(in_dim=4, ansatz_layers=1, seed=int(rng.integers(1e6)))
        model.reduction.w[:] = rng.normal(scale=0.5, size=(4, 1))
        model.reduction.b[:] = rng.normal(scale=0.5, size=1)
        model.theta[:] = rng.normal(scale=0.5, size=2)
        x = rng.normal(size=4)
        label = int(rng.integers(0, 2))
        cache = model_forward(model, x)
        if not 0.01 < cache.p0 < 0.99:
            continue
        loss0 = bce_loss(cache.p0, label)
        grads = backward(model, cache, label)
        gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if gnorm < 1e-10:
            continue
        params = named_parameters(model)
        set_parameters(model, {k: params[k] - 1e-4 * grads[k] for k in params})
        after = model_forward(model, x)
        loss1 = bce_loss(after.p0, label)
        assert loss1 < loss0
        checked += 1


def test_bypass_model_full_gradient_check():
    model = make_bypass_model(in_dim=6, n_qubits=2, ansatz_layers=1, seed=10)
    rng = np.random.default_rng(11)
    samples = draw_samples(model, 4, rng)
    ok, groups = gradient_check(model, samples)
    assert ok, {name: (g.max_abs_dev, g.max_rel_dev) for name, g in groups.items()}


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_encoder_model_full_gradient_check(heads):
    """Every encoder weight gradient against finite differences."""
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=heads, ffn_hidden=6, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 1), ansatz_layers=1, seed=12)
    rng = np.random.default_rng(13)
    samples = draw_samples(model, 2, rng, image_shape=(4, 4, 1))
    ok, groups = gradient_check(model, samples)
    assert ok, {name: (g.max_abs_dev, g.max_rel_dev) for name, g in groups.items()}


def per_sample_gradient_check(model, samples, h, abs_tol, rel_tol):
    """Reference audit, sample by sample: the per-image oracle's gradients,
    and its loss for every perturbed scalar."""
    params = named_parameters(model)
    groups = {name: GroupDeviation(name=name) for name in params}

    def loss(x, label):
        return image_loss(model, x, label)

    for x, label in samples:
        analytic = image_step(model, x, label)[1]
        for name, array in params.items():
            group = groups[name]
            for j in range(array.size):
                original = float(array.flat[j])
                array.flat[j] = original + h
                up = loss(x, label)
                array.flat[j] = original - h
                down = loss(x, label)
                array.flat[j] = original
                fd = (up - down) / (2.0 * h)
                a = float(analytic[name].reshape(-1)[j])
                dev = abs(a - fd)
                scale = max(abs(a), abs(fd))
                group.checked += 1
                group.max_abs_dev = max(group.max_abs_dev, dev)
                group.max_rel_dev = max(group.max_rel_dev, dev / scale if scale > 0 else 0.0)
                group.ok = group.ok and dev <= max(abs_tol, rel_tol * scale)
    return all(g.ok for g in groups.values()), groups


@pytest.mark.parametrize("kind", ["encoder", "bypass", "encoder-20-samples", "bypass-wide"])
def test_gradient_check_equals_per_sample_loop(kind):
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=6, layers=2, heads=2, ffn_hidden=5, out_dim=3)
        model = make_encoder_model(cfg, (4, 6, 2), seed=14)
        samples = draw_samples(model, 3, np.random.default_rng(15), image_shape=(4, 6, 2))
    elif kind == "encoder-20-samples":
        # 3 pairs of copies per block, so most arrays end in a partial block
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=3, out_dim=4)
        model = make_encoder_model(cfg, (4, 4, 1), seed=19)
        samples = draw_samples(model, 20, np.random.default_rng(20), image_shape=(4, 4, 1))
    elif kind == "bypass-wide":
        # 50 reduction weights at 12 pairs of copies per block: 4 full
        # blocks and a last one of 2 pairs
        model = make_bypass_model(in_dim=25, n_qubits=2, seed=24)
        samples = draw_samples(model, 5, np.random.default_rng(25))
        pairs = gradcheck._BLOCK_ROWS // (2 * len(samples))
        assert (model.reduction.w.size, pairs) == (50, 12)
    else:
        model = make_bypass_model(in_dim=4, n_qubits=3, ansatz_layers=2, seed=14, readout_qubit=2)
        samples = draw_samples(model, 3, np.random.default_rng(15))
    before = {name: a.copy() for name, a in named_parameters(model).items()}
    # tolerances tight enough that some groups fail, so the flags are compared too
    expected = per_sample_gradient_check(model, samples, 1e-5, 0.0, 1e-9)
    assert gradient_check(model, samples, 1e-5, 0.0, 1e-9) == expected
    flags = [g.ok for g in expected[1].values()]
    assert any(flags) and not all(flags)
    for name, a in named_parameters(model).items():
        assert np.array_equal(a, before[name])


def _audit_case(case):
    if case == "bypass":
        model = make_bypass_model(in_dim=7, n_qubits=3, ansatz_layers=2, seed=23, readout_qubit=1)
        return model, draw_samples(model, 4, np.random.default_rng(23))
    if case == "default":
        config = default_config()
        config["model.bypass_encoder"] = False
        model = model_from_config(config, seed=0)
        return model, draw_samples(model, 1, np.random.default_rng(0), image_shape_from(config))
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=3, out_dim=5)
    model = make_encoder_model(cfg, (4, 4, 1), n_qubits=2, ansatz_layers=1, seed=16)
    samples = draw_samples(model, 5, np.random.default_rng(17), image_shape=(4, 4, 1))
    if case == "mixed-shapes":
        # a 2x8 image makes as many 2x2 patches as a 4x4 one, but the
        # samples no longer stack into one (S, H, W, C) row array
        samples[1] = (samples[1][0].reshape(2, 8, 1), samples[1][1])
    return model, samples


@pytest.mark.parametrize("case", ["default", "block-edge-in-head", "mixed-shapes", "bypass"])
def test_gradient_check_stacked_copies_equal_per_sample_loop(case):
    """Losses read from blocks of copies of one shifted array give the
    reference loop's report, and no parameter array is ever written: every
    one is read-only while the audit runs. Samples of mixed image shapes do
    not stack, so they are rejected, naming both shapes, before any copy is
    made."""
    model, samples = _audit_case(case)
    params = named_parameters(model)
    before = {name: a.copy() for name, a in params.items()}
    if case == "mixed-shapes":
        with pytest.raises(ValueError, match=r"inconsistent feature shapes: \(2, 8, 1\) vs \(4, 4, 1\)"):
            gradient_check(model, samples, 1e-5, 0.0, 1e-9)
        for name, a in named_parameters(model).items():
            assert a.tobytes() == before[name].tobytes(), name
        return
    pairs = max(1, gradcheck._BLOCK_ROWS // (2 * len(samples)))
    if case == "block-edge-in-head":
        size = params["encoder.head.w"].size
        assert size > pairs and size % pairs != 0  # a partial last block
    expected = per_sample_gradient_check(model, samples, 1e-5, 0.0, 1e-9)
    for a in params.values():
        a.flags.writeable = False
    try:
        assert gradient_check(model, samples, 1e-5, 0.0, 1e-9) == expected
    finally:
        for a in params.values():
            a.flags.writeable = True
    assert sum(g.checked for g in expected[1].values()) == len(samples) * sum(
        a.size for a in params.values()
    )
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name].tobytes(), name


def _bypass_audit_case():
    model = make_bypass_model(in_dim=3, n_qubits=2, seed=18)
    samples = draw_samples(model, 2, np.random.default_rng(18))
    return model, samples, {name: a.tobytes() for name, a in named_parameters(model).items()}


@pytest.mark.parametrize("kwargs, message", [
    ({"h": 0.0}, "h must be finite and > 0, got 0.0"),
    ({"h": -1e-5}, "h must be finite and > 0, got -1e-05"),
    ({"h": math.nan}, "h must be finite and > 0, got nan"),
    ({"h": math.inf}, "h must be finite and > 0, got inf"),
    ({"abs_tol": math.nan}, "abs_tol must be finite and >= 0, got nan"),
    ({"abs_tol": -1e-6}, "abs_tol must be finite and >= 0, got -1e-06"),
    ({"rel_tol": -1.0}, "rel_tol must be finite and >= 0, got -1.0"),
    ({"rel_tol": math.inf}, "rel_tol must be finite and >= 0, got inf"),
], ids=["h-zero", "h-negative", "h-nan", "h-inf", "abs-tol-nan", "abs-tol-negative",
        "rel-tol-negative", "rel-tol-inf"])
def test_gradient_check_rejects_bad_arguments_before_any_parameter_moves(kwargs, message):
    model, samples, before = _bypass_audit_case()
    with pytest.raises(ValueError) as error:
        gradient_check(model, samples, **kwargs)
    assert str(error.value) == message
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name], name


def test_gradient_check_names_the_scalar_whose_shift_makes_features_non_finite(monkeypatch):
    """A block's feature rows run copy by copy, one row per sample, with the
    +h and -h copies of each scalar in pairs: with 5 samples and 12 scalars
    per block, row 17 of patch_projection's second block is copy 3, the -h
    copy of scalar 12 + 1."""
    _check_audit_names_row_17_as_scalar_13(monkeypatch, NonFiniteRowError)


def test_gradient_check_reads_the_row_from_the_error_not_its_message(monkeypatch):
    class RewordedRowError(NonFiniteRowError):
        def __str__(self) -> str:
            return f"the angle of row {self.row} is not a number"

    _check_audit_names_row_17_as_scalar_13(monkeypatch, RewordedRowError)


def _check_audit_names_row_17_as_scalar_13(monkeypatch, error_type) -> None:
    """The audit names the scalar of row 17 of patch_projection's second
    block when that block's loss pass raises `error_type(17)`, and no
    parameter moves."""
    model, samples = _audit_case("block-edge-in-head")
    before = {name: a.tobytes() for name, a in named_parameters(model).items()}
    blocks = []
    real = gradcheck.features_p0

    def failing(model, feats):
        if len(feats) > len(samples):
            blocks.append(len(feats))
            if len(blocks) == 2:
                raise error_type(17)
        return real(model, feats)

    monkeypatch.setattr(gradcheck, "features_p0", failing)
    with pytest.raises(ValueError) as error:
        gradient_check(model, samples, h=0.5)
    assert str(error.value) == (
        "shifting encoder.patch_projection scalar 13 by h=0.5: features must be finite"
    )
    assert blocks == [24 * 5, 8 * 5]
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name], name


def test_gradient_check_names_an_encoder_shift_that_overflows():
    """A step that overflows the encoder's attention and layer norms is named
    by its array, scalar and h, with no numpy warning escaping first (tier-1
    turns one into an error), and no parameter moves."""
    model, samples = _audit_case("default")
    before = {name: a.tobytes() for name, a in named_parameters(model).items()}
    with pytest.raises(ValueError) as error:
        gradient_check(model, samples, h=1e160)
    assert str(error.value) == (
        "shifting encoder.patch_projection scalar 0 by h=1e+160: features must be finite"
    )
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name], name


@pytest.mark.parametrize("cause", ["h-overflows-features", "loss-raises"])
def test_gradient_check_restores_a_shifted_scalar_when_a_loss_raises(cause, monkeypatch):
    """A loss evaluation that raises mid-audit leaves every parameter as it
    was: a step so large that the shifted features overflow, which is named
    without a numpy warning escaping (tier-1 fails on one), or a failure in
    the loss pass of the reduction bias's block, after the weights' block
    was scored."""
    model, samples, before = _bypass_audit_case()
    if cause == "h-overflows-features":
        with pytest.raises(ValueError, match="features must be finite"):
            gradient_check(model, samples, h=1e308)
    else:
        calls = []
        real = gradcheck.reduced_p0

        def failing(model, y, theta):
            calls.append(y)
            if len(calls) == 2:
                raise RuntimeError("loss evaluation failed")
            return real(model, y, theta)

        monkeypatch.setattr(gradcheck, "reduced_p0", failing)
        with pytest.raises(RuntimeError, match="loss evaluation failed"):
            gradient_check(model, samples)
        # the weights' block (3 x 2 scalars), then the bias block (2): each
        # scalar at +h and -h, one row per sample
        assert [len(y) for y in calls] == [2 * 6 * 2, 2 * 2 * 2]
    for name, a in named_parameters(model).items():
        assert a.tobytes() == before[name], name
