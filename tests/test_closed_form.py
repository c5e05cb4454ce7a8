"""A closed-form oracle for the paper's 1-qubit head, which shares nothing
with the simulator (Schuld, Sweke & Meyer 2021, arXiv:2008.08605).

With one qubit the feature map is `reps` rounds of H then U1(a), a = scale * y
for the reduction output y, and the ansatz is L + 1 RY rotations, which
compose to one RY(T), T the sum of theta. From |0>:

    reps 1:  P(0) = (1 - sin T cos a) / 2
    reps 2:  P(0) = 1/2 + cos T cos a / 2 - sin T sin(a)**2 / 2

Both are 2 pi-periodic in a, so P(0) has period 2 pi / |scale| in y.
"""
import math

import numpy as np
import pytest

from qembed.autodiff import ReductionLayer, bce_grad_p0, circuit_angle_gradients
from qembed.circuits import AnsatzSpec, FeatureMapSpec, quantum_forward, readout_rows
from qembed.model import HybridModel, row_p0
from qembed.training import row_gradients

TOL = 1e-12


def closed_form(a, t, reps):
    """(P(0), dP/da, dP/dT) at feature angle `a` and ansatz angle sum `t`."""
    if reps == 1:
        return (0.5 * (1.0 - np.sin(t) * np.cos(a)), 0.5 * np.sin(t) * np.sin(a),
                -0.5 * np.cos(t) * np.cos(a))
    sin2 = np.sin(a) ** 2
    return (
        0.5 + 0.5 * np.cos(t) * np.cos(a) - 0.5 * np.sin(t) * sin2,
        -0.5 * np.cos(t) * np.sin(a) - np.sin(t) * np.sin(a) * np.cos(a),
        -0.5 * np.sin(t) * np.cos(a) - 0.5 * np.cos(t) * sin2,
    )


CASES = [(reps, layers, scale)
         for reps in (1, 2) for layers in range(4) for scale in (2.0, -1.3, 0.7)]


def head(reps, layers, scale):
    """A seeded 1-qubit head, with the rows and labels it is checked on."""
    rng = np.random.default_rng(CASES.index((reps, layers, scale)))
    w, b = rng.normal(0.0, 0.5, size=(4, 1)), rng.normal(0.0, 1.0, size=1)
    theta = rng.normal(0.0, 1.0, size=layers + 1)
    model = HybridModel(ReductionLayer(w, b), theta, FeatureMapSpec(1, reps, scale),
                        AnsatzSpec(1, layers))
    return model, rng.normal(0.0, 2.0, size=(12, 4)), list(rng.integers(0, 2, size=12))


@pytest.mark.parametrize("reps,layers,scale", CASES)
def test_readouts_match_the_closed_form(reps, layers, scale):
    model, xs, _ = head(reps, layers, scale)
    y = xs @ model.reduction.w[:, 0] + model.reduction.b[0]
    p0 = closed_form(scale * y, model.theta.sum(), reps)[0]
    block = readout_rows(y[:, None], model.theta, model.feature_map, model.ansatz)
    np.testing.assert_allclose(block, p0, rtol=0, atol=TOL)
    np.testing.assert_allclose([row_p0(model, x) for x in xs], p0, rtol=0, atol=TOL)


@pytest.mark.parametrize("reps,layers,scale", CASES)
def test_gradients_match_the_closed_form(reps, layers, scale):
    model, xs, labels = head(reps, layers, scale)
    y = xs @ model.reduction.w[:, 0] + model.reduction.b[0]
    p0, d_a, d_t = closed_form(scale * y, model.theta.sum(), reps)
    fm, an = model.feature_map, model.ansatz
    for yi, da, dt in zip(y, d_a, d_t):
        gates = quantum_forward([yi], model.theta, fm, an).gates
        d_features, d_theta = circuit_angle_gradients(gates, fm)
        np.testing.assert_allclose(d_features, [scale * da], rtol=0, atol=TOL)
        np.testing.assert_allclose(d_theta, np.full(layers + 1, dt), rtol=0, atol=TOL)
    # the BCE chain of row_gradients, from the closed form's P(0)
    g_p0 = np.array([bce_grad_p0(p, label) for p, label in zip(p0, labels)])
    g_y = g_p0 * scale * d_a
    grads = row_gradients(model, xs, labels)[1]
    np.testing.assert_allclose(grads["reduction.b"][:, 0], g_y, rtol=TOL, atol=TOL)
    np.testing.assert_allclose(grads["reduction.w"][:, :, 0], xs * g_y[:, None], rtol=TOL, atol=TOL)
    np.testing.assert_allclose(grads["ansatz.theta"], np.outer(g_p0 * d_t, np.ones(layers + 1)),
                               rtol=TOL, atol=TOL)


def test_the_period_in_the_reduction_output_is_two_pi_over_scale():
    """Not pi: at reps 2, P(0) at a and a + pi differ."""
    model, xs, _ = head(2, 1, -1.3)
    y = xs[:, 0]
    fm, an = model.feature_map, model.ansatz
    shifted = readout_rows((y + 2 * math.pi / abs(fm.scale))[:, None], model.theta, fm, an)
    np.testing.assert_allclose(shifted, readout_rows(y[:, None], model.theta, fm, an),
                               rtol=0, atol=TOL)
    half = readout_rows((y + math.pi / abs(fm.scale))[:, None], model.theta, fm, an)
    assert np.abs(half - readout_rows(y[:, None], model.theta, fm, an)).max() > 0.1
