"""Exact gradients across the classical/quantum boundary.

The circuit side uses the two-point parameter-shift rule, applied to each
gate angle individually: for any one U1 or RY angle the readout probability
is a degree-1 trigonometric polynomial, so
[p0(a + pi/2) - p0(a - pi/2)] / 2 is the exact derivative. A classical
feature that enters several phase gates through a scale factor gets the
chain-rule sum of per-gate shifts. `circuit_angle_gradients` takes the
gate list the forward pass built and ran (`QuantumForwardResult.gates`)
and runs each shift on one working copy of it, swapping the shifted gate
in and the original back, so a sample's P angles cost 2P `run_circuit`
calls and no second build; each gate makes its two shifted gates
(`GateOp.shifted`) once, which every list holding it shares.
`backward` covers the head (reduction -> circuit -> readout) of one
feature row, the reduction in analytic reverse mode, and keys its
gradients by `parameter_dict`, the one list of parameter names
that `model.named_parameters` also uses; `training.row_gradients` runs the
encoder's backward once per block of rows. A central finite-difference
oracle backs every gradient in the test suite and in the `gradcheck` CLI
command.

Label convention (kept deliberately): P(0) is the probability assigned to
label 1, i.e. loss = -[y*log P(0) + (1-y)*log P(1)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .circuits import FeatureMapSpec
from .encoder import named_parameters as encoder_named_parameters
from .statevector import marginal_zero_probability, new_zero_state, run_circuit

if TYPE_CHECKING:
    from .model import ForwardCache, HybridModel

PROB_EPS = 1e-12


@dataclass
class ReductionLayer:
    """Trainable linear map from feature vectors to qubit-sized outputs."""

    w: np.ndarray  # (in_dim, n_out)
    b: np.ndarray  # (n_out,)

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.w.ndim != 2:
            raise ValueError(f"w must be a 2-D matrix, got shape {self.w.shape}")
        if self.b.shape != (self.w.shape[1],):
            raise ValueError(
                f"b shape {self.b.shape} does not match w columns {self.w.shape[1]}"
            )
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise ValueError("reduction parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def n_out(self) -> int:
        return self.w.shape[1]


def reduce(x, layer: ReductionLayer) -> np.ndarray:
    """y = w^T x + b per output column."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.in_dim,):
        raise ValueError(
            f"input of shape {x.shape} does not match reduction in_dim {layer.in_dim}"
        )
    return x @ layer.w + layer.b


def reduce_rows(x: np.ndarray, layer: ReductionLayer) -> np.ndarray:
    """`reduce` of every row of x, (rows, in_dim), bit for bit: a stack of
    (1, in_dim) @ w products sums each row as x @ w does, while one
    (rows, in_dim) @ w product sums in another order.

    `w` (K, in_dim, n_out) or `b` (K, n_out) with a leading copy axis, as
    the gradient audit's shifted copies give them, reduce x once per copy:
    (K, rows, n_out), copy k the bits of reducing against copy k alone.
    """
    return np.matmul(x[:, None, :], layer.w[..., None, :, :])[..., 0, :] + layer.b[..., None, :]


def reduce_input_gradient(g_y: np.ndarray, layer: ReductionLayer) -> np.ndarray:
    """Gradient at reduce()'s input x, given the gradient g_y at its output."""
    return layer.w @ g_y


def _clamp(p: float) -> float:
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)


def bce_loss(p0: float, y_true: int) -> float:
    """Binary cross-entropy on the readout P(0), P(1) = 1 - p0, clamped before logs."""
    if y_true not in (0, 1):
        raise ValueError(f"y_true must be 0 or 1, got {y_true!r}")
    if not -1e-9 <= p0 <= 1.0 + 1e-9:
        raise ValueError(f"probability out of range: p0={p0}")
    return -(y_true * math.log(_clamp(p0)) + (1 - y_true) * math.log(_clamp(1.0 - p0)))


def bce_losses(p0, labels) -> np.ndarray:
    """`bce_loss` of each (p0, label) pair of a row of P(0) and a row of
    labels, bit for bit, in one pass: the first pair `bce_loss` rejects
    raises its error. A label's other term is 0 * log(.), a zero that
    leaves the sum's bits alone, so each loss is -log of its clamped p."""
    p0 = np.asarray(p0, dtype=float)
    y = np.asarray(labels)
    bad = ~(((y == 0) | (y == 1)) & (p0 >= -1e-9) & (p0 <= 1.0 + 1e-9))
    if bad.any():
        i = int(np.argmax(bad))
        bce_loss(p0[i].item(), labels[i])
    p = np.where(y == 1, p0, 1.0 - p0)
    # _clamp's bits: np.clip's Python wrapper costs more than these two
    p = np.minimum(np.maximum(p, PROB_EPS, out=p), 1.0 - PROB_EPS, out=p)
    return -np.fromiter(map(math.log, p.tolist()), float, p.size)


def bce_grad_p0(p0: float, y_true: int) -> float:
    """dL/dp0 using the p1 = 1 - p0 substitution."""
    if y_true not in (0, 1):
        raise ValueError(f"y_true must be 0 or 1, got {y_true!r}")
    return -y_true / _clamp(p0) + (1 - y_true) / _clamp(1.0 - p0)


def finite_diff_grad(f: Callable, theta, index: int, h: float = 1e-5) -> float:
    """Central difference [f(t+h) - f(t-h)] / 2h on one coordinate."""
    theta = np.asarray(theta, dtype=float)
    up = theta.copy()
    up[index] += h
    down = theta.copy()
    down[index] -= h
    grad = (float(f(up)) - float(f(down))) / (2.0 * h)
    if not math.isfinite(grad):
        raise FloatingPointError(f"finite-difference evaluation at index {index} is not finite")
    return grad


def circuit_angle_gradients(
    gates, fm: FeatureMapSpec, readout_qubit: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(dp0/dfeatures, dp0/dtheta) via per-gate parameter shifts, for the
    validated gate list of a feature map `fm` followed by an ansatz, as
    `quantum_forward` returns it.

    Each U1 and RY angle is shifted on its own; feature gradients chain the
    per-gate results with the feature-map scale, summing over repetitions.
    """
    zero = new_zero_state(fm.n_qubits)
    # Python floats: the same sums, in gate order, that a float64 array holds
    d_features = [0.0] * fm.n_qubits
    d_theta = []
    # One working copy of the gate list: each shift puts its gate back.
    shifted = list(gates)
    for pos, gate in enumerate(gates):
        if gate.angle is None:
            continue
        shifted[pos] = gate.shifted(True)
        up = marginal_zero_probability(run_circuit(zero, shifted), readout_qubit)
        shifted[pos] = gate.shifted(False)
        down = marginal_zero_probability(run_circuit(zero, shifted), readout_qubit)
        shifted[pos] = gate
        shift = (up - down) / 2.0
        if gate.kind == "U1":
            d_features[gate.target] += fm.scale * shift
        else:
            d_theta.append(shift)
    return np.array(d_features), np.array(d_theta)


def backward(model: "HybridModel", cache: "ForwardCache", y_true: int) -> dict[str, np.ndarray]:
    """Gradients of the BCE loss for the head parameters (reduction and
    ansatz) of one feature row.

    Requires the cache produced by model_forward for the same row; returns
    `parameter_dict` of the gradients without encoder weights.
    """
    if cache is None:
        raise RuntimeError("no cached forward pass; call model_forward first")
    g_p0 = bce_grad_p0(cache.p0, y_true)
    d_feat_angles, d_theta_angles = circuit_angle_gradients(
        cache.result.gates, model.feature_map, model.readout_qubit
    )
    g_y = g_p0 * d_feat_angles
    return parameter_dict(cache.feat[:, None] * g_y, g_y, g_p0 * d_theta_angles, None)


def parameter_dict(w, b, theta, encoder_weights) -> dict[str, np.ndarray]:
    """Reduction weights and bias, ansatz angles and any encoder weights,
    keyed by canonical name in that order: a model's parameters
    (`model.named_parameters`) or their gradients (`backward`,
    `training.row_gradients`)."""
    params = {"reduction.w": w, "reduction.b": b, "ansatz.theta": theta}
    if encoder_weights is not None:
        for name, array in encoder_named_parameters(encoder_weights).items():
            params[f"encoder.{name}"] = array
    return params
