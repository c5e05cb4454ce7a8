"""Encoding and variational circuits: Z feature map and real-amplitude ansatz.

The feature map alternates, per repetition and per qubit, a Hadamard with a
phase gate whose angle is `scale * feature`. With one qubit, two repetitions
and scale 2 the gate list is exactly [H, U1(2x), H, U1(2x)], which yields
P(0) = cos(x)**2 from |0>.

The ansatz stacks RY rotation layers separated by a linear CX chain
(control q -> target q+1); a single-qubit ansatz degenerates to plain RY
rotations. Parameter count is n_qubits * (layers + 1).

Two kernels run the circuit. `quantum_forward` builds and validates one
gate list per sample and runs it through `run_circuit`; training uses it
(its gradient shifts one gate of that list at a time). The builders read
features and angles as Python floats (`tolist()`, checked with
`math.isfinite`), and the feature map repeats one list of gates per
repetition: the shared H gates and one U1 per qubit. `readout_rows`
runs the same gates in the same order over a block of rows and gives
every row quantum_forward's p0 bit for bit; inference uses it. It checks
the block once, on shapes and Python floats, before any gate runs: no
row is replayed through quantum_forward to find an error. One qubit
runs on real and imaginary parts as Python floats for one row or (rows,)
arrays for a block; wider circuits run on (rows, 2**n) amplitudes. The
two stay apart until the benchmark's traced check, which counts
`run_circuit` calls per training sample-step, counts rows instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import (
    MAX_QUBITS,
    H_GATES,
    SQRT2_INV,
    GateOp,
    _check_qubit,
    apply_to_rows,
    cx,
    marginal_zero_probability,
    marginal_zero_rows,
    new_zero_state,
    phase_rows,
    run_circuit,
)

# the message of a feature (or circuit angle) that is not finite
NON_FINITE_FEATURES = "features must be finite"


def _check_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class FeatureMapSpec:
    n_qubits: int
    repetitions: int = 2
    scale: float = 2.0

    def __post_init__(self) -> None:
        _check_qubits(self.n_qubits)
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not math.isfinite(self.scale) or self.scale == 0.0:
            raise ValueError(f"scale must be finite and nonzero, got {self.scale}")


@dataclass(frozen=True)
class AnsatzSpec:
    n_qubits: int
    layers: int = 1

    def __post_init__(self) -> None:
        _check_qubits(self.n_qubits)
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")

    def parameter_count(self) -> int:
        return self.n_qubits * (self.layers + 1)


@dataclass(frozen=True)
class QuantumForwardResult:
    p0: float
    p1: float


def build_z_feature_map(features, spec: FeatureMapSpec) -> list[GateOp]:
    """Gate list: per repetition, per qubit q, H(q) then U1(scale*features[q]).

    Every repetition holds the same gate objects: the shared H(q) of
    `H_GATES` and one U1 per qubit, whose angle is the same Python float
    each time.
    """
    feats = np.asarray(features, dtype=float)
    if feats.shape != (spec.n_qubits,):
        raise ValueError(
            f"expected {spec.n_qubits} feature(s), got array of shape {feats.shape}"
        )
    values = feats.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(NON_FINITE_FEATURES)
    layer = []
    for q, value in enumerate(values):
        layer += (H_GATES[q], GateOp("U1", q, angle=spec.scale * value))
    return layer * spec.repetitions


def build_real_amplitudes(theta, spec: AnsatzSpec) -> list[GateOp]:
    """Gate list: `layers` blocks of (RY layer, CX chain), then a final RY layer."""
    angles = iter(_ansatz_angles(theta, spec).tolist())
    n = spec.n_qubits
    gates: list[GateOp] = []
    for _ in range(spec.layers):
        gates += [GateOp("RY", q, angle=next(angles)) for q in range(n)]
        gates += [cx(q, q + 1) for q in range(n - 1)]
    gates += [GateOp("RY", q, angle=next(angles)) for q in range(n)]
    return gates


def _ansatz_angles(theta, spec: AnsatzSpec) -> np.ndarray:
    angles = np.asarray(theta, dtype=float)
    expected = spec.parameter_count()
    if angles.shape != (expected,):
        raise ValueError(
            f"expected {expected} ansatz parameter(s) for n_qubits={spec.n_qubits}, "
            f"layers={spec.layers}, got array of shape {angles.shape}"
        )
    return angles


def _check_specs(fm: FeatureMapSpec, an: AnsatzSpec) -> None:
    if fm.n_qubits != an.n_qubits:
        raise ValueError(f"feature map has {fm.n_qubits} qubit(s) but ansatz has {an.n_qubits}")


def quantum_forward(
    features,
    theta,
    fm: FeatureMapSpec,
    an: AnsatzSpec,
    readout_qubit: int = 0,
) -> QuantumForwardResult:
    """Run feature map then ansatz from |0...0> and read one qubit's marginal."""
    _check_specs(fm, an)
    gates = build_z_feature_map(features, fm) + build_real_amplitudes(theta, an)
    final = run_circuit(new_zero_state(fm.n_qubits), gates)
    p0 = marginal_zero_probability(final, readout_qubit)
    return QuantumForwardResult(p0=p0, p1=1.0 - p0)


def readout_rows(
    features,
    theta,
    fm: FeatureMapSpec,
    an: AnsatzSpec,
    readout_qubit: int = 0,
) -> np.ndarray:
    """quantum_forward's p0 of every row of `features` (rows, n_qubits), bit
    for bit, with the circuit run once over the block of rows.

    The block is checked once before any gate runs: its shape and the specs'
    qubit counts, theta's length, the readout qubit, and that every feature
    and ansatz angle is finite.
    """
    _check_specs(fm, an)
    n = fm.n_qubits
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != n:
        raise ValueError(f"expected (rows, {n}) features, got array of shape {feats.shape}")
    theta = _ansatz_angles(theta, an)
    _check_qubit(readout_qubit, n, "readout")
    # Python floats, as build_z_feature_map makes them, so that math.cos and
    # math.sin take each angle as the U1 gate does (numpy's SIMD trig need
    # not give the same bits).
    angles = [fm.scale * a for a in feats.ravel().tolist()]
    if not all(map(math.isfinite, angles)):
        raise ValueError(NON_FINITE_FEATURES)
    thetas = theta.tolist()
    if not all(map(math.isfinite, thetas)):
        raise ValueError("RY angle must be finite")
    if not angles:
        return np.zeros(0)
    if n == 1:
        if len(angles) == 1:
            a = angles[0]
            p0 = _one_qubit_p0(math.cos(a), math.sin(a), thetas, fm.repetitions)
            return np.array([min(max(p0, 0.0), 1.0)])
        cos = np.array([math.cos(a) for a in angles])
        sin = np.array([math.sin(a) for a in angles])
        return np.clip(_one_qubit_p0(cos, sin, thetas, fm.repetitions), 0.0, 1.0)
    phases = np.array([complex(math.cos(a), math.sin(a)) for a in angles]).reshape(feats.shape)
    amps = np.zeros((len(feats), 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    for _ in range(fm.repetitions):
        for q in range(n):
            amps = apply_to_rows(amps, H_GATES[q])
            amps = phase_rows(amps, q, phases[:, q])
    for gate in build_real_amplitudes(theta, an):
        amps = apply_to_rows(amps, gate)
    return marginal_zero_rows(amps, readout_qubit)


def _one_qubit_p0(cos, sin, theta, repetitions: int):
    """Unclamped P(0) of the 1-qubit circuit on real and imaginary parts.

    `cos`, `sin` are those of the feature angle: Python floats for one row,
    (rows,) arrays for a block. The operations and their order are those
    of statevector._run_single_qubit's complex arithmetic, so each row gets
    its bits (a zero's sign aside, which no square sees).
    """
    r0, i0, r1, i1 = 1.0, 0.0, 0.0, 0.0
    for _ in range(repetitions):
        # H, then U1: a1 *= cos + i sin
        r0, i0, r1, i1 = (
            SQRT2_INV * r0 + SQRT2_INV * r1,
            SQRT2_INV * i0 + SQRT2_INV * i1,
            SQRT2_INV * r0 - SQRT2_INV * r1,
            SQRT2_INV * i0 - SQRT2_INV * i1,
        )
        r1, i1 = r1 * cos - i1 * sin, r1 * sin + i1 * cos
    for angle in theta:  # RY
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        r0, i0, r1, i1 = c * r0 - s * r1, c * i0 - s * i1, s * r0 + c * r1, s * i0 + c * i1
    return r0 * r0 + i0 * i0


def serialize_gates(gates) -> str:
    """Plain-text gate list, one gate per line: `H 0`, `U1 0 1.4`, `CX 0 1`."""
    lines = []
    for g in gates:
        if g.kind == "CX":
            lines.append(f"CX {g.control} {g.target}")
        elif g.kind in ("U1", "RY"):
            lines.append(f"{g.kind} {g.target} {g.angle!r}")
        else:
            lines.append(f"{g.kind} {g.target}")
    return "\n".join(lines)
