"""Encoding and variational circuits: Z feature map and real-amplitude ansatz.

The feature map alternates, per repetition and per qubit, a Hadamard with a
phase gate whose angle is `scale * feature`. With one qubit, two repetitions
and scale 2 the gate list is exactly [H, U1(2x), H, U1(2x)], which yields
P(0) = cos(x)**2 from |0>.

The ansatz stacks RY rotation layers separated by a linear CX chain
(control q -> target q+1); a single-qubit ansatz degenerates to plain RY
rotations. Parameter count is n_qubits * (layers + 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import (
    GateOp,
    cx,
    h,
    marginal_zero_probability,
    new_zero_state,
    ry,
    run_circuit,
    u1,
)


@dataclass(frozen=True)
class FeatureMapSpec:
    n_qubits: int
    repetitions: int = 2
    scale: float = 2.0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not math.isfinite(self.scale) or self.scale == 0.0:
            raise ValueError(f"scale must be finite and nonzero, got {self.scale}")


@dataclass(frozen=True)
class AnsatzSpec:
    n_qubits: int
    layers: int = 1

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")

    def parameter_count(self) -> int:
        return self.n_qubits * (self.layers + 1)


@dataclass(frozen=True)
class QuantumForwardResult:
    p0: float
    p1: float


def build_z_feature_map(features, spec: FeatureMapSpec) -> list[GateOp]:
    """Gate list: per repetition, per qubit q, H(q) then U1(scale*features[q])."""
    feats = np.asarray(features, dtype=float)
    if feats.shape != (spec.n_qubits,):
        raise ValueError(
            f"expected {spec.n_qubits} feature(s), got array of shape {feats.shape}"
        )
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite")
    gates: list[GateOp] = []
    for _ in range(spec.repetitions):
        for q in range(spec.n_qubits):
            gates.append(h(q))
            gates.append(u1(q, spec.scale * float(feats[q])))
    return gates


def build_real_amplitudes(theta, spec: AnsatzSpec) -> list[GateOp]:
    """Gate list: `layers` blocks of (RY layer, CX chain), then a final RY layer."""
    angles = np.asarray(theta, dtype=float)
    expected = spec.parameter_count()
    if angles.shape != (expected,):
        raise ValueError(
            f"expected {expected} ansatz parameter(s) for n_qubits={spec.n_qubits}, "
            f"layers={spec.layers}, got array of shape {angles.shape}"
        )
    gates: list[GateOp] = []
    k = 0
    for _ in range(spec.layers):
        for q in range(spec.n_qubits):
            gates.append(ry(q, float(angles[k])))
            k += 1
        for q in range(spec.n_qubits - 1):
            gates.append(cx(q, q + 1))
    for q in range(spec.n_qubits):
        gates.append(ry(q, float(angles[k])))
        k += 1
    return gates


def quantum_forward(
    features,
    theta,
    fm: FeatureMapSpec,
    an: AnsatzSpec,
    readout_qubit: int = 0,
) -> QuantumForwardResult:
    """Run feature map then ansatz from |0...0> and read one qubit's marginal."""
    if fm.n_qubits != an.n_qubits:
        raise ValueError(
            f"feature map has {fm.n_qubits} qubit(s) but ansatz has {an.n_qubits}"
        )
    gates = build_z_feature_map(features, fm) + build_real_amplitudes(theta, an)
    final = run_circuit(new_zero_state(fm.n_qubits), gates)
    p0 = marginal_zero_probability(final, readout_qubit)
    return QuantumForwardResult(p0=p0, p1=1.0 - p0)


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
