"""Encoding and variational circuits: Z feature map and real-amplitude ansatz.

The feature map alternates, per repetition and per qubit, a Hadamard with a
phase gate whose angle is `scale * feature`. With one qubit, two repetitions
and scale 2 the gate list is exactly [H, U1(2x), H, U1(2x)], which yields
P(0) = cos(x)**2 from |0>.

The ansatz stacks RY rotation layers separated by a linear CX chain
(control q -> target q+1); a single-qubit ansatz degenerates to plain RY
rotations. Parameter count is n_qubits * (layers + 1).

Two kernels run the circuit. `quantum_forward` builds and validates one
gate list per sample, runs it through `run_circuit` and returns it with
the readout; training uses it, and its gradient shifts one gate of that
same list at a time, so a sample-step builds one list. Training's row
step makes the ansatz list once per mini-batch and passes it in, so each
row builds only its feature map. The builders read features and angles
as Python floats (`tolist()`, checked with `math.isfinite`; the feature
map checks each scaled angle, as the readout does), and the feature map
repeats one list of gates per repetition: the shared H gates and one U1
per qubit. `readout_rows` runs the same gates in the same order over any
number of rows, in blocks of at most `_BLOCK_AMPLITUDES` amplitudes,
giving every row quantum_forward's p0 bit for bit; inference uses it.
It checks each block's angles before that block's gates run and names a
row whose angle is not finite by its index in its input. One qubit runs
on real and imaginary parts, (rows,) arrays for a block and Python floats
in `readout_row`; wider circuits run on (rows, 2**n) amplitudes, through
`readout_rows` for one row too. The two kernels stay apart until the
benchmark's traced check, which counts `run_circuit` calls per training
sample-step, counts rows instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import (
    H_GATES,
    SQRT2_INV,
    GateOp,
    _check_qubit,
    _check_qubit_count,
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


class NonFiniteRowError(ValueError):
    """`readout_rows`' `row i: features must be finite`, `NonFiniteRowError(i)`."""

    @property
    def row(self) -> int:
        """The index in its input of the row whose circuit angle is not finite."""
        return self.args[0]

    def __str__(self) -> str:
        return f"row {self.row}: {NON_FINITE_FEATURES}"


@dataclass(frozen=True)
class FeatureMapSpec:
    n_qubits: int
    repetitions: int = 2
    scale: float = 2.0

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not math.isfinite(self.scale) or self.scale == 0.0:
            raise ValueError(f"scale must be finite and nonzero, got {self.scale}")


@dataclass(frozen=True)
class AnsatzSpec:
    n_qubits: int
    layers: int = 1

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")

    def parameter_count(self) -> int:
        return self.n_qubits * (self.layers + 1)


@dataclass(frozen=True)
class QuantumForwardResult:
    """The readout of one circuit run, and the validated gate list it ran."""

    p0: float
    gates: tuple[GateOp, ...]


def build_z_feature_map(features, spec: FeatureMapSpec) -> list[GateOp]:
    """Gate list: per repetition, per qubit q, H(q) then U1(scale*features[q]).

    Every repetition holds the same gate objects: the shared H(q) of
    `H_GATES` and one U1 per qubit, whose angle is the same Python float
    each time. A scaled angle that is not finite (an overflow too) raises
    `features must be finite`, as in `readout_rows`.
    """
    feats = np.asarray(features, dtype=float)
    if feats.shape != (spec.n_qubits,):
        raise ValueError(
            f"expected {spec.n_qubits} feature(s), got array of shape {feats.shape}"
        )
    angles = [spec.scale * value for value in feats.tolist()]
    if not all(map(math.isfinite, angles)):
        raise ValueError(NON_FINITE_FEATURES)
    layer = []
    for q, angle in enumerate(angles):
        layer += (H_GATES[q], GateOp("U1", q, angle=angle))
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
    ansatz: list[GateOp] | None = None,
) -> QuantumForwardResult:
    """Run feature map then ansatz from |0...0> and read one qubit's marginal.

    A caller that runs many rows at one theta passes the `ansatz` they
    share, `build_real_amplitudes(theta, an)`, made once."""
    _check_specs(fm, an)
    if ansatz is None:
        ansatz = build_real_amplitudes(theta, an)
    gates = tuple(build_z_feature_map(features, fm) + ansatz)
    final = run_circuit(new_zero_state(fm.n_qubits), gates)
    p0 = marginal_zero_probability(final, readout_qubit)
    return QuantumForwardResult(p0=p0, gates=gates)


# Amplitudes per block in readout_rows: rows run together as one
# (rows, 2**n) array of at most this many (one row when 2**n is larger).
# Scoring 200 rows at 12 qubits in one block raised peak RSS by 38 MiB,
# blocks of 2**15 amplitudes by 1.5 MiB and of 2**13 by nothing measurable;
# a 20 000-row 1-qubit CLI predict peaked 2.4 MiB higher with 2**15 than
# with 2**13, at the same rows per second.
_BLOCK_AMPLITUDES = 2**13


def readout_rows(
    features,
    theta,
    fm: FeatureMapSpec,
    an: AnsatzSpec,
    readout_qubit: int = 0,
) -> np.ndarray:
    """quantum_forward's p0 of every row of `features` (rows, n_qubits), bit
    for bit, with the circuit run once per block of rows (`_BLOCK_AMPLITUDES`).

    The specs' qubit counts, the shape, theta and the readout qubit are
    checked once, before any gate runs; each block's feature angles are
    checked before its gates run, and a row whose angle is not finite is
    named by its index in `features`, a `NonFiniteRowError` that reads
    `row 5: features must be finite`.
    """
    feats = np.asarray(features, dtype=float)
    thetas = _check_readout(feats.shape, theta, fm, an, readout_qubit)
    if not len(feats):
        return np.zeros(0)
    ansatz = thetas if fm.n_qubits == 1 else build_real_amplitudes(thetas, an)
    step = max(1, _BLOCK_AMPLITUDES >> fm.n_qubits)
    return np.concatenate([
        _block_p0(feats[i : i + step], i, ansatz, fm, readout_qubit)
        for i in range(0, len(feats), step)
    ])


def readout_row(features, theta, fm: FeatureMapSpec, an: AnsatzSpec, readout_qubit: int = 0):
    """readout_rows' p0, a Python float, of the one row array `features`
    (n_qubits,): one qubit on Python floats, wider circuits through `readout_rows`."""
    if fm.n_qubits > 1:
        return float(readout_rows(features[None], theta, fm, an, readout_qubit)[0])
    thetas = _check_readout((1, *features.shape), theta, fm, an, readout_qubit)
    a = fm.scale * features.tolist()[0]
    if not math.isfinite(a):
        raise NonFiniteRowError(0)
    return min(max(_one_qubit_p0(math.cos(a), math.sin(a), thetas, fm.repetitions), 0.0), 1.0)


def _check_readout(shape: tuple, theta, fm: FeatureMapSpec, an: AnsatzSpec, readout_qubit: int):
    """readout_rows' checks, in order, of all but the feature values; returns theta's angles."""
    _check_specs(fm, an)
    n = fm.n_qubits
    if len(shape) != 2 or shape[1] != n:
        raise ValueError(f"expected (rows, {n}) features, got array of shape {shape}")
    thetas = _ansatz_angles(theta, an).tolist()
    _check_qubit(readout_qubit, n, "readout")
    if not all(map(math.isfinite, thetas)):
        raise ValueError("RY angle must be finite")
    return thetas


def _block_p0(feats: np.ndarray, first: int, ansatz: list, fm: FeatureMapSpec, readout_qubit: int):
    """P(0) of the rows `feats`, rows `first` onward of readout_rows' input.
    `ansatz` is theta's angles for one qubit, else its gate list."""
    n = fm.n_qubits
    # Python floats, as build_z_feature_map makes them, so that math.cos and
    # math.sin take each angle as the U1 gate does (numpy's SIMD trig need
    # not give the same bits).
    angles = [fm.scale * a for a in feats.ravel().tolist()]
    if not all(map(math.isfinite, angles)):
        bad = next(i for i, a in enumerate(angles) if not math.isfinite(a))
        raise NonFiniteRowError(first + bad // n)
    if n == 1:
        cos = np.fromiter(map(math.cos, angles), float, len(angles))
        sin = np.fromiter(map(math.sin, angles), float, len(angles))
        return np.clip(_one_qubit_p0(cos, sin, ansatz, fm.repetitions), 0.0, 1.0)
    phases = np.array([complex(math.cos(a), math.sin(a)) for a in angles]).reshape(feats.shape)
    amps = np.zeros((len(feats), 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    for _ in range(fm.repetitions):
        for q in range(n):
            amps = apply_to_rows(amps, H_GATES[q])
            amps = phase_rows(amps, q, phases[:, q])
    for gate in ansatz:
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
