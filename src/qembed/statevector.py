"""Dense complex statevector simulator for small gate circuits.

Conventions:
    - Qubit ordering is little-endian: qubit 0 is the least significant
      bit of the basis-state index, so for two qubits |q1 q0> = |10> sits
      at index 2.
    - Gate application is pure: every operation returns a new StateVector
      and never mutates its input. Amplitude buffers are marked read-only.
    - Amplitudes are complex128. States are validated to unit norm on
      construction; unitarity keeps them normalized afterwards.
    - Gates act on a reshaped view, not on index tables: qubit q is axis 1
      of the amplitudes viewed as (2**n // 2**(q+1), 2, 2**q), the higher
      bits before it and the lower bits after it. A leading axis is just
      more high bits, so the same view holds with a batch axis in front.

One state at a time (`run_circuit`, which training uses): 1-qubit
circuits run as scalar Python complex arithmetic (a length-2 array is too
small for numpy dispatch), wider ones through the axis view in `_apply_raw`.
A training sample-step runs nine 1-qubit circuits on the paper's model, so
the objects and checks around them cost more than their arithmetic: a
1-qubit state keeps its two amplitudes as Python complex numbers, which
the next circuit starts from and `marginal_zero_probability` reads, and a
1-qubit state that `run_circuit` made builds its `amplitudes` array only
when something reads it, so training makes none; the 1-qubit run
range-checks only a target other than 0, `GateOp` checks and stores its
fields in one `__init__` and computes its rotation's cos and sin there,
once per gate rather than once per application, a parameter shift's gate
(`GateOp.shifted`) skips the checks its gate passed and is made once per
gate and kept, so a mini-batch's rows share the shifts of their one
ansatz list, gates and result states write their fields straight into
the instance dict, and `H_GATES` holds one shared H gate per qubit.
Many states at a time (`apply_to_rows`, `phase_rows`,
`marginal_zero_rows`, which inference uses for 2 or more qubits): the same
axis view on (rows, 2**n) amplitudes, one state per row, giving each row
the bits it gets alone. Training stays on `run_circuit` because the
benchmark's traced check counts `run_circuit` calls per training
sample-step (9/9/121 on its workloads); it moves to rows once that check
counts rows. The module holds no mutable state: the array a 1-qubit state
makes on first read is stored in that state, which is instance state, and
the shared 1-qubit |0> is made with its array.

Supported gates: H, U1(lambda), RY(theta), CX. RY uses the real rotation
matrix [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 20
NORM_ATOL = 1e-12

GATE_KINDS = ("H", "U1", "RY", "CX")

SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


def _ry_matrix(gate: "GateOp") -> np.ndarray:
    c, s = gate.rotation
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True, init=False)
class GateOp:
    """A single circuit operation.

    kind: one of H, U1, RY, CX. `angle` is required for U1/RY and must be
    absent otherwise; `control` is required for CX and must be absent
    otherwise. Fields are read-only; equality, hashing and repr are the
    dataclass's.

    `rotation` (not a field) is what the kernels apply, computed once when
    the gate is made: complex(cos a, sin a) for U1(a), the pair
    (cos a/2, sin a/2) for RY(a), None for H and CX.
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __init__(
        self, kind: str, target: int, control: int | None = None, angle: float | None = None
    ) -> None:
        # Checked and stored in one call: on the paper's 1-qubit model
        # training makes 3 gates per row (1 built, 2 shifted) and 6 per
        # mini-batch (the ansatz: 2 built, 4 shifted), and the generated
        # __init__ with a __post_init__ took about 1.5x as long per gate.
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}; expected one of {GATE_KINDS}")
        if target < 0:
            raise IndexError(f"gate target must be non-negative, got {target}")
        if kind == "U1" or kind == "RY":
            if angle is None:
                raise ValueError(f"{kind} gate requires an angle")
            if not math.isfinite(angle):
                raise ValueError(f"{kind} angle must be finite, got {angle}")
        elif angle is not None:
            raise ValueError(f"{kind} gate takes no angle")
        if kind == "CX":
            if control is None:
                raise ValueError("CX gate requires a control qubit")
            if control < 0:
                raise IndexError(f"gate control must be non-negative, got {control}")
            if control == target:
                raise ValueError("CX control and target must differ")
        elif control is not None:
            raise ValueError(f"{kind} gate takes no control qubit")
        _store(self, kind, target, control, angle)

    def shifted(self, up: bool) -> "GateOp":
        """This U1 or RY gate with pi/2 added to its angle (`up`) or taken
        from it: a parameter shift. A finite angle stays finite, so none of
        the checks this gate passed runs again. Each shift is made once and
        kept, as `rotation` is, so every list that holds this gate shares
        it: a U1 repeated across feature-map repetitions, or the RY gates
        of one ansatz list shared by a mini-batch's rows."""
        key = "_up" if up else "_down"
        gate = self.__dict__.get(key)
        if gate is None:
            gate = object.__new__(GateOp)
            _store(gate, self.kind, self.target, None, self.angle + (_HALF_PI if up else -_HALF_PI))
            self.__dict__[key] = gate
        return gate


_HALF_PI = math.pi / 2.0


def _store(gate: GateOp, kind: str, target: int, control: int | None, angle: float | None) -> None:
    # Written to the instance dict, which a frozen dataclass leaves open (it
    # blocks only setattr): one dict write took about half as long as one
    # object.__setattr__ call.
    fields = gate.__dict__
    fields["kind"] = kind
    fields["target"] = target
    fields["control"] = control
    fields["angle"] = angle
    if kind == "U1":
        fields["rotation"] = complex(math.cos(angle), math.sin(angle))
    elif kind == "RY":
        fields["rotation"] = (math.cos(angle / 2.0), math.sin(angle / 2.0))
    else:
        fields["rotation"] = None


# H on qubit q for every q the simulator holds: gates are immutable, so the
# feature map shares these instead of building one per use.
H_GATES = tuple(GateOp("H", q) for q in range(MAX_QUBITS))


def h(target: int) -> GateOp:
    return GateOp("H", target)


def u1(target: int, angle: float) -> GateOp:
    return GateOp("U1", target, angle=angle)


def ry(target: int, angle: float) -> GateOp:
    return GateOp("RY", target, angle=angle)


def cx(control: int, target: int) -> GateOp:
    return GateOp("CX", target, control=control)


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state: 2**n_qubits complex amplitudes at unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"amplitude array must have length {2**self.n_qubits} "
                f"for {self.n_qubits} qubit(s), got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm**2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        if self.n_qubits == 1:  # the pair and its array can never disagree
            amps = np.frombuffer(bytes(amps), complex)
            self.__dict__["_pair"] = tuple(amps.tolist())
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        # Fast path for internally produced (already unitary-evolved) arrays
        # of 2 or more qubits; the fields go into the instance dict as
        # GateOp's do (about 0.5 us less per state).
        sv = object.__new__(cls)
        amplitudes.setflags(write=False)
        fields = sv.__dict__
        fields["n_qubits"] = n_qubits
        fields["amplitudes"] = amplitudes
        return sv

    @classmethod
    def _from_pair(cls, a0: complex, a1: complex) -> "StateVector":
        # A 1-qubit state as its two Python complex amplitudes, 9 per training
        # row; __getattr__ builds `amplitudes` on a first read training never makes.
        sv = object.__new__(cls)
        fields = sv.__dict__
        fields["n_qubits"] = 1
        fields["_pair"] = (a0, a1)
        return sv

    def __getattr__(self, name: str):
        # Reached only for a name missing from the instance dict: the
        # amplitudes of a state made by _from_pair, stored on first read as
        # a view of immutable bytes, as a constructed 1-qubit state's are.
        pair = self.__dict__.get("_pair")
        if name != "amplitudes" or pair is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        amps = np.frombuffer(bytes(np.array(pair, dtype=complex)), complex)
        self.__dict__["amplitudes"] = amps
        return amps


# |0> on one qubit, shared as H_GATES shares H gates: every 1-qubit circuit
# starts from its pair, two per training row. Constructed, so its amplitudes
# are made here (it never changes) and view bytes that no caller can write.
_ZERO_1 = StateVector(1, [1, 0])


def new_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits qubits: one shared state for one qubit, a new one
    for more, where it costs little next to the circuit that runs from it."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}")
    if n_qubits == 1:
        return _ZERO_1
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector._trusted(int(n_qubits), amps)


def _check_qubit(index: int, n_qubits: int, what: str) -> None:
    if not 0 <= index < n_qubits:
        raise IndexError(f"{what} qubit {index} out of range for {n_qubits}-qubit state")


def _apply_raw(amps: np.ndarray, gate: GateOp, n: int) -> np.ndarray:
    # Axis 1 of the (high bits, 2, low bits) view is the target qubit's bit;
    # the amplitudes may carry a leading row axis, which is more high bits.
    q = gate.target
    _check_qubit(q, n, "target")
    a = amps.reshape(-1, 2, 1 << q)
    if gate.kind in ("H", "RY"):
        m = _H_MATRIX if gate.kind == "H" else _ry_matrix(gate)
        return (m[:, :1] * a[:, :1] + m[:, 1:] * a[:, 1:]).reshape(amps.shape)
    out = amps.copy()
    if gate.kind == "U1":
        out.reshape(a.shape)[:, 1] *= gate.rotation
        return out
    c = gate.control  # CX
    _check_qubit(c, n, "control")
    shape = (-1, 2, 1 << (abs(c - q) - 1), 2, 1 << min(c, q))
    a, o = amps.reshape(shape), out.reshape(shape)
    # Where the control bit is 1, take the target-reversed slice.
    if c > q:
        o[:, 1] = a[:, 1, :, ::-1]
    else:
        o[:, :, :, 1] = a[:, ::-1, :, 1]
    return out


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate, returning a new state; the input is left untouched."""
    return run_circuit(state, (gate,))


def _run_single_qubit(state: StateVector, gates) -> StateVector:
    # Scalar arithmetic on the state's pair of Python complex numbers, giving
    # a pair-backed state: length-2 arrays are too small for numpy dispatch.
    # Target 0 is the one in range, so only another goes through the check.
    a0, a1 = state._pair
    changed = False
    for gate in gates:
        if gate.target != 0:
            _check_qubit(gate.target, 1, "target")
        kind = gate.kind
        if kind == "H":
            a0, a1 = SQRT2_INV * a0, SQRT2_INV * a1
            a0, a1 = a0 + a1, a0 - a1
        elif kind == "U1":
            a1 = a1 * gate.rotation
        elif kind == "RY":
            c, s = gate.rotation
            a0, a1 = c * a0 - s * a1, s * a0 + c * a1
        else:
            _check_qubit(gate.control, 1, "control")
        changed = True
    if not changed:
        return state
    return StateVector._from_pair(a0, a1)


def run_circuit(state: StateVector, gates) -> StateVector:
    """Apply gates in order; with no gates the input state is returned."""
    n = state.n_qubits
    if n == 1:
        return _run_single_qubit(state, gates)
    amps = state.amplitudes
    for gate in gates:
        amps = _apply_raw(amps, gate, n)
    if amps is state.amplitudes:
        return state
    return StateVector._trusted(n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |a_i|**2 over all basis states."""
    return np.abs(state.amplitudes) ** 2


def marginal_zero_probability(state: StateVector, qubit: int) -> float:
    """Probability that a single qubit reads 0, marginalizing the rest."""
    if state.n_qubits == 1:
        if qubit != 0:
            _check_qubit(qubit, 1, "readout")
        a0 = state._pair[0]
        p = a0.real * a0.real + a0.imag * a0.imag
    else:
        _check_qubit(qubit, state.n_qubits, "readout")
        a = state.amplitudes.reshape(-1, 2, 1 << qubit)
        p = float(np.sum(np.abs(a[:, 0]) ** 2))
    return p if 0.0 <= p <= 1.0 else min(max(p, 0.0), 1.0)


# Row kernels: the gate kernel above on (rows, 2**n) amplitudes, one state
# per row, for circuits of 2 or more qubits. Each gives every row the bits
# that run_circuit and marginal_zero_probability give that row alone.


def apply_to_rows(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """`gate` applied to every row of (rows, 2**n) amplitudes."""
    return _apply_raw(amps, gate, amps.shape[1].bit_length() - 1)


def phase_rows(amps: np.ndarray, target: int, phases: np.ndarray) -> np.ndarray:
    """U1 on `target` with one phase per row of (rows, 2**n) amplitudes;
    phases[r] is row r's complex(cos(angle), sin(angle))."""
    _check_qubit(target, amps.shape[1].bit_length() - 1, "target")
    out = amps.copy()
    out.reshape(len(amps), -1, 2, 1 << target)[:, :, 1] *= phases[:, None, None]
    return out


def marginal_zero_rows(amps: np.ndarray, qubit: int) -> np.ndarray:
    """P(qubit reads 0) of every row of (rows, 2**n) amplitudes, n >= 2."""
    rows = amps.shape[0]
    _check_qubit(qubit, amps.shape[1].bit_length() - 1, "readout")
    # One contiguous (rows, 2**(n-1)) array of |a|**2 summed along each row:
    # the order np.sum takes over one row's contiguous copy of the same values.
    sq = np.abs(amps.reshape(rows, -1, 2, 1 << qubit)[:, :, 0]) ** 2
    return np.clip(sq.reshape(rows, -1).sum(axis=1), 0.0, 1.0)
