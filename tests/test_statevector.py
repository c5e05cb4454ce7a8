"""Statevector simulator tests: known states, gate algebra, invariants."""
import dataclasses
import math

import numpy as np
import pytest

from qembed.statevector import (
    GateOp,
    StateVector,
    apply_gate,
    apply_to_rows,
    cx,
    h,
    marginal_zero_probability,
    marginal_zero_rows,
    new_zero_state,
    phase_rows,
    probabilities,
    ry,
    run_circuit,
    u1,
)

SQRT2_INV = 1 / math.sqrt(2)


def random_state(rng, n_qubits):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


def mat_h():
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def mat_u1(lam):
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def mat_ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_zero_state_single_qubit():
    sv = new_zero_state(1)
    assert np.array_equal(sv.amplitudes, np.array([1, 0], dtype=complex))


def test_zero_state_two_qubits():
    sv = new_zero_state(2)
    assert np.array_equal(sv.amplitudes, np.array([1, 0, 0, 0], dtype=complex))


def test_one_qubit_zero_state_is_one_shared_state_that_stays_read_only():
    """Every 1-qubit circuit starts from the same |0>, so no caller may make
    its buffer writable; wider zero states are made anew on each call."""
    shared = new_zero_state(1)
    assert shared is new_zero_state(1)
    assert np.array_equal(shared.amplitudes, [1, 0])
    with pytest.raises(ValueError):
        shared.amplitudes.setflags(write=True)
    assert not shared.amplitudes.flags.writeable
    wide = new_zero_state(2)
    assert wide is not new_zero_state(2)
    assert wide.amplitudes is not new_zero_state(2).amplitudes
    assert np.array_equal(wide.amplitudes, [1, 0, 0, 0])
    assert np.array_equal(new_zero_state(np.int64(1)).amplitudes, [1, 0])


def test_zero_state_bounds():
    with pytest.raises(ValueError):
        new_zero_state(21)
    with pytest.raises(ValueError):
        new_zero_state(0)


def test_state_rejects_bad_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1, 0], dtype=complex))


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1, 1], dtype=complex))


def test_amplitudes_are_read_only():
    sv = new_zero_state(1)
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0
    # states the kernels make skip the constructor, and stay frozen too
    for made in (run_circuit(sv, [h(0)]), run_circuit(new_zero_state(2), [h(1)])):
        with pytest.raises(ValueError):
            made.amplitudes[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.n_qubits = 3


# ---------------------------------------------------------------------------
# GateOp validation
# ---------------------------------------------------------------------------

def test_gate_requires_angle_only_when_parametric():
    with pytest.raises(ValueError):
        GateOp("H", 0, angle=0.5)
    with pytest.raises(ValueError):
        GateOp("U1", 0)
    with pytest.raises(ValueError):
        GateOp("RY", 0, angle=math.nan)


def test_cx_requires_distinct_control():
    with pytest.raises(ValueError):
        GateOp("CX", 0)
    with pytest.raises(ValueError):
        GateOp("CX", 1, control=1)
    with pytest.raises(ValueError):
        GateOp("H", 0, control=1)


def test_unknown_gate_kind():
    with pytest.raises(ValueError):
        GateOp("X", 0)


@pytest.mark.parametrize(
    "args, kwargs, error, message",
    [
        (("X", 0), {}, ValueError, "unknown gate kind 'X'; expected one of ('H', 'U1', 'RY', 'CX')"),
        (("H", -1), {}, IndexError, "gate target must be non-negative, got -1"),
        (("U1", 0), {}, ValueError, "U1 gate requires an angle"),
        (("RY", 0), {"angle": math.inf}, ValueError, "RY angle must be finite, got inf"),
        (("H", 0), {"angle": 0.5}, ValueError, "H gate takes no angle"),
        (("CX", 0), {}, ValueError, "CX gate requires a control qubit"),
        (("CX", 0), {"control": -2}, IndexError, "gate control must be non-negative, got -2"),
        (("CX", 1), {"control": 1}, ValueError, "CX control and target must differ"),
        (("RY", 0), {"control": 1, "angle": 0.1}, ValueError, "RY gate takes no control qubit"),
    ],
)
def test_gate_error_messages(args, kwargs, error, message):
    with pytest.raises(error) as raised:
        GateOp(*args, **kwargs)
    assert str(raised.value) == message


def test_gates_are_immutable_values():
    gate = GateOp("U1", 1, angle=0.25)
    assert gate == u1(1, 0.25) and hash(gate) == hash(u1(1, 0.25))
    assert gate != GateOp("RY", 1, angle=0.25) and gate != GateOp("U1", 0, angle=0.25)
    assert gate != ("U1", 1, None, 0.25)
    assert len({gate, u1(1, 0.25), h(1), GateOp("H", 1), cx(0, 1), cx(0, 1)}) == 3
    assert repr(gate) == "GateOp(kind='U1', target=1, control=None, angle=0.25)"
    assert dataclasses.replace(gate, angle=0.5) == u1(1, 0.5)
    for g, field in [(gate, "angle"), (h(0), "target"), (cx(0, 1), "control")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, field, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(g, "kind")
    assert gate.angle == 0.25 and h(0) == GateOp("H", 0)


def float_bits(*values):
    return [float(v).hex() for v in values]


def test_gate_rotation_is_the_trig_of_its_angle_bit_for_bit():
    """U1(a) carries complex(cos a, sin a) and RY(a) (cos a/2, sin a/2), bit
    for bit, also when made by dataclasses.replace or as a parameter
    shift; H and CX carry none."""
    rng = np.random.default_rng(11)
    angles = [0.0, -0.0, math.pi, -math.pi / 2, 1e-300, 1e300] + rng.normal(0, 4, 40).tolist()
    for a in angles:
        for gate in (u1(2, a), dataclasses.replace(h(2), kind="U1", angle=a),
                     dataclasses.replace(ry(2, 0.5), kind="U1", angle=a)):
            assert float_bits(gate.rotation.real, gate.rotation.imag) == float_bits(
                math.cos(a), math.sin(a))
        for gate in (ry(1, a), dataclasses.replace(ry(1, 0.5), angle=a),
                     dataclasses.replace(u1(1, a), kind="RY")):
            assert float_bits(*gate.rotation) == float_bits(math.cos(a / 2.0), math.sin(a / 2.0))
        for gate in (u1(0, a), ry(0, a)):
            for up, sign in ((True, 1.0), (False, -1.0)):
                shifted = gate.shifted(up)
                made = GateOp(gate.kind, 0, angle=a + sign * (math.pi / 2.0))
                assert shifted == made and repr(shifted) == repr(made)
                assert float_bits(*np.ravel(shifted.rotation).view(float)) == float_bits(
                    *np.ravel(made.rotation).view(float))
    assert h(0).rotation is None and cx(0, 1).rotation is None
    assert dataclasses.replace(u1(0, 0.3), kind="H", angle=None).rotation is None


def test_gate_shifts_are_made_once_and_equal_fresh_gates():
    """A U1 or RY gate makes each parameter shift once and keeps it, so every
    gate list that holds the gate shares its shifts: a later call returns
    the same gate, equal to one freshly made at the shifted angle, with the
    same angle and rotation bits. A gate made from it by
    dataclasses.replace makes its own shifts, at its own angle."""
    rng = np.random.default_rng(12)
    for a in [0.0, -math.pi / 2, 1e-300, 1e300] + rng.normal(0, 4, 20).tolist():
        for make in (u1, ry):
            gate = make(1, a)
            for up, sign in ((True, 1.0), (False, -1.0)):
                first = gate.shifted(up)
                for shifted, angle in ((gate.shifted(up), a),
                                       (dataclasses.replace(gate, angle=a + 1.0).shifted(up),
                                        a + 1.0)):
                    made = GateOp(gate.kind, 1, angle=angle + sign * (math.pi / 2.0))
                    assert shifted == made and repr(shifted) == repr(made)
                    assert float_bits(shifted.angle) == float_bits(made.angle)
                    assert float_bits(*np.ravel(shifted.rotation).view(float)) == float_bits(
                        *np.ravel(made.rotation).view(float))
                assert gate.shifted(up) is first
            assert gate.shifted(True) is not gate.shifted(False)
            assert gate == make(1, a)


def run_with_trig_per_application(state, gates):
    """run_circuit's arithmetic with every rotation's cos and sin computed
    where its gate is applied: Python complex scalars on one qubit, the
    (high bits, 2, low bits) view of the amplitudes on more, and CX as a
    permutation of basis states."""
    n = state.n_qubits
    if n == 1:
        a0, a1 = state.amplitudes.tolist()
        for g in gates:
            if g.kind == "H":
                a0, a1 = SQRT2_INV * a0 + SQRT2_INV * a1, SQRT2_INV * a0 - SQRT2_INV * a1
            elif g.kind == "U1":
                a1 = a1 * complex(math.cos(g.angle), math.sin(g.angle))
            else:
                c, s = math.cos(g.angle / 2.0), math.sin(g.angle / 2.0)
                a0, a1 = c * a0 - s * a1, s * a0 + c * a1
        return np.array([a0, a1])
    amps = state.amplitudes
    for g in gates:
        a = amps.reshape(-1, 2, 1 << g.target)
        if g.kind == "CX":
            index = np.arange(len(amps))
            amps = amps[np.where(index >> g.control & 1, index ^ (1 << g.target), index)]
        elif g.kind == "U1":
            amps = amps.copy()
            amps.reshape(a.shape)[:, 1] *= complex(math.cos(g.angle), math.sin(g.angle))
        else:
            m = mat_h() if g.kind == "H" else mat_ry(g.angle)
            amps = (m[:, :1] * a[:, :1] + m[:, 1:] * a[:, 1:]).reshape(amps.shape)
    return amps


@pytest.mark.parametrize("n", [1, 3])
def test_run_circuit_equals_a_kernel_that_computes_trig_per_application(n):
    """60 random circuits of 1-30 gates on random states, under ==."""
    rng = np.random.default_rng(60 + n)
    kinds = ["H", "U1", "RY"] + (["CX"] if n > 1 else [])
    for _ in range(60):
        state = random_state(rng, n)
        gates = []
        for _ in range(int(rng.integers(1, 31))):
            kind, q = rng.choice(kinds), int(rng.integers(0, n))
            if kind == "CX":
                gates.append(cx(q, int((q + rng.integers(1, n)) % n)))
            elif kind == "H":
                gates.append(h(q))
            else:
                gates.append(GateOp(str(kind), q, angle=float(rng.normal(0.0, 3.0))))
        expected = run_with_trig_per_application(state, gates)
        assert np.array_equal(run_circuit(state, gates).amplitudes, expected)


def random_one_qubit_circuit(rng, length):
    gates = []
    for _ in range(length):
        kind = str(rng.choice(["H", "U1", "RY"]))
        gates.append(h(0) if kind == "H" else GateOp(kind, 0, angle=float(rng.normal(0.0, 3.0))))
    return gates


def test_one_qubit_result_builds_its_read_only_amplitudes_on_first_read():
    """A 1-qubit run_circuit state holds two Python complex numbers and makes
    its array when read: complex128, read-only, the bits of the reference
    kernel, and the same array on every later read."""
    rng = np.random.default_rng(71)
    for _ in range(40):
        start = random_state(rng, 1) if rng.random() < 0.5 else new_zero_state(1)
        gates = random_one_qubit_circuit(rng, int(rng.integers(1, 12)))
        made = run_circuit(start, gates)
        assert "amplitudes" not in vars(made)
        amps = made.amplitudes
        assert amps.dtype == np.complex128 and amps.shape == (2,)
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 0.0
        with pytest.raises(ValueError):  # so the array cannot leave the pair behind
            amps.setflags(write=True)
        expected = run_with_trig_per_application(start, gates)
        assert amps.tobytes() == expected.tobytes()
        assert made.amplitudes is amps and made.amplitudes.tobytes() == expected.tobytes()


def test_chained_one_qubit_circuits_equal_one_circuit_bit_for_bit():
    """A pair-backed state is a start state like any other: two circuits run
    one after the other give the bits of their gates run as one list."""
    rng = np.random.default_rng(72)
    for _ in range(40):
        start = random_state(rng, 1)
        first = random_one_qubit_circuit(rng, int(rng.integers(1, 8)))
        second = random_one_qubit_circuit(rng, int(rng.integers(1, 8)))
        chained = run_circuit(run_circuit(start, first), second)
        whole = run_circuit(start, first + second)
        assert chained.amplitudes.tobytes() == whole.amplitudes.tobytes()
        assert float_bits(marginal_zero_probability(chained, 0)) == float_bits(
            marginal_zero_probability(whole, 0)
        )


def test_one_qubit_marginal_is_the_same_for_a_pair_and_an_array():
    """P(0) of a pair-backed state, read before and after its array exists,
    has the bits of P(0) of a constructed state with the same amplitudes."""
    rng = np.random.default_rng(73)
    for _ in range(60):
        made = run_circuit(new_zero_state(1), random_one_qubit_circuit(rng, 6))
        before = marginal_zero_probability(made, 0)
        built = StateVector(1, made.amplitudes)
        assert float_bits(before) == float_bits(marginal_zero_probability(made, 0))
        assert float_bits(before) == float_bits(marginal_zero_probability(built, 0))
        assert 0.0 <= before <= 1.0


def equality(left, right):
    try:
        return left == right
    except ValueError as exc:  # the dataclass's == on two distinct length-2 arrays
        return type(exc)


def test_pair_backed_state_keeps_the_dataclass_surface():
    """==, repr and frozen fields work on a state whose array is not built
    yet, as they do on a constructed state with the same amplitudes."""
    made = run_circuit(new_zero_state(1), [h(0), u1(0, 0.3)])
    built = StateVector(1, run_circuit(new_zero_state(1), [h(0), u1(0, 0.3)]).amplitudes)
    assert made == made and built == built
    assert equality(run_circuit(new_zero_state(1), [h(0), u1(0, 0.3)]), made) == equality(
        StateVector(1, built.amplitudes), built
    )
    assert (made == "state") is (built == "state") is False
    assert repr(run_circuit(new_zero_state(1), [h(0), u1(0, 0.3)])) == repr(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.n_qubits = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.amplitudes = np.array([1, 0], dtype=complex)
    with pytest.raises(AttributeError, match="'StateVector' object has no attribute 'missing'"):
        run_circuit(new_zero_state(1), [h(0)]).missing


def test_gate_index_out_of_range():
    sv = new_zero_state(1)
    with pytest.raises(IndexError):
        apply_gate(sv, h(1))
    with pytest.raises(IndexError):
        apply_gate(new_zero_state(2), cx(2, 0))


# ---------------------------------------------------------------------------
# Single gates
# ---------------------------------------------------------------------------

def test_h_on_zero_gives_plus():
    sv = apply_gate(new_zero_state(1), h(0))
    assert np.allclose(sv.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-15)


def test_u1_pi_flips_sign_of_one_component():
    plus = apply_gate(new_zero_state(1), h(0))
    sv = apply_gate(plus, u1(0, math.pi))
    assert np.allclose(sv.amplitudes, [SQRT2_INV, -SQRT2_INV], atol=1e-15)


def test_ry_pi_maps_zero_to_one():
    # oracle: direct 2x2 matrix action on [1, 0]
    expected = mat_ry(math.pi) @ np.array([1, 0], dtype=complex)
    sv = apply_gate(new_zero_state(1), ry(0, math.pi))
    assert np.allclose(sv.amplitudes, expected, atol=1e-15)
    assert np.allclose(sv.amplitudes, [0, 1], atol=1e-15)


def test_apply_gate_is_pure():
    sv = new_zero_state(1)
    before = sv.amplitudes.copy()
    apply_gate(sv, h(0))
    assert np.array_equal(sv.amplitudes, before)


def test_cx_little_endian_control_zero():
    # |01> (qubit 0 = 1) under CX(0 -> 1) becomes |11>
    sv = apply_gate(new_zero_state(2), ry(0, math.pi))
    assert np.allclose(sv.amplitudes, [0, 1, 0, 0], atol=1e-15)
    sv = apply_gate(sv, cx(0, 1))
    assert np.allclose(sv.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_bell_state_from_h_cx():
    sv = run_circuit(new_zero_state(2), [h(0), cx(0, 1)])
    assert np.allclose(sv.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-15)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

def test_h_twice_is_identity():
    sv = run_circuit(new_zero_state(1), [h(0), h(0)])
    assert np.allclose(sv.amplitudes, [1, 0], atol=1e-12)


def test_empty_circuit_returns_same_state():
    sv = new_zero_state(2)
    assert run_circuit(sv, []) is sv


def test_feature_map_block_hand_multiplied():
    # oracle: explicit 2x2 chain U1(pi/2) H U1(pi/2) H applied to |0>
    lam = math.pi / 2
    expected = mat_u1(lam) @ mat_h() @ mat_u1(lam) @ mat_h() @ np.array([1, 0], dtype=complex)
    sv = run_circuit(new_zero_state(1), [h(0), u1(0, lam), h(0), u1(0, lam)])
    assert np.allclose(sv.amplitudes, expected, atol=1e-15)
    assert np.allclose(sv.amplitudes, [0.5 + 0.5j, 0.5 + 0.5j], atol=1e-15)


def kron_single(n, q, single):
    """Dense 2**n matrix of a one-qubit gate on qubit q (little-endian)."""
    full = np.eye(1, dtype=complex)
    for k in reversed(range(n)):
        full = np.kron(full, single if k == q else np.eye(2, dtype=complex))
    return full


def dense_cx(n, control, target):
    """Permutation matrix flipping the target bit where the control bit is 1."""
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        full[i ^ (1 << target) if (i >> control) & 1 else i, i] = 1
    return full


def check_against_oracle(state, gates, expected):
    got = run_circuit(state, gates)
    assert np.allclose(got.amplitudes, expected, atol=1e-12)
    for q in range(state.n_qubits):
        zero_bit = (np.arange(2**state.n_qubits) >> q) & 1 == 0
        p0 = float(np.sum(np.abs(expected[zero_bit]) ** 2))
        assert math.isclose(marginal_zero_probability(got, q), p0, abs_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_against_kron_oracle(n):
    """Random circuits vs a dense kron-built matrix product, with marginals."""
    rng = np.random.default_rng(11)
    # Every control/target pair: adjacent and not, control above and below.
    for c in range(n):
        for t in range(n):
            if c != t:
                state = random_state(rng, n)
                check_against_oracle(state, [cx(c, t)], dense_cx(n, c, t) @ state.amplitudes)
    for _ in range(50):
        state = random_state(rng, n)
        expected = state.amplitudes.copy()
        gates = []
        for _ in range(rng.integers(1, 9)):
            kind = rng.choice(["H", "U1", "RY", "CX"] if n > 1 else ["H", "U1", "RY"])
            q = int(rng.integers(0, n))
            if kind == "CX":
                c = int(rng.integers(0, n - 1))
                c += c >= q
                gates.append(cx(c, q))
                expected = dense_cx(n, c, q) @ expected
            else:
                angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
                if kind == "H":
                    gates.append(h(q))
                    single = mat_h()
                elif kind == "U1":
                    gates.append(u1(q, angle))
                    single = mat_u1(angle)
                else:
                    gates.append(ry(q, angle))
                    single = mat_ry(angle)
                expected = kron_single(n, q, single) @ expected
        check_against_oracle(state, gates, expected)


# ---------------------------------------------------------------------------
# Probabilities and marginals
# ---------------------------------------------------------------------------

def test_probabilities_basis_state():
    assert np.allclose(probabilities(new_zero_state(1)), [1, 0])


def test_probabilities_plus_state():
    sv = apply_gate(new_zero_state(1), h(0))
    assert np.allclose(probabilities(sv), [0.5, 0.5], atol=1e-15)


def test_probabilities_complex_amplitudes():
    sv = StateVector(1, np.array([0.5 + 0.5j, 0.5 + 0.5j]))
    assert np.allclose(probabilities(sv), [0.5, 0.5], atol=1e-15)


def test_marginal_zero_state():
    assert marginal_zero_probability(new_zero_state(2), 0) == 1.0


def test_marginal_bell_state():
    bell = run_circuit(new_zero_state(2), [h(0), cx(0, 1)])
    assert math.isclose(marginal_zero_probability(bell, 1), 0.5, abs_tol=1e-12)


def test_marginal_single_qubit():
    sv = StateVector(1, np.array([0.5 + 0.5j, 0.5 + 0.5j]))
    assert math.isclose(marginal_zero_probability(sv, 0), 0.5, abs_tol=1e-12)


def test_marginal_bad_index():
    with pytest.raises(IndexError):
        marginal_zero_probability(new_zero_state(1), 1)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_norm_conserved_over_random_circuits():
    """1000 random gate sequences on random states keep unit norm to 1e-12."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        state = random_state(rng, n)
        for _ in range(rng.integers(1, 13)):
            kind = rng.choice(["H", "U1", "RY", "CX"] if n == 2 else ["H", "U1", "RY"])
            q = int(rng.integers(0, n))
            if kind == "CX":
                state = apply_gate(state, cx(q, 1 - q))
            elif kind == "H":
                state = apply_gate(state, h(q))
            elif kind == "U1":
                state = apply_gate(state, u1(q, float(rng.uniform(-7, 7))))
            else:
                state = apply_gate(state, ry(q, float(rng.uniform(-7, 7))))
        norm = np.linalg.norm(state.amplitudes)
        assert abs(norm - 1.0) < 1e-12


def test_gate_inverses_recover_input():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        state = random_state(rng, n)
        q = int(rng.integers(0, n))
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        for fwd, back in (
            (h(q), h(q)),
            (u1(q, angle), u1(q, -angle)),
            (ry(q, angle), ry(q, -angle)),
        ):
            roundtrip = apply_gate(apply_gate(state, fwd), back)
            assert np.allclose(roundtrip.amplitudes, state.amplitudes, atol=1e-12)


def test_gate_application_is_linear():
    """apply_gate(alpha*u + beta*v) recombines linearly (after normalization)."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        u_state = random_state(rng, 2)
        v_state = random_state(rng, 2)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        mixture = alpha * u_state.amplitudes + beta * v_state.amplitudes
        scale = np.linalg.norm(mixture)
        if scale < 1e-6:
            continue
        mixed = StateVector(2, mixture / scale)
        gate = ry(int(rng.integers(0, 2)), float(rng.uniform(-3, 3)))
        lhs = apply_gate(mixed, gate).amplitudes
        rhs = (
            alpha * apply_gate(u_state, gate).amplitudes
            + beta * apply_gate(v_state, gate).amplitudes
        ) / scale
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_closed_form_cos_squared_grid():
    """[H, U1(2y), H, U1(2y)] from |0> reads out P(0) = cos(y)^2."""
    for y in np.linspace(-2 * math.pi, 2 * math.pi, 1001):
        sv = run_circuit(new_zero_state(1), [h(0), u1(0, 2 * y), h(0), u1(0, 2 * y)])
        p0 = probabilities(sv)[0]
        assert abs(p0 - math.cos(y) ** 2) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_row_kernels_match_one_state_at_a_time(n):
    """Every gate on every target (and CX pair) over 6 random rows, bit for bit."""
    rng = np.random.default_rng(40 + n)
    states = [random_state(rng, n) for _ in range(6)]
    rows = np.array([s.amplitudes for s in states])
    gates = [h(q) for q in range(n)] + [ry(q, float(rng.normal(0, 2))) for q in range(n)]
    gates += [cx(c, t) for c in range(n) for t in range(n) if c != t]
    for gate in gates:
        expected = [apply_gate(s, gate).amplitudes for s in states]
        assert np.array_equal(apply_to_rows(rows, gate), expected), gate
    angles = rng.normal(0.0, 2.0, size=len(states))
    phases = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    for q in range(n):
        expected = [run_circuit(s, [u1(q, float(a))]).amplitudes for s, a in zip(states, angles)]
        assert np.array_equal(phase_rows(rows, q, phases), expected), q
        assert np.array_equal(
            marginal_zero_rows(rows, q), [marginal_zero_probability(s, q) for s in states]
        )
    with pytest.raises(IndexError, match="readout qubit"):
        marginal_zero_rows(rows, n)
