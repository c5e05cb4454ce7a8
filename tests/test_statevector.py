"""Statevector simulator tests: known states, gate algebra, invariants."""
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
