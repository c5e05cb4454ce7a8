"""Feature map / ansatz builders and the quantum forward pass."""
import math

import numpy as np
import pytest

from qembed.circuits import (
    AnsatzSpec,
    FeatureMapSpec,
    build_real_amplitudes,
    build_z_feature_map,
    quantum_forward,
    readout_rows,
    serialize_gates,
)
from qembed.statevector import MAX_QUBITS, new_zero_state, run_circuit


def gate_tuple(g):
    return (g.kind, g.target, g.control, g.angle)


def mat_h():
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def mat_u1(lam):
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def mat_ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


CX01 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# Feature map structure
# ---------------------------------------------------------------------------

def test_default_single_qubit_structure():
    gates = build_z_feature_map([0.7], FeatureMapSpec(n_qubits=1))
    assert [gate_tuple(g) for g in gates] == [
        ("H", 0, None, None),
        ("U1", 0, None, 1.4),
        ("H", 0, None, None),
        ("U1", 0, None, 1.4),
    ]


def test_zero_feature_acts_as_identity():
    gates = build_z_feature_map([0.0], FeatureMapSpec(n_qubits=1))
    final = run_circuit(new_zero_state(1), gates)
    assert np.allclose(final.amplitudes, [1, 0], atol=1e-12)


def test_two_qubit_single_repetition_order_and_state():
    spec = FeatureMapSpec(n_qubits=2, repetitions=1)
    a, b = 0.3, -1.1
    gates = build_z_feature_map([a, b], spec)
    assert [gate_tuple(g) for g in gates] == [
        ("H", 0, None, None),
        ("U1", 0, None, 2 * a),
        ("H", 1, None, None),
        ("U1", 1, None, 2 * b),
    ]
    # oracle: per-qubit single-qubit evolution combined as a product state
    s0 = mat_u1(2 * a) @ mat_h() @ np.array([1, 0], dtype=complex)
    s1 = mat_u1(2 * b) @ mat_h() @ np.array([1, 0], dtype=complex)
    final = run_circuit(new_zero_state(2), gates)
    assert np.allclose(final.amplitudes, np.kron(s1, s0), atol=1e-12)


def test_gate_count_scales_with_repetitions():
    spec = FeatureMapSpec(n_qubits=3, repetitions=4)
    gates = build_z_feature_map([0.1, 0.2, 0.3], spec)
    assert len(gates) == 4 * 2 * 3


def test_feature_length_mismatch():
    with pytest.raises(ValueError):
        build_z_feature_map([0.1, 0.2], FeatureMapSpec(n_qubits=1))


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(n_qubits=1, repetitions=0)
    with pytest.raises(ValueError):
        FeatureMapSpec(n_qubits=1, scale=0.0)
    with pytest.raises(ValueError):
        AnsatzSpec(n_qubits=1, layers=-1)
    with pytest.raises(TypeError):
        AnsatzSpec(n_qubits=1, entanglement="full")


@pytest.mark.parametrize("spec", [FeatureMapSpec, AnsatzSpec])
def test_spec_rejects_more_qubits_than_the_simulator_holds(spec):
    assert spec(n_qubits=MAX_QUBITS).n_qubits == MAX_QUBITS
    for n in (0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=rf"n_qubits must be in \[1, {MAX_QUBITS}\], got {n}"):
            spec(n_qubits=n)


# ---------------------------------------------------------------------------
# Ansatz structure
# ---------------------------------------------------------------------------

def test_single_qubit_no_layer_flips_state():
    gates = build_real_amplitudes([math.pi], AnsatzSpec(n_qubits=1, layers=0))
    assert [gate_tuple(g) for g in gates] == [("RY", 0, None, math.pi)]
    final = run_circuit(new_zero_state(1), gates)
    assert np.allclose(final.amplitudes, [0, 1], atol=1e-12)


def test_zero_angles_identity_action():
    gates = build_real_amplitudes([0.0], AnsatzSpec(n_qubits=1, layers=0))
    final = run_circuit(new_zero_state(1), gates)
    assert np.allclose(final.amplitudes, [1, 0], atol=1e-12)


def test_parameter_count_formula():
    for n in range(1, 5):
        for layers in range(4):
            spec = AnsatzSpec(n_qubits=n, layers=layers)
            assert spec.parameter_count() == n * (layers + 1)
            gates = build_real_amplitudes(np.zeros(spec.parameter_count()), spec)
            ry_count = sum(1 for g in gates if g.kind == "RY")
            cx_count = sum(1 for g in gates if g.kind == "CX")
            assert ry_count == spec.parameter_count()
            assert cx_count == layers * (n - 1)


def test_theta_length_mismatch():
    with pytest.raises(ValueError):
        build_real_amplitudes([0.0, 0.0], AnsatzSpec(n_qubits=1, layers=0))


def test_two_qubit_layer_against_dense_oracle():
    """RY layer + CX chain + RY layer vs an explicit 4x4 matrix product."""
    rng = np.random.default_rng(3)
    fm = FeatureMapSpec(n_qubits=2, repetitions=2)
    an = AnsatzSpec(n_qubits=2, layers=1)
    for _ in range(25):
        feats = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(-math.pi, math.pi, size=4)
        gates = build_z_feature_map(feats, fm) + build_real_amplitudes(theta, an)
        got = run_circuit(new_zero_state(2), gates)

        s0 = mat_u1(2 * feats[0]) @ mat_h() @ mat_u1(2 * feats[0]) @ mat_h() @ np.array([1, 0], dtype=complex)
        s1 = mat_u1(2 * feats[1]) @ mat_h() @ mat_u1(2 * feats[1]) @ mat_h() @ np.array([1, 0], dtype=complex)
        state = np.kron(s1, s0)
        state = np.kron(mat_ry(theta[1]), mat_ry(theta[0])) @ state
        state = CX01 @ state
        state = np.kron(mat_ry(theta[3]), mat_ry(theta[2])) @ state
        assert np.allclose(got.amplitudes, state, atol=1e-12)


def test_zero_ansatz_keeps_zero_input_state():
    fm = FeatureMapSpec(n_qubits=2)
    an = AnsatzSpec(n_qubits=2, layers=1)
    gates = build_z_feature_map([0.0, 0.0], fm) + build_real_amplitudes(np.zeros(4), an)
    final = run_circuit(new_zero_state(2), gates)
    assert np.allclose(final.amplitudes, [1, 0, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_closed_form_cos_squared():
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=0)
    for y in np.linspace(-2 * math.pi, 2 * math.pi, 301):
        res = quantum_forward([y], [0.0], fm, an)
        assert abs(res.p0 - math.cos(y) ** 2) < 1e-12


def test_forward_known_points():
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=0)
    assert math.isclose(quantum_forward([math.pi / 4], [0.0], fm, an).p0, 0.5, abs_tol=1e-12)
    assert math.isclose(quantum_forward([0.0], [0.0], fm, an).p0, 1.0, abs_tol=1e-12)


def test_forward_periodicity_in_pi():
    fm = FeatureMapSpec(n_qubits=1)
    an = AnsatzSpec(n_qubits=1, layers=0)
    for y in np.linspace(-math.pi, math.pi, 101):
        p_here = quantum_forward([y], [0.0], fm, an).p0
        p_shift = quantum_forward([y + math.pi], [0.0], fm, an).p0
        assert abs(p_here - p_shift) < 1e-12


def test_identity_circuit_any_width():
    for n in (1, 2, 3):
        fm = FeatureMapSpec(n_qubits=n)
        an = AnsatzSpec(n_qubits=n, layers=1)
        res = quantum_forward(np.zeros(n), np.zeros(2 * n), fm, an)
        assert math.isclose(res.p0, 1.0, abs_tol=1e-12)


def test_forward_rejects_mismatched_specs():
    with pytest.raises(ValueError):
        quantum_forward([0.0], [0.0], FeatureMapSpec(n_qubits=1), AnsatzSpec(n_qubits=2, layers=0))


def test_forward_readout_qubit_selection():
    fm = FeatureMapSpec(n_qubits=2)
    an = AnsatzSpec(n_qubits=2, layers=0)
    feats = [math.pi / 3, 0.0]
    # qubit 0 carries cos^2(pi/3) = 0.25, qubit 1 stays at |0>
    res0 = quantum_forward(feats, np.zeros(2), fm, an, readout_qubit=0)
    res1 = quantum_forward(feats, np.zeros(2), fm, an, readout_qubit=1)
    assert math.isclose(res0.p0, 0.25, abs_tol=1e-12)
    assert math.isclose(res1.p0, 1.0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Row blocks: readout_rows against quantum_forward, bit for bit
# ---------------------------------------------------------------------------

def random_circuit(rng, n):
    """Reps 1-3, 0-3 ansatz layers, a signed scale and wide angles."""
    scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0))
    fm = FeatureMapSpec(n_qubits=n, repetitions=int(rng.integers(1, 4)), scale=scale)
    an = AnsatzSpec(n_qubits=n, layers=int(rng.integers(0, 4)))
    return fm, an, rng.normal(0.0, 2.0, size=an.parameter_count())


def test_readout_rows_one_qubit_matches_quantum_forward():
    rng = np.random.default_rng(71)
    for _ in range(200):
        fm, an, theta = random_circuit(rng, 1)
        for b in (1, 7, 64):
            y = rng.normal(0.0, 2.0, size=(b, 1))
            expected = [quantum_forward(row, theta, fm, an).p0 for row in y]
            assert np.array_equal(readout_rows(y, theta, fm, an), expected)


@pytest.mark.parametrize("n", range(2, 11))
def test_readout_rows_multi_qubit_matches_quantum_forward(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(2):
        fm, an, theta = random_circuit(rng, n)
        q = int(rng.integers(0, n))
        for b in (1, 7, 64):
            y = rng.normal(0.0, 2.0, size=(b, n))
            expected = [quantum_forward(row, theta, fm, an, q).p0 for row in y]
            assert np.array_equal(readout_rows(y, theta, fm, an, q), expected), (b, q)


@pytest.mark.parametrize("n", [1, 3])
def test_readout_rows_raises_the_first_bad_rows_error(n):
    fm, an = FeatureMapSpec(n_qubits=n), AnsatzSpec(n_qubits=n, layers=1)
    theta = np.full(an.parameter_count(), 0.3)
    for bad, message in [(math.nan, "features must be finite"), (1e308, "U1 angle must be finite")]:
        y = np.ones((4, n))
        y[2, n - 1] = bad
        with pytest.raises(ValueError, match=message):
            quantum_forward(y[2], theta, fm, an)
        # the block checks each scaled angle: an overflow reads as a bad feature
        with pytest.raises(ValueError, match="features must be finite"):
            readout_rows(y, theta, fm, an)
    with pytest.raises(ValueError, match=rf"expected \(rows, {n}\) features, got array of shape \({n},\)"):
        readout_rows(np.ones(n), theta, fm, an)
    with pytest.raises(ValueError, match="but ansatz has"):
        readout_rows(np.ones((2, n)), theta, fm, AnsatzSpec(n_qubits=n + 1))
    with pytest.raises(ValueError, match="ansatz parameter"):
        readout_rows(np.ones((2, n)), theta[1:], fm, an)
    with pytest.raises(ValueError, match="RY angle must be finite"):
        readout_rows(np.ones((2, n)), np.full_like(theta, math.inf), fm, an)
    with pytest.raises(IndexError, match="readout qubit"):
        readout_rows(np.ones((2, n)), theta, fm, an, readout_qubit=n)
    assert readout_rows(np.ones((0, n)), theta, fm, an).shape == (0,)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_gate_list():
    fm = FeatureMapSpec(n_qubits=2, repetitions=1)
    an = AnsatzSpec(n_qubits=2, layers=1)
    gates = build_z_feature_map([0.7, 0.25], fm) + build_real_amplitudes(
        [0.3, 0.0, 0.0, 0.0], an
    )
    text = serialize_gates(gates)
    assert text.splitlines() == [
        "H 0",
        "U1 0 1.4",
        "H 1",
        "U1 1 0.5",
        "RY 0 0.3",
        "RY 1 0.0",
        "CX 0 1",
        "RY 0 0.0",
        "RY 1 0.0",
    ]
