"""Substrate tests: state construction, gates, measurements, partial trace.

Expected values were computed once with the index-loop reference
implementations in oracles.py and are frozen here as literals where they are
simple enough to read.
"""

import numpy as np
import pytest

import oracles
from ghztp.qsim import (
    ATOL_ACCUMULATED,
    ATOL_ALGEBRAIC,
    BELL_VECTORS,
    BellOutcome,
    COMPUTATIONAL,
    ForcedSelector,
    IDENTITY,
    ImpossibleOutcomeError,
    MeasurementBasis,
    NAMED_UNITARIES,
    PAULI_X,
    PAULI_Z,
    PLUS_MINUS,
    SQRT_HALF,
    SeededSelector,
    StateVector,
    Unitary2x2,
    ValidationError,
    ZX,
    apply_single,
    basis_probabilities,
    bell_probabilities,
    fidelity_pure,
    measure_bell,
    measure_in_basis,
    partial_trace,
    pure_state_from_density,
    tensor,
)


H_GATE = Unitary2x2([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], name="H")

# Either half of a Bell pair: the maximally mixed qubit I/2.
MIXED = partial_trace(StateVector(2, [SQRT_HALF, 0, 0, SQRT_HALF]), [0])


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))


# --- StateVector construction -------------------------------------------------


def test_constructor_renormalizes_within_band():
    sv = StateVector(1, [1.0 + 3e-7, 0.0])
    assert abs(sv.amplitudes[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_constructor_rejects_norm_outside_band():
    with pytest.raises(ValidationError):
        StateVector(1, [1.1, 0.0])
    with pytest.raises(ValidationError):
        StateVector(1, [0.0, 0.0])


def test_constructor_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ValidationError):
        StateVector(1, [np.nan, 0.0])
    with pytest.raises(ValidationError):
        StateVector(2, [1.0, 0.0])


def test_amplitudes_are_read_only():
    sv = StateVector(2, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0


def test_equality_is_exact_bits():
    a = StateVector(1, [1, 0])
    b = StateVector(1, [1, 0])
    assert a == b and hash(a) == hash(b)
    assert a != StateVector(1, [SQRT_HALF, SQRT_HALF])


# --- unitaries and bases -------------------------------------------------------


def test_named_unitaries_are_unitary():
    for name, u in NAMED_UNITARIES.items():
        product = u.matrix.conj().T @ u.matrix
        assert np.allclose(product, np.eye(2), atol=ATOL_ALGEBRAIC), name


def test_zx_is_z_after_x():
    assert np.array_equal(ZX.matrix, PAULI_Z.matrix @ PAULI_X.matrix)


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValidationError):
        Unitary2x2([[1, 0], [0, 2]])


def test_basis_must_be_orthonormal():
    with pytest.raises(ValidationError):
        MeasurementBasis([1, 0], [1, 0])
    with pytest.raises(ValidationError):
        MeasurementBasis([2, 0], [0, 1])


# --- gate application ----------------------------------------------------------


def test_identity_application_returns_same_object():
    sv = random_state(np.random.default_rng(7), 3)
    assert apply_single(sv, 1, IDENTITY) is sv


def test_apply_single_matches_full_matrix_oracle():
    rng = np.random.default_rng(11)
    for num_qubits in (1, 2, 4):
        for qubit in range(num_qubits):
            for u in (PAULI_X, PAULI_Z, H_GATE, ZX):
                sv = random_state(rng, num_qubits)
                got = apply_single(sv, qubit, u).amplitudes
                full = oracles.full_single_qubit_matrix(u.matrix, qubit, num_qubits)
                assert np.allclose(got, full @ sv.amplitudes, atol=ATOL_ALGEBRAIC)


def test_hadamard_on_zero():
    got = apply_single(StateVector(1, [1, 0]), 0, H_GATE)
    assert np.allclose(got.amplitudes, [SQRT_HALF, SQRT_HALF], atol=ATOL_ALGEBRAIC)


def test_tensor_is_kron_with_first_factor_significant():
    a = StateVector(1, [0.6, 0.8])
    b = StateVector(1, [0, 1])
    sv = tensor(a, b)
    assert sv.num_qubits == 2
    assert np.allclose(sv.amplitudes, [0, 0.6, 0, 0.8], atol=ATOL_ALGEBRAIC)


# --- measurement ----------------------------------------------------------------


def test_basis_probabilities_match_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sv = random_state(rng, 3)
        for qubit in range(3):
            for basis in (COMPUTATIONAL, PLUS_MINUS):
                got = basis_probabilities(sv, qubit, basis)
                want = oracles.single_qubit_probabilities(
                    sv.amplitudes, qubit, 3, basis.b0, basis.b1
                )
                assert got == pytest.approx(want, abs=ATOL_ACCUMULATED)


def test_measure_in_basis_projects_and_renormalizes():
    rng = np.random.default_rng(19)
    sv = random_state(rng, 2)
    for forced in (0, 1):
        k, p, post = measure_in_basis(sv, 0, COMPUTATIONAL, ForcedSelector(forced))
        assert k == forced
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=ATOL_ACCUMULATED)
        # Repeating the same measurement is now deterministic.
        repeat = basis_probabilities(post, 0, COMPUTATIONAL)
        assert repeat[forced] == pytest.approx(1.0, abs=ATOL_ACCUMULATED)
        born = abs(sv.amplitudes) ** 2
        want = born[0b10] + born[0b11] if forced else born[0b00] + born[0b01]
        assert p == pytest.approx(want, abs=ATOL_ALGEBRAIC)


def test_forced_selector_rejects_impossible_outcome():
    sv = StateVector(1, [1, 0])  # outcome 1 has probability exactly 0
    with pytest.raises(ImpossibleOutcomeError):
        measure_in_basis(sv, 0, COMPUTATIONAL, ForcedSelector(1))
    with pytest.raises(ValueError):
        ForcedSelector(5).choose([0.5, 0.5])


def test_seeded_selector_is_deterministic_and_orderly():
    a = SeededSelector(42)
    b = SeededSelector(42)
    probs = [0.1, 0.2, 0.3, 0.4]
    assert [a.choose(probs) for _ in range(50)] == [b.choose(probs) for _ in range(50)]
    assert SeededSelector(0).choose([1.0, 0.0]) == 0


def test_reported_probability_is_born_probability():
    sv = StateVector(1, [0.6, 0.8])
    _, p, _ = measure_in_basis(sv, 0, COMPUTATIONAL, ForcedSelector(1))
    assert p == pytest.approx(0.64, abs=ATOL_ALGEBRAIC)


# --- Bell projection -------------------------------------------------------------


def test_bell_vectors_are_orthonormal():
    mat = np.array([BELL_VECTORS[o] for o in BellOutcome])
    assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=ATOL_ALGEBRAIC)


def test_bell_probabilities_match_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sv = random_state(rng, 4)
        for q1, q2 in [(0, 1), (2, 3), (1, 3)]:
            got = bell_probabilities(sv, q1, q2)
            want = oracles.bell_projection_probabilities(
                sv.amplitudes, q1, q2, 4, BELL_VECTORS
            )
            for outcome in BellOutcome:
                assert got[outcome] == pytest.approx(want[outcome], abs=ATOL_ACCUMULATED)


def test_bell_probabilities_sum_to_one():
    rng = np.random.default_rng(29)
    for _ in range(50):
        sv = random_state(rng, 4)
        assert sum(bell_probabilities(sv, 0, 1).values()) == pytest.approx(
            1.0, abs=ATOL_ACCUMULATED
        )


def test_measure_bell_post_state_factorizes():
    # Forcing PhiPlus on a product state |+>|+> x |00> keeps the rest intact.
    plus = StateVector(1, [SQRT_HALF, SQRT_HALF])
    zeros = StateVector(2, [1, 0, 0, 0])
    sv = tensor(tensor(plus, plus), zeros)
    outcome, p, post = measure_bell(sv, 0, 1, ForcedSelector(0))
    assert outcome is BellOutcome.PHI_PLUS
    assert p == pytest.approx(0.5, abs=ATOL_ACCUMULATED)
    want = np.kron(BELL_VECTORS[BellOutcome.PHI_PLUS], zeros.amplitudes)
    assert np.allclose(post.amplitudes, want, atol=ATOL_ACCUMULATED)


# --- partial trace and fidelity ---------------------------------------------------


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(31)
    for keep in ([0], [2], [0, 1], [1, 3], [0, 1, 2]):
        sv = random_state(rng, 4)
        got = partial_trace(sv, keep).entries
        want = oracles.partial_trace_matrix(sv.amplitudes, keep, 4)
        assert np.allclose(got, want, atol=ATOL_ACCUMULATED)


def test_partial_trace_of_product_state_is_pure_factor():
    sv = tensor(StateVector(1, [0.6, 0.8]), StateVector(1, [1, 0]))
    rho = partial_trace(sv, [0])
    want = np.array([[0.36, 0.48], [0.48, 0.64]])
    assert np.allclose(rho.entries, want, atol=ATOL_ACCUMULATED)


def test_fidelity_pure_of_maximally_mixed_is_half():
    rho = MIXED
    rng = np.random.default_rng(37)
    for _ in range(5):
        assert fidelity_pure(rho, random_state(rng, 1)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_pure_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(MIXED, StateVector(2, [1, 0, 0, 0]))


def test_pure_state_round_trip_up_to_phase():
    rng = np.random.default_rng(41)
    for _ in range(10):
        sv = random_state(rng, 2)
        back = pure_state_from_density(partial_trace(tensor(sv, StateVector(1, [1, 0])), [0, 1]))
        overlap = abs(np.vdot(back.amplitudes, sv.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_pure_state_from_density_rejects_mixed():
    with pytest.raises(ValidationError):
        pure_state_from_density(MIXED)
