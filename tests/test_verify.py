"""Branch enumeration and security-quantity tests.

Frozen values for the signal (0.6, 0.8): rho_bob = diag(0.36, 0.64),
raw_fidelity = 0.36^2 + 0.64^2 = 0.5392, unitary_bound = 0.64. For the
balanced signal everything degenerates to 1/2; for a basis state the bound
is 1 (nothing to protect).
"""

import itertools
import math
import random

import numpy as np
import pytest

import oracles
from ghztp.qsim import (
    BELL_VECTORS,
    BellOutcome,
    CharlieOutcome,
    ForcedSelector,
    PLUS_MINUS,
    SQRT_HALF,
    StateVector,
    ValidationError,
    fidelity_pure,
    partial_trace,
)
from ghztp.protocol import (
    QUBIT_C,
    SignalState,
    alice_bell_measure,
    apply_bell_correction,
    compose_session,
    prepare_signal,
    random_signal,
    run_protocol,
)
from ghztp.verify import (
    BranchReport,
    SecurityReport,
    bob_view_before_charlie,
    enumerate_branches,
    hermitian_max_eigenvalue_2x2,
    security_sweep,
)

SIGNAL = SignalState(0.6, 0.8)
BALANCED = SignalState(SQRT_HALF, SQRT_HALF)


def corrected_session(signal, bell):
    session = compose_session(signal)
    outcome, _ = alice_bell_measure(session, ForcedSelector(list(BellOutcome).index(bell)))
    apply_bell_correction(session, outcome)
    return session


# --- enumerate_branches ---------------------------------------------------------


def test_enumerate_covers_all_branches_in_order():
    reports = enumerate_branches(SIGNAL)
    assert [(r.bell, r.charlie) for r in reports] == list(
        itertools.product(BellOutcome, CharlieOutcome)
    )


def test_branch_probabilities_are_one_eighth_and_sum_to_one():
    reports = enumerate_branches(SIGNAL)
    for r in reports:
        assert r.probability == pytest.approx(0.125, abs=1e-10)
        assert r.bob_fidelity >= 1.0 - 1e-10
    assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-10)


def test_basis_signal_branches_all_reach_fidelity_one():
    for r in enumerate_branches(SignalState(1, 0)):
        assert r.bob_fidelity == pytest.approx(1.0, abs=1e-10)


def test_enumeration_matches_run_protocol_exactly():
    # Same arithmetic path: values must agree bit for bit, not just closely.
    for r in enumerate_branches(SIGNAL):
        result = run_protocol(SIGNAL, forced=(r.bell, r.charlie))
        assert result.path_probability == r.probability
        assert result.fidelity == r.bob_fidelity


def test_branch_probability_matches_direct_projection_oracle():
    session = compose_session(SIGNAL)
    bell_probs = oracles.bell_projection_probabilities(
        session.state.amplitudes, 0, 1, 4, BELL_VECTORS
    )
    for bell in BellOutcome:
        corrected = corrected_session(SIGNAL, bell)
        p_plus, p_minus = oracles.single_qubit_probabilities(
            corrected.state.amplitudes, 3, 4, PLUS_MINUS.b0, PLUS_MINUS.b1
        )
        for charlie, p_c in ((CharlieOutcome.PLUS, p_plus), (CharlieOutcome.MINUS, p_minus)):
            report = next(
                r for r in enumerate_branches(SIGNAL) if (r.bell, r.charlie) == (bell, charlie)
            )
            assert report.probability == pytest.approx(bell_probs[bell] * p_c, abs=1e-10)


def test_branch_report_rejects_negative_probability():
    with pytest.raises(ValidationError):
        BranchReport(BellOutcome.PHI_PLUS, CharlieOutcome.PLUS, -0.1, 1.0)


# --- security quantities ---------------------------------------------------------


def test_frozen_security_values_for_unbalanced_signal():
    for bell in BellOutcome:
        report = bob_view_before_charlie(SIGNAL, bell)
        assert np.allclose(report.rho_bob.entries, np.diag([0.36, 0.64]), atol=1e-10)
        assert report.raw_fidelity == pytest.approx(0.5392, abs=1e-10)
        assert report.unitary_bound == pytest.approx(0.64, abs=1e-10)
        assert not report.near_basis


def test_balanced_signal_gives_half_everywhere():
    report = bob_view_before_charlie(BALANCED, BellOutcome.PSI_MINUS)
    assert np.allclose(report.rho_bob.entries, np.eye(2) / 2, atol=1e-10)
    assert report.raw_fidelity == pytest.approx(0.5, abs=1e-10)
    assert report.unitary_bound == pytest.approx(0.5, abs=1e-10)


def test_basis_signal_is_flagged_unprotected():
    report = bob_view_before_charlie(SignalState(1, 0), BellOutcome.PHI_PLUS)
    assert report.unitary_bound == pytest.approx(1.0, abs=1e-10)
    assert report.raw_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.near_basis


def test_rho_bob_is_diagonal_for_every_branch_and_signal():
    # No phase information reaches Bob before Charlie's message.
    rng = random.Random(8)
    for _ in range(10):
        signal = random_signal(rng)
        for bell in BellOutcome:
            report = bob_view_before_charlie(signal, bell)
            assert abs(report.rho_bob.entries[0, 1]) < 1e-12
            assert abs(report.rho_bob.entries[1, 0]) < 1e-12


def test_bound_below_one_for_non_basis_signals_and_one_after_cooperation():
    rng = random.Random(9)
    for _ in range(25):
        signal = random_signal(rng)
        if min(abs(signal.alpha) ** 2, abs(signal.beta) ** 2) <= 1e-6:
            continue
        report = bob_view_before_charlie(signal, BellOutcome.PHI_PLUS)
        assert report.unitary_bound < 1.0 - 1e-7
        # With Charlie's bit, the same branch finishes at fidelity 1.
        full = run_protocol(signal, forced=(BellOutcome.PHI_PLUS, CharlieOutcome.PLUS))
        assert full.fidelity >= 1.0 - 1e-10


def test_charlie_view_is_equally_uninformative():
    # Our formalization of the symmetric claim: the same metrics applied to
    # Charlie's reduced state give the same diagonal matrix and the same bound.
    for bell in BellOutcome:
        session = corrected_session(SIGNAL, bell)
        rho_charlie = partial_trace(session.state, [QUBIT_C])
        assert np.allclose(rho_charlie.entries, np.diag([0.36, 0.64]), atol=1e-10)
        raw = fidelity_pure(rho_charlie, prepare_signal(SIGNAL))
        assert raw == pytest.approx(0.5392, abs=1e-10)
        assert hermitian_max_eigenvalue_2x2(rho_charlie) == pytest.approx(0.64, abs=1e-10)


def test_closed_form_eigenvalue_matches_library_solver():
    # Dual route: hand formula vs LAPACK, on assorted valid density matrices:
    # one qubit of a random two-qubit state is in a random mixed state.
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = partial_trace(StateVector(2, v / np.linalg.norm(v)), [0])
        got = hermitian_max_eigenvalue_2x2(rho)
        want = float(np.linalg.eigvalsh(rho.entries)[-1])
        assert got == pytest.approx(want, abs=1e-12)


def test_eigenvalue_closed_form_rejects_larger_matrices():
    with pytest.raises(ValueError):
        hermitian_max_eigenvalue_2x2(partial_trace(StateVector(2, [1, 0, 0, 0]), [0, 1]))


def test_security_report_orders_its_fields():
    with pytest.raises(ValidationError):
        SecurityReport(
            rho_bob=bob_view_before_charlie(BALANCED, BellOutcome.PHI_PLUS).rho_bob,
            raw_fidelity=0.9,
            unitary_bound=0.5,
            near_basis=False,
        )


# --- sweep -------------------------------------------------------------------------


def test_sweep_deviations_stay_tiny():
    summary = security_sweep(200, seed=12)
    assert summary.samples == 200
    assert abs(summary.min_bound_excess) < 1e-10
    assert abs(summary.max_bound_excess) < 1e-10
    assert summary.max_fidelity_deviation < 1e-10
    assert summary.max_off_diagonal < 1e-12


def test_sweep_is_deterministic_per_seed():
    assert security_sweep(50, seed=4) == security_sweep(50, seed=4)


def test_sweep_rejects_zero_samples():
    with pytest.raises(ValueError):
        security_sweep(0, seed=1)


def test_single_sample_summaries_match_known_bounds():
    # Balanced and basis signals pin the two extreme bounds.
    report = bob_view_before_charlie(BALANCED, BellOutcome.PHI_PLUS)
    assert report.unitary_bound == pytest.approx(0.5, abs=1e-10)
    report = bob_view_before_charlie(SignalState(0, 1), BellOutcome.PHI_PLUS)
    assert report.unitary_bound == pytest.approx(1.0, abs=1e-10)
    assert math.isclose(report.raw_fidelity, 1.0, abs_tol=1e-10)
