"""Acceptance gate: one test per release criterion, each with a time budget.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion, or add `-s` to see the timing lines too.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from ghztp.netharness import Role, orchestrate, read_transcript
from ghztp.protocol import (
    BELL_CORRECTION_TABLE,
    CHARLIE_CORRECTION_TABLE,
    QUBIT_B,
    QUBIT_C,
    Finished,
    SignalState,
    alice_bell_measure,
    apply_bell_correction,
    compose_session,
    prepare_ghz,
    random_signal,
    run_protocol,
    trace_order_errors,
)
from ghztp.qsim import (
    COMPUTATIONAL,
    PLUS_MINUS,
    SQRT_HALF,
    BellOutcome,
    CharlieOutcome,
    ForcedSelector,
    StateVector,
    basis_probabilities,
    bell_probabilities,
    fidelity_pure,
    partial_trace,
)
from ghztp.verify import bob_view_before_charlie, enumerate_branches


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds:.0f}s"
    print(f"PASS {name}: {elapsed:.2f}s (budget {seconds:.0f}s)")


def test_criterion_1_exact_teleportation_on_all_branches():
    rng = random.Random(1001)
    with budget("criterion 1: exact teleportation", 1.0):
        for _ in range(100):
            signal = random_signal(rng)
            for bell in BellOutcome:
                for charlie in CharlieOutcome:
                    result = run_protocol(signal, forced=(bell, charlie))
                    assert result.fidelity >= 1.0 - 1e-10


def test_criterion_2_bell_correction_restores_the_common_form():
    rng = random.Random(1002)
    with budget("criterion 2: common form after Bell correction", 1.0):
        for _ in range(25):
            signal = random_signal(rng)
            target = StateVector(2, [signal.alpha, 0.0, 0.0, signal.beta])
            for index, bell in enumerate(BellOutcome):
                session = compose_session(signal)
                outcome, _ = alice_bell_measure(session, ForcedSelector(index))
                assert outcome is bell
                apply_bell_correction(session, outcome)
                rho_bc = partial_trace(session.state, [QUBIT_B, QUBIT_C])
                assert fidelity_pure(rho_bc, target) >= 1.0 - 1e-10


def test_criterion_3_branch_probabilities_enumerated_and_sampled():
    rng = random.Random(1003)
    with budget("criterion 3: branch probabilities", 10.0):
        for _ in range(20):
            reports = enumerate_branches(random_signal(rng))
            assert len(reports) == 8
            for report in reports:
                assert abs(report.probability - 0.125) <= 1e-10
            assert abs(sum(r.probability for r in reports) - 1.0) <= 1e-10

        runs = 10_000
        master = random.Random(42)
        signal = SignalState(0.6, 0.8)
        bell_counts: Counter = Counter()
        charlie_counts: Counter = Counter()
        for _ in range(runs):
            result = run_protocol(signal, seed=master.getrandbits(63))
            bell_counts[result.bell_outcome] += 1
            charlie_counts[result.charlie_outcome] += 1
        bell_sigma = math.sqrt(runs * 0.25 * 0.75)
        for outcome in BellOutcome:
            assert abs(bell_counts[outcome] - runs * 0.25) <= 4.0 * bell_sigma
        charlie_sigma = math.sqrt(runs * 0.5 * 0.5)
        for outcome in CharlieOutcome:
            assert abs(charlie_counts[outcome] - runs * 0.5) <= 4.0 * charlie_sigma


def test_criterion_4_security_bound_before_charlie_cooperates():
    rng = random.Random(1004)
    bells = list(BellOutcome)
    with budget("criterion 4: security bound", 5.0):
        for i in range(1000):
            signal = random_signal(rng)
            report = bob_view_before_charlie(signal, bells[i % 4])
            entries = report.rho_bob.entries
            assert abs(entries[0][1]) <= 1e-12
            assert abs(entries[1][0]) <= 1e-12
            a2 = abs(signal.alpha) ** 2
            b2 = abs(signal.beta) ** 2
            assert abs(report.raw_fidelity - (a2 * a2 + b2 * b2)) <= 1e-10
            assert abs(report.unitary_bound - max(a2, b2)) <= 1e-10
            if min(a2, b2) > 1e-3:
                assert report.unitary_bound < 1.0 - 1e-4


def test_criterion_5_networked_run_is_equivalent_and_charlie_is_necessary(tmp_path):
    signal = SignalState(0.6, 0.8)
    with budget("criterion 5: networked equivalence", 60.0):
        for seed in range(10):
            reference = run_protocol(signal, seed=seed)
            report = orchestrate(
                signal, seed=seed, timeout=15.0, transcript_dir=tmp_path / f"seed-{seed}"
            )
            assert report.match, (seed, report.problems)
            assert report.net_fidelity == reference.fidelity  # identical, not close
            _, events = read_transcript(report.transcript)
            assert trace_order_errors(events) == []

        dropped = orchestrate(
            signal, seed=0, drop=Role.CHARLIE, timeout=2.0, transcript_dir=tmp_path / "drop"
        )
        assert not dropped.match
        assert (dropped.stalled_role, dropped.stalled_at) == ("charlie", "CharlieMeasure")
        _, events = read_transcript(dropped.transcript)
        assert not any(isinstance(e, Finished) for e in events)  # Bob never finished


def test_criterion_6_substrate_sanity():
    with budget("criterion 6: substrate sanity", 5.0):
        analytic = np.zeros(8, dtype=np.complex128)
        analytic[0b000] = SQRT_HALF
        analytic[0b111] = SQRT_HALF
        assert np.abs(prepare_ghz().amplitudes - analytic).max() <= 1e-12

        unitaries = [u for pair in BELL_CORRECTION_TABLE.values() for u in pair]
        unitaries += list(CHARLIE_CORRECTION_TABLE.values())
        for unitary in unitaries:
            matrix = np.asarray(unitary.matrix)
            gram = matrix.conj().T @ matrix
            assert np.abs(gram - np.eye(2)).max() <= 1e-12

        rng = np.random.default_rng(1006)
        for i in range(1000):
            raw = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = StateVector(3, raw / np.linalg.norm(raw))
            qubit = i % 3
            for basis in (COMPUTATIONAL, PLUS_MINUS):
                assert abs(sum(basis_probabilities(state, qubit, basis)) - 1.0) <= 1e-10
            assert abs(sum(bell_probabilities(state, 0, 1).values()) - 1.0) <= 1e-10
