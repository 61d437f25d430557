"""Protocol tests: move order, branch residuals, corrections, traces, messages.

Branch residuals before correction were derived by expanding
(alpha|0> + beta|1>) ⊗ (|000> + |111>)/sqrt(2) in the Bell basis of the
(D, A) pair and are frozen in RESIDUAL_BEFORE_CORRECTION below.
"""

import itertools
import random

import numpy as np
import pytest

from ghztp.qsim import (
    BELL_VECTORS,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    ZX,
    BellOutcome,
    CharlieOutcome,
    ForcedSelector,
    SQRT_HALF,
    SeededSelector,
    ValidationError,
)
from ghztp import protocol
from ghztp.protocol import (
    BELL_CORRECTION_TABLE,
    RECIPIENTS,
    BellMeasured,
    BobCorrected,
    CharlieMeasured,
    ClassicalMessage,
    CorrectionApplied,
    Finished,
    GhzPrepared,
    NotYet,
    PhaseError,
    Role,
    SignalPrepared,
    SignalState,
    alice_bell_measure,
    apply_bell_correction,
    basis_measure,
    bob_finish,
    compose_session,
    correct,
    event_line,
    parse_event_line,
    prepare_ghz,
    prepare_signal,
    random_signal,
    run_protocol,
    send,
    trace_order_errors,
)

ALPHA, BETA = 0.6, 0.8

# BC state right after Alice's measurement, indexed [00, 01, 10, 11].
RESIDUAL_BEFORE_CORRECTION = {
    BellOutcome.PHI_PLUS: [ALPHA, 0, 0, BETA],
    BellOutcome.PHI_MINUS: [ALPHA, 0, 0, -BETA],
    BellOutcome.PSI_PLUS: [BETA, 0, 0, ALPHA],
    BellOutcome.PSI_MINUS: [-BETA, 0, 0, ALPHA],
}

COMMON_FORM = [ALPHA, 0, 0, BETA]  # alpha|00> + beta|11> after both corrections


def forced_session(bell: BellOutcome):
    session = compose_session(SignalState(ALPHA, BETA))
    outcome, _ = alice_bell_measure(session, ForcedSelector(list(BellOutcome).index(bell)))
    assert outcome is bell
    return session


# --- signal ---------------------------------------------------------------------


def test_signal_state_normalizes_and_rejects():
    s = SignalState(0.6 + 3e-8, 0.8)
    assert abs(s.alpha) ** 2 + abs(s.beta) ** 2 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValidationError):
        SignalState(1.0, 1.0)
    with pytest.raises(ValidationError):
        SignalState(0.0, 0.0)
    with pytest.raises(ValidationError):
        SignalState(float("nan"), 1.0)


def test_random_signal_is_normalized():
    rng = random.Random(3)
    for _ in range(100):
        s = random_signal(rng)
        assert abs(s.alpha) ** 2 + abs(s.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


# --- preparation ------------------------------------------------------------------


def test_prepare_ghz_matches_analytic_vector():
    want = np.zeros(8, dtype=complex)
    want[0] = want[7] = SQRT_HALF
    assert np.allclose(prepare_ghz().amplitudes, want, atol=1e-12)


def test_composed_state_amplitudes():
    session = compose_session(SignalState(ALPHA, BETA))
    want = np.zeros(16, dtype=complex)
    want[0] = want[0b0111] = ALPHA * SQRT_HALF
    want[0b1000] = want[0b1111] = BETA * SQRT_HALF
    assert np.allclose(session.state.amplitudes, want, atol=1e-12)
    assert session.due == [(Role.ALICE, "bell_measure", None)]
    assert [type(e) for e in session.trace.events] == [GhzPrepared, SignalPrepared]


# --- Alice's measurement and the corrections ---------------------------------------


def test_each_bell_branch_has_quarter_probability():
    for k, bell in enumerate(BellOutcome):
        session = compose_session(SignalState(ALPHA, BETA))
        _, msg = alice_bell_measure(session, ForcedSelector(k))
        event = next(e for e in session.trace.events if isinstance(e, BellMeasured))
        assert event.outcome is bell
        assert event.probability == pytest.approx(0.25, abs=1e-12)
        assert msg.payload is bell


def test_branch_residuals_before_correction():
    for bell, residual in RESIDUAL_BEFORE_CORRECTION.items():
        session = forced_session(bell)
        want = np.kron(BELL_VECTORS[bell], np.array(residual, dtype=complex))
        assert np.allclose(session.state.amplitudes, want, atol=1e-12), bell


def test_bell_correction_restores_common_form():
    for bell in BellOutcome:
        session = forced_session(bell)
        apply_bell_correction(session, bell)
        want = np.kron(BELL_VECTORS[bell], np.array(COMMON_FORM, dtype=complex))
        assert np.allclose(session.state.amplitudes, want, atol=1e-12), bell
        assert session.due == [(Role.CHARLIE, "basis_measure", None)]


def test_correction_table_entries_are_logged():
    session = forced_session(BellOutcome.PSI_MINUS)
    apply_bell_correction(session, BellOutcome.PSI_MINUS)
    applied = [e for e in session.trace.events if isinstance(e, CorrectionApplied)]
    assert [(e.role, e.unitary) for e in applied] == [(Role.BOB, "X"), (Role.CHARLIE, "ZX")]
    u_b, u_c = BELL_CORRECTION_TABLE[BellOutcome.PSI_MINUS]
    assert (u_b.name, u_c.name) == ("X", "ZX")


# --- Charlie and Bob ----------------------------------------------------------------


def test_charlie_outcomes_are_equiprobable():
    for k, charlie in enumerate(CharlieOutcome):
        session = forced_session(BellOutcome.PHI_PLUS)
        apply_bell_correction(session, BellOutcome.PHI_PLUS)
        outcome = basis_measure(session, Role.CHARLIE, ForcedSelector(k)).outcome
        msg = send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], outcome)
        assert outcome is charlie
        event = next(e for e in session.trace.events if isinstance(e, CharlieMeasured))
        assert event.probability == pytest.approx(0.5, abs=1e-12)
        assert msg.recipients == frozenset({Role.BOB})


def test_all_eight_branches_recover_the_signal():
    signal = SignalState(ALPHA, BETA)
    want = prepare_signal(signal).amplitudes
    for bell, charlie in itertools.product(BellOutcome, CharlieOutcome):
        result = run_protocol(signal, forced=(bell, charlie))
        assert result.fidelity >= 1.0 - 1e-10, (bell, charlie)
        overlap = abs(np.vdot(result.bob_state.amplitudes, want))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert result.path_probability == pytest.approx(0.125, abs=1e-12)
        assert (result.bell_outcome, result.charlie_outcome) == (bell, charlie)


def test_minus_branch_needs_z_correction():
    result = run_protocol(SignalState(ALPHA, BETA), forced=(BellOutcome.PHI_PLUS, CharlieOutcome.MINUS))
    assert any(isinstance(e, BobCorrected) and e.unitary == "Z" for e in result.trace.events)


def test_phase_order_is_enforced():
    session = compose_session(SignalState(ALPHA, BETA))
    with pytest.raises(PhaseError):
        basis_measure(session, Role.CHARLIE, ForcedSelector(0))
    with pytest.raises(PhaseError):
        apply_bell_correction(session, BellOutcome.PHI_PLUS)
    with pytest.raises(PhaseError):
        correct(session, Role.BOB, IDENTITY)
    alice_bell_measure(session, ForcedSelector(0))
    with pytest.raises(PhaseError):
        alice_bell_measure(session, ForcedSelector(0))  # no second measurement
    assert session.due == [  # PhiPlus owes nothing but identities
        (Role.BOB, "correct", IDENTITY),
        (Role.CHARLIE, "correct", IDENTITY),
        (Role.CHARLIE, "basis_measure", None),
    ]
    with pytest.raises(PhaseError):
        apply_bell_correction(session, BellOutcome.PSI_PLUS)  # not the measured outcome
    apply_bell_correction(session, BellOutcome.PHI_PLUS)
    with pytest.raises(PhaseError):
        apply_bell_correction(session, BellOutcome.PHI_PLUS)
    outcome = basis_measure(session, Role.CHARLIE, ForcedSelector(1)).outcome
    send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], outcome)
    with pytest.raises(PhaseError):
        basis_measure(session, Role.CHARLIE, ForcedSelector(1))  # no second measurement
    with pytest.raises(PhaseError):
        correct(session, Role.BOB, IDENTITY)  # Minus owes Z, not I
    correct(session, Role.BOB, PAULI_Z)
    bob_finish(session, Role.BOB)
    assert session.due == []
    with pytest.raises(PhaseError):
        correct(session, Role.BOB, PAULI_Z)


@pytest.mark.parametrize("first", [Role.BOB, Role.CHARLIE])
def test_session_is_corrected_whichever_role_corrects_first(first):
    session = forced_session(BellOutcome.PSI_MINUS)  # Bob owes X, Charlie owes ZX
    if first is Role.CHARLIE:
        before, lines = session.state, session.trace.lines()
        with pytest.raises(NotYet):
            correct(session, Role.CHARLIE, ZX)  # due only once Bob has made his X
        assert session.state is before
        assert session.trace.lines() == lines
    correct(session, Role.BOB, PAULI_X)
    assert session.due == [(Role.CHARLIE, "correct", ZX), (Role.CHARLIE, "basis_measure", None)]
    with pytest.raises(PhaseError):  # Charlie's own correction is still owed
        basis_measure(session, Role.CHARLIE, ForcedSelector(0))
    correct(session, Role.CHARLIE, ZX)
    assert session.due == [(Role.CHARLIE, "basis_measure", None)]
    want = np.kron(BELL_VECTORS[BellOutcome.PSI_MINUS], np.array(COMMON_FORM, dtype=complex))
    assert np.allclose(session.state.amplitudes, want, atol=1e-12)
    outcome = basis_measure(session, Role.CHARLIE, ForcedSelector(0)).outcome
    send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], outcome)
    assert session.due == [(Role.BOB, "correct", IDENTITY), (Role.BOB, "finish", None)]


def test_corrections_nobody_owes_are_refused():
    session = forced_session(BellOutcome.PSI_PLUS)  # Bob and Charlie each owe X
    before = session.state
    for role, unitary in (
        (Role.ALICE, PAULI_X),
        (Role.BOB, PAULI_Z),
        (Role.BOB, IDENTITY),
        (Role.CHARLIE, ZX),
    ):
        with pytest.raises(PhaseError):
            correct(session, role, unitary)
    assert session.state is before
    assert not any(isinstance(e, CorrectionApplied) for e in session.trace.events)
    correct(session, Role.BOB, PAULI_X)
    with pytest.raises(PhaseError):
        correct(session, Role.BOB, PAULI_X)  # owed once, made once


def test_an_owed_identity_never_holds_the_session_back():
    session = forced_session(BellOutcome.PHI_MINUS)  # Bob owes I, Charlie owes Z
    correct(session, Role.CHARLIE, PAULI_Z)
    assert session.due == [(Role.CHARLIE, "basis_measure", None)]
    outcome = basis_measure(session, Role.CHARLIE, ForcedSelector(0)).outcome
    send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], outcome)
    correct(session, Role.BOB, IDENTITY)  # Plus: Bob's final correction is I
    bob_state, _ = bob_finish(session, Role.BOB)
    assert abs(np.vdot(bob_state.amplitudes, [ALPHA, BETA])) == pytest.approx(1.0, abs=1e-10)
    assert not any(isinstance(e, CorrectionApplied) and e.role is Role.BOB
                   for e in session.trace.events)


def test_each_outcome_is_sent_once_to_the_roles_that_need_it():
    session = compose_session(SignalState(ALPHA, BETA))
    bob_and_charlie = frozenset({Role.BOB, Role.CHARLIE})
    with pytest.raises(PhaseError):
        send(session, Role.ALICE, bob_and_charlie, BellOutcome.PHI_PLUS)  # not measured yet
    outcome, _ = alice_bell_measure(session, ForcedSelector(2))
    for sender, recipients, payload in (
        (Role.ALICE, bob_and_charlie, outcome),  # already broadcast
        (Role.BOB, frozenset({Role.CHARLIE}), outcome),  # Bob measures nothing
        (Role.CHARLIE, frozenset({Role.BOB}), CharlieOutcome.PLUS),  # not measured yet
    ):
        with pytest.raises(PhaseError):
            send(session, sender, recipients, payload)
    apply_bell_correction(session, outcome)
    charlie = basis_measure(session, Role.CHARLIE, ForcedSelector(0)).outcome
    send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], charlie)
    assert [m.seq for m in session.trace.messages()] == [1, 2]


# --- runs, traces, messages -----------------------------------------------------------


def test_run_requires_exactly_one_branch_policy():
    with pytest.raises(ValueError):
        run_protocol(SignalState(1, 0))
    with pytest.raises(ValueError):
        run_protocol(
            SignalState(1, 0),
            seed=1,
            forced=(BellOutcome.PHI_PLUS, CharlieOutcome.PLUS),
        )


def test_seeded_runs_are_byte_identical():
    a = run_protocol(SignalState(ALPHA, BETA), seed=123)
    b = run_protocol(SignalState(ALPHA, BETA), seed=123)
    assert a.trace.lines() == b.trace.lines()
    assert a.bob_state == b.bob_state  # exact bits, not just close
    assert a.fidelity == b.fidelity


def test_seeded_runs_cover_all_branches():
    seen = {
        (run_protocol(SignalState(ALPHA, BETA), seed=s).bell_outcome,
         run_protocol(SignalState(ALPHA, BETA), seed=s).charlie_outcome)
        for s in range(60)
    }
    assert len(seen) == 8


def test_trace_has_exactly_two_messages_in_causal_order():
    result = run_protocol(SignalState(ALPHA, BETA), seed=7)
    messages = result.trace.messages()
    assert [m.seq for m in messages] == [1, 2]
    assert messages[0].sender is Role.ALICE
    assert messages[0].recipients == frozenset({Role.BOB, Role.CHARLIE})
    assert messages[1].sender is Role.CHARLIE
    assert trace_order_errors(result.trace.events) == []
    assert isinstance(result.trace.events[-1], Finished)


def test_trace_order_validator_flags_swaps():
    events = run_protocol(SignalState(ALPHA, BETA), seed=7).trace.events
    bell_at = next(i for i, e in enumerate(events) if isinstance(e, BellMeasured))
    swapped = list(events)
    swapped[bell_at], swapped[bell_at + 1] = swapped[bell_at + 1], swapped[bell_at]
    assert trace_order_errors(swapped)


def test_trace_text_round_trip():
    result = run_protocol(SignalState(ALPHA, BETA), seed=99)
    assert [parse_event_line(line) for line in result.trace.lines()] == result.trace.events


def test_event_line_formats_are_stable():
    line = event_line(BellMeasured(BellOutcome.PHI_MINUS, 0.25))
    assert line == "BellMeasured outcome=PhiMinus probability=0.25"
    msg = ClassicalMessage(1, Role.ALICE, frozenset({Role.BOB, Role.CHARLIE}), BellOutcome.PSI_PLUS)
    assert event_line(msg) == "Classical seq=1 sender=alice recipients=bob,charlie payload=PsiPlus"
    assert parse_event_line(event_line(msg)) == msg


def test_message_sender_cannot_receive_own_message():
    with pytest.raises(ValidationError):
        ClassicalMessage(1, Role.ALICE, frozenset({Role.ALICE}), BellOutcome.PHI_PLUS)


# The kernel calls of one run, as bench/ counts them (qsim.calls_per_session).
KERNEL_SEQUENCE = [
    "measure_bell",
    "apply_single",
    "apply_single",
    "measure_in_basis",
    "apply_single",
    "partial_trace",
    "partial_trace",
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The name of each qsim kernel called through ghztp.protocol, in order."""
    calls = []
    for name in dict.fromkeys(KERNEL_SEQUENCE):
        def record(*args, _name=name, _kernel=getattr(protocol, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(protocol, name, record)
    return calls


@pytest.mark.parametrize(
    "policy",
    [{"seed": 7}] + [{"forced": pair} for pair in itertools.product(BellOutcome, CharlieOutcome)],
    ids=lambda p: f"seed-{p['seed']}" if "seed" in p else "-".join(o.value for o in p["forced"]),
)
def test_a_run_makes_its_seven_kernel_calls_in_order(kernel_calls, policy):
    run_protocol(SignalState(ALPHA, BETA), **policy)
    assert kernel_calls == KERNEL_SEQUENCE


def test_seeded_selector_sharing_consumes_in_order():
    # One PRNG drives both draws: bell first, charlie second.
    selector = SeededSelector(5)
    session = compose_session(SignalState(ALPHA, BETA))
    bell, _ = alice_bell_measure(session, selector)
    apply_bell_correction(session, bell)
    charlie = basis_measure(session, Role.CHARLIE, selector).outcome
    send(session, Role.CHARLIE, RECIPIENTS[Role.CHARLIE], charlie)
    result = run_protocol(SignalState(ALPHA, BETA), seed=5)
    assert (result.bell_outcome, result.charlie_outcome) == (bell, charlie)
