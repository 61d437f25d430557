"""Three-party controlled teleportation over a shared GHZ state.

Alice holds the signal qubit D and her GHZ share A, Bob holds B, and Charlie
supervises with C. Alice Bell-measures (D, A) and broadcasts the result; Bob
and Charlie each apply their local correction, bringing B, C to the common
form alpha|00> + beta|11>. Charlie then measures C in the (|0> ± |1>)/sqrt(2)
basis and sends his result to Bob, whose final conditional correction
recovers the signal on B.

Qubit roles map to register indices D->0, A->1, B->2, C->3, so with the
most-significant-first ordering of :mod:`ghztp.qsim` amplitude indices read
like |DABC> kets.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Union

from .qsim import (
    NAMED_UNITARIES,
    PLUS_MINUS,
    SQRT_HALF,
    ForcedSelector,
    NORM_REPAIR_TOL,
    OutcomeSelector,
    SeededSelector,
    StateVector,
    Unitary2x2,
    ValidationError,
    apply_single,
    fidelity_pure,
    measure_bell,
    measure_in_basis,
    partial_trace,
    pure_state_from_density,
    tensor,
)
from .vocab import (
    BELL_CORRECTION_NAMES,
    CHARLIE_CORRECTION_NAMES,
    QUBIT_A,
    QUBIT_B,
    QUBIT_C,
    QUBIT_D,
    RECIPIENTS,
    BellOutcome,
    CharlieOutcome,
    Role,
    called_for,
    parse_payload,
)


class PhaseError(RuntimeError):
    """An operation was attempted out of protocol order."""


class NotYet(PhaseError):
    """A move that comes due once another role has made the correction it owes."""


# The qubit each correcting role acts on, Bob first.
CORRECTION_QUBIT = {Role.BOB: QUBIT_B, Role.CHARLIE: QUBIT_C}

# The correction tables of :mod:`ghztp.vocab`, each name bound to its unitary.
BELL_CORRECTION_TABLE: dict[BellOutcome, tuple[Unitary2x2, Unitary2x2]] = {
    outcome: tuple(NAMED_UNITARIES[name] for name in names)
    for outcome, names in BELL_CORRECTION_NAMES.items()
}
CHARLIE_CORRECTION_TABLE: dict[CharlieOutcome, Unitary2x2] = {
    outcome: NAMED_UNITARIES[name] for outcome, name in CHARLIE_CORRECTION_NAMES.items()
}


class SignalState:
    """The unknown qubit alpha|0> + beta|1> to be teleported.

    Renormalized on construction when the norm is within NORM_REPAIR_TOL of 1,
    rejected otherwise.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: complex, beta: complex):
        a, b = complex(alpha), complex(beta)
        for value in (a, b):
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValidationError("signal amplitudes must be finite")
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if abs(norm - 1.0) > NORM_REPAIR_TOL:
            raise ValidationError(f"signal norm {norm} is not within {NORM_REPAIR_TOL} of 1")
        self.alpha = a / norm
        self.beta = b / norm

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalState):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def __repr__(self) -> str:
        return f"SignalState(alpha={self.alpha!r}, beta={self.beta!r})"


def random_signal(rng: random.Random) -> SignalState:
    """Haar-ish random signal: four gaussian components, normalized."""
    while True:
        a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm > 1e-6:
            return SignalState(a / norm, b / norm)


# --- trace events -----------------------------------------------------------


@dataclass(frozen=True)
class GhzPrepared:
    pass


@dataclass(frozen=True)
class SignalPrepared:
    pass


@dataclass(frozen=True)
class BellMeasured:
    outcome: BellOutcome
    probability: float


@dataclass(frozen=True)
class CorrectionApplied:
    role: Role
    unitary: str


@dataclass(frozen=True)
class CharlieMeasured:
    outcome: CharlieOutcome
    probability: float


@dataclass(frozen=True)
class BobCorrected:
    unitary: str


@dataclass(frozen=True)
class Finished:
    fidelity: float


@dataclass(frozen=True)
class ClassicalMessage:
    """A measurement result broadcast over the classical channel."""

    seq: int
    sender: Role
    recipients: frozenset[Role]
    payload: Union[BellOutcome, CharlieOutcome]

    def __post_init__(self):
        if self.sender in self.recipients:
            raise ValidationError("message sender cannot be a recipient")
        if not self.recipients:
            raise ValidationError("message needs at least one recipient")


TraceEvent = Union[
    GhzPrepared,
    SignalPrepared,
    BellMeasured,
    CorrectionApplied,
    CharlieMeasured,
    BobCorrected,
    Finished,
    ClassicalMessage,
]


@dataclass
class ProtocolTrace:
    """Ordered record of the quantum operations and classical messages of one run."""

    events: list[TraceEvent] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [event_line(e) for e in self.events]


def _fmt(x: float) -> str:
    return repr(float(x))


def event_line(event: TraceEvent) -> str:
    """One-line serialized form with stable field order, for byte-level comparison."""
    if isinstance(event, GhzPrepared):
        return "GhzPrepared"
    if isinstance(event, SignalPrepared):
        return "SignalPrepared"
    if isinstance(event, BellMeasured):
        return f"BellMeasured outcome={event.outcome.value} probability={_fmt(event.probability)}"
    if isinstance(event, CorrectionApplied):
        return f"CorrectionApplied role={event.role.value} unitary={event.unitary}"
    if isinstance(event, CharlieMeasured):
        return f"CharlieMeasured outcome={event.outcome.value} probability={_fmt(event.probability)}"
    if isinstance(event, BobCorrected):
        return f"BobCorrected unitary={event.unitary}"
    if isinstance(event, Finished):
        return f"Finished fidelity={_fmt(event.fidelity)}"
    if isinstance(event, ClassicalMessage):
        recipients = ",".join(sorted(r.value for r in event.recipients))
        return (
            f"Classical seq={event.seq} sender={event.sender.value} "
            f"recipients={recipients} payload={event.payload.value}"
        )
    raise TypeError(f"unknown trace event {event!r}")


def parse_event_line(line: str) -> TraceEvent:
    """Inverse of :func:`event_line`."""
    kind, _, rest = line.strip().partition(" ")
    fields = dict(token.split("=", 1) for token in rest.split()) if rest else {}
    if kind == "GhzPrepared":
        return GhzPrepared()
    if kind == "SignalPrepared":
        return SignalPrepared()
    if kind == "BellMeasured":
        return BellMeasured(BellOutcome(fields["outcome"]), float(fields["probability"]))
    if kind == "CorrectionApplied":
        return CorrectionApplied(Role(fields["role"]), fields["unitary"])
    if kind == "CharlieMeasured":
        return CharlieMeasured(CharlieOutcome(fields["outcome"]), float(fields["probability"]))
    if kind == "BobCorrected":
        return BobCorrected(fields["unitary"])
    if kind == "Finished":
        return Finished(float(fields["fidelity"]))
    if kind == "Classical":
        return ClassicalMessage(
            seq=int(fields["seq"]),
            sender=Role(fields["sender"]),
            recipients=frozenset(Role(r) for r in fields["recipients"].split(",")),
            payload=parse_payload(fields["payload"]),
        )
    raise ValueError(f"unknown trace line: {line!r}")


def trace_order_errors(events: list[TraceEvent]) -> list[str]:
    """Dependency-order violations in an event sequence (empty list = consistent).

    Checks that every measurement precedes the message carrying its result and
    that every correction follows the message it is conditioned on. Applies
    only to events actually present, so traces that skip identity corrections
    still validate.
    """

    def pos(predicate) -> int | None:
        for i, e in enumerate(events):
            if predicate(e):
                return i
        return None

    errors: list[str] = []

    def require(before: int | None, after: int | None, label: str) -> None:
        if before is not None and after is not None and before >= after:
            errors.append(label)

    p_ghz = pos(lambda e: isinstance(e, GhzPrepared))
    p_signal = pos(lambda e: isinstance(e, SignalPrepared))
    p_bell = pos(lambda e: isinstance(e, BellMeasured))
    p_alice_msg = pos(lambda e: isinstance(e, ClassicalMessage) and e.sender is Role.ALICE)
    p_charlie = pos(lambda e: isinstance(e, CharlieMeasured))
    p_charlie_msg = pos(lambda e: isinstance(e, ClassicalMessage) and e.sender is Role.CHARLIE)
    p_bob = pos(lambda e: isinstance(e, BobCorrected))
    p_finished = pos(lambda e: isinstance(e, Finished))

    require(p_ghz, p_bell, "GhzPrepared must precede BellMeasured")
    require(p_signal, p_bell, "SignalPrepared must precede BellMeasured")
    require(p_bell, p_alice_msg, "BellMeasured must precede Alice's broadcast")
    for i, e in enumerate(events):
        if isinstance(e, CorrectionApplied):
            require(p_alice_msg, i, f"correction by {e.role.value} precedes Alice's broadcast")
            if e.role is Role.CHARLIE:
                require(i, p_charlie, "Charlie measured before applying his correction")
    require(p_alice_msg, p_charlie, "CharlieMeasured must follow Alice's broadcast")
    require(p_charlie, p_charlie_msg, "CharlieMeasured must precede Charlie's message")
    require(p_charlie_msg, p_bob, "BobCorrected must follow Charlie's message")
    require(p_charlie_msg, p_finished, "Finished must follow Charlie's message")
    require(p_bob, p_finished, "BobCorrected must precede Finished")

    seqs = [e.seq for e in events if isinstance(e, ClassicalMessage)]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        errors.append(f"message seq numbers not strictly increasing: {seqs}")
    return errors


# --- session -----------------------------------------------------------------
#
# Each party's move is one function below, from Alice's preparation of a new
# register to Bob's finish, and these functions are the only code that changes
# a session's state, due moves or trace. The in-process run and the networked
# coordinator both drive a session through them, so both are held to the one
# order the session's due list states.


@dataclass
class SessionRegister:
    """One protocol run: the 4-qubit register, its trace, and the moves still
    due, as ``(role, move, value)`` in the order of :data:`ghztp.vocab.SCHEDULE`.

    Alice's preparation adds her Bell measurement, and each measurement the
    moves its outcome calls for. An owed identity changes nothing, so it never
    holds the session back: the in-process run makes it and logs it, a
    networked party skips it.
    """

    signal: SignalState
    state: StateVector | None = None  # None until Alice prepares
    trace: ProtocolTrace = field(default_factory=ProtocolTrace)
    due: list[tuple] = field(default_factory=lambda: [(Role.ALICE, "prepare", None)])

    def take(self, role: Role, move: str, value=None) -> None:
        """Mark one move made, and every owed identity due before it passed over.

        Raises NotYet, changing nothing, when the move is due only after
        another role's correction, and PhaseError for any move not due.
        """
        waits_for = None
        for i, (due_role, due_move, due_value) in enumerate(self.due):
            if due_role is role and due_move == move and due_value is value:
                if waits_for is not None:
                    raise NotYet(f"{role.value}'s {move} waits for {waits_for}")
                del self.due[: i + 1]
                return
            if due_move == "correct" and due_value.is_identity():
                continue
            if due_role is role or due_move != "correct":
                break
            waits_for = waits_for or f"{due_role.value}'s correction {due_value.name}"
        # An outcome goes by its value on the wire, a correction by its name.
        what = move if value is None else f"{move} {getattr(value, 'value', None) or value.name}"
        raise PhaseError(f"no {what} due for {role.value}")


@functools.cache
def prepare_ghz() -> StateVector:
    """(|000> + |111>)/sqrt(2).

    The state is a session-independent constant and StateVector is immutable,
    so the one instance is shared by every run.
    """
    amplitudes = [0j] * 8
    amplitudes[0] = amplitudes[7] = complex(SQRT_HALF)
    return StateVector._wrap(3, amplitudes)


@functools.lru_cache(maxsize=256)
def prepare_signal(s: SignalState) -> StateVector:
    # Cached: a Monte-Carlo loop prepares the same signal thousands of times.
    return StateVector(1, [s.alpha, s.beta])


def prepare(session: SessionRegister, role: Role) -> None:
    """Alice's preparation: signal ⊗ GHZ as one 4-qubit register with roles
    D, A, B, C at 0..3; her Bell measurement then comes due."""
    session.take(role, "prepare")
    session.state = tensor(prepare_signal(session.signal), prepare_ghz())
    session.due.append((Role.ALICE, "bell_measure", None))
    session.trace.events += [GhzPrepared(), SignalPrepared()]


def compose_session(signal: SignalState) -> SessionRegister:
    """A register for ``signal`` with Alice's preparation made."""
    session = SessionRegister(signal)
    prepare(session, Role.ALICE)
    return session


def _due(outcome: BellOutcome | CharlieOutcome) -> list[tuple]:
    """The moves ``outcome`` calls for, each correction's name bound to its unitary."""
    return [
        (role, move, NAMED_UNITARIES[value] if move == "correct" else value)
        for role, move, value in called_for(outcome)
    ]


def bell_measure(session: SessionRegister, selector: OutcomeSelector) -> BellMeasured:
    """Alice's Bell measurement of (D, A); her broadcast, Bob's and Charlie's
    corrections and Charlie's measurement then come due."""
    session.take(Role.ALICE, "bell_measure")
    outcome, probability, post = measure_bell(session.state, QUBIT_D, QUBIT_A, selector)
    event = BellMeasured(outcome, probability)
    session.state = post
    session.due += _due(outcome)
    session.trace.events.append(event)
    return event


def send(
    session: SessionRegister, sender: Role, recipients: frozenset[Role], payload
) -> ClassicalMessage:
    """Alice's broadcast or Charlie's message: the sender's outcome, sent once,
    to the roles whose correction depends on it."""
    if recipients != RECIPIENTS.get(sender):
        heard = ",".join(sorted(r.value for r in recipients))
        raise PhaseError(f"{sender.value} cannot send to {heard}")
    session.take(sender, "send", payload)
    seq = sum(isinstance(e, ClassicalMessage) for e in session.trace.events) + 1
    message = ClassicalMessage(seq, sender, recipients, payload)
    session.trace.events.append(message)
    return message


def correct(session: SessionRegister, role: Role, unitary: Unitary2x2) -> None:
    """One role's correction: Bob's or Charlie's Bell correction, or Bob's final one."""
    session.take(role, "correct", unitary)
    session.state = apply_single(session.state, CORRECTION_QUBIT[role], unitary)
    if (Role.CHARLIE, "basis_measure", None) in session.due:  # a Bell correction
        session.trace.events.append(CorrectionApplied(role, unitary.name))
    else:
        session.trace.events.append(BobCorrected(unitary.name))


def basis_measure(
    session: SessionRegister, role: Role, selector: OutcomeSelector
) -> CharlieMeasured:
    """Charlie's (|0> ± |1>)/sqrt(2) measurement of C; his message, Bob's
    final correction and Bob's finish then come due."""
    session.take(role, "basis_measure")
    k, probability, post = measure_in_basis(session.state, QUBIT_C, PLUS_MINUS, selector)
    event = CharlieMeasured(list(CharlieOutcome)[k], probability)
    session.state = post
    session.due += _due(event.outcome)
    session.trace.events.append(event)
    return event


def bob_finish(session: SessionRegister, role: Role) -> tuple[StateVector, float]:
    """Bob's recovered qubit and its fidelity to the signal; ends the session."""
    session.take(role, "finish")
    # One partial trace of B per result, as run_protocol has always made:
    # bench/ and tests/ pin the kernel calls of a run (qsim.calls_per_session).
    bob_state = pure_state_from_density(partial_trace(session.state, [QUBIT_B]))
    signal = prepare_signal(session.signal)
    fidelity = fidelity_pure(partial_trace(session.state, [QUBIT_B]), signal)
    session.trace.events.append(Finished(fidelity))
    return bob_state, fidelity


# --- the in-process run: the due moves, made in turn ---------------------------
#
# alice_bell_measure and apply_bell_correction stop a run part way, for the
# view Bob has before Charlie cooperates (ghztp.verify).


def alice_bell_measure(
    session: SessionRegister, selector: OutcomeSelector
) -> tuple[BellOutcome, ClassicalMessage]:
    """Alice's Bell measurement of (D, A), broadcast to Bob and Charlie."""
    outcome = bell_measure(session, selector).outcome
    return outcome, send(session, Role.ALICE, RECIPIENTS[Role.ALICE], outcome)


def apply_bell_correction(session: SessionRegister, outcome: BellOutcome) -> None:
    """Bob's and Charlie's local corrections, restoring BC to alpha|00> + beta|11>."""
    for role, unitary in zip(CORRECTION_QUBIT, BELL_CORRECTION_TABLE[outcome]):
        correct(session, role, unitary)


@dataclass
class ProtocolResult:
    trace: ProtocolTrace
    bob_state: StateVector
    fidelity: float
    path_probability: float
    bell_outcome: BellOutcome
    charlie_outcome: CharlieOutcome

    def to_json(self) -> dict:
        return {
            "trace": self.trace.lines(),
            "bob_state": [[a.real, a.imag] for a in self.bob_state.amplitudes],
            "fidelity": self.fidelity,
            "path_probability": self.path_probability,
            "bell_outcome": self.bell_outcome.value,
            "charlie_outcome": self.charlie_outcome.value,
        }


def run_protocol(
    signal: SignalState,
    seed: int | None = None,
    forced: tuple[BellOutcome, CharlieOutcome] | None = None,
) -> ProtocolResult:
    """Run one session in process, making each due move in turn, and score
    Bob's recovered state.

    Exactly one of ``seed`` (Born-rule sampling from one session PRNG) or
    ``forced`` (a fixed Bell/Charlie outcome pair) selects the branch.
    """
    if (seed is None) == (forced is None):
        raise ValueError("pass exactly one of seed or forced")
    if forced is not None:
        bell_selector: OutcomeSelector = ForcedSelector(list(BellOutcome).index(forced[0]))
        charlie_selector: OutcomeSelector = ForcedSelector(list(CharlieOutcome).index(forced[1]))
    else:
        shared = SeededSelector(seed)
        bell_selector = charlie_selector = shared

    session = SessionRegister(signal)
    while session.due:
        role, move, value = session.due[0]
        if move == "prepare":
            prepare(session, role)
        elif move == "bell_measure":
            bell = bell_measure(session, bell_selector)
        elif move == "send":
            send(session, role, RECIPIENTS[role], value)
        elif move == "correct":
            correct(session, role, value)
        elif move == "basis_measure":
            charlie = basis_measure(session, role, charlie_selector)
        else:  # finish
            bob_state, fidelity = bob_finish(session, role)
    return ProtocolResult(
        trace=session.trace,
        bob_state=bob_state,
        fidelity=fidelity,
        path_probability=bell.probability * charlie.probability,
        bell_outcome=bell.outcome,
        charlie_outcome=charlie.outcome,
    )
