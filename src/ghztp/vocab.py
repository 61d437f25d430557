"""The protocol's vocabulary: roles, measurement outcomes, qubit indices, the
names of the corrections each outcome calls for, and the one schedule of
moves that the protocol engine, the party scripts and the stall names read.

This is everything a party exchanges with the coordinator, and nothing here
imports the simulator, ``dataclasses`` or ``typing``, so a party process
stays small. :mod:`ghztp.qsim` and :mod:`ghztp.protocol` re-export these
names and bind each correction name to its matrix.
"""

from __future__ import annotations

from enum import Enum


class Role(Enum):
    ALICE = "alice"
    BOB = "bob"
    CHARLIE = "charlie"


class BellOutcome(Enum):
    """The four Bell-measurement results, in sampling order."""

    PHI_PLUS = "PhiPlus"    # (|00> + |11>)/sqrt(2)
    PHI_MINUS = "PhiMinus"  # (|00> - |11>)/sqrt(2)
    PSI_PLUS = "PsiPlus"    # (|01> + |10>)/sqrt(2)
    PSI_MINUS = "PsiMinus"  # (|01> - |10>)/sqrt(2)


class CharlieOutcome(Enum):
    """Results of the supervisor's (|0> ± |1>)/sqrt(2) measurement, in sampling order."""

    PLUS = "Plus"
    MINUS = "Minus"


# Qubit index of each role label in the 4-qubit session register.
QUBIT_D, QUBIT_A, QUBIT_B, QUBIT_C = 0, 1, 2, 3

# Which qubits each role owns, and so may name in an op; fixed for every session.
QUBITS_OF = {Role.ALICE: (QUBIT_D, QUBIT_A), Role.BOB: (QUBIT_B,), Role.CHARLIE: (QUBIT_C,)}

# The identity's name: a correction nobody needs to make.
IDENTITY_NAME = "I"

# Outcome -> (correction on B, correction on C), applied after Alice's broadcast.
BELL_CORRECTION_NAMES: dict[BellOutcome, tuple[str, str]] = {
    BellOutcome.PHI_PLUS: (IDENTITY_NAME, IDENTITY_NAME),
    BellOutcome.PHI_MINUS: (IDENTITY_NAME, "Z"),
    BellOutcome.PSI_PLUS: ("X", "X"),
    BellOutcome.PSI_MINUS: ("X", "ZX"),
}

# Outcome -> correction on B, applied after Charlie's message.
CHARLIE_CORRECTION_NAMES: dict[CharlieOutcome, str] = {
    CharlieOutcome.PLUS: IDENTITY_NAME,
    CharlieOutcome.MINUS: "Z",
}

# Who hears each measuring role's outcome: the roles whose correction depends on it.
RECIPIENTS = {Role.ALICE: frozenset({Role.BOB, Role.CHARLIE}), Role.CHARLIE: frozenset({Role.BOB})}

# The outcome each measurement gives.
OUTCOMES = {"bell_measure": BellOutcome, "basis_measure": CharlieOutcome}

# Every move of a session in order, as (role, move, the --stop-before stage a
# party goes silent right before, the stall label of a session stopped there).
# Alice's prepare calls for her Bell measurement, and each measurement's
# outcome for the moves after it, up to and including the next (called_for).
SCHEDULE = (
    (Role.ALICE, "prepare", "bell", "Prepare"),
    # Alice goes silent before her Bell measurement by not preparing.
    (Role.ALICE, "bell_measure", None, "BellMeasure"),
    (Role.ALICE, "send", "broadcast", "Broadcast"),
    (Role.BOB, "correct", "correction", "BellCorrection"),
    (Role.CHARLIE, "correct", "correction", "BellCorrection"),
    (Role.CHARLIE, "basis_measure", "measure", "CharlieMeasure"),
    (Role.CHARLIE, "send", "send", "CharlieSend"),
    # Bob's final correction: no party stops right before it.
    (Role.BOB, "correct", None, "BobFinish"),
    (Role.BOB, "finish", "finish", "BobFinish"),
)


def correction_name(role: Role, outcome: BellOutcome | CharlieOutcome) -> str:
    """The name of the correction ``outcome`` calls for from ``role``."""
    if isinstance(outcome, BellOutcome):
        return BELL_CORRECTION_NAMES[outcome][(Role.BOB, Role.CHARLIE).index(role)]
    return CHARLIE_CORRECTION_NAMES[outcome]


def called_for(outcome: BellOutcome | CharlieOutcome) -> list[tuple]:
    """The moves ``outcome`` calls for, in SCHEDULE order, as ``(role, move,
    value)``: a send carries the outcome, a correction its name, and any
    other move None."""
    measured = [OUTCOMES.get(move) for _, move, _, _ in SCHEDULE].index(type(outcome))
    moves = []
    for role, move, _, _ in SCHEDULE[measured + 1:]:
        value = None
        if move == "send":
            value = outcome
        elif move == "correct":
            value = correction_name(role, outcome)
        moves.append((role, move, value))
        if move in OUTCOMES:
            break
    return moves


def parse_payload(text: str) -> BellOutcome | CharlieOutcome:
    """The outcome a classical message carries, from its name."""
    try:
        return BellOutcome(text)
    except ValueError:
        return CharlieOutcome(text)
