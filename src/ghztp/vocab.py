"""The protocol's vocabulary: roles, measurement outcomes, qubit indices and
the names of the corrections each outcome calls for.

This is everything a party exchanges with the coordinator, and nothing here
imports numpy, so a party process stays small. :mod:`ghztp.qsim` and
:mod:`ghztp.protocol` re-export these names and bind each correction name to
its matrix.
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


def parse_payload(text: str) -> BellOutcome | CharlieOutcome:
    """The outcome a classical message carries, from its name."""
    try:
        return BellOutcome(text)
    except ValueError:
        return CharlieOutcome(text)
