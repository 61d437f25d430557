"""Independent checks of the protocol: branch enumeration and what Bob can
see before Charlie cooperates.

The security question is made quantitative with two numbers computed from
Bob's reduced state rho_bob at the moment just after Alice's broadcast and
the Bell corrections, before Charlie's measurement result arrives:

* ``raw_fidelity``  = <psi|rho_bob|psi>, what Bob scores by doing nothing;
* ``unitary_bound`` = largest eigenvalue of rho_bob, the best fidelity any
  local unitary strategy can reach (general POVM recovery is out of scope).

For a signal alpha|0> + beta|1> both have closed forms: rho_bob =
diag(|alpha|^2, |beta|^2), raw_fidelity = |alpha|^4 + |beta|^4 and
unitary_bound = max(|alpha|^2, |beta|^2), so the bound reaches 1 only for
basis states, which carry no phase to protect.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass

from .qsim import (
    ATOL_ACCUMULATED,
    BellOutcome,
    CharlieOutcome,
    DensityMatrix,
    ForcedSelector,
    ValidationError,
    fidelity_pure,
    partial_trace,
)
from .protocol import (
    QUBIT_B,
    SignalState,
    alice_bell_measure,
    apply_bell_correction,
    compose_session,
    prepare_signal,
    random_signal,
    run_protocol,
)

# Below this weight on the rarer basis state the signal is basis-like and the
# unitary bound is within 1e-3 of 1: such states are effectively unprotected.
NEAR_BASIS_PROBABILITY = 1e-3


def hermitian_max_eigenvalue_2x2(rho: DensityMatrix) -> float:
    """Largest eigenvalue of a 2x2 Hermitian matrix, in closed form.

    For [[a, b], [conj(b), d]] this is ((a+d) + sqrt((a-d)^2 + 4|b|^2)) / 2;
    no iterative solver is involved.
    """
    if rho.dim != 2:
        raise ValueError(f"closed form applies to 2x2 matrices, got dim {rho.dim}")
    a = rho.entries[0, 0].real
    d = rho.entries[1, 1].real
    b = rho.entries[0, 1]
    return ((a + d) + math.sqrt((a - d) ** 2 + 4.0 * abs(b) ** 2)) / 2.0


@dataclass(frozen=True)
class BranchReport:
    """One forced (bell, charlie) branch: its path probability and Bob's score."""

    bell: BellOutcome
    charlie: CharlieOutcome
    probability: float
    bob_fidelity: float

    def __post_init__(self):
        if self.probability < 0.0:
            raise ValidationError(f"branch probability {self.probability} is negative")

    def to_json(self) -> dict:
        return {
            "bell": self.bell.value,
            "charlie": self.charlie.value,
            "probability": self.probability,
            "bob_fidelity": self.bob_fidelity,
        }


@dataclass(frozen=True)
class SecurityReport:
    """Bob's view of the signal before Charlie's message."""

    rho_bob: DensityMatrix
    raw_fidelity: float
    unitary_bound: float
    near_basis: bool

    def __post_init__(self):
        tol = ATOL_ACCUMULATED
        if not (-tol <= self.raw_fidelity <= self.unitary_bound + tol <= 1.0 + 2 * tol):
            raise ValidationError(
                f"security report out of order: raw={self.raw_fidelity}, "
                f"bound={self.unitary_bound}"
            )

    def to_json(self) -> dict:
        return {
            "rho_bob": [[[z.real, z.imag] for z in row] for row in self.rho_bob.entries],
            "raw_fidelity": self.raw_fidelity,
            "unitary_bound": self.unitary_bound,
            "near_basis": self.near_basis,
        }


@dataclass(frozen=True)
class SweepSummary:
    """Worst deviations of the numeric security quantities from their closed forms."""

    samples: int
    min_bound_excess: float
    max_bound_excess: float
    max_fidelity_deviation: float
    max_off_diagonal: float

    def to_json(self) -> dict:
        return asdict(self)


def enumerate_branches(signal: SignalState) -> list[BranchReport]:
    """All 8 forced (bell, charlie) branches, in declaration order.

    Probabilities are the exact path products from the projection arithmetic
    and sum to 1; every branch ends with Bob holding the signal.
    """
    reports = []
    for bell, charlie in itertools.product(BellOutcome, CharlieOutcome):
        result = run_protocol(signal, forced=(bell, charlie))
        reports.append(
            BranchReport(
                bell=bell,
                charlie=charlie,
                probability=result.path_probability,
                bob_fidelity=result.fidelity,
            )
        )
    return reports


def bob_view_before_charlie(signal: SignalState, bell: BellOutcome) -> SecurityReport:
    """Run through the Bell corrections on the given branch, then trace out to B.

    The resulting rho_bob is diagonal (whatever the branch), which is
    exactly why Bob alone cannot recover a signal that carries phase.
    """
    session = compose_session(signal)
    outcome, _ = alice_bell_measure(session, ForcedSelector(list(BellOutcome).index(bell)))
    apply_bell_correction(session, outcome)
    rho_bob = partial_trace(session.state, [QUBIT_B])
    raw = fidelity_pure(rho_bob, prepare_signal(signal))
    bound = hermitian_max_eigenvalue_2x2(rho_bob)
    near_basis = min(abs(signal.alpha) ** 2, abs(signal.beta) ** 2) < NEAR_BASIS_PROBABILITY
    return SecurityReport(
        rho_bob=rho_bob, raw_fidelity=raw, unitary_bound=bound, near_basis=near_basis
    )


def security_sweep(samples: int, seed: int) -> SweepSummary:
    """Check the closed forms against the numeric partial trace on random signals.

    Raises ValidationError if any deviation exceeds ATOL_ACCUMULATED; the
    returned summary reports the worst cases seen.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    bells = list(BellOutcome)
    min_excess = math.inf
    max_excess = -math.inf
    max_fid_dev = 0.0
    max_off_diag = 0.0
    for i in range(samples):
        signal = random_signal(rng)
        report = bob_view_before_charlie(signal, bells[i % len(bells)])
        p0 = abs(signal.alpha) ** 2
        p1 = abs(signal.beta) ** 2
        excess = report.unitary_bound - max(p0, p1)
        fid_dev = abs(report.raw_fidelity - (p0 * p0 + p1 * p1))
        off_diag = abs(report.rho_bob.entries[0, 1])
        min_excess = min(min_excess, excess)
        max_excess = max(max_excess, excess)
        max_fid_dev = max(max_fid_dev, fid_dev)
        max_off_diag = max(max_off_diag, off_diag)
        if abs(excess) > ATOL_ACCUMULATED or fid_dev > ATOL_ACCUMULATED:
            raise ValidationError(
                f"sample {i}: security quantities deviate from closed forms "
                f"(bound excess {excess}, fidelity deviation {fid_dev})"
            )
    return SweepSummary(
        samples=samples,
        min_bound_excess=min_excess,
        max_bound_excess=max_excess,
        max_fidelity_deviation=max_fid_dev,
        max_off_diagonal=max_off_diag,
    )
