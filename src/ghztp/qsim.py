"""Minimal dense state-vector simulator for a handful of qubits.

Qubit ordering convention, used everywhere in this package: qubit 0 is the
MOST significant bit of the amplitude index. For a 4-qubit register holding
roles D, A, B, C at indices 0..3, the amplitude at index 0b1011 belongs to
the ket |1011> read in D A B C order, so amplitude indices read exactly like
ket labels.

States are immutable values: every operation returns a new StateVector and
never mutates its input, so values are safe to hand between threads.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .vocab import IDENTITY_NAME, BellOutcome, CharlieOutcome  # noqa: F401 (re-exported)

# Tolerance policy, shared by the whole package:
#   ATOL_ALGEBRAIC  for identities that hold exactly up to one rounding step
#   ATOL_ACCUMULATED for quantities built from longer chains of arithmetic
#   NORM_REPAIR_TOL  constructors renormalize inside this band, reject outside
ATOL_ALGEBRAIC = 1e-12
ATOL_ACCUMULATED = 1e-10
NORM_REPAIR_TOL = 1e-6
MIN_FORCED_PROBABILITY = 1e-12

SQRT_HALF = np.sqrt(0.5)


class ValidationError(ValueError):
    """A constructed object violates its mathematical invariants."""


class ImpossibleOutcomeError(ValueError):
    """A forced measurement outcome has (numerically) zero Born probability."""


def _as_finite_complex(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{what}: entries must be finite (no NaN/Inf)")
    return arr


class StateVector:
    """Pure state of ``num_qubits`` qubits as 2^n complex amplitudes.

    The public constructor renormalizes inputs whose norm is within
    NORM_REPAIR_TOL of 1 and rejects anything further off.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Sequence[complex]):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        arr = _as_finite_complex(amplitudes, (2**num_qubits,), "StateVector")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_REPAIR_TOL:
            raise ValidationError(f"StateVector norm {norm} is not within {NORM_REPAIR_TOL} of 1")
        arr /= norm
        arr.flags.writeable = False
        self.num_qubits = num_qubits
        self.amplitudes = arr

    @classmethod
    def _wrap(cls, num_qubits: int, arr: np.ndarray) -> "StateVector":
        # Trusted arithmetic results: keep the exact bits, no renormalization.
        sv = cls.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
        assert arr.size == 2**num_qubits
        # |norm^2 - 1| <= ~2|norm - 1| near 1; vdot avoids the norm() wrapper
        assert abs(np.vdot(arr, arr).real - 1.0) <= 3 * NORM_REPAIR_TOL
        arr.flags.writeable = False
        sv.num_qubits = num_qubits
        sv.amplitudes = arr
        return sv

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def __hash__(self):
        return hash((self.num_qubits, self.amplitudes.tobytes()))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits}, amplitudes={self.amplitudes.tolist()})"


_EYE2 = np.eye(2, dtype=np.complex128)


class Unitary2x2:
    """Single-qubit unitary; construction enforces U†U = I within ATOL_ALGEBRAIC."""

    __slots__ = ("matrix", "name")

    def __init__(self, matrix, name: str = "U"):
        arr = _as_finite_complex(matrix, (2, 2), "Unitary2x2")
        if not np.allclose(arr.conj().T @ arr, _EYE2, rtol=0.0, atol=ATOL_ALGEBRAIC):
            raise ValidationError(f"matrix {arr.tolist()} is not unitary within {ATOL_ALGEBRAIC}")
        arr.flags.writeable = False
        self.matrix = arr
        self.name = name

    def is_identity(self) -> bool:
        return self is IDENTITY or np.array_equal(self.matrix, _EYE2)

    def __repr__(self) -> str:
        return f"Unitary2x2({self.matrix.tolist()}, name={self.name!r})"


# The four local corrections appearing in the protocol, in ket-bra form:
#   I,  Z = |0><0| - |1><1|,  X = |0><1| + |1><0|,  ZX = |0><1| - |1><0|.
IDENTITY = Unitary2x2([[1, 0], [0, 1]], name=IDENTITY_NAME)
PAULI_X = Unitary2x2([[0, 1], [1, 0]], name="X")
PAULI_Z = Unitary2x2([[1, 0], [0, -1]], name="Z")
ZX = Unitary2x2([[0, 1], [-1, 0]], name="ZX")
HADAMARD = Unitary2x2([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], name="H")

NAMED_UNITARIES = {u.name: u for u in (IDENTITY, PAULI_X, PAULI_Z, ZX, HADAMARD)}

class MeasurementBasis:
    """Orthonormal single-qubit basis {b0, b1}; outcome k projects onto b_k."""

    __slots__ = ("b0", "b1", "rows_conj")

    def __init__(self, b0, b1):
        v0 = _as_finite_complex(b0, (2,), "MeasurementBasis.b0")
        v1 = _as_finite_complex(b1, (2,), "MeasurementBasis.b1")
        for name, v in (("b0", v0), ("b1", v1)):
            if abs(np.vdot(v, v).real - 1.0) > ATOL_ALGEBRAIC:
                raise ValidationError(f"MeasurementBasis.{name} is not normalized")
        if abs(np.vdot(v0, v1)) > ATOL_ALGEBRAIC:
            raise ValidationError("MeasurementBasis vectors are not orthogonal")
        rows = np.stack((v0, v1)).conj()
        for arr in (v0, v1, rows):
            arr.flags.writeable = False
        self.b0 = v0
        self.b1 = v1
        self.rows_conj = rows  # <b_k| as rows, precomputed for the hot path


COMPUTATIONAL = MeasurementBasis([1, 0], [0, 1])
PLUS_MINUS = MeasurementBasis([SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF])


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 2^k basis states."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"DensityMatrix must be square, got shape {arr.shape}")
        dim = arr.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValidationError(f"DensityMatrix dimension {dim} is not a power of 2")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("DensityMatrix entries must be finite")
        if not np.allclose(arr, arr.conj().T, rtol=0.0, atol=ATOL_ALGEBRAIC):
            raise ValidationError("DensityMatrix is not Hermitian")
        if abs(np.trace(arr).real - 1.0) > ATOL_ACCUMULATED:
            raise ValidationError(f"DensityMatrix trace {np.trace(arr)} is not 1")
        if float(np.linalg.eigvalsh(arr).min()) < -ATOL_ACCUMULATED:
            raise ValidationError("DensityMatrix has a negative eigenvalue")
        arr.flags.writeable = False
        self.dim = dim
        self.entries = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DensityMatrix":
        # Trusted Gram-matrix results (m @ m†): Hermitian up to rounding and
        # positive semidefinite by construction, so skip the eigensolver and
        # Hermiticity scan the public path runs. The trace is still checked.
        dm = cls.__new__(cls)
        assert abs(np.trace(arr).real - 1.0) <= ATOL_ACCUMULATED
        arr.flags.writeable = False
        dm.dim = arr.shape[0]
        dm.entries = arr
        return dm

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self) -> str:
        return f"DensityMatrix({self.entries.tolist()})"


BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([SQRT_HALF, 0, 0, SQRT_HALF], dtype=np.complex128),
    BellOutcome.PHI_MINUS: np.array([SQRT_HALF, 0, 0, -SQRT_HALF], dtype=np.complex128),
    BellOutcome.PSI_PLUS: np.array([0, SQRT_HALF, SQRT_HALF, 0], dtype=np.complex128),
    BellOutcome.PSI_MINUS: np.array([0, SQRT_HALF, -SQRT_HALF, 0], dtype=np.complex128),
}
for _v in BELL_VECTORS.values():
    _v.flags.writeable = False

_BELL_ROWS_CONJ = np.stack([BELL_VECTORS[o] for o in BellOutcome]).conj()
_BELL_ROWS_CONJ.flags.writeable = False


class OutcomeSelector:
    """Chooses a measurement outcome given the Born probabilities of all outcomes."""

    def choose(self, probabilities: Sequence[float]) -> int:
        raise NotImplementedError


class SeededSelector(OutcomeSelector):
    """Inverse-CDF sampling over outcomes in declaration order, one PRNG per session."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, probabilities: Sequence[float]) -> int:
        u = self._rng.random()
        cumulative = 0.0
        for k, p in enumerate(probabilities):
            cumulative += p
            if u < cumulative:
                return k
        return len(probabilities) - 1


class ForcedSelector(OutcomeSelector):
    """Always picks a fixed outcome index; rejects outcomes of ~zero probability."""

    def __init__(self, index: int):
        self.index = index

    def choose(self, probabilities: Sequence[float]) -> int:
        if not 0 <= self.index < len(probabilities):
            raise ValueError(f"forced outcome index {self.index} out of range")
        if probabilities[self.index] < MIN_FORCED_PROBABILITY:
            raise ImpossibleOutcomeError(
                f"forced outcome {self.index} has probability "
                f"{probabilities[self.index]} < {MIN_FORCED_PROBABILITY}"
            )
        return self.index


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> of ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    arr = np.zeros(2**num_qubits, dtype=np.complex128)
    arr[index] = 1.0
    return StateVector._wrap(num_qubits, arr)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product a ⊗ b with a's qubits more significant."""
    combined = (a.amplitudes[:, None] * b.amplitudes[None, :]).reshape(-1)
    return StateVector._wrap(a.num_qubits + b.num_qubits, combined)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def apply_single(state: StateVector, qubit: int, u: Unitary2x2) -> StateVector:
    """Apply a single-qubit unitary to the named qubit.

    Applying the exact identity returns the input state unchanged, so an
    identity correction is a true no-op at the bit level.
    """
    _check_qubit(state, qubit)
    if u.is_identity():
        return state
    n = state.num_qubits
    # (blocks above qubit, qubit, blocks below): no axis moves needed
    psi = state.amplitudes.reshape(2**qubit, 2, -1)
    m = u.matrix
    out = np.empty_like(psi)
    out[:, 0, :] = m[0, 0] * psi[:, 0, :] + m[0, 1] * psi[:, 1, :]
    out[:, 1, :] = m[1, 0] * psi[:, 0, :] + m[1, 1] * psi[:, 1, :]
    return StateVector._wrap(n, out.reshape(-1))


def _basis_components(state: StateVector, qubit: int, basis: MeasurementBasis):
    """Per-outcome projection components, each shaped (blocks above, blocks below)."""
    psi = state.amplitudes.reshape(2**qubit, 2, -1)
    rows = basis.rows_conj
    c0 = rows[0, 0] * psi[:, 0, :] + rows[0, 1] * psi[:, 1, :]
    c1 = rows[1, 0] * psi[:, 0, :] + rows[1, 1] * psi[:, 1, :]
    p0 = float(np.vdot(c0, c0).real)
    p1 = float(np.vdot(c1, c1).real)
    return (c0, c1), (p0, p1)


def basis_probabilities(state: StateVector, qubit: int, basis: MeasurementBasis) -> tuple[float, float]:
    """Born probabilities of outcomes 0 and 1 for a basis measurement of one qubit."""
    _check_qubit(state, qubit)
    _, probabilities = _basis_components(state, qubit, basis)
    return probabilities


def measure_in_basis(
    state: StateVector, qubit: int, basis: MeasurementBasis, selector: OutcomeSelector
) -> tuple[int, float, StateVector]:
    """Projective measurement of one qubit in an arbitrary orthonormal basis.

    Returns (outcome, Born probability of that outcome, renormalized
    post-measurement state).
    """
    _check_qubit(state, qubit)
    components, probabilities = _basis_components(state, qubit, basis)
    k = selector.choose(list(probabilities))
    p = probabilities[k]
    vector = basis.b0 if k == 0 else basis.b1
    c = components[k] / np.sqrt(p)
    post = np.empty((c.shape[0], 2, c.shape[1]), dtype=np.complex128)
    post[:, 0, :] = vector[0] * c
    post[:, 1, :] = vector[1] * c
    return k, p, StateVector._wrap(state.num_qubits, post.reshape(-1))


def _bell_components(state: StateVector, q1: int, q2: int):
    """Projection components onto the four Bell vectors, one row per outcome.

    The returned shape is None when (q1, q2) sit at the top of the register
    already, meaning no axis moves are needed to rebuild a post state.
    """
    if q1 == q2:
        raise ValueError(f"q1 and q2 must differ, both are {q1}")
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if (q1, q2) == (0, 1):
        shape = None
        flat = state.amplitudes.reshape(4, -1)
    else:
        psi = np.moveaxis(state.amplitudes.reshape([2] * state.num_qubits), (q1, q2), (0, 1))
        shape = psi.shape
        flat = psi.reshape(4, -1)
    components = _BELL_ROWS_CONJ @ flat
    probabilities = np.einsum("ij,ij->i", components, components.conj()).real
    return shape, components, probabilities


def bell_probabilities(state: StateVector, q1: int, q2: int) -> dict[BellOutcome, float]:
    """Born probabilities of the four Bell outcomes on the (q1, q2) pair."""
    _, _, probabilities = _bell_components(state, q1, q2)
    return {outcome: float(p) for outcome, p in zip(BellOutcome, probabilities)}


def measure_bell(
    state: StateVector, q1: int, q2: int, selector: OutcomeSelector
) -> tuple[BellOutcome, float, StateVector]:
    """Joint projective measurement of (q1, q2) onto the four Bell states.

    Projects onto the explicit Bell vectors rather than rotating through a
    gate decomposition, so the result is directly the four-branch split of
    the input state.
    """
    n = state.num_qubits
    shape, components, probabilities = _bell_components(state, q1, q2)
    k = selector.choose([float(p) for p in probabilities])
    p = float(probabilities[k])
    outcome = list(BellOutcome)[k]
    post = BELL_VECTORS[outcome][:, None] * (components[k] / np.sqrt(p))[None, :]
    if shape is not None:
        post = np.moveaxis(post.reshape((2, 2) + shape[2:]), (0, 1), (q1, q2))
    return outcome, p, StateVector._wrap(n, post.reshape(-1))


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, in the original significance order."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must be non-empty")
    for q in kept:
        _check_qubit(state, q)
    n = state.num_qubits
    traced = [q for q in range(n) if q not in kept]
    psi = state.amplitudes.reshape([2] * n).transpose(kept + traced)
    m = psi.reshape(2 ** len(kept), 2 ** len(traced))
    return DensityMatrix._wrap(m @ m.conj().T)


def fidelity_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi|rho|psi>: probability that ``rho`` passes a test for the pure state ``psi``."""
    if rho.dim != 2**psi.num_qubits:
        raise ValueError(f"dimension mismatch: rho is {rho.dim}, psi is {2**psi.num_qubits}")
    v = psi.amplitudes
    return float(np.vdot(v, rho.entries @ v).real)


def pure_state_from_density(rho: DensityMatrix) -> StateVector:
    """Extract |psi> from a rank-1 density matrix (up to global phase).

    Raises ValidationError when the matrix is not pure within ATOL_ACCUMULATED.
    """
    purity = float(np.trace(rho.entries @ rho.entries).real)
    if abs(purity - 1.0) > ATOL_ACCUMULATED:
        raise ValidationError(f"density matrix has purity {purity}, not a pure state")
    diag = rho.entries.diagonal().real
    j = int(np.argmax(diag))
    column = rho.entries[:, j] / np.sqrt(diag[j])
    return StateVector._wrap(rho.dim.bit_length() - 1, column)
