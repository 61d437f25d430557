"""Minimal dense state-vector simulator for a handful of qubits.

Qubit ordering convention, used everywhere in this package: qubit 0 is the
MOST significant bit of the amplitude index. For a 4-qubit register holding
roles D, A, B, C at indices 0..3, the amplitude at index 0b1011 belongs to
the ket |1011> read in D A B C order, so amplitude indices read exactly like
ket labels.

States are immutable values: every operation returns a new StateVector and
never mutates its input, so values are safe to hand between threads.

The protocol needs at most 4 qubits, 16 amplitudes, so the arithmetic runs on
tuples of Python complex numbers. Every kernel adds its terms one by one in
index order, with no fused multiply-add and not through the builtin ``sum``
(which compensates float sums from Python 3.12 on), so every result has the
same bits on every host.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, Sequence

from .vocab import IDENTITY_NAME, BellOutcome, CharlieOutcome  # noqa: F401 (re-exported)

# Tolerance policy, shared by the whole package:
#   ATOL_ALGEBRAIC  for identities that hold exactly up to one rounding step
#   ATOL_ACCUMULATED for quantities built from longer chains of arithmetic
#   NORM_REPAIR_TOL  constructors renormalize inside this band, reject outside
ATOL_ALGEBRAIC = 1e-12
ATOL_ACCUMULATED = 1e-10
NORM_REPAIR_TOL = 1e-6
MIN_FORCED_PROBABILITY = 1e-12

SQRT_HALF = math.sqrt(0.5)


class ValidationError(ValueError):
    """A constructed object violates its mathematical invariants."""


class ImpossibleOutcomeError(ValueError):
    """A forced measurement outcome has (numerically) zero Born probability."""


def _shape(values) -> tuple[int, ...]:
    """The shape of nested sequences, read along their first elements; () for a number."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
        return ()
    return (len(values),) + (_shape(values[0]) if len(values) else ())


def _as_finite_complex(values, shape: tuple[int, ...], what: str) -> tuple:
    """``values`` as a tuple of complex, or for a 2-D ``shape`` a tuple of such rows."""
    got = _shape(values)
    if got != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {got}")
    try:
        if len(shape) == 1:
            entries = tuple(map(complex, values))
        else:
            entries = tuple(tuple(map(complex, row)) for row in values)
    except TypeError:  # an entry that is itself a sequence
        raise ValidationError(f"{what}: expected shape {shape}, got nested entries") from None
    for row in entries if len(shape) == 2 else (entries,):
        if len(row) != shape[-1]:
            raise ValidationError(f"{what}: expected shape {shape}, got rows of other lengths")
        for z in row:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError(f"{what}: entries must be finite (no NaN/Inf)")
    return entries


def _norm2(values) -> float:
    """sum |z|^2, one term at a time in order."""
    total = 0.0
    for z in values:
        total += z.real * z.real + z.imag * z.imag
    return total


def _inner(u, v) -> complex:
    """<u|v> = sum conj(u_i) v_i, one term at a time in order."""
    total = 0j
    for x, y in zip(u, v):
        total += x.conjugate() * y
    return total


class Amplitudes(tuple):
    """A state's amplitudes: a tuple of complex. ``tolist()`` returns them as a
    list, as an array's does; the benchmark's output checks call it."""

    __slots__ = ()

    def tolist(self) -> list[complex]:
        return list(self)


class StateVector:
    """Pure state of ``num_qubits`` qubits as 2^n complex amplitudes.

    The public constructor renormalizes inputs whose norm is within
    NORM_REPAIR_TOL of 1 and rejects anything further off.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Sequence[complex]):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        entries = _as_finite_complex(amplitudes, (2**num_qubits,), "StateVector")
        norm = math.sqrt(_norm2(entries))
        if abs(norm - 1.0) > NORM_REPAIR_TOL:
            raise ValidationError(f"StateVector norm {norm} is not within {NORM_REPAIR_TOL} of 1")
        scale = 1.0 / norm
        self.num_qubits = num_qubits
        self.amplitudes = Amplitudes([z * scale for z in entries])

    @classmethod
    def _wrap(cls, num_qubits: int, amplitudes) -> "StateVector":
        # Trusted arithmetic results: keep the exact bits, no renormalization.
        sv = cls.__new__(cls)
        amplitudes = Amplitudes(amplitudes)
        assert len(amplitudes) == 2**num_qubits
        # |norm^2 - 1| <= ~2|norm - 1| near 1
        assert abs(_norm2(amplitudes) - 1.0) <= 3 * NORM_REPAIR_TOL
        sv.num_qubits = num_qubits
        sv.amplitudes = amplitudes
        return sv

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.amplitudes == other.amplitudes

    def __hash__(self):
        return hash((self.num_qubits, self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits}, amplitudes={list(self.amplitudes)})"


_EYE2 = ((1 + 0j, 0j), (0j, 1 + 0j))


class Unitary2x2:
    """Single-qubit unitary; construction enforces U†U = I within ATOL_ALGEBRAIC."""

    __slots__ = ("matrix", "name")

    def __init__(self, matrix, name: str = "U"):
        rows = _as_finite_complex(matrix, (2, 2), "Unitary2x2")
        columns = tuple(zip(*rows))
        for i, eye_row in enumerate(_EYE2):
            for j, want in enumerate(eye_row):
                if not abs(_inner(columns[i], columns[j]) - want) <= ATOL_ALGEBRAIC:
                    raise ValidationError(
                        f"matrix {[list(row) for row in rows]} is not unitary within {ATOL_ALGEBRAIC}"
                    )
        self.matrix = rows
        self.name = name

    def is_identity(self) -> bool:
        return self is IDENTITY or self.matrix == _EYE2

    def __repr__(self) -> str:
        return f"Unitary2x2({[list(row) for row in self.matrix]}, name={self.name!r})"


# The four local corrections appearing in the protocol, in ket-bra form:
#   I,  Z = |0><0| - |1><1|,  X = |0><1| + |1><0|,  ZX = |0><1| - |1><0|.
IDENTITY = Unitary2x2([[1, 0], [0, 1]], name=IDENTITY_NAME)
PAULI_X = Unitary2x2([[0, 1], [1, 0]], name="X")
PAULI_Z = Unitary2x2([[1, 0], [0, -1]], name="Z")
ZX = Unitary2x2([[0, 1], [-1, 0]], name="ZX")

NAMED_UNITARIES = {u.name: u for u in (IDENTITY, PAULI_X, PAULI_Z, ZX)}

class MeasurementBasis:
    """Orthonormal single-qubit basis {b0, b1}; outcome k projects onto b_k."""

    __slots__ = ("b0", "b1", "rows_conj")

    def __init__(self, b0, b1):
        v0 = _as_finite_complex(b0, (2,), "MeasurementBasis.b0")
        v1 = _as_finite_complex(b1, (2,), "MeasurementBasis.b1")
        for name, v in (("b0", v0), ("b1", v1)):
            if abs(_norm2(v) - 1.0) > ATOL_ALGEBRAIC:
                raise ValidationError(f"MeasurementBasis.{name} is not normalized")
        if abs(_inner(v0, v1)) > ATOL_ALGEBRAIC:
            raise ValidationError("MeasurementBasis vectors are not orthogonal")
        self.b0 = v0
        self.b1 = v1
        # <b_k| as rows, precomputed for the hot path
        self.rows_conj = tuple(tuple(z.conjugate() for z in v) for v in (v0, v1))


COMPUTATIONAL = MeasurementBasis([1, 0], [0, 1])
PLUS_MINUS = MeasurementBasis([SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF])


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 2^k basis states."""

    __slots__ = ("dim", "entries")

    @classmethod
    def _wrap(cls, entries: tuple) -> "DensityMatrix":
        # Trusted Gram-matrix results (m m†): Hermitian and positive
        # semidefinite by construction, so only the trace is checked.
        dm = cls.__new__(cls)
        trace = 0.0
        for i, row in enumerate(entries):
            trace += row[i].real
        assert abs(trace - 1.0) <= ATOL_ACCUMULATED
        dm.dim = len(entries)
        dm.entries = entries
        return dm

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"DensityMatrix({[list(row) for row in self.entries]})"


_S = complex(SQRT_HALF)
_MINUS_S = complex(-SQRT_HALF)

BELL_VECTORS = {
    BellOutcome.PHI_PLUS: (_S, 0j, 0j, _S),
    BellOutcome.PHI_MINUS: (_S, 0j, 0j, _MINUS_S),
    BellOutcome.PSI_PLUS: (0j, _S, _S, 0j),
    BellOutcome.PSI_MINUS: (0j, _S, _MINUS_S, 0j),
}

_BELL_OUTCOMES = tuple(BellOutcome)


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


# --- index tables ------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _index_table(num_qubits: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Amplitude indices as a matrix: row r sets ``qubits`` to the bits of r,
    column t sets the other qubits to the bits of t, each most significant
    first. So column t lists the indices that ``qubits`` split, in the order
    of their basis states, and the columns run in index order."""
    others = [q for q in range(num_qubits) if q not in qubits]

    def index(value: int, which) -> int:
        bits = 0
        for pos, q in enumerate(which):
            if value >> (len(which) - 1 - pos) & 1:
                bits |= 1 << (num_qubits - 1 - q)
        return bits

    return tuple(
        tuple(index(r, qubits) | index(t, others) for t in range(1 << len(others)))
        for r in range(1 << len(qubits))
    )


# --- kernels -----------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product a ⊗ b with a's qubits more significant."""
    combined = [x * y for x in a.amplitudes for y in b.amplitudes]
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
    a = state.amplitudes
    (m00, m01), (m10, m11) = u.matrix
    out = [0j] * len(a)
    for i0, i1 in zip(*_index_table(state.num_qubits, (qubit,))):
        x, y = a[i0], a[i1]
        out[i0] = m00 * x + m01 * y
        out[i1] = m10 * x + m11 * y
    return StateVector._wrap(state.num_qubits, out)


def _basis_components(state: StateVector, qubit: int, basis: MeasurementBasis):
    """Per-outcome projection components, one per index pair ``qubit`` splits."""
    a = state.amplitudes
    (r00, r01), (r10, r11) = basis.rows_conj
    zeros, ones = table = _index_table(state.num_qubits, (qubit,))
    c0 = [r00 * a[i0] + r01 * a[i1] for i0, i1 in zip(zeros, ones)]
    c1 = [r10 * a[i0] + r11 * a[i1] for i0, i1 in zip(zeros, ones)]
    return table, (c0, c1), (_norm2(c0), _norm2(c1))


def basis_probabilities(state: StateVector, qubit: int, basis: MeasurementBasis) -> tuple[float, float]:
    """Born probabilities of outcomes 0 and 1 for a basis measurement of one qubit."""
    _check_qubit(state, qubit)
    _, _, probabilities = _basis_components(state, qubit, basis)
    return probabilities


def measure_in_basis(
    state: StateVector, qubit: int, basis: MeasurementBasis, selector: OutcomeSelector
) -> tuple[int, float, StateVector]:
    """Projective measurement of one qubit in an arbitrary orthonormal basis.

    Returns (outcome, Born probability of that outcome, renormalized
    post-measurement state).
    """
    _check_qubit(state, qubit)
    table, components, probabilities = _basis_components(state, qubit, basis)
    k = selector.choose(list(probabilities))
    p = probabilities[k]
    v0, v1 = basis.b0 if k == 0 else basis.b1
    scale = 1.0 / math.sqrt(p)
    out = [0j] * len(state.amplitudes)
    for i0, i1, c in zip(*table, components[k]):
        c = c * scale
        out[i0] = v0 * c
        out[i1] = v1 * c
    return k, p, StateVector._wrap(state.num_qubits, out)


def _bell_components(state: StateVector, q1: int, q2: int):
    """Projection components onto the four Bell vectors, one list per outcome,
    and their Born probabilities."""
    if q1 == q2:
        raise ValueError(f"q1 and q2 must differ, both are {q1}")
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    a = state.amplitudes
    table = _index_table(state.num_qubits, (q1, q2))
    # <Phi±| = s(<00| ± <11|), <Psi±| = s(<01| ± <10|), unrolled.
    s = _S
    phi_plus, phi_minus, psi_plus, psi_minus = [], [], [], []
    for i00, i01, i10, i11 in zip(*table):
        x00, x01, x10, x11 = s * a[i00], s * a[i01], s * a[i10], s * a[i11]
        phi_plus.append(x00 + x11)
        phi_minus.append(x00 - x11)
        psi_plus.append(x01 + x10)
        psi_minus.append(x01 - x10)
    components = (phi_plus, phi_minus, psi_plus, psi_minus)
    return table, components, [_norm2(c) for c in components]


def bell_probabilities(state: StateVector, q1: int, q2: int) -> dict[BellOutcome, float]:
    """Born probabilities of the four Bell outcomes on the (q1, q2) pair."""
    _, _, probabilities = _bell_components(state, q1, q2)
    return dict(zip(_BELL_OUTCOMES, probabilities))


def measure_bell(
    state: StateVector, q1: int, q2: int, selector: OutcomeSelector
) -> tuple[BellOutcome, float, StateVector]:
    """Joint projective measurement of (q1, q2) onto the four Bell states.

    Projects onto the explicit Bell vectors rather than rotating through a
    gate decomposition, so the result is directly the four-branch split of
    the input state.
    """
    table, components, probabilities = _bell_components(state, q1, q2)
    k = selector.choose(probabilities)
    p = probabilities[k]
    outcome = _BELL_OUTCOMES[k]
    v00, v01, v10, v11 = BELL_VECTORS[outcome]
    scale = 1.0 / math.sqrt(p)
    out = [0j] * len(state.amplitudes)
    for i00, i01, i10, i11, c in zip(*table, components[k]):
        c = c * scale
        out[i00] = v00 * c
        out[i01] = v01 * c
        out[i10] = v10 * c
        out[i11] = v11 * c
    return outcome, p, StateVector._wrap(state.num_qubits, out)


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, in the original significance order."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must be non-empty")
    for q in kept:
        _check_qubit(state, q)
    a = state.amplitudes
    m = [[a[i] for i in row] for row in _index_table(state.num_qubits, tuple(kept))]
    rho = []  # m m†
    for row in m:
        rho_row = []
        for other in m:
            total = 0j
            for x, y in zip(row, other):
                total += x * y.conjugate()
            rho_row.append(total)
        rho.append(tuple(rho_row))
    return DensityMatrix._wrap(tuple(rho))


def fidelity_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi|rho|psi>: probability that ``rho`` passes a test for the pure state ``psi``."""
    if rho.dim != 2**psi.num_qubits:
        raise ValueError(f"dimension mismatch: rho is {rho.dim}, psi is {2**psi.num_qubits}")
    v = psi.amplitudes
    total = 0j
    for x, row in zip(v, rho.entries):
        w = 0j
        for entry, y in zip(row, v):
            w += entry * y
        total += x.conjugate() * w
    return total.real


def pure_state_from_density(rho: DensityMatrix) -> StateVector:
    """Extract |psi> from a rank-1 density matrix (up to global phase).

    Raises ValidationError when the matrix is not pure within ATOL_ACCUMULATED.
    """
    e = rho.entries
    purity = 0.0  # trace(rho rho), one diagonal entry at a time
    for r, row in enumerate(e):
        diagonal = 0j
        for c, x in enumerate(row):
            diagonal += x * e[c][r]
        purity += diagonal.real
    if abs(purity - 1.0) > ATOL_ACCUMULATED:
        raise ValidationError(f"density matrix has purity {purity}, not a pure state")
    diag = [row[i].real for i, row in enumerate(e)]
    j = diag.index(max(diag))
    scale = 1.0 / math.sqrt(diag[j])
    return StateVector._wrap(rho.dim.bit_length() - 1, [row[j] * scale for row in e])
