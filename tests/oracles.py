"""Independent reference implementations used only by the test suite.

Everything here is written as explicit loops over amplitude indices, with no
reshape/moveaxis tricks, so the production code and the tests cannot share a
bug. Qubit q of an n-qubit register occupies bit (n-1-q) of the amplitude
index (qubit 0 is most significant).
"""

import numpy as np


def bit_of(index: int, qubit: int, num_qubits: int) -> int:
    return (index >> (num_qubits - 1 - qubit)) & 1


def single_qubit_probabilities(amplitudes, qubit, num_qubits, b0, b1):
    """Born probabilities of projecting one qubit onto each basis vector."""
    probs = []
    for basis_vec in (np.asarray(b0), np.asarray(b1)):
        total = 0.0
        # Group amplitude pairs that differ only in the measured qubit's bit.
        for i in range(2**num_qubits):
            if bit_of(i, qubit, num_qubits) != 0:
                continue
            j = i | (1 << (num_qubits - 1 - qubit))
            component = (
                np.conj(basis_vec[0]) * amplitudes[i] + np.conj(basis_vec[1]) * amplitudes[j]
            )
            total += abs(component) ** 2
        probs.append(total)
    return probs


def bell_projection_probabilities(amplitudes, q1, q2, num_qubits, bell_vectors):
    """Born probabilities of projecting the (q1, q2) pair onto each Bell vector.

    ``bell_vectors`` maps outcome -> length-4 vector indexed by 2*bit(q1)+bit(q2).
    """
    out = {}
    for outcome, vec in bell_vectors.items():
        total = 0.0
        for i in range(2**num_qubits):
            if bit_of(i, q1, num_qubits) != 0 or bit_of(i, q2, num_qubits) != 0:
                continue
            component = 0j
            for b1 in (0, 1):
                for b2 in (0, 1):
                    j = i | (b1 << (num_qubits - 1 - q1)) | (b2 << (num_qubits - 1 - q2))
                    component += np.conj(vec[2 * b1 + b2]) * amplitudes[j]
            total += abs(component) ** 2
        out[outcome] = total
    return out


def partial_trace_matrix(amplitudes, keep, num_qubits):
    """Reduced density matrix over the sorted ``keep`` qubits, by direct summation."""
    kept = sorted(keep)
    traced = [q for q in range(num_qubits) if q not in kept]
    dim = 2 ** len(kept)
    rho = np.zeros((dim, dim), dtype=np.complex128)

    def full_index(kept_bits: int, traced_bits: int) -> int:
        idx = 0
        for pos, q in enumerate(kept):
            idx |= ((kept_bits >> (len(kept) - 1 - pos)) & 1) << (num_qubits - 1 - q)
        for pos, q in enumerate(traced):
            idx |= ((traced_bits >> (len(traced) - 1 - pos)) & 1) << (num_qubits - 1 - q)
        return idx

    for r in range(dim):
        for c in range(dim):
            for t in range(2 ** len(traced)):
                rho[r, c] += amplitudes[full_index(r, t)] * np.conj(amplitudes[full_index(c, t)])
    return rho


def full_single_qubit_matrix(u, qubit, num_qubits):
    """I ⊗ ... ⊗ u ⊗ ... ⊗ I as a dense 2^n matrix."""
    m = np.eye(1, dtype=np.complex128)
    for q in range(num_qubits):
        m = np.kron(m, np.asarray(u) if q == qubit else np.eye(2))
    return m
