"""Linear-algebra helpers for the test suite.

Small and dependency-free (numpy only): unitarity checks, tensor products in
the library's qubit ordering convention, and comparison of operators up to
global phase.  The gate, circuit, exporter and transpiler equivalence tests
import them; the library itself does not.  pytest's default ``prepend``
import mode puts this directory (it holds the root ``conftest.py``) on
``sys.path``, so a test imports them as ``linalg_helpers``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Numerical tolerance used for unitarity and equivalence checks.
ATOL = 1e-8


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of ``matrices`` in the given order."""
    result = np.array([[1.0 + 0.0j]])
    for matrix in matrices:
        result = np.kron(result, np.asarray(matrix, dtype=complex))
    return result


def allclose_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-7) -> bool:
    """Return ``True`` when ``a`` equals ``b`` up to a global phase factor.

    Used to check that transpiled circuits implement the same unitary (or the
    same statevector) as the original circuit: basis translation into
    {u1, u2, u3, cx} routinely introduces a global phase.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a < atol and norm_b < atol:
        return True
    if norm_a < atol or norm_b < atol:
        return False
    overlap = np.vdot(a, b)
    return bool(np.isclose(abs(overlap), norm_a * norm_b, atol=atol))


def expand_operator(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Expand ``matrix`` acting on ``qubits`` to the full ``num_qubits`` space.

    The library uses the little-endian convention (qubit 0 is the least
    significant bit of a computational basis index), matching OpenQASM /
    Qiskit so the workloads in the paper keep their familiar bitstrings.
    """
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"Matrix of shape {matrix.shape} does not act on {k} qubit(s)"
        )
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    other = [q for q in range(num_qubits) if q not in qubits]
    for column in range(dim):
        local_in = 0
        for position, qubit in enumerate(qubits):
            if (column >> qubit) & 1:
                local_in |= 1 << position
        rest = column
        for qubit in qubits:
            rest &= ~(1 << qubit)
        column_vector = matrix[:, local_in]
        for local_out in range(2**k):
            amplitude = column_vector[local_out]
            if amplitude == 0:
                continue
            row = rest
            for position, qubit in enumerate(qubits):
                if (local_out >> position) & 1:
                    row |= 1 << qubit
            full[row, column] += amplitude
    return full


def normalize_state(state: np.ndarray) -> np.ndarray:
    """Return ``state`` scaled to unit norm (no-op for the zero vector)."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if norm == 0:
        return state
    return state / norm


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Return the computational basis statevector ``|index>`` on ``num_qubits``."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"Basis index {index} out of range for {num_qubits} qubits")
    state = np.zeros(2**num_qubits, dtype=complex)
    state[index] = 1.0
    return state
