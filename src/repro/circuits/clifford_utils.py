"""Single-qubit Clifford utilities shared by the simulators and the canary builder.

The 24 single-qubit Clifford operations are enumerated once as sequences of
the primitive gates the stabilizer simulator executes natively; both the
Clifford-canary builder (snapping non-Clifford gates to their closest
Clifford) and the stabilizer engines (executing basis-translated gates such
as ``u2(0, pi)`` that are Clifford in disguise) rely on this table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.gates import gate_matrix
from repro.circuits.instruction import Instruction

#: Primitive single-qubit Clifford gate names used to build the library.
SINGLE_QUBIT_CLIFFORD_PRIMITIVES: Tuple[str, ...] = ("id", "x", "y", "z", "h", "s", "sdg", "sx")

#: Two-qubit (and wider) gate names the stabilizer tableau executes natively.
STABILIZER_NATIVE_GATES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "sx", "cx", "cz", "cy", "swap"}
)


def _build_library() -> List[Tuple[Tuple[str, ...], np.ndarray]]:
    """Enumerate the 24 single-qubit Cliffords as (sequence, matrix) pairs.

    Sequences are ordered shortest-first so that snapping prefers a single
    native gate over an equivalent product.
    """
    singles = {name: gate_matrix(name) for name in SINGLE_QUBIT_CLIFFORD_PRIMITIVES}
    library: List[Tuple[Tuple[str, ...], np.ndarray]] = []

    def register(sequence: Tuple[str, ...], matrix: np.ndarray) -> None:
        for _, existing in library:
            overlap = abs(np.trace(existing.conj().T @ matrix)) / 2.0
            if overlap > 1.0 - 1e-9:
                return
        library.append((sequence, matrix))

    names = list(singles)
    for first in names:
        register((first,), singles[first])
    for first in names:
        for second in names:
            register((first, second), singles[second] @ singles[first])
            if len(library) >= 24:
                return library
    for first in names:
        for second in names:
            for third in names:
                register((first, second, third), singles[third] @ singles[second] @ singles[first])
                if len(library) >= 24:
                    return library
    return library


_LIBRARY = _build_library()
#: ``C†`` of every library entry, stacked in library order.
_LIBRARY_ADJOINTS = np.array([clifford.conj().T for _, clifford in _LIBRARY])


def single_qubit_clifford_library() -> List[Tuple[Tuple[str, ...], np.ndarray]]:
    """The 24 single-qubit Cliffords as (gate sequence, matrix) pairs."""
    return list(_LIBRARY)


def closest_single_qubit_clifford(matrix: np.ndarray) -> Tuple[Tuple[str, ...], float]:
    """Closest single-qubit Clifford to ``matrix`` and its overlap.

    The overlap metric is ``|tr(C† U)| / 2`` (1.0 means the gate already *is*
    that Clifford up to global phase).
    """
    matrix = np.asarray(matrix, dtype=complex)
    # Every candidate's tr(C† U) from one stacked product.  The scalar abs()
    # is libm's hypot, bit for bit what np.trace's result gives; numpy's
    # vectorised absolute can differ in the last bit.
    products = _LIBRARY_ADJOINTS @ matrix
    traces = (products[:, 0, 0] + products[:, 1, 1]).tolist()
    best_sequence: Tuple[str, ...] = ("id",)
    best_overlap = -1.0
    for (sequence, _), trace in zip(_LIBRARY, traces):
        overlap = abs(trace) / 2.0
        if overlap > best_overlap + 1e-12:
            best_overlap = overlap
            best_sequence = sequence
    return best_sequence, best_overlap


def clifford_sequence_for(instruction: Instruction, atol: float = 1e-9) -> Optional[Tuple[str, ...]]:
    """Native stabilizer gate sequence implementing ``instruction``, if Clifford.

    * Gates that the tableau executes natively return a one-element sequence
      of their own name.
    * Parameterised or exotic single-qubit gates are matched against the
      Clifford library; an exact match (within ``atol``) returns the matching
      primitive sequence, anything else returns ``None``.
    * Multi-qubit gates outside the native set return ``None`` (callers
      decompose them first).
    """
    name = instruction.name
    if name in ("measure", "reset", "barrier"):
        return (name,)
    if name in STABILIZER_NATIVE_GATES and not instruction.params:
        return (name,)
    if len(instruction.qubits) != 1:
        return None
    sequence, overlap = closest_single_qubit_clifford(instruction.matrix())
    if overlap > 1.0 - atol:
        return sequence
    return None
