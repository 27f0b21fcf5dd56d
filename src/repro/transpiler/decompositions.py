"""Gate decomposition rules and single-qubit resynthesis.

Two jobs live here:

* rewriting multi-qubit gates that are outside a device's basis into CX plus
  single-qubit gates (the paper's transpilation step "3+ Qubit Gate
  Decomposition" and part of "Translation to Basis Gates"), and
* resynthesising an arbitrary single-qubit unitary into the ``u1``/``u2``/
  ``u3`` gates of the fleet's basis (ZYZ Euler decomposition).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.instruction import Instruction
from repro.utils.exceptions import TranspilerError

_ATOL = 1e-9


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Euler angles ``(theta, phi, lam)`` with ``u3(theta, phi, lam) ~ matrix``.

    The equivalence is up to global phase, which is irrelevant for circuit
    execution.  Raises :class:`TranspilerError` for non-2x2 input.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TranspilerError("zyz_angles expects a single-qubit (2x2) matrix")
    # Normalise to unit determinant to stabilise the angle extraction.
    determinant = np.linalg.det(matrix)
    matrix = matrix / np.sqrt(determinant)
    magnitude_00 = abs(matrix[0, 0])
    magnitude_10 = abs(matrix[1, 0])
    theta = 2.0 * math.atan2(magnitude_10, magnitude_00)
    if magnitude_10 < _ATOL:
        # Diagonal gate: only the phase difference matters.
        phi = 0.0
        lam = cmath.phase(matrix[1, 1]) - cmath.phase(matrix[0, 0])
        return theta, phi, lam
    if magnitude_00 < _ATOL:
        # Anti-diagonal gate: only phi + global-phase and lam + global-phase
        # are determined; fix the global phase to zero.
        phi = cmath.phase(matrix[1, 0])
        lam = cmath.phase(-matrix[0, 1])
        return theta, phi, lam
    global_phase = cmath.phase(matrix[0, 0])
    phi = cmath.phase(matrix[1, 0]) - global_phase
    lam = cmath.phase(-matrix[0, 1]) - global_phase
    return theta, phi, lam


def resynthesise_single_qubit(instruction: Instruction, basis_gates: Sequence[str]) -> List[Instruction]:
    """Rewrite a single-qubit gate into the target basis.

    Prefers ``u1`` for diagonal gates (virtual-Z style, free on hardware) and
    ``u2`` for theta = pi/2 rotations, falling back to a full ``u3``.
    """
    basis = {gate.lower() for gate in basis_gates}
    qubit = instruction.qubits[0]
    theta, phi, lam = zyz_angles(instruction.matrix())
    if abs(theta) < _ATOL and "u1" in basis:
        angle = _wrap_angle(phi + lam)
        if abs(angle) < _ATOL:
            return []
        return [Instruction("u1", (qubit,), params=(angle,))]
    if abs(theta - math.pi / 2.0) < _ATOL and "u2" in basis:
        return [Instruction("u2", (qubit,), params=(_wrap_angle(phi), _wrap_angle(lam)))]
    if "u3" in basis:
        return [Instruction("u3", (qubit,), params=(theta, _wrap_angle(phi), _wrap_angle(lam)))]
    if "u" in basis:
        return [Instruction("u", (qubit,), params=(theta, _wrap_angle(phi), _wrap_angle(lam)))]
    raise TranspilerError(
        f"Cannot express single-qubit gate '{instruction.name}' in basis {sorted(basis)}"
    )


def _wrap_angle(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]`` for tidy output."""
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    elif wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


# --------------------------------------------------------------------------- #
# Multi-qubit decomposition rules (into CX + single-qubit gates)
# --------------------------------------------------------------------------- #
def _decompose_swap(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    return [Instruction("cx", (a, b)), Instruction("cx", (b, a)), Instruction("cx", (a, b))]


def _decompose_cz(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    return [Instruction("h", (b,)), Instruction("cx", (a, b)), Instruction("h", (b,))]


def _decompose_cy(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    return [Instruction("sdg", (b,)), Instruction("cx", (a, b)), Instruction("s", (b,))]


def _decompose_ch(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    # qelib1.inc definition of the controlled-Hadamard.
    a, b = qubits
    return [
        Instruction("h", (b,)),
        Instruction("sdg", (b,)),
        Instruction("cx", (a, b)),
        Instruction("h", (b,)),
        Instruction("t", (b,)),
        Instruction("cx", (a, b)),
        Instruction("t", (b,)),
        Instruction("h", (b,)),
        Instruction("s", (b,)),
        Instruction("x", (b,)),
        Instruction("s", (a,)),
    ]


def _decompose_crz(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    (theta,) = params
    return [
        Instruction("rz", (b,), params=(theta / 2.0,)),
        Instruction("cx", (a, b)),
        Instruction("rz", (b,), params=(-theta / 2.0,)),
        Instruction("cx", (a, b)),
    ]


def _decompose_cu1(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    (lam,) = params
    return [
        Instruction("u1", (a,), params=(lam / 2.0,)),
        Instruction("cx", (a, b)),
        Instruction("u1", (b,), params=(-lam / 2.0,)),
        Instruction("cx", (a, b)),
        Instruction("u1", (b,), params=(lam / 2.0,)),
    ]


def _decompose_rzz(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b = qubits
    (theta,) = params
    return [
        Instruction("cx", (a, b)),
        Instruction("rz", (b,), params=(theta,)),
        Instruction("cx", (a, b)),
    ]


def _decompose_ccx(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    # Standard 6-CX Toffoli decomposition (qelib1.inc).
    a, b, c = qubits
    return [
        Instruction("h", (c,)),
        Instruction("cx", (b, c)),
        Instruction("tdg", (c,)),
        Instruction("cx", (a, c)),
        Instruction("t", (c,)),
        Instruction("cx", (b, c)),
        Instruction("tdg", (c,)),
        Instruction("cx", (a, c)),
        Instruction("t", (b,)),
        Instruction("t", (c,)),
        Instruction("h", (c,)),
        Instruction("cx", (a, b)),
        Instruction("t", (a,)),
        Instruction("tdg", (b,)),
        Instruction("cx", (a, b)),
    ]


def _decompose_ccz(qubits: Tuple[int, ...], params: Tuple[float, ...]) -> List[Instruction]:
    a, b, c = qubits
    return (
        [Instruction("h", (c,))]
        + _decompose_ccx((a, b, c), ())
        + [Instruction("h", (c,))]
    )


#: Rewrite rules for gates that are not single-qubit and not ``cx``.
DECOMPOSITION_RULES: Dict[str, Callable[[Tuple[int, ...], Tuple[float, ...]], List[Instruction]]] = {
    "swap": _decompose_swap,
    "cz": _decompose_cz,
    "cy": _decompose_cy,
    "ch": _decompose_ch,
    "crz": _decompose_crz,
    "cu1": _decompose_cu1,
    "cp": _decompose_cu1,
    "rzz": _decompose_rzz,
    "ccx": _decompose_ccx,
    "ccz": _decompose_ccz,
}


def decompose_instruction(instruction: Instruction, basis_gates: Sequence[str]) -> List[Instruction]:
    """Recursively rewrite ``instruction`` into gates from ``basis_gates``.

    Single-qubit gates outside the basis are resynthesised with
    :func:`resynthesise_single_qubit`; multi-qubit gates are expanded via the
    rule table (and their products rewritten recursively).  ``cx`` must be in
    the basis — every backend in the paper's fleet provides it.
    """
    basis = {gate.lower() for gate in basis_gates}
    name = instruction.name
    if name in ("measure", "reset", "barrier"):
        return [instruction]
    if name in basis:
        return [instruction]
    if len(instruction.qubits) == 1:
        return resynthesise_single_qubit(instruction, basis_gates)
    if name == "cx":
        raise TranspilerError(
            f"Target basis {sorted(basis)} does not include 'cx'; this library "
            "requires a CX-based basis (as in the paper's device fleet)"
        )
    if name not in DECOMPOSITION_RULES:
        raise TranspilerError(f"No decomposition rule for gate '{name}'")
    expansion = DECOMPOSITION_RULES[name](instruction.qubits, instruction.params)
    result: List[Instruction] = []
    for piece in expansion:
        result.extend(decompose_instruction(piece, basis_gates))
    return result
