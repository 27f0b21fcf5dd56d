"""Gate definitions: names, arities, parameter counts and unitary matrices.

The gate set intentionally mirrors the subset of OpenQASM 2 / Qiskit that the
QRIO paper relies on: the basis gates of its simulated devices are
``{u1, u2, u3, cx}`` (Table 2), the evaluation workloads additionally use the
common named gates (``h``, ``x``, ``z``, ``s``, ``t``, ``swap``, ``ccx`` ...),
and the Clifford-canary fidelity strategy needs to know which gates are
Clifford operations.

Conventions
-----------
* Little-endian qubit ordering: qubit 0 is the least significant bit of a
  computational basis index.  Multi-qubit gate matrices are expressed in the
  local basis where *operand position p* is local bit *p* (so ``cx(c, t)``
  uses the matrix with the control on local bit 0).
* Parameterised gates expose a matrix factory taking the parameter tuple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.utils.exceptions import GateError

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Return the generic single-qubit rotation ``u3(theta, phi, lam)``."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def _u2_matrix(phi: float, lam: float) -> np.ndarray:
    return _u3_matrix(math.pi / 2.0, phi, lam)


def _u1_matrix(lam: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * lam)]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def _ry_matrix(theta: float) -> np.ndarray:
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def _rz_matrix(theta: float) -> np.ndarray:
    phase = cmath.exp(-1j * theta / 2.0)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj().T
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = _T.conj().T
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

# Two-qubit matrices in the local basis (operand 0 = local bit 0).
_CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CY = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, -1j],
        [0, 0, 1, 0],
        [0, 1j, 0, 0],
    ],
    dtype=complex,
)
_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def _ch_matrix() -> np.ndarray:
    matrix = np.eye(4, dtype=complex)
    # Control is local bit 0; hadamard acts on the target when control = 1.
    matrix[1, 1] = _H[0, 0]
    matrix[1, 3] = _H[0, 1]
    matrix[3, 1] = _H[1, 0]
    matrix[3, 3] = _H[1, 1]
    return matrix


def _ccx_matrix() -> np.ndarray:
    matrix = np.eye(8, dtype=complex)
    # Controls are local bits 0 and 1, target is local bit 2.
    matrix[3, 3] = 0.0
    matrix[7, 7] = 0.0
    matrix[3, 7] = 1.0
    matrix[7, 3] = 1.0
    return matrix


def _ccz_matrix() -> np.ndarray:
    matrix = np.eye(8, dtype=complex)
    matrix[7, 7] = -1.0
    return matrix


def _crz_matrix(theta: float) -> np.ndarray:
    matrix = np.eye(4, dtype=complex)
    rz = _rz_matrix(theta)
    matrix[1, 1] = rz[0, 0]
    matrix[3, 3] = rz[1, 1]
    return matrix


def _cu1_matrix(lam: float) -> np.ndarray:
    matrix = np.eye(4, dtype=complex)
    matrix[3, 3] = cmath.exp(1j * lam)
    return matrix


def _rzz_matrix(theta: float) -> np.ndarray:
    phase = cmath.exp(1j * theta / 2.0)
    return np.diag([phase.conjugate(), phase, phase, phase.conjugate()]).astype(complex)


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Canonical lower-case gate name (matches the OpenQASM 2 spelling).
    num_qubits:
        Number of qubit operands.
    num_params:
        Number of real parameters.
    matrix_factory:
        Callable producing the unitary from the parameter tuple; ``None`` for
        non-unitary directives (measure, reset, barrier).
    clifford:
        ``True`` when the gate (for any/no parameters) is a Clifford
        operation.  Parameterised gates are handled separately by
        :func:`repro.fidelity.clifford.is_clifford_instruction`.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_factory: Optional[Callable[..., np.ndarray]]
    clifford: bool = False
    directive: bool = False

    def matrix(self, params: Sequence[float] = ()) -> np.ndarray:
        """Return the gate unitary for ``params``."""
        if self.matrix_factory is None:
            raise GateError(f"Gate '{self.name}' has no unitary matrix")
        params = tuple(float(p) for p in params)
        if len(params) != self.num_params:
            raise GateError(
                f"Gate '{self.name}' expects {self.num_params} parameter(s), got {len(params)}"
            )
        return np.array(self.matrix_factory(*params), dtype=complex)


GATE_SPECS: Dict[str, GateSpec] = {
    "id": GateSpec("id", 1, 0, lambda: _I, clifford=True),
    "x": GateSpec("x", 1, 0, lambda: _X, clifford=True),
    "y": GateSpec("y", 1, 0, lambda: _Y, clifford=True),
    "z": GateSpec("z", 1, 0, lambda: _Z, clifford=True),
    "h": GateSpec("h", 1, 0, lambda: _H, clifford=True),
    "s": GateSpec("s", 1, 0, lambda: _S, clifford=True),
    "sdg": GateSpec("sdg", 1, 0, lambda: _SDG, clifford=True),
    "t": GateSpec("t", 1, 0, lambda: _T, clifford=False),
    "tdg": GateSpec("tdg", 1, 0, lambda: _TDG, clifford=False),
    "sx": GateSpec("sx", 1, 0, lambda: _SX, clifford=True),
    "rx": GateSpec("rx", 1, 1, _rx_matrix),
    "ry": GateSpec("ry", 1, 1, _ry_matrix),
    "rz": GateSpec("rz", 1, 1, _rz_matrix),
    "p": GateSpec("p", 1, 1, _u1_matrix),
    "u1": GateSpec("u1", 1, 1, _u1_matrix),
    "u2": GateSpec("u2", 1, 2, _u2_matrix),
    "u3": GateSpec("u3", 1, 3, _u3_matrix),
    "u": GateSpec("u", 1, 3, _u3_matrix),
    "cx": GateSpec("cx", 2, 0, lambda: _CX, clifford=True),
    "cz": GateSpec("cz", 2, 0, lambda: _CZ, clifford=True),
    "cy": GateSpec("cy", 2, 0, lambda: _CY, clifford=True),
    "ch": GateSpec("ch", 2, 0, _ch_matrix, clifford=False),
    "swap": GateSpec("swap", 2, 0, lambda: _SWAP, clifford=True),
    "crz": GateSpec("crz", 2, 1, _crz_matrix),
    "cu1": GateSpec("cu1", 2, 1, _cu1_matrix),
    "cp": GateSpec("cp", 2, 1, _cu1_matrix),
    "rzz": GateSpec("rzz", 2, 1, _rzz_matrix),
    "ccx": GateSpec("ccx", 3, 0, _ccx_matrix, clifford=False),
    "ccz": GateSpec("ccz", 3, 0, _ccz_matrix, clifford=False),
    "measure": GateSpec("measure", 1, 0, None, directive=True),
    "reset": GateSpec("reset", 1, 0, None, directive=True),
    "barrier": GateSpec("barrier", 0, 0, None, directive=True),
}

#: Gates whose unitary is Clifford independent of parameters.
CLIFFORD_GATE_NAMES = frozenset(
    name for name, spec in GATE_SPECS.items() if spec.clifford
)

#: Gate names accepted as a transpilation basis in this library.
SUPPORTED_BASIS_GATES = frozenset(GATE_SPECS) - {"measure", "reset", "barrier"}


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for ``name`` (case-insensitive)."""
    key = name.lower()
    if key not in GATE_SPECS:
        raise GateError(f"Unknown gate '{name}'")
    return GATE_SPECS[key]


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix of gate ``name`` with ``params``."""
    return gate_spec(name).matrix(params)


def is_known_gate(name: str) -> bool:
    """Return ``True`` when ``name`` is a gate this library understands."""
    return name.lower() in GATE_SPECS


def is_directive(name: str) -> bool:
    """Return ``True`` for non-unitary circuit directives (measure/reset/barrier)."""
    return gate_spec(name).directive
