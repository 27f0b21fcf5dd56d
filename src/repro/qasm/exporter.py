"""Export :class:`~repro.circuits.QuantumCircuit` objects as OpenQASM 2.0 text.

The exporter is the counterpart of :mod:`repro.qasm.parser`: QRIO's master
server materialises every job's circuit as a QASM file inside the container
image it builds, and the visualizer round-trips user uploads through this
format, so ``parse(dump(circuit))`` must reproduce the original circuit.
"""

from __future__ import annotations

import math
from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.utils.exceptions import QASMError

#: Gate names that are emitted verbatim (they exist in qelib1.inc).
_DIRECT_GATES = {
    "id",
    "x",
    "y",
    "z",
    "h",
    "s",
    "sdg",
    "t",
    "tdg",
    "sx",
    "rx",
    "ry",
    "rz",
    "p",
    "u1",
    "u2",
    "u3",
    "u",
    "cx",
    "cz",
    "cy",
    "ch",
    "swap",
    "crz",
    "cu1",
    "cp",
    "rzz",
    "ccx",
    "ccz",
}


#: Denominators of the pi-fractions the exporter spells exactly, in search order.
_PI_DENOMINATORS = (1, 2, 3, 4, 6, 8, 16)


def _format_parameter(value: float) -> str:
    """Render a gate angle, preferring exact multiples of pi for readability.

    The angle is ``n*pi/d`` when it lies within 1e-12 of that value for a
    denominator ``d`` in :data:`_PI_DENOMINATORS` (the first that matches)
    and ``0 < |n| <= 16``.  Fractions of one denominator are ``pi/d``
    apart, so the only candidate numerator is ``value*d/pi`` rounded.
    """
    if value == 0:
        return "0"
    for denominator in _PI_DENOMINATORS:
        scaled = value * denominator / math.pi
        # Outside this range no numerator in 1..16 is within reach; the
        # test is also False for inf and NaN, which round() cannot take.
        if not 0.5 <= abs(scaled) <= 16.5:
            continue
        numerator = round(scaled)
        candidate = numerator * math.pi / denominator
        if abs(candidate - value) < 1e-12:
            sign = "-" if numerator < 0 else ""
            numerator = abs(numerator)
            if numerator == 1 and denominator == 1:
                return f"{sign}pi"
            if denominator == 1:
                return f"{sign}{numerator}*pi"
            if numerator == 1:
                return f"{sign}pi/{denominator}"
            return f"{sign}{numerator}*pi/{denominator}"
    return repr(float(value))


def _format_instruction(instruction: Instruction) -> str:
    name = instruction.name
    if name == "measure":
        qubit = instruction.qubits[0]
        clbit = instruction.clbits[0]
        return f"measure q[{qubit}] -> c[{clbit}];"
    if name == "barrier":
        operands = ",".join(f"q[{qubit}]" for qubit in instruction.qubits)
        return f"barrier {operands};"
    if name == "reset":
        return f"reset q[{instruction.qubits[0]}];"
    if name not in _DIRECT_GATES:
        raise QASMError(f"Gate '{name}' has no OpenQASM 2 spelling")
    params = ""
    if instruction.params:
        params = "(" + ",".join(_format_parameter(p) for p in instruction.params) + ")"
    operands = ",".join(f"q[{qubit}]" for qubit in instruction.qubits)
    return f"{name}{params} {operands};"


def dump_qasm(circuit: QuantumCircuit) -> str:
    """Serialise ``circuit`` to OpenQASM 2.0 source text."""
    lines: List[str] = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if circuit.num_clbits > 0:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for instruction in circuit:
        lines.append(_format_instruction(instruction))
    return "\n".join(lines) + "\n"


def write_qasm_file(circuit: QuantumCircuit, path) -> None:
    """Write ``circuit`` to ``path`` as OpenQASM 2.0."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_qasm(circuit))
