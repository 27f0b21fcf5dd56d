"""Recursive-descent parser turning OpenQASM 2.0 text into a circuit.

Supported constructs (the subset the QRIO workloads and job submissions use):

* ``OPENQASM 2.0;`` header and ``include`` statements (includes are accepted
  and ignored — the standard gate library is built in).
* Multiple ``qreg``/``creg`` declarations; registers are flattened into a
  single qubit/clbit index space in declaration order.
* Gate applications with parameter expressions over numbers, ``pi``, unary
  minus, ``+ - * / ^`` and parentheses.
* ``measure q[i] -> c[j];`` for single bits and ``measure q -> c;`` for whole
  registers.
* ``barrier`` and ``reset``.

Custom ``gate`` definitions, ``if`` statements and ``opaque`` declarations are
rejected with an informative error, mirroring the job validation a cloud
front end would perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_spec, is_known_gate
from repro.circuits.instruction import Instruction
from repro.qasm.tokenizer import TokenStream, tokenize
from repro.utils.exceptions import QASMError

#: Gate spellings that appear in qelib1.inc but map onto this library's names.
_GATE_ALIASES = {
    "cnot": "cx",
    "toffoli": "ccx",
    "i": "id",
    "iden": "id",
    "u0": "id",
    "phase": "p",
}


@dataclass
class _Register:
    """A declared QASM register and its offset in the flattened index space."""

    name: str
    size: int
    offset: int


class QASMParser:
    """Parser object; use :func:`parse_qasm` for the functional interface."""

    def __init__(self, source: str, name: Optional[str] = None) -> None:
        self._stream = TokenStream(tokenize(source))
        self._qregs: Dict[str, _Register] = {}
        self._cregs: Dict[str, _Register] = {}
        self._name = name or "qasm_circuit"
        self._pending: List[Instruction] = []

    # ------------------------------------------------------------------ #
    def parse(self) -> QuantumCircuit:
        """Parse the full program and return the resulting circuit."""
        self._parse_header()
        while not self._stream.at_end():
            self._parse_statement()
        num_qubits = sum(reg.size for reg in self._qregs.values())
        num_clbits = sum(reg.size for reg in self._cregs.values())
        if num_qubits == 0:
            raise QASMError("QASM program declares no qubits")
        circuit = QuantumCircuit(num_qubits, num_clbits, name=self._name)
        for instruction in self._pending:
            circuit.append(instruction)
        return circuit

    # ------------------------------------------------------------------ #
    def _parse_header(self) -> None:
        token = self._stream.peek()
        if token.text == "OPENQASM":
            self._stream.advance()
            version = self._stream.expect_kind("NUMBER")
            if not version.text.startswith("2"):
                raise QASMError(f"Only OpenQASM 2.x is supported, got {version.text}")
            self._stream.expect(";")

    def _parse_statement(self) -> None:
        token = self._stream.peek()
        if token.text == "include":
            self._stream.advance()
            self._stream.expect_kind("STRING")
            self._stream.expect(";")
        elif token.text in ("qreg", "creg"):
            self._parse_register(token.text)
        elif token.text == "measure":
            self._parse_measure()
        elif token.text == "barrier":
            self._parse_barrier()
        elif token.text == "reset":
            self._parse_reset()
        elif token.text in ("gate", "opaque", "if"):
            raise QASMError(
                f"'{token.text}' statements are not supported (line {token.line})"
            )
        elif token.kind == "ID":
            self._parse_gate_application()
        else:
            raise QASMError(f"Unexpected token {token.text!r} on line {token.line}")

    def _parse_register(self, kind: str) -> None:
        self._stream.advance()
        name = self._stream.expect_kind("ID").text
        self._stream.expect("[")
        size_token = self._stream.expect_kind("NUMBER")
        self._stream.expect("]")
        self._stream.expect(";")
        size = int(float(size_token.text))
        if size <= 0:
            raise QASMError(f"Register '{name}' must have positive size")
        registers = self._qregs if kind == "qreg" else self._cregs
        if name in self._qregs or name in self._cregs:
            raise QASMError(f"Register '{name}' declared twice")
        offset = sum(reg.size for reg in registers.values())
        registers[name] = _Register(name, size, offset)

    # ------------------------------------------------------------------ #
    def _resolve_qubit(self, register: str, index: int, line: int) -> int:
        if register not in self._qregs:
            raise QASMError(f"Unknown quantum register '{register}' on line {line}")
        reg = self._qregs[register]
        if not 0 <= index < reg.size:
            raise QASMError(
                f"Index {index} out of range for register '{register}[{reg.size}]' on line {line}"
            )
        return reg.offset + index

    def _resolve_clbit(self, register: str, index: int, line: int) -> int:
        if register not in self._cregs:
            raise QASMError(f"Unknown classical register '{register}' on line {line}")
        reg = self._cregs[register]
        if not 0 <= index < reg.size:
            raise QASMError(
                f"Index {index} out of range for register '{register}[{reg.size}]' on line {line}"
            )
        return reg.offset + index

    def _parse_argument(self) -> Tuple[str, Optional[int], int]:
        """Parse ``name`` or ``name[index]`` and return (name, index, line)."""
        token = self._stream.expect_kind("ID")
        index: Optional[int] = None
        if self._stream.accept("["):
            index_token = self._stream.expect_kind("NUMBER")
            index = int(float(index_token.text))
            self._stream.expect("]")
        return token.text, index, token.line

    def _expand_qubit_argument(self, name: str, index: Optional[int], line: int) -> List[int]:
        if index is not None:
            return [self._resolve_qubit(name, index, line)]
        if name not in self._qregs:
            raise QASMError(f"Unknown quantum register '{name}' on line {line}")
        reg = self._qregs[name]
        return [reg.offset + i for i in range(reg.size)]

    # ------------------------------------------------------------------ #
    def _parse_measure(self) -> None:
        self._stream.expect("measure")
        q_name, q_index, line = self._parse_argument()
        self._stream.expect("->")
        c_name, c_index, c_line = self._parse_argument()
        self._stream.expect(";")
        if (q_index is None) != (c_index is None):
            raise QASMError(f"Mismatched measure operands on line {line}")
        if q_index is not None:
            qubit = self._resolve_qubit(q_name, q_index, line)
            clbit = self._resolve_clbit(c_name, c_index, c_line)
            self._pending.append(Instruction("measure", (qubit,), clbits=(clbit,)))
            return
        qreg = self._qregs.get(q_name)
        creg = self._cregs.get(c_name)
        if qreg is None:
            raise QASMError(f"Unknown quantum register '{q_name}' on line {line}")
        if creg is None:
            raise QASMError(f"Unknown classical register '{c_name}' on line {c_line}")
        if qreg.size != creg.size:
            raise QASMError(
                f"Register sizes differ in 'measure {q_name} -> {c_name}' on line {line}"
            )
        for i in range(qreg.size):
            self._pending.append(
                Instruction("measure", (qreg.offset + i,), clbits=(creg.offset + i,))
            )

    def _parse_barrier(self) -> None:
        self._stream.expect("barrier")
        qubits: List[int] = []
        while True:
            name, index, line = self._parse_argument()
            qubits.extend(self._expand_qubit_argument(name, index, line))
            if not self._stream.accept(","):
                break
        self._stream.expect(";")
        self._pending.append(Instruction("barrier", tuple(qubits)))

    def _parse_reset(self) -> None:
        self._stream.expect("reset")
        name, index, line = self._parse_argument()
        self._stream.expect(";")
        for qubit in self._expand_qubit_argument(name, index, line):
            self._pending.append(Instruction("reset", (qubit,)))

    def _parse_gate_application(self) -> None:
        name_token = self._stream.expect_kind("ID")
        gate_name = _GATE_ALIASES.get(name_token.text.lower(), name_token.text.lower())
        if not is_known_gate(gate_name):
            raise QASMError(
                f"Unsupported gate '{name_token.text}' on line {name_token.line}"
            )
        spec = gate_spec(gate_name)
        params: List[float] = []
        if self._stream.accept("("):
            if not self._stream.accept(")"):
                while True:
                    params.append(self._parse_expression())
                    if self._stream.accept(")"):
                        break
                    self._stream.expect(",")
        operands: List[Tuple[str, Optional[int], int]] = []
        while True:
            operands.append(self._parse_argument())
            if not self._stream.accept(","):
                break
        self._stream.expect(";")

        expanded = [self._expand_qubit_argument(name, index, line) for name, index, line in operands]
        broadcast_size = max(len(group) for group in expanded)
        for group in expanded:
            if len(group) not in (1, broadcast_size):
                raise QASMError(
                    f"Cannot broadcast operands of '{gate_name}' on line {name_token.line}"
                )
        for position in range(broadcast_size):
            qubits = tuple(
                group[position] if len(group) > 1 else group[0] for group in expanded
            )
            if len(qubits) != spec.num_qubits:
                raise QASMError(
                    f"Gate '{gate_name}' expects {spec.num_qubits} operand(s) on line {name_token.line}"
                )
            self._pending.append(Instruction(gate_name, qubits, params=tuple(params)))

    # ------------------------------------------------------------------ #
    # Parameter expressions: standard precedence-climbing over + - * / ^.
    # ------------------------------------------------------------------ #
    def _parse_expression(self) -> float:
        return self._parse_additive()

    def _parse_additive(self) -> float:
        value = self._parse_multiplicative()
        while not self._stream.at_end() and self._stream.peek().text in ("+", "-"):
            operator = self._stream.advance().text
            rhs = self._parse_multiplicative()
            value = value + rhs if operator == "+" else value - rhs
        return value

    def _parse_multiplicative(self) -> float:
        value = self._parse_unary()
        while not self._stream.at_end() and self._stream.peek().text in ("*", "/"):
            operator = self._stream.advance().text
            rhs = self._parse_unary()
            if operator == "*":
                value *= rhs
            else:
                if rhs == 0:
                    raise QASMError("Division by zero in gate parameter expression")
                value /= rhs
        return value

    def _parse_unary(self) -> float:
        if self._stream.accept("-"):
            return -self._parse_unary()
        if self._stream.accept("+"):
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> float:
        value = self._parse_atom()
        if not self._stream.at_end() and self._stream.peek().text == "^":
            self._stream.advance()
            exponent = self._parse_unary()
            value = value**exponent
        return value

    def _parse_atom(self) -> float:
        token = self._stream.advance()
        if token.kind == "NUMBER":
            return float(token.text)
        if token.kind == "ID":
            if token.text.lower() == "pi":
                return math.pi
            if token.text.lower() in ("sin", "cos", "tan", "exp", "ln", "sqrt"):
                self._stream.expect("(")
                argument = self._parse_expression()
                self._stream.expect(")")
                functions = {
                    "sin": math.sin,
                    "cos": math.cos,
                    "tan": math.tan,
                    "exp": math.exp,
                    "ln": math.log,
                    "sqrt": math.sqrt,
                }
                return functions[token.text.lower()](argument)
            raise QASMError(f"Unknown identifier '{token.text}' in expression on line {token.line}")
        if token.text == "(":
            value = self._parse_expression()
            self._stream.expect(")")
            return value
        raise QASMError(f"Unexpected token {token.text!r} in expression on line {token.line}")


def parse_qasm(source: str, name: Optional[str] = None) -> QuantumCircuit:
    """Parse OpenQASM 2.0 ``source`` into a :class:`QuantumCircuit`."""
    return QASMParser(source, name=name).parse()


def load_qasm_file(path, name: Optional[str] = None) -> QuantumCircuit:
    """Read ``path`` and parse its contents as OpenQASM 2.0."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return parse_qasm(source, name=name)
