"""The :class:`Instruction` model: one gate (or directive) applied to operands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import GateSpec, gate_spec, is_directive
from repro.utils.exceptions import CircuitError
from repro.utils.validation import require_distinct


@dataclass(frozen=True)
class Instruction:
    """A single circuit operation.

    Attributes
    ----------
    name:
        Canonical gate name (``"h"``, ``"cx"``, ``"measure"``, ...).
    qubits:
        Tuple of qubit indices the operation acts on.  For ``barrier`` this
        may span any number of qubits; for all other operations the length
        must match the gate arity.
    clbits:
        Classical bit indices written by the operation (only ``measure``
        writes a classical bit in this library).
    params:
        Tuple of real gate parameters (angles).
    label:
        Optional human-readable label carried through transpilation.
    """

    name: str
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()
    params: Tuple[float, ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        spec = gate_spec(self.name)
        object.__setattr__(self, "name", spec.name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "clbits", tuple(int(c) for c in self.clbits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if spec.name != "barrier" and len(self.qubits) != spec.num_qubits:
            raise CircuitError(
                f"Gate '{spec.name}' acts on {spec.num_qubits} qubit(s), "
                f"got operands {self.qubits}"
            )
        if spec.name == "barrier" and not self.qubits:
            raise CircuitError("A barrier must cover at least one qubit")
        try:
            require_distinct(self.qubits, name=f"operands of '{spec.name}'")
        except ValueError as error:
            raise CircuitError(str(error)) from error
        if len(self.params) != spec.num_params:
            raise CircuitError(
                f"Gate '{spec.name}' expects {spec.num_params} parameter(s), "
                f"got {self.params}"
            )
        if spec.name == "measure" and len(self.clbits) != 1:
            raise CircuitError("A measure instruction writes exactly one classical bit")
        if spec.name != "measure" and self.clbits:
            raise CircuitError(f"Gate '{spec.name}' does not write classical bits")

    @property
    def spec(self) -> GateSpec:
        """The static :class:`GateSpec` for this instruction."""
        return gate_spec(self.name)

    @property
    def num_qubits(self) -> int:
        """Number of qubit operands."""
        return len(self.qubits)

    @property
    def is_directive(self) -> bool:
        """``True`` for measure/reset/barrier (non-unitary operations)."""
        return is_directive(self.name)

    @property
    def is_measurement(self) -> bool:
        """``True`` when the instruction is a measurement."""
        return self.name == "measure"

    @property
    def is_two_qubit_gate(self) -> bool:
        """``True`` for unitary gates acting on exactly two qubits."""
        return len(self.qubits) == 2 and not self.is_directive

    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the instruction (directives raise)."""
        return self.spec.matrix(self.params)

    def remap(self, mapping: Sequence[int]) -> "Instruction":
        """Return a copy acting on ``mapping[q]`` for each original qubit ``q``.

        ``mapping`` is indexed by the current qubit indices; this is how the
        transpiler applies an initial layout from virtual to physical qubits.
        """
        new_qubits = tuple(int(mapping[q]) for q in self.qubits)
        return Instruction(self.name, new_qubits, self.clbits, self.params, self.label)

    def relabel(self, mapping: Sequence[int]) -> "Instruction":
        """:meth:`remap` through an injective ``mapping``, without re-validating.

        A valid instruction relabelled injectively is valid (its operands
        stay distinct), so the copy skips the checks of a new instruction.
        The caller guarantees injectivity, as a transpiler layout does.
        """
        clone = object.__new__(Instruction)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["qubits"] = tuple(int(mapping[q]) for q in self.qubits)
        return clone

    def with_qubits(self, qubits: Sequence[int]) -> "Instruction":
        """Return a copy of the instruction acting on ``qubits``."""
        return Instruction(self.name, tuple(qubits), self.clbits, self.params, self.label)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        params = f"({', '.join(f'{p:g}' for p in self.params)})" if self.params else ""
        clbits = f" -> c{list(self.clbits)}" if self.clbits else ""
        return f"{self.name}{params} q{list(self.qubits)}{clbits}"
