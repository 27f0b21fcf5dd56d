"""Base classes for transpiler passes and the pass manager."""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.context import TranspileContext
from repro.utils.exceptions import TranspilerError


class TranspilerPass(abc.ABC):
    """A single circuit-to-circuit transformation.

    Passes receive the shared :class:`TranspileContext` so that layout and
    routing information flows between them, mirroring the staged pipeline the
    paper describes for the Qiskit transpiler (virtual optimisation,
    decomposition, placement, routing, basis translation, physical
    optimisation).
    """

    @property
    def name(self) -> str:
        """Human-readable pass name (class name by default)."""
        return type(self).__name__

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        """Transform ``circuit`` and return the result."""


class AnalysisPass(TranspilerPass):
    """A pass that only inspects the circuit and annotates the context."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        self.analyse(circuit, context)
        return circuit

    @abc.abstractmethod
    def analyse(self, circuit: QuantumCircuit, context: TranspileContext) -> None:
        """Inspect ``circuit`` and record findings in ``context``."""


class PassManager:
    """Runs an ordered list of passes over a circuit."""

    def __init__(self, passes: Optional[Sequence[TranspilerPass]] = None) -> None:
        self._passes: List[TranspilerPass] = list(passes or [])

    def append(self, transpiler_pass: TranspilerPass) -> "PassManager":
        """Add a pass to the end of the pipeline."""
        if not isinstance(transpiler_pass, TranspilerPass):
            raise TranspilerError("PassManager only accepts TranspilerPass instances")
        self._passes.append(transpiler_pass)
        return self

    @property
    def passes(self) -> List[TranspilerPass]:
        """The ordered list of passes."""
        return list(self._passes)

    def run(self, circuit: QuantumCircuit, context: Optional[TranspileContext] = None) -> QuantumCircuit:
        """Run every pass in order and return the final circuit."""
        context = context or TranspileContext()
        current = circuit
        for transpiler_pass in self._passes:
            current = transpiler_pass.run(current, context)
            context.properties.setdefault("pass_trace", []).append(  # type: ignore[union-attr]
                {"pass": transpiler_pass.name, "size": current.size()}
            )
        return current
