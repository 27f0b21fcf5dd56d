"""The :class:`QuantumCircuit` container used throughout the library.

The class deliberately mirrors the small slice of the Qiskit circuit API that
the QRIO paper's workflow touches: building circuits gate by gate, exporting
and importing OpenQASM 2, asking structural questions (depth, gate counts,
which qubit pairs interact), and feeding the circuit to the transpiler and
the simulators.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuits.instruction import Instruction
from repro.utils.exceptions import CircuitError
from repro.utils.validation import require_name, require_non_negative_int, require_qubit_index


class QuantumCircuit:
    """An ordered list of :class:`Instruction` over qubit and clbit registers.

    Parameters
    ----------
    num_qubits:
        Size of the quantum register.
    num_clbits:
        Size of the classical register; defaults to ``num_qubits`` so that
        ``measure_all`` always has a destination, matching the behaviour the
        paper's job-runner script relies on.
    name:
        Human-readable circuit name (used for job names and logs).
    """

    def __init__(self, num_qubits: int, num_clbits: Optional[int] = None, name: str = "circuit") -> None:
        require_non_negative_int(num_qubits, "num_qubits")
        if num_clbits is None:
            num_clbits = num_qubits
        require_non_negative_int(num_clbits, "num_clbits")
        self.name = require_name(name, "name")
        self._num_qubits = num_qubits
        self._num_clbits = num_clbits
        self._data: List[Instruction] = []
        #: Counts in-place edits (:meth:`append`), so a value derived from the
        #: instruction stream and kept on the circuit can tell it is stale.
        self.edits = 0
        #: Free-form metadata dictionary carried through transpilation.
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits in the circuit's quantum register."""
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Number of classical bits in the circuit's classical register."""
        return self._num_clbits

    @property
    def data(self) -> Tuple[Instruction, ...]:
        """The instruction sequence as an immutable tuple."""
        return tuple(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and self._num_clbits == other._num_clbits
            and self._data == other._data
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_clbits={self._num_clbits}, size={len(self._data)})"
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append ``instruction`` after validating its operands fit the registers."""
        for qubit in instruction.qubits:
            require_qubit_index(qubit, self._num_qubits)
        for clbit in instruction.clbits:
            require_qubit_index(clbit, self._num_clbits, name="clbit")
        self._data.append(instruction)
        self.edits += 1
        return self

    def _append_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "QuantumCircuit":
        return self.append(Instruction(name, tuple(qubits), params=tuple(params)))

    # Single-qubit gates ------------------------------------------------ #
    def id(self, qubit: int) -> "QuantumCircuit":
        """Apply the identity gate."""
        return self._append_gate("id", (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        """Apply the Pauli-X gate."""
        return self._append_gate("x", (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        """Apply the Pauli-Y gate."""
        return self._append_gate("y", (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        """Apply the Pauli-Z gate."""
        return self._append_gate("z", (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        """Apply the Hadamard gate."""
        return self._append_gate("h", (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        """Apply the phase gate S."""
        return self._append_gate("s", (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Apply the inverse phase gate S†."""
        return self._append_gate("sdg", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        """Apply the T gate."""
        return self._append_gate("t", (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """Apply the T† gate."""
        return self._append_gate("tdg", (qubit,))

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Apply the √X gate."""
        return self._append_gate("sx", (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Apply a rotation about X by ``theta``."""
        return self._append_gate("rx", (qubit,), (theta,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Apply a rotation about Y by ``theta``."""
        return self._append_gate("ry", (qubit,), (theta,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Apply a rotation about Z by ``theta``."""
        return self._append_gate("rz", (qubit,), (theta,))

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Apply the phase gate ``p(lam)`` (alias of ``u1``)."""
        return self._append_gate("p", (qubit,), (lam,))

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Apply the ``u1`` phase gate of the paper's device basis."""
        return self._append_gate("u1", (qubit,), (lam,))

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Apply the ``u2`` gate of the paper's device basis."""
        return self._append_gate("u2", (qubit,), (phi, lam))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Apply the generic single-qubit ``u3`` gate."""
        return self._append_gate("u3", (qubit,), (theta, phi, lam))

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Alias of :meth:`u3` (OpenQASM 3 naming)."""
        return self._append_gate("u", (qubit,), (theta, phi, lam))

    # Two-qubit gates --------------------------------------------------- #
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Apply a CNOT with the given control and target."""
        return self._append_gate("cx", (control, target))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-Z gate."""
        return self._append_gate("cz", (control, target))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-Y gate."""
        return self._append_gate("cy", (control, target))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-Hadamard gate."""
        return self._append_gate("ch", (control, target))

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Apply a SWAP gate."""
        return self._append_gate("swap", (qubit_a, qubit_b))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-RZ rotation."""
        return self._append_gate("crz", (control, target), (theta,))

    def cu1(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-``u1`` phase."""
        return self._append_gate("cu1", (control, target), (lam,))

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Apply a controlled-phase gate (alias of ``cu1``)."""
        return self._append_gate("cp", (control, target), (lam,))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Apply the two-qubit ZZ interaction."""
        return self._append_gate("rzz", (qubit_a, qubit_b), (theta,))

    # Three-qubit gates -------------------------------------------------- #
    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Apply a Toffoli gate."""
        return self._append_gate("ccx", (control_a, control_b, target))

    def ccz(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Apply a doubly-controlled-Z gate."""
        return self._append_gate("ccz", (control_a, control_b, target))

    # Directives --------------------------------------------------------- #
    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Insert a barrier over ``qubits`` (all qubits when none given)."""
        targets = tuple(qubits) if qubits else tuple(range(self._num_qubits))
        return self.append(Instruction("barrier", targets))

    def reset(self, qubit: int) -> "QuantumCircuit":
        """Reset ``qubit`` to ``|0>``."""
        return self._append_gate("reset", (qubit,))

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        """Measure ``qubit`` into classical bit ``clbit``."""
        return self.append(Instruction("measure", (qubit,), clbits=(clbit,)))

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the classical bit of the same index."""
        if self._num_clbits < self._num_qubits:
            raise CircuitError(
                "measure_all requires at least as many classical bits as qubits"
            )
        for qubit in range(self._num_qubits):
            self.measure(qubit, qubit)
        return self

    def measured(self) -> "QuantumCircuit":
        """This circuit if it measures anything, else a copy measuring every qubit.

        The copy's classical register is widened to one bit per qubit when it
        is narrower, so a circuit declared with fewer (or no) classical bits
        can still be sampled; a measured circuit keeps its declared width.
        """
        if self.has_measurements():
            return self
        clone = QuantumCircuit(self._num_qubits, max(self._num_clbits, self._num_qubits), self.name)
        clone._data = list(self._data)
        clone.metadata = dict(self.metadata)
        return clone.measure_all()

    # ------------------------------------------------------------------ #
    # Structural queries
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Number of non-barrier instructions in the circuit."""
        return sum(1 for inst in self._data if inst.name != "barrier")

    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names, ordered by decreasing count."""
        counts: Dict[str, int] = {}
        for inst in self._data:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit unitary gates (the dominant noise source)."""
        return sum(1 for inst in self._data if inst.is_two_qubit_gate)

    def num_measurements(self) -> int:
        """Number of measurement instructions."""
        return sum(1 for inst in self._data if inst.is_measurement)

    def depth(self) -> int:
        """Circuit depth counting all non-barrier operations."""
        levels = [0] * max(self._num_qubits + self._num_clbits, 1)
        depth = 0
        for inst in self._data:
            if inst.name == "barrier":
                continue
            wires = list(inst.qubits) + [self._num_qubits + c for c in inst.clbits]
            level = max(levels[w] for w in wires) + 1
            for wire in wires:
                levels[wire] = level
            depth = max(depth, level)
        return depth

    def used_qubits(self) -> Set[int]:
        """Set of qubit indices touched by at least one non-barrier instruction."""
        used: Set[int] = set()
        for inst in self._data:
            if inst.name == "barrier":
                continue
            used.update(inst.qubits)
        return used

    def num_active_qubits(self) -> int:
        """Number of qubits touched by the circuit."""
        return len(self.used_qubits())

    def interaction_pairs(self) -> Dict[Tuple[int, int], int]:
        """Multiplicity of each undirected two-qubit interaction.

        This is the circuit's *interaction graph*, the object the topology
        ranking strategy (Mapomatic-style) matches against device coupling
        maps.
        """
        pairs: Dict[Tuple[int, int], int] = {}
        for inst in self._data:
            if not inst.is_two_qubit_gate:
                continue
            pair = tuple(sorted(inst.qubits))
            pairs[pair] = pairs.get(pair, 0) + 1
        return pairs

    def has_measurements(self) -> bool:
        """``True`` when the circuit contains at least one measurement."""
        return any(inst.is_measurement for inst in self._data)

    def measurement_map(self) -> Dict[int, int]:
        """Mapping from measured qubit index to its classical bit."""
        mapping: Dict[int, int] = {}
        for inst in self._data:
            if inst.is_measurement:
                mapping[inst.qubits[0]] = inst.clbits[0]
        return mapping

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return a shallow copy (instructions are immutable)."""
        clone = QuantumCircuit(self._num_qubits, self._num_clbits, name or self.name)
        clone._data = list(self._data)
        clone.metadata = dict(self.metadata)
        return clone

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit applying ``self`` then ``other``.

        ``other`` must not use more qubits/clbits than ``self`` provides.
        """
        if other.num_qubits > self._num_qubits or other.num_clbits > self._num_clbits:
            raise CircuitError(
                "Cannot compose a circuit with more qubits/clbits than the base circuit"
            )
        combined = self.copy()
        for inst in other:
            combined.append(inst)
        return combined

    def without_measurements(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return a copy with measure/barrier/reset directives removed."""
        clone = QuantumCircuit(self._num_qubits, self._num_clbits, name or self.name)
        clone.metadata = dict(self.metadata)
        for inst in self._data:
            if inst.is_directive:
                continue
            clone.append(inst)
        return clone

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy without trailing measurement instructions."""
        data = list(self._data)
        while data and data[-1].name in ("measure", "barrier"):
            data.pop()
        clone = QuantumCircuit(self._num_qubits, self._num_clbits, self.name)
        clone.metadata = dict(self.metadata)
        clone._data = data
        return clone

    def inverse(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return the inverse of the unitary part of the circuit.

        Measurements, resets and barriers cannot be inverted and raise
        :class:`CircuitError`.
        """
        inverse_names = {
            "s": "sdg",
            "sdg": "s",
            "t": "tdg",
            "tdg": "t",
        }
        self_inverse = {"id", "x", "y", "z", "h", "cx", "cz", "cy", "swap", "ccx", "ccz"}
        clone = QuantumCircuit(self._num_qubits, self._num_clbits, name or f"{self.name}_dg")
        for inst in reversed(self._data):
            if inst.is_directive:
                raise CircuitError("Cannot invert a circuit containing directives")
            if inst.name in self_inverse:
                clone.append(inst)
            elif inst.name in inverse_names:
                clone.append(Instruction(inverse_names[inst.name], inst.qubits))
            elif inst.name in ("rx", "ry", "rz", "p", "u1", "crz", "cu1", "cp", "rzz"):
                clone.append(
                    Instruction(inst.name, inst.qubits, params=tuple(-p for p in inst.params))
                )
            elif inst.name == "sx":
                clone.append(Instruction("u3", inst.qubits, params=(-math.pi / 2.0, math.pi / 2.0, -math.pi / 2.0)))
            elif inst.name in ("u2",):
                phi, lam = inst.params
                clone.append(Instruction("u3", inst.qubits, params=(-math.pi / 2.0, -lam, -phi)))
            elif inst.name in ("u3", "u"):
                theta, phi, lam = inst.params
                clone.append(Instruction("u3", inst.qubits, params=(-theta, -lam, -phi)))
            elif inst.name == "ch":
                clone.append(inst)
            else:
                raise CircuitError(f"Do not know how to invert gate '{inst.name}'")
        return clone

    def remap_qubits(self, mapping: Sequence[int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with every qubit ``q`` relabelled to ``mapping[q]``.

        This is the primitive behind applying a transpiler layout (virtual to
        physical qubits) and behind compacting a wide device circuit down to
        its active qubits for simulation.
        """
        if len(mapping) < self._num_qubits:
            raise CircuitError("Mapping must cover every circuit qubit")
        target_size = num_qubits if num_qubits is not None else max(mapping) + 1
        clone = QuantumCircuit(target_size, self._num_clbits, self.name)
        clone.metadata = dict(self.metadata)
        for inst in self._data:
            clone.append(inst.remap(mapping))
        return clone

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line structural summary used by logs and the dashboard."""
        ops = ", ".join(f"{name}:{count}" for name, count in self.count_ops().items())
        return (
            f"{self.name}: {self._num_qubits} qubits, depth {self.depth()}, "
            f"{self.num_two_qubit_gates()} two-qubit gates [{ops}]"
        )
