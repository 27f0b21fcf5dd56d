"""Routing passes: making every two-qubit gate respect the coupling map.

The paper's transpilation pipeline lists "Placement on Physical Qubits" and
"Routing on Restricted Topology" as distinct stages; here the routing pass
also materialises the placement (it rewrites the virtual circuit onto the
device's physical qubits), inserting SWAP gates whenever a two-qubit gate
acts on uncoupled qubits.

Two routers are provided:

* :class:`BasicRoutingPass` — processes the program in order and walks each
  blocked gate's operands together along the cheapest shortest path;
* :class:`SabreRoutingPass` — a front-layer/heuristic router in the spirit of
  SABRE [Li, Ding, Xie 2019], which the paper cites as the state-of-the-art
  initial compilation used underneath Mapomatic.

Under a layout that puts every interaction of the circuit on a coupled pair
no gate is ever blocked, so a router inserts no SWAP and only reorders the
program.  :meth:`swap_free_order` returns that order on the circuit's own
qubits; :class:`RelabelPass` then places it, which is what
:func:`repro.transpiler.preset.transpile` does instead of routing such a
layout.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.backends.properties import BackendProperties
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.transpiler.context import TranspileContext
from repro.transpiler.layout import Layout
from repro.transpiler.passes.base import TranspilerPass
from repro.utils.exceptions import TranspilerError


def _distance_matrix(target: BackendProperties) -> Dict[int, Dict[int, int]]:
    """All-pairs shortest-path distances over the coupling graph."""
    return {source: dict(lengths) for source, lengths in nx.all_pairs_shortest_path_length(target.graph())}


def _cheapest_path(target: BackendProperties, start: int, goal: int) -> List[int]:
    """Shortest path from ``start`` to ``goal`` weighted by edge error.

    The weights are read through a function, so the device's shared graph
    is walked as it is and never written to.
    """
    try:
        return nx.shortest_path(
            target.graph(), start, goal, weight=lambda a, b, _: 0.001 + target.edge_error(a, b)
        )
    except nx.NetworkXNoPath as exc:
        raise TranspilerError(
            f"Physical qubits {start} and {goal} are disconnected on '{target.name}'"
        ) from exc


def _split_final_measurements(circuit: QuantumCircuit) -> Tuple[List[Instruction], List[Instruction]]:
    """Separate a circuit's final measurements from its unitary body.

    Routing may keep inserting SWAPs after a qubit has been measured (to move
    *other* virtual qubits through it), which would turn an end-of-circuit
    measurement into a mid-circuit one.  Because measurement outcomes are
    latched into classical bits, it is safe to defer all *final* measurements
    until routing has finished and emit them at each virtual qubit's final
    physical location.  True mid-circuit measurement (gates on a qubit after
    it was measured) is rejected.
    """
    measured: Set[int] = set()
    body: List[Instruction] = []
    measurements: List[Instruction] = []
    for instruction in circuit:
        if instruction.is_measurement:
            measured.add(instruction.qubits[0])
            measurements.append(instruction)
            continue
        if instruction.name == "barrier":
            body.append(instruction)
            continue
        overlap = measured.intersection(instruction.qubits)
        if overlap:
            raise TranspilerError(
                "Mid-circuit measurement is not supported by the routing passes "
                f"(qubit(s) {sorted(overlap)} are used after being measured)"
            )
        body.append(instruction)
    return body, measurements


def _empty_like(circuit: QuantumCircuit, num_qubits: int) -> QuantumCircuit:
    output = QuantumCircuit(num_qubits, circuit.num_clbits, circuit.name)
    output.metadata = dict(circuit.metadata)
    return output


class _RoutingState:
    """Bookkeeping shared by both routers."""

    def __init__(self, circuit: QuantumCircuit, target: BackendProperties, layout: Layout) -> None:
        if circuit.num_qubits > target.num_qubits:
            raise TranspilerError(
                f"Circuit '{circuit.name}' needs {circuit.num_qubits} qubits but device "
                f"'{target.name}' has {target.num_qubits}"
            )
        self.target = target
        self.layout = layout.copy()
        self.output = _empty_like(circuit, target.num_qubits)
        self.coupled: Set[Tuple[int, int]] = {tuple(sorted(edge)) for edge in target.coupling_map}
        self.swaps_inserted = 0

    def physical(self, virtual: int) -> int:
        return self.layout.physical(virtual)

    def adjacent(self, virtual_a: int, virtual_b: int) -> bool:
        edge = tuple(sorted((self.physical(virtual_a), self.physical(virtual_b))))
        return edge in self.coupled

    def emit(self, instruction: Instruction) -> None:
        """Emit ``instruction`` translated onto physical qubits."""
        physical_qubits = tuple(self.physical(q) for q in instruction.qubits)
        self.output.append(
            Instruction(instruction.name, physical_qubits, instruction.clbits, instruction.params)
        )

    def emit_swap(self, physical_a: int, physical_b: int) -> None:
        """Insert a SWAP on two *physical* qubits and update the layout."""
        self.output.append(Instruction("swap", (physical_a, physical_b)))
        self.layout.swap_physical(physical_a, physical_b)
        self.swaps_inserted += 1


class _UnblockedState(_RoutingState):
    """A routing state in which no gate is blocked, on the circuit's own qubits.

    A router driven by it emits what it emits under any layout that puts
    every interaction on a coupled pair, before that layout is applied.
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.layout = Layout.trivial(circuit.num_qubits)
        self.output = _empty_like(circuit, circuit.num_qubits)
        self.swaps_inserted = 0

    def adjacent(self, virtual_a: int, virtual_b: int) -> bool:
        return True


class _Router(TranspilerPass):
    """A routing pass: one routing loop, driven by a :class:`_RoutingState`."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        layout = context.initial_layout or Layout.trivial(circuit.num_qubits)
        state = _RoutingState(circuit, target, layout)
        self._route(circuit, state)
        context.initial_layout = layout
        context.final_layout = state.layout
        context.properties["swaps_inserted"] = state.swaps_inserted
        return state.output

    def swap_free_order(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """``circuit`` as this router emits it when no gate is blocked, on its own qubits.

        Under a layout that puts every interaction on a coupled pair the
        router inserts no SWAP, and its output is this circuit relabelled
        through the layout (:class:`RelabelPass`).  Rejects what :meth:`run`
        rejects (mid-circuit measurement).
        """
        state = _UnblockedState(circuit)
        self._route(circuit, state)
        return state.output

    @abc.abstractmethod
    def _route(self, circuit: QuantumCircuit, state: _RoutingState) -> None:
        """Emit ``circuit`` into ``state``, inserting SWAPs where a gate is blocked."""


class BasicRoutingPass(_Router):
    """In-order router that resolves each blocked gate with path SWAPs."""

    def _route(self, circuit: QuantumCircuit, state: _RoutingState) -> None:
        body, measurements = _split_final_measurements(circuit)
        for instruction in body:
            if instruction.is_two_qubit_gate and not state.adjacent(*instruction.qubits):
                self._bring_together(state, instruction.qubits[0], instruction.qubits[1])
            state.emit(instruction)
        for measurement in measurements:
            state.emit(measurement)

    @staticmethod
    def _bring_together(state: _RoutingState, virtual_a: int, virtual_b: int) -> None:
        start = state.physical(virtual_a)
        goal = state.physical(virtual_b)
        path = _cheapest_path(state.target, start, goal)
        # Swap virtual_a's qubit along the path until it neighbours the goal.
        for step in range(len(path) - 2):
            state.emit_swap(path[step], path[step + 1])


class SabreRoutingPass(_Router):
    """Front-layer heuristic router (SABRE-style).

    The circuit is viewed as a dependency DAG; gates whose predecessors have
    all been emitted form the *front layer*.  Whenever nothing in the front
    layer is executable, the router scores every SWAP adjacent to a front
    gate by the change in summed physical distance of the front layer (with a
    small look-ahead bonus for the following layer) and applies the best one.

    The all-pairs distance table is built the first time a swap must be
    chosen, at most once per run, and is not stored in the context: a
    circuit whose layout already satisfies the coupling map never pays for
    it.  The router reads no randomness.
    """

    #: Weight of the look-ahead (extended set) term in the swap score.
    LOOKAHEAD_WEIGHT = 0.5
    #: Size of the extended set considered by the look-ahead term.
    EXTENDED_SET_SIZE = 20

    def _route(self, circuit: QuantumCircuit, state: _RoutingState) -> None:
        distances: Optional[Dict[int, Dict[int, int]]] = None

        instructions, deferred_measurements = _split_final_measurements(circuit)
        successors: Dict[int, List[int]] = {i: [] for i in range(len(instructions))}
        in_degree: Dict[int, int] = {i: 0 for i in range(len(instructions))}
        last_on_wire: Dict[Tuple[str, int], int] = {}
        for index, instruction in enumerate(instructions):
            wires = [("q", q) for q in instruction.qubits] + [("c", c) for c in instruction.clbits]
            for wire in wires:
                previous = last_on_wire.get(wire)
                if previous is not None:
                    successors[previous].append(index)
                    in_degree[index] += 1
                last_on_wire[wire] = index

        front: List[int] = [i for i, degree in in_degree.items() if degree == 0]
        emitted: Set[int] = set()
        stall_counter = 0

        while front:
            executable = [
                index
                for index in front
                if not instructions[index].is_two_qubit_gate
                or state.adjacent(*instructions[index].qubits)
            ]
            if executable:
                stall_counter = 0
                for index in sorted(executable):
                    state.emit(instructions[index])
                    emitted.add(index)
                    front.remove(index)
                    for successor in successors[index]:
                        in_degree[successor] -= 1
                        if in_degree[successor] == 0:
                            front.append(successor)
                continue

            blocked = [instructions[index] for index in front if instructions[index].is_two_qubit_gate]
            if not blocked:
                raise TranspilerError("Routing dead-lock: front layer has no executable gate")
            stall_counter += 1
            if stall_counter > 2 * state.target.num_qubits + 10:
                # Safety valve: resolve the first blocked gate directly.
                gate = blocked[0]
                path = _cheapest_path(state.target, state.physical(gate.qubits[0]), state.physical(gate.qubits[1]))
                for step in range(len(path) - 2):
                    state.emit_swap(path[step], path[step + 1])
                stall_counter = 0
                continue
            extended = self._extended_set(instructions, successors, in_degree, front)
            if distances is None:
                distances = _distance_matrix(state.target)
            best_swap = self._choose_swap(state, blocked, extended, distances)
            state.emit_swap(*best_swap)

        for measurement in deferred_measurements:
            state.emit(measurement)

    # ------------------------------------------------------------------ #
    def _extended_set(
        self,
        instructions: List[Instruction],
        successors: Dict[int, List[int]],
        in_degree: Dict[int, int],
        front: List[int],
    ) -> List[Instruction]:
        """Two-qubit gates just behind the front layer (look-ahead window)."""
        extended: List[Instruction] = []
        seen: Set[int] = set()
        queue = list(front)
        while queue and len(extended) < self.EXTENDED_SET_SIZE:
            index = queue.pop(0)
            for successor in successors[index]:
                if successor in seen:
                    continue
                seen.add(successor)
                queue.append(successor)
                if instructions[successor].is_two_qubit_gate:
                    extended.append(instructions[successor])
        return extended

    def _choose_swap(
        self,
        state: _RoutingState,
        blocked: List[Instruction],
        extended: List[Instruction],
        distances: Dict[int, Dict[int, int]],
    ) -> Tuple[int, int]:
        involved_physicals = {
            state.physical(q) for gate in blocked for q in gate.qubits
        }
        candidates = [
            edge
            for edge in state.coupled
            if edge[0] in involved_physicals or edge[1] in involved_physicals
        ]
        if not candidates:
            raise TranspilerError("No candidate SWAPs adjacent to the front layer")

        def score(edge: Tuple[int, int]) -> Tuple[float, float]:
            trial = state.layout.copy()
            trial.swap_physical(edge[0], edge[1])
            front_cost = 0.0
            for gate in blocked:
                a = trial.physical(gate.qubits[0])
                b = trial.physical(gate.qubits[1])
                front_cost += distances[a][b]
            lookahead_cost = 0.0
            for gate in extended:
                a = trial.physical(gate.qubits[0])
                b = trial.physical(gate.qubits[1])
                lookahead_cost += distances[a][b]
            if extended:
                lookahead_cost /= len(extended)
            error_bias = state.target.edge_error(edge[0], edge[1])
            return (front_cost + self.LOOKAHEAD_WEIGHT * lookahead_cost, error_bias)

        return min(candidates, key=score)


def blocks_no_gate(circuit: QuantumCircuit, layout: Layout, target: BackendProperties) -> bool:
    """``True`` when ``layout`` places every qubit of ``circuit`` and every interaction on a coupled pair.

    Under such a layout neither router inserts a SWAP, whichever pass chose
    the layout.
    """
    return pairs_coupled(circuit.num_qubits, circuit.interaction_pairs(), layout, target)


def pairs_coupled(
    num_qubits: int, pairs: Iterable[Tuple[int, int]], layout: Layout, target: BackendProperties
) -> bool:
    """``True`` when ``layout`` places qubits ``0..num_qubits-1`` and puts every one of ``pairs`` on a coupled pair.

    On a circuit's two-qubit pairs this is :func:`blocks_no_gate`; on a
    circuit's relabel through ``layout`` it tests the edges
    :class:`CheckMapPass` tests.
    """
    mapping = layout.mapping
    if any(qubit not in mapping for qubit in range(num_qubits)):
        return False
    graph = target.graph()
    return all(graph.has_edge(mapping[a], mapping[b]) for a, b in pairs)


class RelabelPass(TranspilerPass):
    """Place a circuit through ``context.initial_layout`` without routing it.

    The input is a router's :meth:`~_Router.swap_free_order` output, after
    the post-routing passes; the layout must block no gate
    (:func:`blocks_no_gate`).  Each qubit ``v`` moves to
    ``layout.physical(v)`` on the device's register, as
    ``remap_qubits(layout.as_list(...))`` would; a layout is injective, so
    the instructions are relabelled without being re-validated.  Records
    what a router records for such a layout: no SWAP, and a final layout
    equal to the initial one.
    """

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        layout = context.initial_layout
        mapping = layout.as_list(circuit.num_qubits)
        output = _empty_like(circuit, target.num_qubits)
        for instruction in circuit:
            output.append(instruction.relabel(mapping))
        context.final_layout = layout.copy()
        context.properties["swaps_inserted"] = 0
        return output


class CheckMapPass(TranspilerPass):
    """Verify that every two-qubit gate acts on a coupled physical pair."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        graph = target.graph()
        for instruction in circuit:
            if not instruction.is_two_qubit_gate:
                continue
            edge = tuple(sorted(instruction.qubits))
            if not graph.has_edge(*edge):
                raise TranspilerError(
                    f"Two-qubit gate '{instruction.name}' on {edge} violates the "
                    f"coupling map of '{target.name}'"
                )
        return circuit


class GatesInBasisPass(TranspilerPass):
    """Verify that every gate belongs to the target's basis gate set."""

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        target = context.require_target()
        basis = set(target.basis_gates) | {"measure", "reset", "barrier"}
        for instruction in circuit:
            if instruction.name not in basis:
                raise TranspilerError(
                    f"Gate '{instruction.name}' is not in the basis {sorted(basis)} of '{target.name}'"
                )
        return circuit
