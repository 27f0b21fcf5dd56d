"""Relabel equivariance of every pass that may run before a relabel.

``transpile`` runs the post-routing passes once per virtual circuit, on the
router's swap-free order over virtual qubits, and relabels the output onto
each device whose layout blocks no gate.  That equals routing and running
the passes on the device only if each step commutes with an injective
relabelling of the qubits: ``pass(relabel(c)) == relabel(pass(c))``.  The
test iterates the pass list the pipeline itself builds, so a pass added to
it later is covered without editing this file.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import named_topology_device
from repro.circuits import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.transpiler import TranspileContext
from repro.transpiler.passes import BasicRoutingPass, SabreRoutingPass, TranspilerPass
from repro.transpiler.preset import _post_routing_passes

_ONE_QUBIT = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "u1", "u2", "u3", "p"]
_TWO_QUBIT = ["cx", "cz", "cy", "swap", "cp", "crz", "rzz"]
_PARAMS = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "cp": 1, "crz": 1, "rzz": 1, "u2": 2, "u3": 3}

_BASES = {
    basis: named_topology_device("line", 3, two_qubit_error=0.02, name=f"basis_{'_'.join(basis)}", basis_gates=basis)
    for basis in (("u1", "u2", "u3", "cx"), ("u3", "cx"))
}

_ANGLES = st.sampled_from([0.0, 0.25, -0.25, 0.5, 1.5707963267948966, 3.141592653589793, 2.0])


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 14) -> QuantumCircuit:
    """Circuits of 1- and 2-qubit gates and barriers, some qubits measured at the end.

    Gates repeat on purpose (the same name on the same operands, inverse
    pairs, runs of rotations) so the cancelling and merging passes fire;
    unmeasured qubits and barriers leave 1-qubit runs pending on several
    qubits at once, where a flush order could depend on qubit labels.
    """
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    circuit = QuantumCircuit(num_qubits, num_qubits, name="equivariance")
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from(["one", "one", "two", "two", "barrier", "repeat"]))
        if kind == "repeat" and len(circuit):
            circuit.append(circuit.data[-1])
        elif kind == "barrier":
            circuit.barrier(*draw(st.lists(qubit, min_size=1, max_size=num_qubits, unique=True)))
        elif kind == "two":
            name = draw(st.sampled_from(_TWO_QUBIT))
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            params = [draw(_ANGLES) for _ in range(_PARAMS.get(name, 0))]
            circuit.append(Instruction(name, tuple(pair), params=tuple(params)))
        else:
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = [draw(_ANGLES) for _ in range(_PARAMS.get(name, 0))]
            circuit.append(Instruction(name, (draw(qubit),), params=tuple(params)))
    measured = draw(st.permutations(range(num_qubits)))
    for index in measured[: draw(st.integers(min_value=0, max_value=num_qubits))]:
        circuit.measure(index, index)
    return circuit


@st.composite
def relabellings(draw, num_virtual: int) -> Dict[str, object]:
    """An injective map of ``num_virtual`` qubits into a register of ``size`` >= it."""
    size = draw(st.integers(min_value=num_virtual, max_value=num_virtual + 4))
    images = draw(st.permutations(range(size)))[:num_virtual]
    return {"mapping": list(images), "size": size}


def _relabel(circuit: QuantumCircuit, relabelling) -> QuantumCircuit:
    return circuit.remap_qubits(relabelling["mapping"], relabelling["size"])


def _assert_equivariant(step, circuit: QuantumCircuit, relabelling) -> None:
    """``step(relabel(c)) == relabel(step(c))`` for a circuit-to-circuit ``step``."""
    assert step(_relabel(circuit, relabelling)) == _relabel(step(circuit), relabelling)


def _pass_step(transpiler_pass: TranspilerPass, basis):
    return lambda circuit: transpiler_pass.run(circuit, TranspileContext.for_target(_BASES[basis].properties))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), level=st.sampled_from([1, 2, 3]), basis=st.sampled_from(sorted(_BASES)))
def test_post_routing_passes_commute_with_relabelling(data, level, basis):
    circuit = data.draw(circuits())
    relabelling = data.draw(relabellings(circuit.num_qubits))
    current = circuit
    for transpiler_pass in _post_routing_passes(level):
        step = _pass_step(transpiler_pass, basis)
        _assert_equivariant(step, circuit, relabelling)
        _assert_equivariant(step, current, relabelling)
        current = step(current)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), router=st.sampled_from([SabreRoutingPass, BasicRoutingPass]))
def test_swap_free_orders_commute_with_relabelling(data, router):
    circuit = data.draw(circuits())
    relabelling = data.draw(relabellings(circuit.num_qubits))
    _assert_equivariant(router().swap_free_order, circuit, relabelling)


class _FlushRunsByQubitIndex(TranspilerPass):
    """Merges nothing, but flushes a 2-qubit gate's pending 1-qubit runs in qubit-index order.

    ``Optimize1QubitGates`` flushes them in operand order; sorting by index
    is the kind of change that breaks relabel equivariance.
    """

    def run(self, circuit: QuantumCircuit, context: TranspileContext) -> QuantumCircuit:
        result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        pending: Dict[int, List[Instruction]] = {}
        for instruction in circuit:
            if not instruction.is_directive and len(instruction.qubits) == 1:
                pending.setdefault(instruction.qubits[0], []).append(instruction)
                continue
            for qubit in sorted(instruction.qubits):
                for gate in pending.pop(qubit, []):
                    result.append(gate)
            result.append(instruction)
        for qubit in list(pending):
            for gate in pending.pop(qubit):
                result.append(gate)
        return result


def test_a_pass_that_orders_by_qubit_index_fails_the_check():
    circuit = QuantumCircuit(2, 2)
    circuit.h(0).x(1).cx(1, 0).measure(0, 0).measure(1, 1)
    reversing = {"mapping": [3, 1], "size": 4}
    step = _pass_step(_FlushRunsByQubitIndex(), ("u1", "u2", "u3", "cx"))
    _assert_equivariant(step, circuit, {"mapping": [1, 3], "size": 4})
    with pytest.raises(AssertionError):
        _assert_equivariant(step, circuit, reversing)
