"""``place`` is the layout half of ``transpile``; ``swap_free_placeable`` is its relabel path without a circuit.

``place`` runs the virtual stage and the layout passes and stops, so its
layout is the ``initial_layout`` of a full ``transpile``.  Given that
layout, ``swap_free_placeable`` answers what the relabel path would compile
without building the relabelled circuit: the placeable on virtual qubits
when ``transpile`` would relabel it and both checks would pass, else
``None``.  It runs ``CheckMapPass``'s edge test on the placeable's pairs
through the layout, and ``GatesInBasisPass`` once per placeable.
"""

import pytest

from repro.backends import generate_fleet
from repro.circuits import QuantumCircuit
from repro.circuits.algorithms import hardware_efficient_ansatz
from repro.circuits.library import ghz, qft
from repro.transpiler import Layout, place, transpile, virtual_stage
from repro.transpiler.passes import BasisTranslation
from repro.transpiler.preset import swap_free_placeable
from repro.utils.exceptions import TranspilerError


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(seed=2024, limit=8)


def _star(leaves=4):
    circuit = QuantumCircuit(leaves + 1, name=f"star_{leaves}")
    for leaf in range(1, leaves + 1):
        circuit.h(0).cx(0, leaf)
    return circuit.measure_all()


CIRCUITS = [
    lambda: hardware_efficient_ansatz(4, layers=2, parameters=[0.3] * 12, measure=True),
    lambda: ghz(5),
    lambda: qft(4, measure=True),
    _star,
]


def _relabel(circuit, layout, width):
    mapping = layout.as_list(circuit.num_qubits)
    return [(inst.name, tuple(mapping[q] for q in inst.qubits), inst.clbits, inst.params) for inst in circuit], width


def _instructions(circuit):
    return [(inst.name, inst.qubits, inst.clbits, inst.params) for inst in circuit], circuit.num_qubits


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("make", CIRCUITS, ids=["hea_4", "ghz_5", "qft_4", "star_4"])
def test_place_is_the_layout_transpile_chooses(fleet, make, level):
    for backend in fleet:
        circuit = make()
        virtual = virtual_stage(circuit, backend, level)
        expected = transpile(circuit, backend, optimization_level=level).initial_layout
        assert place(virtual, backend, level) == expected
        assert place(circuit, backend, level) == expected


@pytest.mark.parametrize("make", CIRCUITS, ids=["hea_4", "ghz_5", "qft_4", "star_4"])
def test_swap_free_placeable_relabels_to_the_compiled_circuit(fleet, make):
    seen = set()
    for backend in fleet:
        virtual = virtual_stage(make(), backend)
        layout = place(virtual, backend)
        placeable = swap_free_placeable(virtual, layout, backend)
        compiled = transpile(virtual, backend)
        seen.add(placeable is None)
        if placeable is None:
            assert not compiled.relabelled
            continue
        assert compiled.relabelled and compiled.swaps_inserted == 0
        assert placeable is virtual.post_routed()
        assert placeable.num_two_qubit_gates() == compiled.two_qubit_gate_count()
        assert _relabel(placeable, layout, backend.num_qubits) == _instructions(compiled.circuit)
    if make is _star:
        assert seen == {True, False}


def test_place_rejects_a_virtual_circuit_made_for_another_level(fleet):
    virtual = virtual_stage(ghz(3), fleet[0], optimization_level=1)
    with pytest.raises(TranspilerError, match="optimization level 1"):
        place(virtual, fleet[0], optimization_level=2)


class TestChecksOnThePlacePath:
    def test_a_gate_outside_the_basis_raises_what_transpile_raises(self, fleet, monkeypatch):
        # With basis translation disabled a cz reaches the checks untranslated.
        monkeypatch.setattr(BasisTranslation, "run", lambda self, circuit, context: circuit)
        circuit = QuantumCircuit(2, 2, name="cz_pair")
        circuit.h(0).cz(0, 1).measure_all()
        backend = fleet[0]
        with pytest.raises(TranspilerError) as from_transpile:
            transpile(circuit, backend)
        virtual = virtual_stage(circuit, backend)
        layout = place(virtual, backend)
        with pytest.raises(TranspilerError) as from_place:
            swap_free_placeable(virtual, layout, backend)
        assert str(from_place.value) == str(from_transpile.value)
        assert "'cz' is not in the basis" in str(from_place.value)
        # A failed check memoises nothing: the next device raises again.
        assert virtual.post_routed() is None
        with pytest.raises(TranspilerError, match="'cz' is not in the basis"):
            swap_free_placeable(virtual, layout, backend)

    def test_the_basis_check_runs_once_per_placeable(self, fleet, monkeypatch):
        from repro.transpiler.passes import routing

        runs = []
        original = routing.GatesInBasisPass.run
        monkeypatch.setattr(routing.GatesInBasisPass, "run", lambda self, c, ctx: runs.append(c) or original(self, c, ctx))
        virtual = virtual_stage(ghz(4), fleet[0])
        placeables = [swap_free_placeable(virtual, place(virtual, backend), backend) for backend in fleet]
        assert any(placeable is not None for placeable in placeables)
        assert len(runs) == 1

    def test_a_placeable_pair_on_an_uncoupled_edge_takes_the_transpile_path(self, fleet):
        backend = fleet[0]
        virtual = virtual_stage(ghz(3), backend)
        layout = place(virtual, backend)
        placeable = swap_free_placeable(virtual, layout, backend)
        assert placeable is not None
        graph = backend.properties.graph()
        assert not graph.has_edge(layout.physical(0), layout.physical(2))
        # A placeable whose pairs are not the virtual circuit's: cx(0, 2)
        # lands on an uncoupled edge although the virtual pairs do not.
        tampered = placeable.copy()
        tampered.cx(0, 2)
        virtual._post_routed["sabre"] = (tampered, tuple(tampered.interaction_pairs()))
        assert swap_free_placeable(virtual, layout, backend) is None
        with pytest.raises(TranspilerError, match="violates the coupling map"):
            transpile(virtual, backend)

    def test_a_layout_that_needs_swaps_is_not_swap_free(self, fleet):
        backend = fleet[0]
        virtual = virtual_stage(ghz(3), backend)
        far = next(q for q in range(backend.num_qubits) if not backend.properties.graph().has_edge(0, q) and q)
        layout = Layout({0: 0, 1: far, 2: next(q for q in range(1, backend.num_qubits) if q != far)})
        assert swap_free_placeable(virtual, layout, backend) is None
        assert virtual.post_routed() is None
