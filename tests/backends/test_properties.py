"""Tests for backend calibration properties."""

import pickle

import networkx as nx
import pytest

from repro.backends import BackendProperties, line_topology
from repro.utils.exceptions import BackendError


@pytest.fixture
def simple_properties() -> BackendProperties:
    return BackendProperties(
        name="demo",
        num_qubits=3,
        coupling_map=line_topology(3),
        two_qubit_error={(0, 1): 0.1, (1, 2): 0.3},
        one_qubit_error={0: 0.01, 1: 0.02, 2: 0.03},
        readout_error={0: 0.05, 1: 0.15, 2: 0.05},
        readout_length={q: 30.0 for q in range(3)},
        t1={q: 100e3 for q in range(3)},
        t2={q: 50e3 for q in range(3)},
    )


class TestValidation:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(BackendError):
            BackendProperties(name="bad", num_qubits=2, coupling_map=[(0, 5)])

    def test_error_for_uncoupled_edge_rejected(self):
        with pytest.raises(BackendError):
            BackendProperties(
                name="bad",
                num_qubits=3,
                coupling_map=[(0, 1)],
                two_qubit_error={(1, 2): 0.1},
            )

    def test_error_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BackendProperties(
                name="bad",
                num_qubits=2,
                coupling_map=[(0, 1)],
                two_qubit_error={(0, 1): 1.2},
            )

    def test_edges_are_normalised_and_sorted(self):
        properties = BackendProperties(name="ok", num_qubits=3, coupling_map=[(2, 1), (1, 0)])
        assert properties.coupling_map == [(0, 1), (1, 2)]


class TestAggregates(object):
    def test_average_two_qubit_error(self, simple_properties):
        assert simple_properties.average_two_qubit_error() == pytest.approx(0.2)

    def test_average_readout_error(self, simple_properties):
        assert simple_properties.average_readout_error() == pytest.approx((0.05 + 0.15 + 0.05) / 3)

    def test_average_t1_t2(self, simple_properties):
        assert simple_properties.average_t1() == pytest.approx(100e3)
        assert simple_properties.average_t2() == pytest.approx(50e3)

    def test_edge_error_falls_back_to_worst(self, simple_properties):
        assert simple_properties.edge_error(0, 2) == pytest.approx(0.3)

    def test_neighbours(self, simple_properties):
        assert simple_properties.neighbours(1) == [0, 2]

    def test_is_connected(self, simple_properties):
        assert simple_properties.is_connected()

    def test_label_summary_keys(self, simple_properties):
        summary = simple_properties.label_summary()
        assert set(summary) == {"qubits", "avg_two_qubit_error", "avg_readout_error", "avg_t1", "avg_t2"}


class TestSerialisation:
    def test_dict_roundtrip(self, simple_properties):
        recovered = BackendProperties.from_dict(simple_properties.to_dict())
        assert recovered == simple_properties or recovered.to_dict() == simple_properties.to_dict()

    def test_json_roundtrip(self, simple_properties):
        recovered = BackendProperties.from_json(simple_properties.to_json())
        assert recovered.to_dict() == simple_properties.to_dict()

    def test_malformed_payload_rejected(self):
        with pytest.raises(BackendError):
            BackendProperties.from_dict({"name": "x"})

    def test_noise_model_conversion(self, simple_properties):
        model = simple_properties.to_noise_model()
        assert model.gate_error((0, 1)) == pytest.approx(0.1)
        assert model.gate_error((1,)) == pytest.approx(0.02)


class TestSharedGraph:
    def test_one_frozen_graph_per_coupling_map(self, simple_properties):
        graph = simple_properties.graph()
        assert simple_properties.graph() is graph
        assert nx.is_frozen(graph)
        with pytest.raises(nx.NetworkXError):
            graph.add_edge(0, 2)
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_a_changed_coupling_map_gets_a_new_graph(self, simple_properties):
        graph = simple_properties.graph()
        simple_properties.coupling_map.append((0, 2))
        rebuilt = simple_properties.graph()
        assert rebuilt is not graph
        assert sorted(rebuilt.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_an_editable_copy_does_not_touch_the_shared_graph(self, simple_properties):
        copy = nx.Graph(simple_properties.graph())
        copy.add_edge(0, 2)
        copy[0][1]["weight"] = 1.0
        assert sorted(simple_properties.graph().edges(data=True)) == [(0, 1, {}), (1, 2, {})]

    def test_properties_with_a_graph_pickle_and_compare_equal(self, simple_properties):
        simple_properties.graph()
        restored = pickle.loads(pickle.dumps(simple_properties))
        assert restored == simple_properties
        assert sorted(restored.graph().edges()) == [(0, 1), (1, 2)]
