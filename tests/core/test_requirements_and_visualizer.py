"""Tests for the requirements model and the visualizer (form, canvas, views)."""

import pytest

from repro.circuits import ghz
from repro.cluster import ClusterState
from repro.core import QRIOVisualizer, TopologyCanvas, UserRequirements
from repro.core.visualizer import JobSubmissionForm
from repro.qasm import dump_qasm, parse_qasm
from repro.utils.exceptions import RequirementsError, VisualizerError


class TestUserRequirements:
    def test_fidelity_requirements(self):
        requirements = UserRequirements(
            job_name="job", image_name="img", num_qubits=4, fidelity_threshold=0.8
        )
        assert requirements.strategy == "fidelity"
        assert requirements.device_constraints().is_unconstrained()

    def test_topology_requirements(self):
        requirements = UserRequirements(
            job_name="job", image_name="img", num_qubits=3, topology_edges=[(0, 1), (1, 2)]
        )
        assert requirements.strategy == "topology"

    def test_missing_strategy_rejected(self):
        with pytest.raises(RequirementsError):
            UserRequirements(job_name="job", image_name="img", num_qubits=2)

    def test_both_strategies_rejected(self):
        with pytest.raises(RequirementsError):
            UserRequirements(
                job_name="job", image_name="img", num_qubits=2,
                fidelity_threshold=0.8, topology_edges=[(0, 1)],
            )

    def test_topology_edges_validated(self):
        with pytest.raises(RequirementsError):
            UserRequirements(job_name="j", image_name="i", num_qubits=2, topology_edges=[(0, 5)])
        with pytest.raises(RequirementsError):
            UserRequirements(job_name="j", image_name="i", num_qubits=2, topology_edges=[(1, 1)])

    def test_to_job_spec_carries_metadata(self):
        requirements = UserRequirements(
            job_name="job", image_name="img", num_qubits=4, fidelity_threshold=0.8,
            max_avg_two_qubit_error=0.2,
        )
        spec = requirements.to_job_spec(dump_qasm(ghz(4)), "img:latest")
        assert spec.metadata["fidelity_threshold"] == 0.8
        assert spec.constraints.max_avg_two_qubit_error == 0.2
        assert spec.strategy == "fidelity"


class TestTopologyCanvas:
    def test_draw_and_erase(self):
        canvas = TopologyCanvas(4)
        canvas.draw_edge(0, 1).draw_edge(1, 0).draw_edge(2, 3)
        assert canvas.edges() == [(0, 1), (2, 3)]
        canvas.erase_edge(2, 3)
        assert canvas.edges() == [(0, 1)]

    def test_invalid_edges_rejected(self):
        canvas = TopologyCanvas(3)
        with pytest.raises(VisualizerError):
            canvas.draw_edge(0, 0)
        with pytest.raises(VisualizerError):
            canvas.draw_edge(0, 7)

    def test_topology_circuit_models_edges_as_cnots(self):
        canvas = TopologyCanvas(4).load_edges([(0, 1), (1, 2), (2, 3)])
        circuit = canvas.to_topology_circuit()
        assert circuit.count_ops() == {"cx": 3}
        assert circuit.interaction_pairs() == {(0, 1): 1, (1, 2): 1, (2, 3): 1}

    def test_empty_canvas_rejected(self):
        with pytest.raises(VisualizerError):
            TopologyCanvas(3).to_topology_circuit()

    def test_render_lists_neighbours(self):
        canvas = TopologyCanvas(3).load_edges([(0, 1)])
        rendered = canvas.render()
        assert "q0: 1" in rendered
        assert "(isolated)" in rendered


class TestJobSubmissionForm:
    def _details(self, form):
        return form.set_job_details("form-job", "qrio/form-job", num_qubits=4, shots=128)

    def test_fidelity_submission_payload_matches_table1(self):
        form = self._details(JobSubmissionForm().choose_circuit(ghz(4))).request_fidelity(0.9)
        payload = form.submit().as_dict()
        assert payload["strategy"] == "fidelity"
        assert payload["fidelity_threshold"] == 0.9
        assert "circuit_qasm" in payload and payload["circuit_qasm"]
        assert "topology_qasm" not in payload

    def test_topology_submission_payload_matches_table1(self):
        canvas = TopologyCanvas(4).load_edges([(0, 1), (1, 2)])
        form = self._details(JobSubmissionForm().choose_circuit(ghz(4))).request_topology(canvas)
        payload = form.submit().as_dict()
        assert payload["strategy"] == "topology"
        assert "topology_qasm" in payload
        assert "fidelity_threshold" not in payload
        topology = parse_qasm(payload["topology_qasm"])
        assert topology.count_ops() == {"cx": 2}

    def test_qasm_string_input_accepted(self):
        qasm = dump_qasm(ghz(4))
        form = self._details(JobSubmissionForm().choose_circuit(qasm)).request_fidelity(0.5)
        assert form.submit().circuit_qasm == qasm
        assert form.circuit == parse_qasm(qasm)

    def test_missing_circuit_rejected(self):
        form = JobSubmissionForm().set_job_details("x", "img", num_qubits=2)
        form.request_fidelity(0.9)
        with pytest.raises(VisualizerError):
            form.submit()

    def test_missing_details_rejected(self):
        form = JobSubmissionForm().choose_circuit(ghz(2)).request_fidelity(0.9)
        with pytest.raises(VisualizerError):
            form.submit()

    def test_invalid_circuit_type_rejected(self):
        with pytest.raises(VisualizerError):
            JobSubmissionForm().choose_circuit(42)


class TestVisualizerViews:
    def test_front_page_lists_nodes(self, small_fleet):
        cluster = ClusterState()
        cluster.register_backends(small_fleet[:3])
        page = QRIOVisualizer(cluster).render_front_page()
        for backend in small_fleet[:3]:
            assert backend.name in page

    def test_job_view_before_completion(self, small_fleet):
        cluster = ClusterState()
        cluster.register_backends(small_fleet[:1])
        from repro.cluster import JobSpec

        cluster.submit_job(JobSpec(name="waiting", image="img", circuit_qasm=dump_qasm(ghz(2))))
        view = QRIOVisualizer(cluster).render_job_view("waiting")
        assert "Pending" in view
        assert "not scheduled yet" in view
