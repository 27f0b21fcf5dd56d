"""Tests for the vendor console and the vendor-neutral device spec."""

from __future__ import annotations

import json

import pytest

from repro.backends import BackendProperties, line_topology, named_topology_device
from repro.circuits import ghz
from repro.core import QRIO, DeviceSpec, VendorConsole
from repro.utils.exceptions import BackendError, ClusterError, MetaServerError


def _spec(name: str = "acme_q5", num_qubits: int = 5) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        num_qubits=num_qubits,
        coupling_map=line_topology(num_qubits),
        two_qubit_error=0.04,
        one_qubit_error=0.004,
        readout_error=0.03,
    )


class TestDeviceSpec:
    def test_to_backend_broadcasts_aggregates(self):
        backend = _spec().to_backend()
        properties = backend.properties
        assert properties.num_qubits == 5
        assert properties.average_two_qubit_error() == pytest.approx(0.04)
        assert properties.average_readout_error() == pytest.approx(0.03)
        assert set(properties.one_qubit_error.values()) == {0.004}
        assert len(properties.coupling_map) == 4

    def test_overrides_take_precedence(self):
        spec = _spec()
        spec.edge_overrides["0-1"] = 0.2
        spec.readout_overrides[3] = 0.25
        properties = spec.to_backend().properties
        assert properties.two_qubit_error[(0, 1)] == pytest.approx(0.2)
        assert properties.two_qubit_error[(1, 2)] == pytest.approx(0.04)
        assert properties.readout_error[3] == pytest.approx(0.25)

    def test_dict_and_json_round_trip(self):
        spec = _spec("roundtrip_q4", 4)
        rebuilt = DeviceSpec.from_json(json.dumps(spec.to_dict()))
        assert rebuilt.name == spec.name
        assert rebuilt.num_qubits == spec.num_qubits
        assert rebuilt.to_backend().properties.to_dict() == spec.to_backend().properties.to_dict()

    def test_rejects_missing_fields_and_bad_values(self):
        with pytest.raises(BackendError):
            DeviceSpec.from_dict({"name": "broken"})
        with pytest.raises(BackendError):
            DeviceSpec(name="no_edges", num_qubits=3, coupling_map=[])


class TestVendorOnboarding:
    def test_register_spec_adds_node_and_meta_copy(self):
        qrio = QRIO(seed=1)
        console = qrio.vendor_console()
        node = console.register_spec(_spec())
        assert node.backend.name == "acme_q5"
        assert "acme_q5" in [backend.name for backend in qrio.devices()]
        assert qrio.meta_server.backend("acme_q5").num_qubits == 5

    def test_register_payload_round_trip(self):
        qrio = QRIO(seed=1)
        console = VendorConsole(qrio)
        console.register_payload(_spec("payload_q4", 4).to_dict())
        assert qrio.meta_server.backend("payload_q4").num_qubits == 4

    def test_register_backend_file(self, tmp_path):
        device = named_topology_device("ring", 4, two_qubit_error=0.05, one_qubit_error=0.01, readout_error=0.02, name="filed")
        path = device.write_backend_py(tmp_path)
        qrio = QRIO(seed=1)
        node = qrio.vendor_console().register_backend_file(path)
        assert node.backend.name == "filed"
        assert node.backend.properties.average_two_qubit_error() == pytest.approx(0.05)


class TestNodeLifecycle:
    def _deployment(self):
        qrio = QRIO(seed=2)
        console = qrio.vendor_console()
        console.register_spec(_spec("alpha_q5"))
        console.register_spec(_spec("beta_q5"))
        return qrio, console

    def test_cordon_removes_node_from_schedulable_set(self):
        qrio, console = self._deployment()
        console.cordon("alpha_q5")
        schedulable = [node.backend.name for node in qrio.cluster.schedulable_nodes()]
        assert "alpha_q5" not in schedulable
        assert "beta_q5" in schedulable

    def test_uncordon_restores_the_node(self):
        qrio, console = self._deployment()
        console.cordon("alpha_q5")
        console.uncordon("alpha_q5")
        schedulable = [node.backend.name for node in qrio.cluster.schedulable_nodes()]
        assert "alpha_q5" in schedulable

    def test_drain_reports_bound_jobs(self):
        qrio, console = self._deployment()
        assert console.drain("beta_q5") == []

    def test_decommission_removes_node_and_meta_copy(self):
        qrio, console = self._deployment()
        console.decommission("beta_q5")
        assert "beta_q5" not in [backend.name for backend in qrio.devices()]
        with pytest.raises(MetaServerError):
            qrio.meta_server.backend("beta_q5")

    def test_unknown_device_raises(self):
        _, console = self._deployment()
        with pytest.raises(ClusterError):
            console.cordon("missing_device")

    @pytest.mark.parametrize(
        "operation", ["cordon", "uncordon", "drain", "decommission", "update_calibration"]
    )
    def test_every_device_operation_rejects_an_unknown_device(self, operation):
        qrio, console = self._deployment()
        arguments = ("missing_device",)
        if operation == "update_calibration":
            arguments += (qrio.cluster.node_for_device("alpha_q5").backend.properties,)
        with pytest.raises(ClusterError, match="missing_device"):
            getattr(console, operation)(*arguments)
        assert len(qrio.cluster.schedulable_nodes()) == 2

    def test_a_decommissioned_device_is_unknown_to_the_console(self):
        _, console = self._deployment()
        console.decommission("beta_q5")
        with pytest.raises(ClusterError, match="beta_q5"):
            console.cordon("beta_q5")

    def test_a_decommissioned_device_can_be_registered_again(self):
        qrio, console = self._deployment()
        console.decommission("beta_q5")
        node = console.register_spec(_spec("beta_q5"))
        assert qrio.cluster.node_for_device("beta_q5") is node
        assert console.cordon("beta_q5") is node


class TestCalibrationUpdates:
    def _recalibrated(self, properties: BackendProperties, factor: float) -> BackendProperties:
        payload = properties.to_dict()
        payload["two_qubit_error"] = {
            key: min(0.99, rate * factor) for key, rate in payload["two_qubit_error"].items()
        }
        return BackendProperties.from_dict(payload)

    def test_update_refreshes_labels_and_meta_server(self):
        qrio = QRIO(seed=3)
        console = qrio.vendor_console()
        node = console.register_spec(_spec("drifty_q5"))
        before = node.labels.avg_two_qubit_error
        worse = self._recalibrated(node.backend.properties, factor=3.0)
        console.update_calibration("drifty_q5", worse)
        assert node.labels.avg_two_qubit_error == pytest.approx(before * 3.0, rel=1e-6)
        assert qrio.meta_server.backend("drifty_q5").properties.average_two_qubit_error() == pytest.approx(
            before * 3.0, rel=1e-6
        )

    def test_update_rejects_name_and_size_changes(self):
        qrio = QRIO(seed=3)
        console = qrio.vendor_console()
        node = console.register_spec(_spec("fixed_q5"))
        renamed = node.backend.properties.to_dict()
        renamed["name"] = "other_name"
        with pytest.raises(ClusterError):
            console.update_calibration("fixed_q5", BackendProperties.from_dict(renamed))
        other_size = _spec("fixed_q5", 4).to_backend().properties
        with pytest.raises(ClusterError):
            console.update_calibration("fixed_q5", other_size)

    def test_update_invalidates_cached_scores(self):
        qrio = QRIO(seed=4, canary_shots=128)
        console = qrio.vendor_console()
        console.register_spec(_spec("scored_q5"))
        submitted = qrio.submit_fidelity_job(ghz(3), fidelity_threshold=0.9, job_name="cache-probe")
        first = qrio.meta_server.score("cache-probe", "scored_q5")
        # Degrade the device dramatically; the cached score must not be reused.
        degraded = self._recalibrated(console._node_for_device("scored_q5").backend.properties, factor=10.0)
        console.update_calibration("scored_q5", degraded)
        second = qrio.meta_server.score("cache-probe", "scored_q5")
        assert submitted.job.name == "cache-probe"
        assert second != pytest.approx(first)
        assert second > first  # lower scores are better; the degraded device scores worse

    def test_update_invalidates_cached_topology_scores(self):
        qrio = QRIO(seed=4)
        console = qrio.vendor_console()
        console.register_spec(_spec("mapped_q5"))
        submitted = qrio.submit_topology_job(ghz(3), [(0, 1), (1, 2)], job_name="topology-probe")
        first = qrio.meta_server.score("topology-probe", "mapped_q5")
        # The embedding cost must be re-derived from the degraded calibration.
        degraded = self._recalibrated(console._node_for_device("mapped_q5").backend.properties, factor=10.0)
        console.update_calibration("mapped_q5", degraded)
        second = qrio.meta_server.score("topology-probe", "mapped_q5")
        assert submitted.job.name == "topology-probe"
        assert second != pytest.approx(first)
        assert second > first


class TestFleetReport:
    def test_report_lists_devices_and_status(self):
        qrio = QRIO(seed=5)
        console = qrio.vendor_console()
        console.register_spec(_spec("report_a", 4))
        console.register_spec(_spec("report_b", 5))
        console.cordon("report_b")
        report = console.fleet_report()
        assert "report_a" in report
        assert "report_b" in report
        assert "Cordoned" in report
        summary = console.fleet_summary()
        assert [row["device"] for row in summary] == ["report_a", "report_b"]

    def test_empty_fleet_report(self):
        qrio = QRIO(seed=6)
        report = qrio.vendor_console().fleet_report()
        assert "no devices" in report
