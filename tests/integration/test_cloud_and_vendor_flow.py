"""Integration tests spanning the vendor console, calibration drift and the cloud simulator."""

from __future__ import annotations

import pytest

from repro.backends import named_topology_device
from repro.circuits import ghz
from repro.cloud import (
    ArrivalSpec,
    CalibrationDriftModel,
    CloudSimulationConfig,
    CloudSimulator,
    generate_trace,
)
from repro.core import QRIO, DeviceSpec
from repro.policies import resolve_policy
from repro.workloads import clifford_suite


def _fleet():
    return [
        named_topology_device("grid", 9, two_qubit_error=0.02, one_qubit_error=0.003, readout_error=0.01, name="flow_good"),
        named_topology_device("line", 9, two_qubit_error=0.20, one_qubit_error=0.020, readout_error=0.08, name="flow_bad"),
    ]


class TestVendorDrivenRescheduling:
    """Calibration drift pushed through the vendor console changes QRIO's choice."""

    def test_degrading_the_best_device_moves_the_next_job(self):
        qrio = QRIO(cluster_name="flow", canary_shots=128, seed=11)
        console = qrio.vendor_console()
        good, bad = _fleet()
        console.register_backend(good)
        console.register_backend(bad)

        first = qrio.submit_and_run(_form(qrio, "flow-before"))
        assert first.succeeded
        assert first.device == "flow_good"

        # A catastrophic calibration cycle: multiply the good device's errors
        # far past the bad device's level and push the update through the
        # vendor console (which refreshes labels and the meta server copy).
        payload = good.properties.to_dict()
        payload["two_qubit_error"] = {key: 0.65 for key in payload["two_qubit_error"]}
        payload["readout_error"] = {key: 0.30 for key in payload["readout_error"]}
        degraded = type(good.properties).from_dict(payload)
        console.update_calibration("flow_good", degraded)

        second = qrio.submit_and_run(_form(qrio, "flow-after"))
        assert second.succeeded
        assert second.device == "flow_bad"

    def test_cordoned_device_is_never_chosen(self):
        qrio = QRIO(cluster_name="flow-cordon", canary_shots=128, seed=12)
        console = qrio.vendor_console()
        good, bad = _fleet()
        console.register_backend(good)
        console.register_backend(bad)
        console.cordon("flow_good")
        outcome = qrio.submit_and_run(_form(qrio, "flow-cordoned"))
        assert outcome.succeeded
        assert outcome.device == "flow_bad"


class TestCloudSimulationOnDriftedFleet:
    """The cloud simulator composes with the drift model and spec-built devices."""

    def test_policy_comparison_survives_a_calibration_cycle(self):
        spec_device = DeviceSpec(
            name="flow_spec_ring8",
            num_qubits=8,
            coupling_map=[(i, (i + 1) % 8) for i in range(8)],
            two_qubit_error=0.06,
            one_qubit_error=0.006,
            readout_error=0.03,
        ).to_backend()
        fleet = _fleet() + [spec_device]
        drifted = [CalibrationDriftModel().drift_backend(backend, seed=index) for index, backend in enumerate(fleet)]
        trace = generate_trace(
            ArrivalSpec(rate_per_hour=600.0, num_jobs=12, num_users=3, shots=256, suite=clifford_suite()),
            seed=21,
        )
        config = CloudSimulationConfig(fidelity_report="esp", seed=21)
        before = CloudSimulator(fleet, resolve_policy("fidelity:queue_weight=0.3,seed=21"), config).run(trace)
        after = CloudSimulator(drifted, resolve_policy("fidelity:queue_weight=0.3,seed=21"), config).run(trace)
        assert len(before.records) == len(after.records) == 12
        assert 0.0 <= before.mean_fidelity() <= 1.0
        assert 0.0 <= after.mean_fidelity() <= 1.0
        # Drift changes error rates, so the reported fidelity must differ.
        assert before.mean_fidelity() != pytest.approx(after.mean_fidelity())


def _form(qrio: QRIO, job_name: str):
    circuit = ghz(4)
    return (
        qrio.new_submission_form()
        .choose_circuit(circuit)
        .set_job_details(job_name=job_name, image_name=f"qrio/{job_name}", num_qubits=circuit.num_qubits, shots=128)
        .request_fidelity(0.9)
    )
