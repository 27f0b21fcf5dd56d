"""Goldens for the QRIO facade's submission paths.

Every facade route runs the same Fig. 2 cycle: a cold job submitted with
``submit_form`` and run with ``run_job`` leaves the same device, counts,
logs, cluster events and manifest as one run with ``submit_and_run``.  The
queue-ordering table is the one ``benchmarks/bench_ablation_queue_policies.py``
reports for its three devices.  Both tables were captured when
``submit_form`` + ``run_job`` still re-parsed the manifest's QASM and the
queue was its own ``JobQueue``.
"""

import sys

import pytest

from repro.backends import line_topology, uniform_error_device
from repro.circuits import bernstein_vazirani, ghz, grover_search, qft, repetition_code_encoder
from repro.cluster import JobPhase
from repro.core import QRIO
from repro.qasm import dump_qasm, parse_qasm
from repro.utils.exceptions import ClusterError, ServiceError

COLD_EVENTS = ["JobSubmitted", "Filtered", "Ranked", "Bound", "Pulled", "Executed", "Released"]

#: name -> (circuit, fidelity threshold, device, counts, "Scheduled" log score, transpile log)
GOLDEN = {
    "gold-ghz_4": (
        ghz(4), 0.9, "premium",
        {"0000": 26, "0001": 2, "0010": 1, "1110": 2, "1111": 33},
        "0.0139", "3 two-qubit gates, 0 SWAPs inserted",
    ),
    "gold-qft_4": (
        qft(4, measure=True), 0.7, "premium",
        {"0000": 3, "0001": 1, "0010": 3, "0011": 6, "0100": 2, "0101": 3, "0110": 5, "0111": 2,
         "1000": 2, "1001": 7, "1010": 5, "1011": 5, "1100": 1, "1101": 4, "1110": 3, "1111": 12},
        "0.0204", "39 two-qubit gates, 7 SWAPs inserted",
    ),
    "gold-grover_3": (
        grover_search(3), 0.8, "economy",
        {"000": 7, "001": 9, "010": 8, "011": 11, "100": 13, "101": 2, "110": 6, "111": 8},
        "0.0214", "36 two-qubit gates, 8 SWAPs inserted",
    ),
}


def _line_testbed():
    return [
        uniform_error_device("premium", line_topology(6), 6, two_qubit_error=0.02,
                             one_qubit_error=0.004, readout_error=0.01),
        uniform_error_device("standard", line_topology(6), 6, two_qubit_error=0.08,
                             one_qubit_error=0.01, readout_error=0.03),
        uniform_error_device("economy", line_topology(6), 6, two_qubit_error=0.2,
                             one_qubit_error=0.03, readout_error=0.06),
    ]


def _form(qrio, name, circuit, threshold=0.8, cpu_millicores=500):
    return (
        qrio.new_submission_form()
        .choose_circuit(circuit)
        .set_job_details(name, f"qrio/{name}", num_qubits=circuit.num_qubits,
                         cpu_millicores=cpu_millicores, shots=64)
        .request_fidelity(threshold)
    )


def _manifest(name, qubits):
    return {
        "apiVersion": "batch/v1",
        "kind": "Job",
        "metadata": {"name": name, "labels": {"qrio.io/strategy": "fidelity"}},
        "spec": {
            "template": {
                "spec": {
                    "containers": [
                        {
                            "name": name,
                            "image": f"qrio/{name}:latest",
                            "resources": {
                                "requests": {"cpu": "500m", "memory": "512Mi", "qrio.io/qubits": str(qubits)}
                            },
                        }
                    ],
                    "restartPolicy": "Never",
                }
            },
            "qrioDeviceConstraints": {
                "max_avg_two_qubit_error": None,
                "max_avg_readout_error": None,
                "min_avg_t1": None,
                "min_avg_t2": None,
            },
            "qrioShots": 64,
        },
    }


class TestColdPathGolden:
    @pytest.mark.parametrize("route", ["submit_form+run_job", "submit_and_run"])
    def test_every_route_leaves_the_same_fig2_trail(self, route):
        qrio = QRIO(cluster_name="golden", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        for name, (circuit, threshold, device, counts, score, transpiled) in GOLDEN.items():
            form = _form(qrio, name, circuit, threshold)
            if route == "submit_and_run":
                outcome = qrio.submit_and_run(form)
            else:
                qrio.submit_form(form)
                outcome = qrio.run_job(name)
            assert outcome.succeeded and outcome.device == device
            assert outcome.num_filtered == 3 and len(outcome.scores) == 3
            assert outcome.result.counts == counts
            assert qrio.job_logs(name) == [
                f"Image qrio/{name}:latest pushed to registry",
                "Job manifest created and sent to the QRIO scheduler",
                f"Scheduled on node 'node-{device}' with score {score}",
                "Container started",
                f"Transpiled to {device}: {transpiled}",
                f"Execution finished: 64 shots, {len(counts)} distinct outcomes",
            ]
            assert [event.kind for event in qrio.cluster.events.all() if event.subject == name] == COLD_EVENTS
            assert outcome.job.spec.to_manifest() == _manifest(name, circuit.num_qubits)
            assert outcome.job.spec.circuit_qasm == dump_qasm(circuit)


#: Ordering -> (job, device) in dispatch order, for the ablation's three devices at seed 2024.
QUEUE_ORDERINGS = {
    "fifo": [("ghz_4-q", "standard"), ("rep_5-q", "premium"), ("bv_5-q", "premium")],
    "smallest_first": [("ghz_4-q", "standard"), ("rep_5-q", "premium"), ("bv_5-q", "premium")],
    "tightest_fidelity_first": [("rep_5-q", "premium"), ("bv_5-q", "premium"), ("ghz_4-q", "standard")],
}


def _ablation_orchestrator():
    qrio = QRIO(cluster_name="ablation-queue", canary_shots=128, seed=2024)
    qrio.register_devices(
        [
            uniform_error_device("premium", line_topology(12), 12, two_qubit_error=0.02,
                                 one_qubit_error=0.004, readout_error=0.01),
            uniform_error_device("standard", line_topology(12), 12, two_qubit_error=0.12,
                                 one_qubit_error=0.02, readout_error=0.05),
            uniform_error_device("economy", line_topology(12), 12, two_qubit_error=0.3,
                                 one_qubit_error=0.05, readout_error=0.1),
        ]
    )
    return qrio


#: Ordering -> priority of a (circuit, fidelity threshold) job.
PRIORITIES = {
    "fifo": lambda circuit, threshold: 0,
    "smallest_first": lambda circuit, threshold: -circuit.num_qubits,
    "tightest_fidelity_first": lambda circuit, threshold: round(1000 * threshold),
}


class TestQueueOrderings:
    @pytest.mark.parametrize("ordering", sorted(QUEUE_ORDERINGS))
    def test_ablation_orderings(self, ordering):
        qrio = _ablation_orchestrator()
        for circuit, threshold in (
            (ghz(4), 0.5),
            (repetition_code_encoder(5), 0.99),
            (bernstein_vazirani("1011"), 0.8),
        ):
            name = f"{circuit.name}-q"
            qrio.enqueue_form(
                qrio.new_submission_form()
                .choose_circuit(circuit)
                .set_job_details(name, f"qrio/{name}", num_qubits=circuit.num_qubits, shots=128)
                .request_fidelity(threshold),
                priority=PRIORITIES[ordering](circuit, threshold),
            )
        outcomes = qrio.drain_queue()
        assert [(outcome.job.name, outcome.device) for outcome in outcomes] == QUEUE_ORDERINGS[ordering]


class TestOneOutcome:
    """Every facade route reports a job through the same outcome builder."""

    @pytest.mark.parametrize("route", ["run_job", "submit_and_run"])
    def test_a_full_node_reports_saturated_on_every_route(self, route):
        qrio = QRIO(cluster_name="saturated", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed()[:1])
        qrio.submit_form(_form(qrio, "holder", ghz(3), cpu_millicores=4000))
        assert qrio.schedule_job("holder").device == "premium"
        form = _form(qrio, "waiter", ghz(3), cpu_millicores=4000)
        if route == "submit_and_run":
            outcome = qrio.submit_and_run(form)
            error = qrio.service().job("waiter").status().error
            assert error.startswith("saturated:") and "no feasible device" not in error
        else:
            qrio.submit_form(form)
            outcome = qrio.run_job("waiter")
        assert outcome.device is None and outcome.result is None
        assert outcome.saturated and outcome.num_filtered == 0

    def test_a_saturated_job_runs_once_capacity_frees(self):
        qrio = QRIO(cluster_name="saturated-retry", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed()[:1])
        qrio.submit_form(_form(qrio, "first", ghz(3), cpu_millicores=4000))
        qrio.submit_form(_form(qrio, "second", ghz(3), cpu_millicores=4000))
        qrio.schedule_job("first")
        assert qrio.run_job("second").saturated
        qrio.cluster.release("first")
        outcome = qrio.run_job("second")
        assert outcome.succeeded and outcome.device == "premium"
        kinds = [event.kind for event in qrio.cluster.events.all() if event.subject == "second"]
        assert kinds.count("JobSubmitted") == 1 and kinds.count("Unschedulable") == 1

    def test_run_job_refuses_a_job_schedule_job_bound(self):
        qrio = QRIO(cluster_name="bound", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        qrio.submit_form(_form(qrio, "bound-job", ghz(3)))
        assert qrio.schedule_job("bound-job").device is not None
        with pytest.raises(ClusterError, match="'bound-job'"):
            qrio.run_job("bound-job")

    def test_run_job_refuses_a_job_it_already_ran(self):
        qrio = QRIO(cluster_name="twice", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        qrio.submit_form(_form(qrio, "once", ghz(3)))
        assert qrio.run_job("once").succeeded
        with pytest.raises(ClusterError, match="'once'"):
            qrio.run_job("once")
        assert qrio._engine.submitted_spec("once") is None


class TestDrainQueue:
    def test_outcomes_and_callbacks_follow_dispatch_order(self):
        qrio = QRIO(cluster_name="drain-order", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        fired = []
        for index, priority in enumerate((0, 5, 0, 9, 5)):
            name = qrio.enqueue_form(_form(qrio, f"job-{index}", ghz(2 + index % 3)), priority=priority)
            qrio.service().job(name).add_done_callback(lambda handle: fired.append(handle.name))
        outcomes = qrio.drain_queue()
        order = ["job-3", "job-1", "job-4", "job-0", "job-2"]
        assert [outcome.job.name for outcome in outcomes] == order == fired
        assert all(outcome.succeeded for outcome in outcomes)
        assert qrio.drain_queue() == []

    def test_queued_jobs_enter_the_cluster_once(self):
        qrio = QRIO(cluster_name="drain-once", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        for index in range(3):
            qrio.enqueue_form(_form(qrio, f"once-{index}", ghz(3)))
        assert [job.phase for job in qrio.cluster.jobs()] == [JobPhase.PENDING] * 3
        qrio.drain_queue()
        submitted = [event.subject for event in qrio.cluster.events.all() if event.kind == "JobSubmitted"]
        assert submitted == ["once-0", "once-1", "once-2"]
        assert all(qrio._engine.submitted_spec(f"once-{index}") is None for index in range(3))

    def test_a_name_the_service_already_ran_is_refused(self):
        qrio = QRIO(cluster_name="drain-dup", canary_shots=64, seed=9)
        qrio.register_devices(_line_testbed())
        qrio.enqueue_form(_form(qrio, "dup", ghz(3)))
        qrio.drain_queue()
        with pytest.raises(ServiceError, match="already submitted"):
            qrio.enqueue_form(_form(qrio, "dup", ghz(3)))


def test_no_facade_route_parses_qasm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a facade route parsed QASM")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and vars(module).get("parse_qasm") is parse_qasm:
            monkeypatch.setattr(module, "parse_qasm", refuse)
    qrio = QRIO(cluster_name="no-parse", canary_shots=64, seed=9)
    qrio.register_devices(_line_testbed())
    qrio.submit_form(_form(qrio, "form-job", qft(3, measure=True)))
    assert qrio.run_job("form-job").succeeded
    assert qrio.submit_and_run(_form(qrio, "service-job", ghz(4))).succeeded
    qrio.enqueue_form(_form(qrio, "queued-job", grover_search(3)))
    assert all(outcome.succeeded for outcome in qrio.drain_queue())
