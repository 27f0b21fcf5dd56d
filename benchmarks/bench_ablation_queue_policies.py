"""Ablation — job-queue orderings (the paper's future-work extension).

The published prototype schedules one job at a time; this repo adds a job
queue (Section 5, future-work item 4): ``QRIO.enqueue_form`` queues a job on
the facade's service, whose dispatch order is each job's
``JobRequirements.priority`` (higher first, ties in submission order).  The
ablation submits a small batch of jobs with mixed fidelity demands and sizes
under three orderings, each expressed as a priority, and reports which
device each job lands on, illustrating why ordering matters once multiple
jobs compete for scarce high-quality hardware.
"""

from __future__ import annotations

from repro.backends import line_topology, uniform_error_device
from repro.circuits import bernstein_vazirani, ghz, repetition_code_encoder
from repro.core import QRIO

#: Ordering -> priority of a (circuit, fidelity threshold) job.
ORDERINGS = {
    "fifo": lambda circuit, threshold: 0,
    "tightest_fidelity_first": lambda circuit, threshold: round(1000 * threshold),
    "smallest_first": lambda circuit, threshold: -circuit.num_qubits,
}


def _build_orchestrator(ordering: str, seed: int) -> QRIO:
    qrio = QRIO(cluster_name=f"ablation-queue-{ordering}", canary_shots=128, seed=seed)
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


def _enqueue_batch(qrio: QRIO, ordering: str) -> None:
    for circuit, threshold in (
        (ghz(4), 0.5),
        (repetition_code_encoder(5), 0.99),
        (bernstein_vazirani("1011"), 0.8),
    ):
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(f"{circuit.name}-q", f"qrio/{circuit.name}-q", num_qubits=circuit.num_qubits, shots=128)
            .request_fidelity(threshold)
        )
        qrio.enqueue_form(form, priority=ORDERINGS[ordering](circuit, threshold))


def test_ablation_queue_policies(benchmark, bench_config):
    """Drain the same batch under FIFO, tightest-fidelity-first and smallest-first ordering."""

    def run_all_orderings():
        assignments = {}
        for ordering in ORDERINGS:
            qrio = _build_orchestrator(ordering, seed=bench_config.seed)
            _enqueue_batch(qrio, ordering)
            outcomes = qrio.drain_queue()
            assignments[ordering] = [(outcome.job.name, outcome.device) for outcome in outcomes]
        return assignments

    assignments = benchmark.pedantic(run_all_orderings, rounds=1, iterations=1)
    print()
    for ordering, picks in assignments.items():
        print(f"{ordering:>26s}: " + ", ".join(f"{job}->{device}" for job, device in picks))
    # Every ordering schedules every job somewhere.
    for picks in assignments.values():
        assert len(picks) == 3
        assert all(device is not None for _, device in picks)
    # Under tightest-fidelity-first the strictest job (rep, 0.99) is scheduled first.
    tightest_order = [job for job, _ in assignments["tightest_fidelity_first"]]
    assert tightest_order[0].startswith("rep")
