#!/usr/bin/env python3
"""Multi-job scheduling through the job queue (the paper's future-work item 4).

The published QRIO prototype schedules one request at a time; this example
exercises the queue extension: several users enqueue jobs with different
fidelity demands and circuit sizes, and the orchestrator drains the queue
under two orderings (FIFO vs tightest-fidelity-first), showing how ordering
affects which job gets the scarce high-fidelity devices.  An ordering is a
job priority: the queue dispatches higher priorities first and equal ones in
submission order.

Run with:  python examples/multi_job_queue.py
"""

from repro import QRIO, generate_fleet
from repro.circuits import bernstein_vazirani, ghz, repetition_code_encoder

#: Ordering -> priority of a job with a given fidelity threshold.
ORDERINGS = {
    "fifo": lambda threshold: 0,
    "tightest_fidelity_first": lambda threshold: round(1000 * threshold),
}


def submit_workload(qrio: QRIO, ordering: str) -> list:
    """Enqueue three jobs with different demands; return their names."""
    jobs = []
    for circuit, threshold in (
        (ghz(4), 0.6),
        (repetition_code_encoder(5), 0.9),
        (bernstein_vazirani("101"), 0.75),
    ):
        form = (
            qrio.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name=f"{circuit.name}-{ordering}",
                image_name=f"qrio/{circuit.name}-{ordering}",
                num_qubits=circuit.num_qubits,
                shots=256,
            )
            .request_fidelity(threshold)
        )
        jobs.append(qrio.enqueue_form(form, priority=ORDERINGS[ordering](threshold)))
    return jobs


def run_with_ordering(ordering: str) -> None:
    qrio = QRIO(cluster_name=f"queue-demo-{ordering}", canary_shots=128, seed=31)
    qrio.register_devices(generate_fleet(limit=12, seed=5))
    queued = submit_workload(qrio, ordering)
    print(f"--- ordering: {ordering} ---")
    print(f"Queued jobs: {sorted(queued)}")
    outcomes = qrio.drain_queue()
    for outcome in outcomes:
        print(
            f"  {outcome.job.name:<14s} -> {outcome.device:<14s} "
            f"score {outcome.score:.3f} phase {outcome.job.phase.value}"
        )
    print()


def main() -> None:
    run_with_ordering("fifo")
    run_with_ordering("tightest_fidelity_first")


if __name__ == "__main__":
    main()
