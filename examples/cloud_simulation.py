#!/usr/bin/env python3
"""Multi-job cloud simulation: placement policies under a Poisson job stream.

The paper motivates QRIO with today's quantum-cloud reality — thousands of
queued jobs and multi-day waits — but its prototype handles one job at a
time.  This example exercises the ``repro.cloud`` substrate built for the
multi-job future-work direction:

1. generate a Poisson arrival trace from the heterogeneous NISQ workload mix;
2. run the same trace through five registry placement policies, from the
   paper's random baseline to a queue-aware fidelity policy;
3. compare mean/p95 wait, mean estimated fidelity, fairness across users and
   makespan.

Run with:  python examples/cloud_simulation.py
"""

from repro.cloud import (
    ArrivalSpec,
    CloudSimulationConfig,
    CloudSimulator,
    compare_policies,
    generate_trace,
    render_policy_comparison,
    trace_summary,
)
from repro.experiments import cloud_testbed_fleet
from repro.experiments.cloud_policies import CLOUD_POLICY_SPECS
from repro.policies import resolve_policy
from repro.workloads import nisq_mix_suite


def main() -> None:
    # --- the fleet: a regional cloud of mid-size devices --------------------
    fleet = cloud_testbed_fleet(num_devices=6, seed=11)
    print("Fleet:")
    for device in fleet:
        properties = device.properties
        print(
            f"  {device.name:<18} {properties.num_qubits:>3} qubits, "
            f"avg 2q error {properties.average_two_qubit_error():.3f}"
        )
    print()

    # --- the workload: one morning of job submissions -----------------------
    spec = ArrivalSpec(rate_per_hour=360.0, num_jobs=80, num_users=10, shots=1024, suite=nisq_mix_suite())
    trace = generate_trace(spec, seed=42)
    summary = trace_summary(trace)
    print(f"Trace: {summary['num_jobs']} jobs over {summary['duration_s'] / 60.0:.1f} minutes "
          f"from {summary['num_users']} users")
    print(f"Workload mix: {summary['workload_mix']}")
    print()

    # --- run every roster policy on the same trace --------------------------
    config = CloudSimulationConfig(fidelity_report="esp", seed=42)
    policies = [resolve_policy(spec, seed=42) for spec in CLOUD_POLICY_SPECS]
    results = compare_policies(fleet, trace, policies, config)
    print(render_policy_comparison(results))
    print()

    # --- zoom in on the fidelity/wait trade-off ------------------------------
    for weight in (0.0, 0.3, 1.0, 3.0):
        policy = resolve_policy(f"fidelity:queue_weight={weight},wait_scale_s=600.0", seed=42)
        result = CloudSimulator(fleet, policy, config).run(trace)
        print(
            f"queue_weight={weight:<4}  mean wait = {result.mean_wait() / 60.0:6.1f} min, "
            f"mean estimated fidelity = {result.mean_fidelity():.3f}, "
            f"busiest device got {max(result.jobs_per_device().values())} of {len(trace)} jobs"
        )


if __name__ == "__main__":
    main()
