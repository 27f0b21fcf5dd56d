"""Extension — multi-job cloud scheduling policies (future-work item 4 at scale).

Runs the same Poisson arrival trace through the registry placement-policy
roster (random, round-robin, least-loaded, fidelity-only, queue-aware fidelity) on a
regional fleet and reports mean/p95 waits, mean estimated fidelity, fairness
and makespan per policy.  The expected shape: fidelity-only maximises
fidelity but concentrates load, least-loaded minimises waits but ignores
fidelity, and the queue-aware combination recovers most of the fidelity at a
fraction of the queueing delay.
"""

from __future__ import annotations

from repro.experiments import render_cloud_policy_comparison, run_cloud_policy_comparison


def test_cloud_policy_comparison(benchmark, bench_config):
    """Compare placement policies on one shared arrival trace."""
    result = benchmark.pedantic(
        run_cloud_policy_comparison,
        kwargs={"config": bench_config, "num_jobs": 40, "num_devices": 6},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_cloud_policy_comparison(result))

    rows = result.by_policy()
    assert len(rows) == 5
    fidelity = result.row("fidelity[esp]")
    least_loaded = result.row("least-loaded")
    queue_aware = result.row("fidelity[esp, queue_weight=0.3]")
    random_row = result.row("random")

    # Fidelity-aware policies report at least the random baseline's fidelity.
    assert fidelity.mean_fidelity >= random_row.mean_fidelity - 1e-9
    assert queue_aware.mean_fidelity >= random_row.mean_fidelity - 1e-9
    # The queue-blind fidelity policy cannot beat the queue-aware one on waits.
    assert queue_aware.mean_wait_s <= fidelity.mean_wait_s + 1e-9
    # Least-loaded yields the smallest mean wait of the roster.
    assert least_loaded.mean_wait_s == min(row.mean_wait_s for row in result.rows)
