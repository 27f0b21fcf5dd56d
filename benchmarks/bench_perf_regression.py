"""Perf-regression benchmarks for the batching + memoization subsystem.

Unlike the figure/table benchmarks in this directory, these guard *speed*:
they time the batched stabilizer engine against the scalar reference, the
embedding cache against cold matching, and the cached cloud-scheduler path
against the uncached one, then write the ``BENCH_stabilizer.json`` /
``BENCH_matching.json`` trajectory artefacts at the repository root.

The same measurements are exposed as a standalone entry point
(``python benchmarks/run_benchmarks.py``) for CI smoke runs; this module
wraps them in pytest so ``pytest benchmarks/bench_perf_regression.py`` works
inside the normal benchmark harness.  Scale follows ``QRIO_BENCH_SCALE``
(``quick`` maps to the smoke sizes).
"""

from __future__ import annotations

import os

import pytest

import run_benchmarks
from run_benchmarks import (
    bench_concurrency,
    bench_matching,
    bench_plans,
    bench_scenarios,
    bench_scheduler,
    bench_service,
    bench_shards,
    bench_stabilizer,
)
from conftest import write_bench_json


def _perf_scale() -> str:
    scale = os.environ.get("QRIO_BENCH_SCALE", "default").lower()
    return "smoke" if scale == "quick" else "default"


#: Cross-test payload sharing: the sharded-dispatch test (deliberately last —
#: spawned processes perturb the micro-timed benches on small boxes) merges
#: its row into the concurrency artefact written earlier.
_PAYLOADS = {}


@pytest.fixture(scope="module")
def perf_scale() -> str:
    """Measurement-size profile for the perf-regression runs."""
    return _perf_scale()


def test_batched_stabilizer_speedup(perf_scale):
    """The batched engine must beat per-shot replay by >= 10x on the canary."""
    payload = bench_stabilizer(perf_scale, stabilizer_floor=10.0)
    assert payload["batched"]["method"] in ("batched", "deterministic")
    assert payload["speedup"] >= 10.0
    assert payload["equivalence_hellinger_fidelity"] >= 0.95
    write_bench_json("BENCH_stabilizer.json", {"scale": perf_scale, **payload})


def test_matching_and_scheduler_caches(perf_scale):
    """Warm matching and the cached scheduler path must show real reuse."""
    matching = bench_matching(perf_scale)
    scheduler = bench_scheduler(perf_scale, scheduler_floor=2.0)
    assert matching["speedup"] > 1.0
    assert matching["cache"]["hits"] > 0
    assert scheduler["speedup"] >= 2.0
    write_bench_json(
        "BENCH_matching.json",
        {
            "scale": perf_scale,
            "matching": matching,
            "scheduler": scheduler,
        },
    )


def test_service_batch_speedup(perf_scale):
    """Batch submission must beat one-at-a-time by >= 5x on identical jobs."""
    payload = bench_service(perf_scale, service_floor=5.0)
    assert payload["speedup"] >= 5.0
    assert payload["batch_stats"]["groups_executed"] == 1
    assert payload["batch_stats"]["jobs_deduplicated"] == payload["jobs"] - 1
    write_bench_json("BENCH_service.json", {"scale": perf_scale, **payload})


def test_concurrent_runtime_speedup(perf_scale):
    """workers=4 over a 4-device fleet must beat serial execution by >= 2x."""
    payload = bench_concurrency(perf_scale, concurrency_floor=2.0)
    assert payload["speedup"] >= 2.0
    assert payload["devices"] == 4 and payload["workers"] == 4
    # The lanes spread the round-robin stream over the whole fleet.
    assert len(payload["jobs_per_device"]) == 4
    _PAYLOADS["concurrency"] = payload
    write_bench_json("BENCH_concurrency.json", {"scale": perf_scale, **payload})


def test_scenario_replay_floor(perf_scale):
    """Trace replay must hold its throughput floor and stay routing-neutral.

    Guards the scenario subsystem: replay through ``ScenarioRunner`` must
    sustain >= 500 jobs/s on the pure-dispatch cloud workload, cost at most
    10x of feeding the bare discrete-event simulator, route identically to
    it, and route one shared trace identically under all three engines.
    """
    payload = bench_scenarios(perf_scale, replay_floor=500.0, replay_ceiling=10.0)
    assert payload["replay_jobs_per_second"] >= 500.0
    assert payload["overhead"] <= 10.0
    assert payload["cross_engine"]["neutral"] is True
    write_bench_json("BENCH_scenarios.json", {"scale": perf_scale, **payload})


def test_compiled_plan_replay_floor(perf_scale):
    """Warm plan replay must beat the cold compile path by >= 5x.

    Guards the compile-once/execute-many subsystem (``repro.plans``): a
    repeat submission must replay the cached ``ExecutionPlan`` — zero
    recompiles, proven by the plan-cache statistics — at >= 5x the cold
    throughput, and the Clifford-fused form of a workload must route and
    sample bit-identically to the unfused original.
    """
    payload = bench_plans(perf_scale, plans_floor=5.0)
    assert payload["speedup"] >= 5.0
    assert payload["plan_replays"] == payload["jobs"]
    assert payload["plan_recompiles"] == 0
    assert payload["fusion"]["bit_identical"] is True
    assert payload["fusion"]["hellinger_fidelity"] == 1.0
    assert payload["fusion"]["gates_after"] < payload["fusion"]["gates_before"]
    write_bench_json("BENCH_plans.json", {"scale": perf_scale, **payload})


def test_sharded_dispatch_speedup(perf_scale):
    """4 process shards must beat 1 shard by >= 2.5x on the 16-device fleet.

    Deliberately ordered after the micro-timed benches: spawning shard worker
    processes is the heaviest operation in this harness and perturbs ratio
    measurements that follow it on small CI boxes.  Routing must stay pinned:
    sharding moves execution between processes, never between devices.
    """
    sharded = bench_shards(perf_scale, shard_floor=2.5)
    assert sharded["speedup"] >= 2.5
    assert sharded["routing_neutral"] is True
    assert sharded["devices"] == 16 and sharded["shards"] == 4
    merged = {"scale": perf_scale, **_PAYLOADS.get("concurrency", {}), "sharded": sharded}
    write_bench_json("BENCH_concurrency.json", merged)


def test_run_benchmarks_smoke_entry_point(tmp_path, monkeypatch):
    """The CI entry point succeeds end-to-end and emits every artefact."""
    monkeypatch.setenv("QRIO_BENCH_DIR", str(tmp_path))
    assert run_benchmarks.main(["--scale", "smoke"]) == 0
    assert (tmp_path / "BENCH_stabilizer.json").exists()
    import json

    stabilizer = json.loads((tmp_path / "BENCH_stabilizer.json").read_text())
    assert stabilizer["speedup"] >= 10.0
    assert (tmp_path / "BENCH_matching.json").exists()
    assert (tmp_path / "BENCH_service.json").exists()
    assert (tmp_path / "BENCH_concurrency.json").exists()
    assert (tmp_path / "BENCH_scenarios.json").exists()
    assert (tmp_path / "BENCH_plans.json").exists()
