#!/usr/bin/env python
"""Perf-regression entry point: batched stabilizer + fleet-wide caches.

Runs the three hot-path measurements the batching/memoization subsystem is
accountable for and writes the trajectory artefacts future PRs compare
against:

* ``BENCH_stabilizer.json`` — shots/sec of the shot-batched Clifford sampler
  (``StabilizerSimulator``) vs the per-shot reference
  (``reference_stabilizer_counts``) on a 20-qubit, 1024-shot Clifford canary
  (ideal and noisy), plus the achieved speedup;
* ``BENCH_matching.json`` — cold vs warm matching throughput of the budgeted
  matcher over a device testbed (the embedding cache at work), and cold vs
  warm end-to-end scheduler latency of a repeated-job cloud trace (the
  fidelity caches at work);
* ``BENCH_service.json`` — throughput of the unified service layer: a
  ``submit_batch`` of structurally-identical jobs (one embedding search, one
  canary distribution, one execution for the whole group) vs submitting the
  same jobs one at a time;
* ``BENCH_concurrency.json`` — multi-device throughput of the concurrent
  service runtime: the same job stream over a 4-device fleet (each job
  occupying its device for a fixed wall-clock latency, via
  ``DeviceLatencyEngine``) executed by ``workers=4`` per-device lanes vs the
  same runtime dispatching inline at ``workers=0``, plus a ``sharded`` row comparing the
  multi-process dispatcher (``repro.service.ShardedService``) at 4 spawned
  shards vs 1 shard on a 16-device fleet with device-pinned jobs;
* ``BENCH_plans.json`` — compile-once/execute-many throughput of the plan
  subsystem (``repro.plans``): warm plan replay vs cold compile on a
  repeated-job service trace, with the plan-cache statistics proving the
  warm path performed zero recompiles.

The script runs every bench, prints every failure, and **fails loudly**
(non-zero exit) when any of these holds:

* the invariant analyzer (``repro.analysis``) preflight reports any
  non-baselined finding — a tree that violates the determinism invariants
  benchmarks noise, not code;
* the sampler reports a path other than ``batched`` or ``deterministic``;
* the sampler is less than ``--stabilizer-floor`` (default 10x) faster
  than the per-shot reference;
* the cached scheduler path is less than ``--scheduler-floor`` (default 2x)
  faster than the uncached one;
* batch submission through the service is less than ``--service-floor``
  (default 5x) faster than one-at-a-time submission;
* the concurrent runtime is less than ``--concurrency-floor`` (default 2x)
  faster than serial execution on the 4-device fleet, or schedules jobs onto
  different devices than the serial run;
* the 4-shard multi-process dispatcher is less than ``--shard-floor``
  (default 2.5x) faster than the same workload through 1 shard on the
  16-device fleet, or any of the single-process / 1-shard / 4-shard runs
  breaks the pinned job -> device map (sharding must move execution between
  processes, never re-route jobs);
* scenario replay through the service layer falls below ``--replay-floor``
  jobs/sec (default 500), costs more than ``--replay-ceiling`` (default 10x)
  of feeding the bare discrete-event simulator directly, routes any job
  differently from the bare simulator, or one policy routes a shared trace
  differently across the two engines (cross-engine routing neutrality);
* a fault-augmented trace (outage + calibration jump + straggler) replays
  more than ``--fault-replay-ceiling`` (default 1.3x) slower than its
  fault-free twin, is not bit-identical across two replays of every
  engine × policy × workers cell, or produces no resilience metrics;
* warm plan replay is less than ``--plans-floor`` (default 5x) faster than
  the cold compile path, or performs even one recompile;
* the sampler's and the reference's counts distributions disagree (Hellinger
  sanity check).

Usage::

    python benchmarks/run_benchmarks.py --scale smoke     # CI smoke mode
    python benchmarks/run_benchmarks.py                   # default scale

``QRIO_BENCH_DIR`` overrides where the JSON artefacts land.  An artefact is
written only when every bench it reports passed.  BLAS runs on one thread,
as in ``perfbench/run.py``, and every timed call starts after a full
garbage collection (``time_callable``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

if __name__ == "__main__":
    # One BLAS thread, set before numpy is first imported: a second thread
    # only adds contention on small boxes and makes the ratios noisier.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"

# Make the script runnable without an installed package or PYTHONPATH.
_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

from conftest import time_callable, write_bench_json  # noqa: E402

from repro.backends import three_device_testbed  # noqa: E402
from repro.circuits import bernstein_vazirani, ghz  # noqa: E402
from repro.circuits.random_circuits import random_clifford_circuit  # noqa: E402
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator  # noqa: E402
from repro.matching import interaction_graph, rank_devices_scalable  # noqa: E402
from repro.policies import resolve_policy  # noqa: E402
from repro.simulators import (  # noqa: E402
    NoiseModel,
    StabilizerSimulator,
    hellinger_fidelity,
    reference_stabilizer_counts,
)
from repro.utils.cache import CacheStats, all_cache_stats, clear_all_caches  # noqa: E402
from repro.workloads.arrivals import JobRequest  # noqa: E402

#: Per-scale measurement sizes.  ``scalar_shots`` bounds the slow reference
#: run; shots/sec extrapolates fairly because scalar cost is linear in shots.
_SCALES: Dict[str, Dict[str, int]] = {
    "smoke": {"scalar_shots": 32, "batched_shots": 1024, "repeats": 1, "match_rounds": 4, "jobs": 18,
              "service_jobs": 32, "concurrent_jobs": 16,
              "replay_jobs": 120, "neutrality_jobs": 6, "plan_jobs": 10, "shard_jobs": 24},
    "default": {"scalar_shots": 128, "batched_shots": 1024, "repeats": 3, "match_rounds": 8, "jobs": 30,
                "service_jobs": 32, "concurrent_jobs": 24,
                "replay_jobs": 240, "neutrality_jobs": 6, "plan_jobs": 24, "shard_jobs": 40},
}

#: Concurrency workload: 4 devices, 4 workers, fixed per-job device occupancy.
_CONCURRENCY_DEVICES = 4
_CONCURRENCY_WORKERS = 4
_CONCURRENCY_LATENCY_S = 0.04

#: Sharded-dispatch workload: 16 devices split over 4 spawned shard processes,
#: the same fixed per-job occupancy, jobs pinned round-robin over the fleet.
_SHARD_DEVICES = 16
_SHARD_COUNT = 4
_SHARD_LATENCY_S = 0.04

#: The acceptance workload: a 20-qubit, 1024-shot Clifford canary.
_CANARY_QUBITS = 20
_CANARY_DEPTH = 12


class BenchFailure(RuntimeError):
    """A perf-regression floor was violated."""


# --------------------------------------------------------------------------- #
# Stabilizer engine
# --------------------------------------------------------------------------- #
def bench_stabilizer(scale: str, stabilizer_floor: float) -> Dict[str, object]:
    """Shot-batched sampler vs the per-shot reference, shots/sec on the canary workload."""
    sizes = _SCALES[scale]
    circuit = random_clifford_circuit(_CANARY_QUBITS, _CANARY_DEPTH, seed=7, measure=True)

    scalar_shots = sizes["scalar_shots"]
    batched_shots = sizes["batched_shots"]
    scalar_seconds, scalar_counts = time_callable(
        lambda: reference_stabilizer_counts(circuit, scalar_shots, seed=11),
        repeats=sizes["repeats"],
    )
    batched_seconds, batched_result = time_callable(
        lambda: StabilizerSimulator(seed=11).run(circuit, shots=batched_shots),
        repeats=sizes["repeats"],
    )
    method = batched_result.metadata.get("method")
    if method not in ("batched", "deterministic"):
        raise BenchFailure(
            f"Stabilizer sampler unexpectedly reported method={method!r} "
            "(expected 'batched' or 'deterministic')"
        )
    del scalar_counts  # 20q empirical distributions are too sparse to compare
    # Equivalence sanity check on a small circuit whose support both engines
    # can sample densely (the rigorous property tests live in tests/).
    small = random_clifford_circuit(6, 8, seed=5, measure=True)
    scalar_small = reference_stabilizer_counts(small, 2000, seed=17)
    batched_small = StabilizerSimulator(seed=17).run(small, shots=2000)
    fidelity = hellinger_fidelity(scalar_small, batched_small.counts)
    if fidelity < 0.95:
        raise BenchFailure(
            f"Sampler and reference stabilizer distributions diverge (Hellinger fidelity {fidelity:.3f})"
        )

    noise = NoiseModel(
        default_two_qubit_error=0.02, default_one_qubit_error=0.005, default_readout_error=0.01
    )
    noisy_scalar_seconds, _ = time_callable(
        lambda: reference_stabilizer_counts(circuit, scalar_shots, noise, seed=13),
        repeats=sizes["repeats"],
    )
    noisy_batched_seconds, noisy_batched_result = time_callable(
        lambda: StabilizerSimulator(seed=13).run(circuit, shots=batched_shots, noise_model=noise),
        repeats=sizes["repeats"],
    )

    scalar_sps = scalar_shots / scalar_seconds
    batched_sps = batched_shots / batched_seconds
    speedup = batched_sps / scalar_sps
    if speedup < stabilizer_floor:
        raise BenchFailure(
            f"Batched stabilizer speedup {speedup:.1f}x is below the {stabilizer_floor:.0f}x floor"
        )
    return {
        "workload": {
            "num_qubits": _CANARY_QUBITS,
            "depth_layers": _CANARY_DEPTH,
            "shots": batched_shots,
            "kind": "random Clifford canary, full measurement",
        },
        "scalar": {
            "shots_timed": scalar_shots,
            "seconds": scalar_seconds,
            "shots_per_second": scalar_sps,
        },
        "batched": {
            "shots_timed": batched_shots,
            "seconds": batched_seconds,
            "shots_per_second": batched_sps,
            "method": method,
        },
        "speedup": speedup,
        "equivalence_hellinger_fidelity": fidelity,
        "noisy": {
            "scalar_shots_per_second": scalar_shots / noisy_scalar_seconds,
            "batched_shots_per_second": batched_shots / noisy_batched_seconds,
            "speedup": (batched_shots / noisy_batched_seconds) / (scalar_shots / noisy_scalar_seconds),
            "method": noisy_batched_result.metadata.get("method"),
        },
    }


# --------------------------------------------------------------------------- #
# Matching throughput (embedding cache)
# --------------------------------------------------------------------------- #
def bench_matching(scale: str) -> Dict[str, object]:
    """Cold vs warm budgeted-matcher throughput over the testbed fleet."""
    sizes = _SCALES[scale]
    fleet = three_device_testbed()
    pattern = interaction_graph(ghz(8, measure=False))
    rounds = sizes["match_rounds"]

    def rank_all() -> None:
        for _ in range(rounds):
            rank_devices_scalable(pattern, fleet, seed=3)

    clear_all_caches()
    cold_seconds, _ = time_callable(rank_all, repeats=1)
    warm_seconds, _ = time_callable(rank_all, repeats=1)
    matches = rounds * len(fleet)
    return {
        "pattern": {"nodes": pattern.number_of_nodes(), "edges": pattern.number_of_edges()},
        "devices": len(fleet),
        "rounds": rounds,
        "cold_matches_per_second": matches / cold_seconds,
        "warm_matches_per_second": matches / warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cache": all_cache_stats()["embedding"],
    }


# --------------------------------------------------------------------------- #
# End-to-end scheduler latency (fidelity caches)
# --------------------------------------------------------------------------- #
def _repeated_trace(jobs: int) -> list:
    """A repeat-heavy arrival trace: ``jobs`` arrivals over three circuits."""
    circuits = [
        ("ghz4", ghz(4)),
        ("bv101", bernstein_vazirani("101")),
        ("ghz5", ghz(5)),
    ]
    trace = []
    for index in range(jobs):
        key, circuit = circuits[index % len(circuits)]
        trace.append(
            JobRequest(
                index=index,
                arrival_time=float(index),
                workload_key=key,
                circuit=circuit,
                strategy="fidelity",
                fidelity_threshold=0.0,
                shots=256,
                user=f"user-{index % 4}",
            )
        )
    return trace


def bench_scheduler(scale: str, scheduler_floor: float) -> Dict[str, object]:
    """Cold vs cached end-to-end latency of a repeated-job cloud workload."""
    sizes = _SCALES[scale]
    fleet = three_device_testbed()
    trace = _repeated_trace(sizes["jobs"])

    def run(reuse: bool):
        config = CloudSimulationConfig(
            fidelity_report="execute",
            execution_shots=128,
            reuse_fidelity_cache=reuse,
            seed=5,
        )
        simulator = CloudSimulator(fleet, resolve_policy("least-loaded"), config=config)
        return simulator.run(trace)

    clear_all_caches()
    uncached_seconds, uncached_result = time_callable(lambda: run(False), repeats=1)
    clear_all_caches()
    cached_seconds, cached_result = time_callable(lambda: run(True), repeats=1)
    speedup = uncached_seconds / cached_seconds
    if speedup < scheduler_floor:
        raise BenchFailure(
            f"Cached scheduler speedup {speedup:.2f}x is below the {scheduler_floor:.1f}x floor"
        )
    # Both runs must schedule identically — the cache only skips recomputation.
    assert [r.device for r in uncached_result.records] == [r.device for r in cached_result.records]
    return {
        "jobs": sizes["jobs"],
        "distinct_circuits": 3,
        "fidelity_report": "execute",
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "speedup": speedup,
        "mean_fidelity_cached": cached_result.mean_fidelity(),
        "mean_fidelity_uncached": uncached_result.mean_fidelity(),
    }


# --------------------------------------------------------------------------- #
# Service-layer throughput (batch dedup)
# --------------------------------------------------------------------------- #
def bench_service(scale: str, service_floor: float) -> Dict[str, object]:
    """Batch vs one-at-a-time submission of structurally-identical jobs.

    ``submit_batch`` groups the N jobs by structural circuit hash, so the
    whole batch pays one embedding/canary scheduling pass and one execution;
    sequential submission pays N of each.  Caches are cleared before both
    measurements so the comparison is batch-dedup vs per-job work, not cold
    vs warm caches.
    """
    from repro.service import OrchestratorEngine, QRIOService

    jobs = _SCALES[scale]["service_jobs"]
    fleet = three_device_testbed()

    def batch_run():
        clear_all_caches()
        service = QRIOService(fleet, OrchestratorEngine(seed=9, canary_shots=128))
        handles = service.submit_batch([ghz(6) for _ in range(jobs)], 0.9, shots=256)
        service.process()
        assert all(handle.done for handle in handles)
        return service

    def sequential_run():
        clear_all_caches()
        service = QRIOService(fleet, OrchestratorEngine(seed=9, canary_shots=128))
        for index in range(jobs):
            service.submit(ghz(6), 0.9, shots=256).result()
        return service

    batch_seconds, batch_service = time_callable(batch_run, repeats=1)
    sequential_seconds, sequential_service = time_callable(sequential_run, repeats=1)
    speedup = sequential_seconds / batch_seconds
    batch_stats = batch_service.stats()
    if batch_stats["groups_executed"] != 1 or batch_stats["jobs_deduplicated"] != jobs - 1:
        raise BenchFailure(
            f"Batch dedup is broken: expected 1 group / {jobs - 1} deduplicated jobs, "
            f"got {batch_stats['groups_executed']} / {batch_stats['jobs_deduplicated']}"
        )
    if speedup < service_floor:
        raise BenchFailure(
            f"Service batch speedup {speedup:.1f}x is below the {service_floor:.0f}x floor"
        )
    return {
        "jobs": jobs,
        "devices": len(fleet),
        "workload": "ghz(6) fidelity jobs, 256 shots, canary_shots=128",
        "batch_seconds": batch_seconds,
        "sequential_seconds": sequential_seconds,
        "batch_jobs_per_second": jobs / batch_seconds,
        "sequential_jobs_per_second": jobs / sequential_seconds,
        "speedup": speedup,
        "batch_stats": batch_stats,
        "sequential_stats": sequential_service.stats(),
    }


# --------------------------------------------------------------------------- #
# Concurrent runtime throughput (worker pool + per-device lanes)
# --------------------------------------------------------------------------- #
def bench_concurrency(scale: str, concurrency_floor: float) -> Dict[str, object]:
    """Concurrent vs serial multi-device throughput of the service runtime.

    The workload is a stream of distinct jobs spread round-robin over a
    4-device fleet, with each execution occupying its device for a fixed
    wall-clock latency (``DeviceLatencyEngine`` — the regime a real cloud
    deployment lives in, where the service waits on device I/O, not on
    Python).  Serial execution pays every occupancy window back-to-back; the
    ``workers=4`` runtime overlaps the windows of different devices through
    its per-device lanes while still serializing same-device jobs.  Both runs
    must route every job to the same device — concurrency must change *when*
    jobs run, never *where*.
    """
    from repro.backends import generate_fleet
    from repro.service import CloudEngine, DeviceLatencyEngine, QRIOService

    jobs = _SCALES[scale]["concurrent_jobs"]
    fleet = generate_fleet(limit=_CONCURRENCY_DEVICES, seed=11)

    def run(workers: int):
        clear_all_caches()
        engine = DeviceLatencyEngine(
            CloudEngine(
                policy=resolve_policy("round-robin"),
                config=CloudSimulationConfig(fidelity_report="none", seed=11),
            ),
            latency_s=_CONCURRENCY_LATENCY_S,
        )
        service = QRIOService(fleet, engine, workers=workers)
        # Distinct shot budgets keep the jobs structurally groupable but
        # dedup-distinct, so every job is a real unit of runtime work.
        handles = [service.submit(ghz(3), 0.5, shots=64 + index) for index in range(jobs)]
        service.process()
        assert all(handle.done for handle in handles)
        devices = [record.device for record in engine.inner.simulation_result().records]
        service.close()
        return devices

    serial_seconds, serial_devices = time_callable(lambda: run(0), repeats=1)
    concurrent_seconds, concurrent_devices = time_callable(
        lambda: run(_CONCURRENCY_WORKERS), repeats=1
    )
    if serial_devices != concurrent_devices:
        raise BenchFailure(
            "Concurrent runtime changed scheduling decisions: the worker pool must only "
            "overlap execution, never re-route jobs"
        )
    speedup = serial_seconds / concurrent_seconds
    if speedup < concurrency_floor:
        raise BenchFailure(
            f"Concurrent runtime speedup {speedup:.2f}x is below the {concurrency_floor:.1f}x floor"
        )
    per_device: Dict[str, int] = {}
    for device in concurrent_devices:
        per_device[device] = per_device.get(device, 0) + 1
    return {
        "jobs": jobs,
        "devices": _CONCURRENCY_DEVICES,
        "workers": _CONCURRENCY_WORKERS,
        "device_latency_s": _CONCURRENCY_LATENCY_S,
        "workload": "round-robin ghz(3) stream, per-job device occupancy via DeviceLatencyEngine",
        "serial_seconds": serial_seconds,
        "concurrent_seconds": concurrent_seconds,
        "serial_jobs_per_second": jobs / serial_seconds,
        "concurrent_jobs_per_second": jobs / concurrent_seconds,
        "speedup": speedup,
        "jobs_per_device": dict(sorted(per_device.items())),
    }


# --------------------------------------------------------------------------- #
# Sharded dispatch throughput (process shards over a partitioned fleet)
# --------------------------------------------------------------------------- #
def bench_shards(scale: str, shard_floor: float) -> Dict[str, object]:
    """4-shard vs 1-shard throughput of the multi-process dispatcher.

    The workload is a stream of jobs pinned round-robin over a 16-device
    fleet (``pinned:device=NAME`` placement), each execution occupying its
    device for a fixed wall-clock latency.  Pinning makes the job -> device
    map identical *by construction* across every configuration, so the
    routing-neutrality check is exact: sharding must change which *process*
    runs a job, never which device.  Each shard runs its slice serially
    (``workers=0`` inside the shard), so a single shard pays every occupancy
    window back-to-back while four shards overlap the windows of their
    disjoint fleet quarters.  Spawn startup is excluded — services are
    constructed outside the timed region; only submit + process is measured.
    """
    from repro.backends import generate_fleet
    from repro.service import EngineSpec, ShardedService
    from repro.service import JobRequirements, QRIOService
    from repro.tenancy import Tenant

    jobs = _SCALES[scale]["shard_jobs"]
    fleet = generate_fleet(limit=_SHARD_DEVICES, seed=11)
    device_names = [device.name for device in fleet]
    tenants = [Tenant(id=f"bench-tenant-{index}") for index in range(4)]
    spec = EngineSpec(
        kind="cloud", seed=11, fidelity_report="none", latency_s=_SHARD_LATENCY_S
    )

    def plan():
        for index in range(jobs):
            yield (
                index,
                device_names[index % len(device_names)],
                tenants[index % len(tenants)],
            )

    pinned_map = {f"shard-bench-{index:03d}": device for index, device, _ in plan()}

    def submit_all(service):
        return [
            service.submit(
                ghz(3),
                JobRequirements(tenant=tenant, policy=f"pinned:device={device}"),
                shots=64 + index,
                name=f"shard-bench-{index:03d}",
            )
            for index, device, tenant in plan()
        ]

    def run_sharded(shards: int):
        clear_all_caches()
        service = ShardedService(fleet, shards=shards, engine=spec)
        try:

            def work():
                handles = submit_all(service)
                service.process()
                return {handle.name: handle.result().device for handle in handles}

            seconds, devices = time_callable(work, repeats=1)
        finally:
            service.close()
        return seconds, devices

    def run_single_process():
        clear_all_caches()
        service = QRIOService(fleet, spec.build(), workers=0)
        try:
            handles = submit_all(service)
            service.process()
            return {handle.name: handle.result().device for handle in handles}
        finally:
            service.close()

    single_devices = run_single_process()
    one_shard_seconds, one_shard_devices = run_sharded(1)
    sharded_seconds, sharded_devices = run_sharded(_SHARD_COUNT)
    for label, devices in (
        ("single-process", single_devices),
        ("1-shard", one_shard_devices),
        (f"{_SHARD_COUNT}-shard", sharded_devices),
    ):
        if devices != pinned_map:
            raise BenchFailure(
                f"Sharded dispatch changed scheduling decisions: the {label} run did "
                "not honour the pinned job -> device map — shards must only move "
                "execution between processes, never re-route jobs"
            )
    speedup = one_shard_seconds / sharded_seconds
    if speedup < shard_floor:
        raise BenchFailure(
            f"Sharded dispatch speedup {speedup:.2f}x ({_SHARD_COUNT} shards vs 1) "
            f"is below the {shard_floor:.1f}x floor"
        )
    return {
        "jobs": jobs,
        "devices": _SHARD_DEVICES,
        "shards": _SHARD_COUNT,
        "device_latency_s": _SHARD_LATENCY_S,
        "workload": (
            "device-pinned ghz(3) stream over 4 tenants, per-job occupancy via "
            "EngineSpec(latency_s), serial inside each shard"
        ),
        "one_shard_seconds": one_shard_seconds,
        "sharded_seconds": sharded_seconds,
        "one_shard_jobs_per_second": jobs / one_shard_seconds,
        "sharded_jobs_per_second": jobs / sharded_seconds,
        "speedup": speedup,
        "routing_neutral": True,
    }


# --------------------------------------------------------------------------- #
# Scenario replay throughput + cross-engine routing neutrality
# --------------------------------------------------------------------------- #
def bench_scenarios(
    scale: str, replay_floor: float, replay_ceiling: float, fault_ceiling: float
) -> Dict[str, object]:
    """Trace replay through the scenario layer vs the bare simulator.

    Three guards on the scenario subsystem:

    1. **Replay cost** — replaying a normalised trace through
       ``ScenarioRunner`` (cloud engine, native policy, fidelity reporting
       off so nothing but dispatch is timed) must sustain ``replay_floor``
       jobs/sec and stay within ``replay_ceiling`` of feeding the same trace
       straight into ``CloudSimulator.run``, and both paths must route every
       job identically — the service layer adds observability, never
       different decisions.
    2. **Cross-engine routing neutrality** — one registered policy
       (``round-robin``) replaying one small trace must route identically
       under the orchestrator and cloud engines, which is what makes sweep
       rows comparable across engines.
    3. **Resilience** — a fault-augmented twin of the replay trace (outage +
       calibration jump + straggler laid out over the trace's arrival span)
       must replay within ``fault_ceiling`` of the fault-free replay, must be
       bit-identical when replayed twice on every engine × policy × workers
       cell, and must populate the report's resilience metrics.
    """
    from repro.scenarios import (
        CalibrationJump,
        DeviceOutage,
        PoissonProcess,
        ScenarioRunner,
        StragglerSlowdown,
        Trace,
        generate_requests,
    )
    from repro.workloads import clifford_suite

    sizes = _SCALES[scale]
    fleet = three_device_testbed()
    jobs = sizes["replay_jobs"]
    trace = Trace.from_requests(
        "bench-replay",
        generate_requests(
            PoissonProcess(rate_per_hour=3600.0),
            num_jobs=jobs,
            suite=clifford_suite(),
            seed=3,
            shots=128,
        ),
    )
    config = CloudSimulationConfig(fidelity_report="none", seed=5)

    def direct_run():
        return CloudSimulator(fleet, resolve_policy("least-loaded"), config=config).run(list(trace.jobs))

    def scenario_run():
        runner = ScenarioRunner(fleet, engine="cloud", seed=5, fidelity_report="none")
        return runner.replay(trace)

    direct_seconds, direct_result = time_callable(direct_run, repeats=1)
    scenario_seconds, scenario_report = time_callable(scenario_run, repeats=1)
    if [r.device for r in direct_result.records] != [o.device for o in scenario_report.outcomes]:
        raise BenchFailure(
            "Scenario replay routed the trace differently from the bare cloud simulator — "
            "the scenario layer must be routing-neutral"
        )
    throughput = jobs / scenario_seconds
    if throughput < replay_floor:
        raise BenchFailure(
            f"Scenario replay throughput {throughput:.0f} jobs/s is below the "
            f"{replay_floor:.0f} jobs/s floor"
        )
    overhead = scenario_seconds / direct_seconds
    if overhead > replay_ceiling:
        raise BenchFailure(
            f"Scenario-layer replay overhead {overhead:.2f}x exceeds the "
            f"{replay_ceiling:.2f}x ceiling over the bare simulator"
        )

    neutrality_trace = Trace.from_requests(
        "bench-neutrality",
        generate_requests(
            PoissonProcess(rate_per_hour=3600.0),
            num_jobs=sizes["neutrality_jobs"],
            suite=clifford_suite(),
            seed=9,
            shots=64,
        ),
    )
    routes = {}
    for engine in ("orchestrator", "cloud"):
        runner = ScenarioRunner(
            fleet,
            engine=engine,
            policy="round-robin",
            seed=7,
            canary_shots=64,
            fidelity_report="none",
        )
        routes[engine] = [outcome.device for outcome in runner.replay(neutrality_trace).outcomes]
    if routes["orchestrator"] != routes["cloud"]:
        raise BenchFailure(
            f"Policy 'round-robin' routed the neutrality trace differently per engine: {routes}"
        )

    # ---- Resilience row: fault-replay overhead + cross-config determinism.
    device_names = sorted(backend.name for backend in fleet)
    span = trace.jobs[-1].arrival_time
    fault_events = (
        StragglerSlowdown(time_s=0.1 * span, device=device_names[2], duration_s=0.8 * span, factor=2.0),
        DeviceOutage(time_s=0.25 * span, device=device_names[0], duration_s=0.4 * span),
        CalibrationJump(time_s=0.5 * span, device=device_names[1]),
    )
    fault_trace = Trace.from_requests("bench-faults", list(trace.jobs), events=fault_events)
    fault_free_trace = Trace.from_requests("bench-faults", list(trace.jobs))

    def plain_replay():
        clear_all_caches()
        return ScenarioRunner(fleet, engine="cloud", seed=5, fidelity_report="none").replay(
            fault_free_trace
        )

    def fault_replay():
        clear_all_caches()
        return ScenarioRunner(fleet, engine="cloud", seed=5, fidelity_report="none").replay(
            fault_trace
        )

    plain_seconds, _ = time_callable(plain_replay, repeats=sizes["repeats"])
    fault_seconds, fault_report = time_callable(fault_replay, repeats=sizes["repeats"])
    fault_overhead = fault_seconds / plain_seconds
    if fault_overhead > fault_ceiling:
        raise BenchFailure(
            f"Fault-augmented replay overhead {fault_overhead:.2f}x exceeds the "
            f"{fault_ceiling:.2f}x ceiling over the fault-free replay"
        )
    if fault_report.resilience is None:
        raise BenchFailure("Fault-augmented replay produced no resilience metrics")

    # Determinism grid: every engine × policy × workers cell must replay the
    # fault trace bit-identically (routing and results signatures).
    grid_span = neutrality_trace.jobs[-1].arrival_time
    grid_events = (
        StragglerSlowdown(time_s=0.0, device=device_names[2], duration_s=grid_span, factor=2.0),
        DeviceOutage(time_s=0.2 * grid_span, device=device_names[0], duration_s=0.5 * grid_span),
        CalibrationJump(time_s=0.6 * grid_span, device=device_names[1]),
    )
    grid_trace = Trace.from_requests(
        "bench-fault-grid", list(neutrality_trace.jobs), events=grid_events
    )
    grid_cells = 0
    for engine in ("orchestrator", "cloud"):
        for policy in (None, "round-robin"):
            for workers in (0, 2):
                signatures = []
                for _ in range(2):
                    runner = ScenarioRunner(
                        fleet,
                        engine=engine,
                        policy=policy,
                        workers=workers,
                        seed=7,
                        canary_shots=64,
                        fidelity_report="none",
                    )
                    report = runner.replay(grid_trace)
                    if report.resilience is None:
                        raise BenchFailure(
                            f"Fault-grid cell ({engine}, {policy}, workers={workers}) "
                            "produced no resilience metrics"
                        )
                    signatures.append((report.routing_signature(), report.results_signature()))
                if signatures[0] != signatures[1]:
                    raise BenchFailure(
                        f"Fault replay is not bit-identical on cell "
                        f"({engine}, {policy}, workers={workers})"
                    )
                grid_cells += 1
    return {
        "jobs": jobs,
        "devices": len(fleet),
        "workload": "Clifford-suite Poisson trace, cloud engine, fidelity_report=none",
        "direct_seconds": direct_seconds,
        "scenario_seconds": scenario_seconds,
        "direct_jobs_per_second": jobs / direct_seconds,
        "replay_jobs_per_second": throughput,
        "replay_floor": replay_floor,
        "overhead": overhead,
        "overhead_ceiling": replay_ceiling,
        "cross_engine": {
            "jobs": sizes["neutrality_jobs"],
            "policy": "round-robin",
            "routes": routes["cloud"],
            "neutral": True,
        },
        "resilience": {
            "jobs": jobs,
            "events": len(fault_events),
            "fault_free_seconds": plain_seconds,
            "fault_seconds": fault_seconds,
            "fault_overhead": fault_overhead,
            "fault_overhead_ceiling": fault_ceiling,
            "slo_violations": fault_report.resilience["slo_violations"],
            "jobs_rerouted": fault_report.resilience["jobs_rerouted"],
            "determinism_grid_cells": grid_cells,
            "bit_identical": True,
        },
    }


# --------------------------------------------------------------------------- #
# Compiled execution plans (warm replay vs cold compile)
# --------------------------------------------------------------------------- #
def bench_plans(scale: str, plans_floor: float) -> Dict[str, object]:
    """Warm plan replay vs cold compile on a repeated-job service trace.

    The compile-once/execute-many split (``repro.plans``): the first
    submission of a workload pays MATCHING + transpile + lowering and
    publishes an ``ExecutionPlan`` into the engine's plan store; repeats
    replay it.  The cold measurement clears the shared caches and the
    engine's plans before each submission so all of them pay the full
    cycle; the warm measurement
    primes the plan once and times pure replays, asserting through the
    plan-cache statistics that not one of them recompiled.
    """
    from repro.service import OrchestratorEngine, QRIOService

    jobs = _SCALES[scale]["plan_jobs"]
    fleet = three_device_testbed()
    # The plan counters are process-cumulative (shared by every engine's
    # store), so the report is the delta over this bench alone.
    stats_start = all_cache_stats()["plan"]

    def cold_run():
        service = QRIOService(fleet, OrchestratorEngine(seed=9, canary_shots=128))
        for _ in range(jobs):
            clear_all_caches()
            service.engine._plans.clear()  # the engine owns its plans
            service.submit(ghz(6), 0.9, shots=256).result()

    cold_seconds, _ = time_callable(cold_run, repeats=1)

    clear_all_caches()
    warm_service = QRIOService(fleet, OrchestratorEngine(seed=9, canary_shots=128))
    prime = warm_service.submit(ghz(6), 0.9, shots=256).result()  # compile once
    stats_before = all_cache_stats()["plan"]

    def warm_run():
        for _ in range(jobs):
            result = warm_service.submit(ghz(6), 0.9, shots=256).result()
            assert result.device == prime.device

    warm_seconds, _ = time_callable(warm_run, repeats=1)
    stats = all_cache_stats()["plan"]
    replays = stats["hits"] - stats_before["hits"]
    recompiles = stats["misses"] - stats_before["misses"]
    if replays != jobs or recompiles != 0:
        raise BenchFailure(
            f"Warm plan path recompiled: expected {jobs} replays / 0 misses, "
            f"got {replays} / {recompiles}"
        )
    speedup = cold_seconds / warm_seconds
    if speedup < plans_floor:
        raise BenchFailure(
            f"Warm-plan speedup {speedup:.1f}x is below the {plans_floor:.0f}x floor"
        )
    return {
        "jobs": jobs,
        "devices": len(fleet),
        "workload": "ghz(6) fidelity jobs, 256 shots, canary_shots=128, orchestrator engine",
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_jobs_per_second": jobs / cold_seconds,
        "warm_jobs_per_second": jobs / warm_seconds,
        "speedup": speedup,
        "plan_replays": replays,
        "plan_recompiles": recompiles,
        "plan_cache": CacheStats(
            **{key: stats[key] - stats_start[key] for key in ("hits", "misses", "evictions")}
        ).as_dict(),
    }


# --------------------------------------------------------------------------- #
# Preflight: invariant analyzer
# --------------------------------------------------------------------------- #
def preflight_analyze() -> None:
    """Refuse to benchmark a tree with non-baselined analyzer findings.

    A benchmark run on a tree that violates the determinism invariants
    (unseeded RNG, wall-clock reads in deterministic packages, process-salted
    cache keys) measures noise, not the code — so the invariant analyzer of
    :mod:`repro.analysis` gates every benchmark run the same way it gates CI.
    """
    from repro.analysis import analyze_tree

    report = analyze_tree()
    new = report["new"]
    if new:
        details = "\n".join(f"  {finding}" for finding in new)
        raise BenchFailure(
            f"invariant analyzer found {len(new)} non-baselined finding(s); "
            f"fix, pragma or baseline them before benchmarking:\n{details}"
        )


# --------------------------------------------------------------------------- #
def run_all(
    scale: str,
    stabilizer_floor: float = 10.0,
    scheduler_floor: float = 2.0,
    service_floor: float = 5.0,
    concurrency_floor: float = 2.0,
    replay_floor: float = 500.0,
    replay_ceiling: float = 10.0,
    plans_floor: float = 5.0,
    fault_replay_ceiling: float = 1.3,
    shard_floor: float = 2.5,
) -> Tuple[Dict[str, Path], List[str]]:
    """Run every measurement, then write each artefact whose benches all passed.

    A failed bench does not stop the run.  Returns the written artefacts'
    paths and one message per failed bench.
    """
    results: Dict[str, Dict[str, object]] = {}
    failures: List[str] = []

    def attempt(name: str, bench: Callable[..., object], *args: object) -> None:
        try:
            results[name] = bench(*args)
        except BenchFailure as failure:
            failures.append(f"{name}: {failure}")

    attempt("preflight", preflight_analyze)
    attempt("stabilizer", bench_stabilizer, scale, stabilizer_floor)
    attempt("matching", bench_matching, scale)
    attempt("scheduler", bench_scheduler, scale, scheduler_floor)
    attempt("service", bench_service, scale, service_floor)
    attempt("concurrency", bench_concurrency, scale, concurrency_floor)
    attempt("scenarios", bench_scenarios, scale, replay_floor, replay_ceiling, fault_replay_ceiling)
    attempt("plans", bench_plans, scale, plans_floor)
    # Last on purpose: the spawned shard processes are the heaviest thing in
    # this file, and on small CI boxes their startup/teardown perturbs the
    # micro-timed ratio benches (scenario replay) when run before them.
    attempt("sharded", bench_shards, scale, shard_floor)

    artefacts = {
        "stabilizer": ("BENCH_stabilizer.json", ("stabilizer",), lambda: results["stabilizer"]),
        "matching": (
            "BENCH_matching.json",
            ("matching", "scheduler"),
            lambda: {"matching": results["matching"], "scheduler": results["scheduler"]},
        ),
        "service": ("BENCH_service.json", ("service",), lambda: results["service"]),
        "concurrency": (
            "BENCH_concurrency.json",
            ("concurrency", "sharded"),
            lambda: {**results["concurrency"], "sharded": results["sharded"]},
        ),
        "scenarios": ("BENCH_scenarios.json", ("scenarios",), lambda: results["scenarios"]),
        "plans": ("BENCH_plans.json", ("plans",), lambda: results["plans"]),
    }
    paths: Dict[str, Path] = {}
    for name, (filename, benches, payload) in artefacts.items():
        if all(bench in results for bench in benches):
            paths[name] = write_bench_json(filename, {"scale": scale, **payload()})
    return paths, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", choices=sorted(_SCALES), default="smoke", help="measurement sizes")
    parser.add_argument("--stabilizer-floor", type=float, default=10.0, help="minimum batched speedup")
    parser.add_argument("--scheduler-floor", type=float, default=2.0, help="minimum cached-scheduler speedup")
    parser.add_argument("--service-floor", type=float, default=5.0, help="minimum service batch-vs-sequential speedup")
    parser.add_argument("--concurrency-floor", type=float, default=2.0,
                        help="minimum concurrent-vs-serial runtime speedup on the 4-device fleet")
    parser.add_argument("--replay-floor", type=float, default=500.0,
                        help="minimum scenario-replay throughput in jobs/sec (cloud engine)")
    parser.add_argument("--replay-ceiling", type=float, default=10.0,
                        help="maximum scenario-replay slowdown vs feeding the bare simulator")
    parser.add_argument("--plans-floor", type=float, default=5.0,
                        help="minimum warm-plan-replay vs cold-compile speedup")
    parser.add_argument("--fault-replay-ceiling", type=float, default=1.3,
                        help="maximum fault-augmented replay slowdown vs the fault-free replay")
    parser.add_argument("--shard-floor", type=float, default=2.5,
                        help="minimum 4-shard-vs-1-shard dispatch speedup on the 16-device fleet")
    args = parser.parse_args(argv)
    paths, failures = run_all(
        args.scale,
        args.stabilizer_floor,
        args.scheduler_floor,
        args.service_floor,
        args.concurrency_floor,
        args.replay_floor,
        args.replay_ceiling,
        args.plans_floor,
        args.fault_replay_ceiling,
        args.shard_floor,
    )
    import json

    for name, path in paths.items():
        payload = json.loads(path.read_text())
        if name == "stabilizer":
            print(
                f"stabilizer: {payload['batched']['shots_per_second']:.0f} shots/s batched "
                f"({payload['speedup']:.1f}x over the per-shot reference, "
                f"method={payload['batched']['method']}) -> {path}"
            )
        elif name == "matching":
            print(
                f"matching: warm {payload['matching']['speedup']:.1f}x over cold; "
                f"scheduler: cached {payload['scheduler']['speedup']:.1f}x over uncached -> {path}"
            )
        elif name == "service":
            print(
                f"service: batch {payload['speedup']:.1f}x over one-at-a-time "
                f"({payload['jobs']} identical jobs, 1 scheduling pass) -> {path}"
            )
        elif name == "concurrency":
            sharded = payload["sharded"]
            print(
                f"concurrency: {payload['workers']} workers {payload['speedup']:.1f}x over serial "
                f"({payload['jobs']} jobs, {payload['devices']} devices); "
                f"sharded: {sharded['shards']} shards {sharded['speedup']:.1f}x over 1 shard "
                f"({sharded['jobs']} jobs, {sharded['devices']} devices, routing-neutral) -> {path}"
            )
        elif name == "scenarios":
            print(
                f"scenarios: replay {payload['replay_jobs_per_second']:.0f} jobs/s "
                f"({payload['overhead']:.1f}x of the bare simulator, routing-neutral "
                f"across 2 engines; fault replay {payload['resilience']['fault_overhead']:.2f}x "
                f"of fault-free, bit-identical over "
                f"{payload['resilience']['determinism_grid_cells']} cells) -> {path}"
            )
        else:
            print(
                f"plans: warm replay {payload['speedup']:.1f}x over cold compile "
                f"({payload['plan_replays']} replays, 0 recompiles) -> {path}"
            )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
