#!/usr/bin/env python3
"""Quickstart for the unified service API (``repro.service``).

One :class:`~repro.service.QRIOService` front door replaces the three
historical entry points (QRIO facade, cloud trace runner, cluster
framework).  This example shows:

1. submitting a single job and following its explicit lifecycle
   (``QUEUED → MATCHING → RUNNING → DONE/FAILED``) through the JobHandle;
2. ``submit_batch`` deduplicating a batch of structurally-identical
   circuits so the whole batch pays ONE embedding search, ONE canary
   distribution and ONE execution;
3. swapping the execution engine — the same submissions running through the
   discrete-event cloud simulator instead of the orchestrator;
4. the concurrent runtime (``workers=N``): non-blocking submission, priority
   scheduling, futures-style handles (callbacks, ``wait(timeout)``) and
   per-device lanes overlapping the occupancy of different devices.

Run with:  python examples/service_api.py
"""

import time

from repro import QRIOService, generate_fleet
from repro.circuits import ghz
from repro.service import (
    CloudEngine,
    DeviceLatencyEngine,
    JobRequirements,
    OrchestratorEngine,
)


def single_job(fleet) -> None:
    service = QRIOService(fleet, OrchestratorEngine(seed=11, canary_shots=128))
    handle = service.submit(ghz(4), JobRequirements(fidelity_threshold=0.9), shots=512)
    print(f"Submitted {handle.name!r}; state = {handle.state.value}")

    result = handle.result()  # drives QUEUED -> MATCHING -> RUNNING -> DONE
    print("Lifecycle:")
    for event in handle.events():
        print(f"  {event.state.value:<9s} {event.message}")
    top = max(result.counts, key=result.counts.get)
    print(f"Ran on {result.device} (score {result.score:.4f}); "
          f"most frequent outcome {top!r} x{result.counts[top]}")
    print()


def batched_jobs(fleet) -> None:
    service = QRIOService(fleet, OrchestratorEngine(seed=11, canary_shots=128))
    # 32 users submit the same GHZ circuit: one scheduling pass, one execution.
    handles = service.submit_batch([ghz(4) for _ in range(32)], 0.9, shots=512)
    service.process()
    stats = service.stats()
    print(f"Batch of {stats['submitted']} structurally-identical jobs:")
    print(f"  scheduling/execution passes: {stats['groups_executed']}")
    print(f"  jobs served from the group:  {stats['jobs_deduplicated']}")
    shared = handles[0].result()
    assert all(handle.result().counts == shared.counts for handle in handles)
    print(f"  every handle completed on {shared.device} "
          f"(group size {shared.group_size})")
    print()


def cloud_engine(fleet) -> None:
    engine = CloudEngine(inter_arrival_s=30.0)
    service = QRIOService(fleet, engine)
    for _ in range(6):
        service.submit(ghz(4), 0.8, shots=256)
    service.process()
    simulation = engine.simulation_result()
    print("Same API, cloud engine (discrete-event queueing simulation):")
    print(f"  jobs per device: {simulation.jobs_per_device()}")
    print(f"  mean wait {simulation.mean_wait():.1f}s, "
          f"mean fidelity {simulation.mean_fidelity():.3f}")


def concurrent_runtime(fleet) -> None:
    # Each executed job occupies its device for 30ms of wall-clock time (the
    # regime a real cloud lives in); four workers overlap the occupancy of
    # different devices through per-device lanes.  Round-robin routing
    # spreads the stream across the fleet so the lanes have work to overlap.
    engine = DeviceLatencyEngine(
        CloudEngine(policy="round-robin", inter_arrival_s=5.0), latency_s=0.03
    )
    service = QRIOService(fleet, engine, workers=4, max_pending=64)
    finished = []
    start = time.perf_counter()
    handles = [
        service.submit(
            ghz(4),
            JobRequirements(fidelity_threshold=0.8, priority=index % 2),
            shots=128 + index,  # distinct shot budgets: no dedup, 12 real jobs
        )
        for index in range(12)
    ]
    handles[0].add_done_callback(lambda handle: finished.append(handle.name))
    print("Concurrent runtime (4 workers, per-device lanes):")
    print(f"  submitted {len(handles)} jobs without blocking; "
          f"first is {handles[0].state.value!r}")
    service.process()  # drain barrier
    elapsed = time.perf_counter() - start
    print(f"  all done = {all(handle.done for handle in handles)}, "
          f"callback saw {finished}")
    print(f"  {len(handles)} x 30ms device occupancy finished in {elapsed*1000:.0f}ms "
          f"(serial floor would be {len(handles) * 30}ms)")
    service.close()


def main() -> None:
    fleet = generate_fleet(limit=8, seed=7)
    single_job(fleet)
    batched_jobs(fleet)
    cloud_engine(fleet)
    print()
    concurrent_runtime(fleet)


if __name__ == "__main__":
    main()
