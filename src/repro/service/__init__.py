"""Unified job service: one submission API over the orchestrator and cloud engines.

The historical codebase had disjoint front doors — the synchronous
:class:`~repro.core.QRIO` facade and the trace-driven
:class:`~repro.cloud.CloudSimulator`.  This package consolidates them behind
one service:

* :class:`QRIOService` — owns a fleet plus a pluggable execution engine,
  exposes ``submit``/``submit_batch`` with an explicit job lifecycle and
  structural batch deduplication, and runs every job through its
  :class:`ServiceRuntime`;
* :class:`ServiceRuntime` — the one execution path: a weighted-fair tenant
  queue ordered within a tenant by ``JobRequirements.priority``/
  ``deadline_s``, a serialized MATCHING step and per-device shard lanes
  (different devices may run concurrently, same-device jobs serialize).
  ``workers=0`` (the default) starts no thread — the caller's thread runs
  the dispatch step inline; ``workers=N`` adds a dispatcher thread and a
  bounded ``ThreadPoolExecutor`` so submission and execution decouple, with
  ``max_pending`` backpressure surfacing as
  :class:`~repro.utils.exceptions.ServiceOverloadedError`.  At
  ``workers=N`` a warm group also skips the queue: the submitting thread
  replays its plan (``ExecutionEngine.replay``) and hands it to its lane,
  but only while (a) no group is queued, (b) no fault injector is attached
  and (c) the plan's node keeps room for the group in MATCHING, so routing
  stays that of the serialized order;
* :class:`JobHandle` — the one handle both front desks return:
  ``status()`` / ``result()`` / ``events()`` over the
  ``QUEUED → MATCHING → RUNNING → DONE/FAILED`` state machine, plus the
  futures-style surface: ``wait(timeout=...)``,
  ``done``, ``add_done_callback`` and streaming ``events(follow=True)``;
* :class:`ExecutionEngine` + :class:`OrchestratorEngine` /
  :class:`CloudEngine` / :class:`DeviceLatencyEngine`
  — the one protocol and its adapters (the latter decorates any engine with
  wall-clock device occupancy, the workload ``BENCH_concurrency.json``
  measures);
* the shared request/response dataclasses (:class:`JobSpec`,
  :class:`JobRequirements`, :class:`JobStatus`, :class:`ServiceResult`, ...);
* :class:`ShardedService` — the process-sharded front desk: the fleet
  partitioned across N spawn-safe worker processes, each running a whole
  :class:`QRIOService`, tenants routed by consistent hash (device pins
  override), results and wait statistics merged back into the one
  service-shaped API and the same :class:`JobHandle`.
"""

from repro.service.api import (
    ALLOWED_TRANSITIONS,
    EngineResult,
    ExecutionEngine,
    JobEvent,
    JobRequirements,
    JobSpec,
    JobState,
    JobStatus,
    Placement,
    ServiceResult,
)
from repro.service.engines import CloudEngine, DeviceLatencyEngine, OrchestratorEngine
from repro.service.handle import JobHandle
from repro.service.runtime import ServiceRuntime
from repro.service.service import QRIOService, RequirementsLike
from repro.service.sharding import (
    EngineSpec,
    ShardedService,
    ShardJob,
    ShardOutcome,
    ShardRequest,
    pinned_device_of,
)
from repro.utils.exceptions import ServiceOverloadedError

__all__ = [
    "ALLOWED_TRANSITIONS",
    "CloudEngine",
    "DeviceLatencyEngine",
    "EngineResult",
    "EngineSpec",
    "ExecutionEngine",
    "JobEvent",
    "JobHandle",
    "JobRequirements",
    "JobSpec",
    "JobState",
    "JobStatus",
    "OrchestratorEngine",
    "Placement",
    "QRIOService",
    "RequirementsLike",
    "ServiceOverloadedError",
    "ServiceResult",
    "ServiceRuntime",
    "ShardJob",
    "ShardOutcome",
    "ShardRequest",
    "ShardedService",
    "pinned_device_of",
]
