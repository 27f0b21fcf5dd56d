"""Process-sharded dispatch: one fleet, N single-process QRIO services.

:class:`ShardedService` is the meta-dispatcher of the tenancy layer.  It
partitions a device fleet across ``N`` worker *processes* (spawn context, so
the topology is identical on every platform and nothing leaks through fork),
rebuilds the execution engine inside each shard from a picklable
:class:`EngineSpec` recipe, and routes submissions to shards by a
consistent hash of the submitting tenant — jobs pinned to a device (the
``pinned:device=...`` policy) override the hash and go to the shard that
owns the device.

Why processes?  The in-process :class:`~repro.service.ServiceRuntime`
already overlaps device-occupancy windows across threads, but every
simulator in this repo is CPU-bound Python, so the GIL caps the *compute*
overlap a thread pool can deliver.  Sharding moves whole sub-fleets into
separate interpreters: matching, plan compilation and execution of different
shards genuinely run in parallel, which is what the
``BENCH_concurrency.json`` ``sharded`` row measures.

Everything crossing the process boundary is a frozen dataclass the pickle
contract (:mod:`repro.analysis.serialization`) covers:

* :class:`EngineSpec` — the engine *recipe* (engines themselves hold locks
  and sessions, so each shard builds its own and warms its own plan store);
* :class:`ShardRequest` — one shard's sub-fleet, engine recipe and warmup;
* :class:`ShardJob` / :class:`ShardOutcome` — the per-job request/response
  envelope; outcomes carry the job's full :class:`~repro.service.JobEvent`
  history so the parent can merge wait statistics across shards
  (``time.monotonic`` is system-wide on Linux, so child timestamps are
  directly comparable).

The parent keeps the :class:`~repro.service.QRIOService`-shaped surface —
``submit`` / ``submit_batch`` returning handle objects, ``process()`` as the
drain barrier, ``wait_report()`` / ``tenants_report()`` / ``stats()`` — and
runs the same per-tenant :class:`~repro.tenancy.AdmissionController` gate in
front of routing, fed by the waits shipped back in outcomes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
from bisect import bisect_right
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as wait_readable
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.service.api import JobEvent, JobSpec, JobState, ServiceResult
from repro.service.handle import wall_wait_from_events
from repro.tenancy.admission import AdmissionController
from repro.tenancy.api import Tenant
from repro.utils.exceptions import JobFailedError, ServiceError

#: Virtual nodes per shard on the consistent-hash ring.  64 points per shard
#: keeps the tenant->shard assignment within a few percent of uniform while
#: the ring stays tiny (shards x 64 entries).
DEFAULT_VNODES = 64

_ENGINE_KINDS = ("orchestrator", "cluster", "cloud")


def _stable_hash(text: str) -> int:
    """Position of ``text`` on the hash ring.

    sha256, *not* the builtin ``hash``: routing must be identical across
    processes and runs, and ``PYTHONHASHSEED`` randomises ``hash(str)``.
    """
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# --------------------------------------------------------------------------- #
# The picklable wire dataclasses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for building an execution engine inside a shard.

    Engines cannot be shipped (they hold locks, sessions and caches), so the
    parent sends the recipe and every shard builds — and warms — its own.

    Attributes:
        kind: ``"orchestrator"``, ``"cluster"`` or ``"cloud"``.
        policy: Default placement policy as a registry spec string
            (``"round-robin"``, ``"fidelity:queue_weight=0.3"``...); strings
            only, so the recipe stays picklable.  ``None`` keeps the
            engine's native path.
        seed: Engine base seed (per-shard determinism comes from the fleet
            partition, not from reseeding).
        latency_s: ``> 0`` wraps the engine in a
            :class:`~repro.service.DeviceLatencyEngine` with this occupancy.
        fidelity_report: Cloud engine fidelity mode (ignored elsewhere).
        inter_arrival_s: Cloud engine logical arrival gap (ignored elsewhere).
        canary_shots: Orchestrator/cluster canary budget (ignored by cloud).
    """

    kind: str = "orchestrator"
    policy: Optional[str] = None
    seed: Optional[int] = None
    latency_s: float = 0.0
    fidelity_report: str = "esp"
    inter_arrival_s: float = 1.0
    canary_shots: int = 512

    def __post_init__(self) -> None:
        if self.kind not in _ENGINE_KINDS:
            raise ServiceError(f"EngineSpec.kind must be one of {_ENGINE_KINDS}, not {self.kind!r}")
        if self.policy is not None and not isinstance(self.policy, str):
            raise ServiceError("EngineSpec.policy must be a registry spec string (picklable)")
        if self.latency_s < 0:
            raise ServiceError("EngineSpec.latency_s must be >= 0")

    def build(self):
        """Construct the engine this recipe describes (called per shard)."""
        from repro.service.engines import (
            CloudEngine,
            ClusterEngine,
            DeviceLatencyEngine,
            OrchestratorEngine,
        )

        if self.kind == "orchestrator":
            engine = OrchestratorEngine(
                policy=self.policy, seed=self.seed, canary_shots=self.canary_shots
            )
        elif self.kind == "cluster":
            engine = ClusterEngine(
                policy=self.policy, seed=self.seed, canary_shots=self.canary_shots
            )
        else:
            from repro.cloud.simulation import CloudSimulationConfig

            engine = CloudEngine(
                self.policy,
                config=CloudSimulationConfig(fidelity_report=self.fidelity_report, seed=self.seed),
                inter_arrival_s=self.inter_arrival_s,
            )
        if self.latency_s > 0:
            engine = DeviceLatencyEngine(engine, latency_s=self.latency_s)
        return engine


@dataclass(frozen=True)
class ShardRequest:
    """Everything one worker process needs to stand up its shard service."""

    shard_index: int
    num_shards: int
    fleet: Tuple[Backend, ...]
    engine: EngineSpec
    workers: int = 0
    max_pending: Optional[int] = None
    #: Specs submitted and drained before the shard reports ready — the
    #: per-shard plan warmup (each shard's engine owns its plan store).
    warmup: Tuple[JobSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.shard_index < 0 or self.shard_index >= self.num_shards:
            raise ServiceError("ShardRequest.shard_index must be within [0, num_shards)")
        if not self.fleet:
            raise ServiceError("ShardRequest.fleet must contain at least one device")


@dataclass(frozen=True)
class ShardJob:
    """One job crossing the parent -> shard boundary."""

    job_id: int
    spec: JobSpec

    def __post_init__(self) -> None:
        if self.spec.name is None:
            raise ServiceError("ShardJob specs must carry parent-assigned names")


@dataclass(frozen=True)
class ShardOutcome:
    """One job's terminal report crossing the shard -> parent boundary."""

    job_id: int
    job_name: str
    shard_index: int
    succeeded: bool
    result: Optional[ServiceResult] = None
    error: Optional[str] = None
    events: Tuple[JobEvent, ...] = ()


# --------------------------------------------------------------------------- #
# The worker process
# --------------------------------------------------------------------------- #
def _sanitized_result(result: ServiceResult) -> ServiceResult:
    """Drop detail values that cannot cross the pickle boundary."""
    safe: Dict[str, object] = {}
    for key, value in result.detail.items():
        try:
            pickle.dumps(value)
        except Exception:  # noqa: BLE001 - anything unpicklable degrades to repr
            safe[key] = repr(value)
        else:
            safe[key] = value
    return replace(result, detail=safe)


def _outcome_of(handle, job_id: int, shard_index: int) -> ShardOutcome:
    """Terminal handle -> wire outcome (events ride along for wait merging)."""
    events = tuple(handle.events())
    if handle.state is JobState.DONE:
        return ShardOutcome(
            job_id=job_id,
            job_name=handle.name,
            shard_index=shard_index,
            succeeded=True,
            result=_sanitized_result(handle.result(wait=False)),
            events=events,
        )
    status = handle.status()
    return ShardOutcome(
        job_id=job_id,
        job_name=handle.name,
        shard_index=shard_index,
        succeeded=False,
        error=status.message,
        events=events,
    )


def _shard_main(request: ShardRequest, inbox, outbox) -> None:
    """Worker-process entry point: one shard's submit/execute/report loop.

    Module-level (not a closure) so the spawn start method can import it;
    everything it touches arrives pickled through ``request`` and ``inbox``.
    ``outbox`` is the write end of this shard's own pipe to the parent.
    """
    from repro.service.service import QRIOService

    try:
        engine = request.engine.build()
        service = QRIOService(
            list(request.fleet),
            engine,
            workers=request.workers,
            max_pending=request.max_pending,
        )
        for spec in request.warmup:
            warm = service.submit_specs([spec])
            service.process()
            del warm
    except BaseException as error:  # noqa: BLE001 - startup failure must reach the parent
        outbox.send(("fatal", request.shard_index, f"shard startup failed: {error!r}"))
        return
    outbox.send(("ready", request.shard_index))
    try:
        with service:
            while True:
                item = inbox.get()
                if item is None:
                    service.process()
                    break
                job: ShardJob = item
                try:
                    handle = service.submit_specs([job.spec])[0]
                    service.process(handle)
                    outcome = _outcome_of(handle, job.job_id, request.shard_index)
                except BaseException as error:  # noqa: BLE001 - per-job fault isolation
                    outcome = ShardOutcome(
                        job_id=job.job_id,
                        job_name=job.spec.name or f"job-{job.job_id}",
                        shard_index=request.shard_index,
                        succeeded=False,
                        error=f"shard execution error: {error!r}",
                    )
                outbox.send(("outcome", outcome))
    except BaseException as error:  # noqa: BLE001 - loop failure must reach the parent
        outbox.send(("fatal", request.shard_index, f"shard loop failed: {error!r}"))
        return
    outbox.send(("exit", request.shard_index))


# --------------------------------------------------------------------------- #
# Parent-side handles
# --------------------------------------------------------------------------- #
class ShardHandle:
    """Future-shaped view of one job dispatched to a shard process.

    A deliberately small sibling of :class:`~repro.service.JobHandle`: the
    lifecycle detail lives in the shard; the parent sees QUEUED until the
    terminal outcome (with the full event history) ships back.
    """

    def __init__(self, name: str, spec: JobSpec, shard_index: int) -> None:
        self._name = name
        self._spec = spec
        self._shard_index = shard_index
        self._done = threading.Event()
        self._outcome: Optional[ShardOutcome] = None

    @property
    def name(self) -> str:
        """Parent-assigned unique job name."""
        return self._name

    @property
    def spec(self) -> JobSpec:
        """The submitted spec (tenant rides on its requirements)."""
        return self._spec

    @property
    def shard_index(self) -> int:
        """The shard this job was routed to."""
        return self._shard_index

    @property
    def tenant_id(self) -> str:
        """The owning tenant's id."""
        return self._spec.requirements.tenant_id

    @property
    def state(self) -> JobState:
        """QUEUED until the shard reports, then DONE or FAILED."""
        outcome = self._outcome
        if outcome is None:
            return JobState.QUEUED
        return JobState.DONE if outcome.succeeded else JobState.FAILED

    def done(self) -> bool:
        """``True`` once the shard's terminal outcome arrived."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the outcome arrives; ``False`` on timeout."""
        return self._done.wait(timeout)

    def events(self) -> Tuple[JobEvent, ...]:
        """The job's shard-side event history (empty until done)."""
        outcome = self._outcome
        return outcome.events if outcome is not None else ()

    def error(self) -> Optional[str]:
        """The failure message, or ``None`` (also while still pending)."""
        outcome = self._outcome
        return outcome.error if outcome is not None else None

    def result(self, timeout: Optional[float] = None) -> ServiceResult:
        """Block for and return the job's result.

        Raises:
            ServiceError: Timed out waiting for the shard.
            JobFailedError: The job failed shard-side.
        """
        if not self._done.wait(timeout):
            raise ServiceError(f"Timed out waiting for sharded job '{self._name}'")
        outcome = self._outcome
        assert outcome is not None
        if not outcome.succeeded or outcome.result is None:
            raise JobFailedError(f"Sharded job '{self._name}' failed: {outcome.error}")
        return outcome.result

    def _resolve(self, outcome: ShardOutcome) -> None:
        self._outcome = outcome
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardHandle({self._name!r}, shard={self._shard_index}, state={self.state.value})"


# --------------------------------------------------------------------------- #
# The meta-dispatcher
# --------------------------------------------------------------------------- #
class ShardedService:
    """Partition a fleet across N worker processes behind one submit API.

    Args:
        fleet: The full device fleet; devices are name-sorted and dealt
            round-robin across shards (``sorted[s::shards]``) so every shard
            spans the fleet's size/connectivity spectrum.
        shards: Number of worker processes.
        engine: The :class:`EngineSpec` recipe every shard builds.
        workers: In-shard :class:`~repro.service.QRIOService` worker count
            (``0`` dispatches inline in each shard's loop — parallelism
            comes from the processes themselves).
        max_pending: In-shard queue bound (requires ``workers >= 1``).
        admission: Parent-side :class:`~repro.tenancy.AdmissionController`
            gating submissions before routing; fed by the waits shipped back
            in shard outcomes.  ``None`` admits everything.
        warmup: Specs each shard submits and drains before reporting ready
            (per-shard plan-cache warmup).  Names are rewritten per shard.
        vnodes: Virtual nodes per shard on the consistent-hash ring.
        start_timeout_s: Seconds to wait for every shard to report ready.

    Routing: jobs go to ``ring(tenant_id)`` unless their requirements carry
    a ``pinned:device=...`` policy, in which case they go to the shard that
    owns the pinned device — the device-affinity override.
    """

    def __init__(
        self,
        fleet: Sequence[Backend],
        *,
        shards: int = 2,
        engine: Optional[EngineSpec] = None,
        workers: int = 0,
        max_pending: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
        warmup: Sequence[JobSpec] = (),
        vnodes: int = DEFAULT_VNODES,
        start_timeout_s: float = 120.0,
    ) -> None:
        if shards < 1:
            raise ServiceError("shards must be >= 1")
        if len(fleet) < shards:
            raise ServiceError(
                f"Cannot split {len(fleet)} devices across {shards} shards "
                "(every shard needs at least one device)"
            )
        if vnodes < 1:
            raise ServiceError("vnodes must be >= 1")
        engine = engine if engine is not None else EngineSpec()
        ordered = sorted(fleet, key=lambda device: device.name)
        self._shard_fleets: List[Tuple[Backend, ...]] = [
            tuple(ordered[index::shards]) for index in range(shards)
        ]
        self._device_shard: Dict[str, int] = {
            device.name: index
            for index, sub_fleet in enumerate(self._shard_fleets)
            for device in sub_fleet
        }
        self._ring: List[Tuple[int, int]] = sorted(
            (_stable_hash(f"shard-{index}/vnode-{vnode}"), index)
            for index in range(shards)
            for vnode in range(vnodes)
        )
        self._admission = admission
        self._engine_spec = engine
        self._state_lock = threading.Lock()
        self._drained = threading.Condition(self._state_lock)
        self._handles: Dict[str, ShardHandle] = {}
        self._by_job_id: Dict[int, ShardHandle] = {}
        self._names_taken: set = set()
        self._next_name = 1
        self._next_job_id = 1
        self._outstanding = 0
        self._tenant_outstanding: Dict[str, int] = {}
        self._tenants_seen: Dict[str, Tenant] = {}
        self._counters = {
            "submitted": 0,
            "jobs_succeeded": 0,
            "jobs_failed": 0,
        }
        self._shard_jobs: Dict[int, int] = {index: 0 for index in range(shards)}
        self._dead_shards: Dict[int, str] = {}
        self._closed = False

        _ensure_child_importable()
        context = multiprocessing.get_context("spawn")
        self._inboxes = [context.Queue() for _ in range(shards)]
        #: Read end of each shard's own pipe.  A shared queue would share one
        #: cross-process write lock, and a shard killed while holding it
        #: would silence every other shard; a pipe has a single writer, and
        #: its death reads as EOF.
        self._outboxes = []
        self._processes = []
        for index in range(shards):
            request = ShardRequest(
                shard_index=index,
                num_shards=shards,
                fleet=self._shard_fleets[index],
                engine=engine,
                workers=workers,
                max_pending=max_pending,
                warmup=tuple(
                    replace(spec, name=f"warmup-s{index}-{position:03d}")
                    for position, spec in enumerate(warmup)
                ),
            )
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_shard_main,
                args=(request, self._inboxes[index], writer),
                name=f"qrio-shard-{index}",
                daemon=True,
            )
            process.start()
            writer.close()  # the shard now holds the only write end
            self._outboxes.append(reader)
            self._processes.append(process)
        self._await_ready(start_timeout_s)
        self._collector = threading.Thread(
            target=self._collect_loop, name="qrio-shard-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    # Startup / shutdown
    # ------------------------------------------------------------------ #
    def _await_ready(self, timeout_s: float) -> None:
        waiting = dict(zip(self._outboxes, range(len(self._outboxes))))
        while waiting:
            readable = wait_readable(list(waiting), timeout=timeout_s)
            if not readable:
                self._terminate_all()
                ready = len(self._outboxes) - len(waiting)
                raise ServiceError(
                    f"Sharded service startup timed out ({ready}/{len(self._outboxes)} shards ready)"
                )
            for reader in readable:
                index = waiting[reader]
                message = self._receive(reader, index)
                if message[0] == "ready":
                    del waiting[reader]
                else:  # "fatal", or the shard died silently
                    self._terminate_all()
                    raise ServiceError(f"Shard {index} failed to start: {message[2]}")

    def _receive(self, reader, index: int) -> Tuple:
        """One message from shard ``index``; a closed pipe reads as ``fatal``.

        The shard holds the only write end of its pipe, so EOF means its
        process is gone without a word (killed by a signal, say).
        """
        try:
            return reader.recv()
        except (EOFError, OSError):
            process = self._processes[index]
            process.join(timeout=5.0)
            return ("fatal", index, f"exit code {process.exitcode}")

    def _terminate_all(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)

    def close(self) -> None:
        """Drain every shard, stop the workers and join the collector.

        Like :meth:`QRIOService.close` this is a drain, not an abort:
        already-dispatched jobs finish and their outcomes are collected
        before the processes exit.  Idempotent.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for inbox in self._inboxes:
            inbox.put(None)
        self._collector.join(timeout=60.0)
        for process in self._processes:
            process.join(timeout=10.0)
        self._terminate_all()
        # Anything still unresolved after shutdown fails loudly.
        with self._state_lock:
            for handle in self._by_job_id.values():
                if not handle.done():
                    self._fail_locked(handle, "sharded service closed before the job completed")

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The collector thread
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        # Until each shard sends "exit" or "fatal", or its pipe closes.
        live = dict(zip(self._outboxes, range(len(self._outboxes))))
        while live:
            for reader in wait_readable(list(live)):
                index = live[reader]
                message = self._receive(reader, index)
                kind = message[0]
                if kind == "exit":
                    del live[reader]
                    continue
                if kind == "fatal":
                    del live[reader]
                    self._shard_died(index, message[2])
                    continue
                outcome: ShardOutcome = message[1]
                with self._state_lock:
                    handle = self._by_job_id.get(outcome.job_id)
                    if handle is None:
                        continue
                    self._resolve_locked(handle, outcome)

    def _shard_died(self, shard_index: int, detail: str) -> None:
        """Record a dead shard and fail every unresolved handle it owned."""
        with self._state_lock:
            self._dead_shards[shard_index] = detail
            for handle in list(self._by_job_id.values()):
                if handle.shard_index == shard_index and not handle.done():
                    self._fail_locked(handle, f"shard died: {detail}")

    def _fail_locked(self, handle: ShardHandle, error: str) -> None:
        """Resolve ``handle`` as failed with ``error`` (caller holds the lock)."""
        self._resolve_locked(
            handle,
            ShardOutcome(
                job_id=-1,
                job_name=handle.name,
                shard_index=handle.shard_index,
                succeeded=False,
                error=error,
            ),
        )

    def _resolve_locked(self, handle: ShardHandle, outcome: ShardOutcome) -> None:
        handle._resolve(outcome)
        tenant_id = handle.tenant_id
        count = self._tenant_outstanding.get(tenant_id, 0) - 1
        if count > 0:
            self._tenant_outstanding[tenant_id] = count
        else:
            self._tenant_outstanding.pop(tenant_id, None)
        # qrio: allow[QRIO-C001] every caller holds _state_lock (the _locked suffix contract)
        self._outstanding -= 1
        if outcome.succeeded:
            self._counters["jobs_succeeded"] += 1
        else:
            self._counters["jobs_failed"] += 1
        if self._admission is not None:
            wait = wall_wait_from_events(list(outcome.events))
            if wait is not None:
                self._admission.observe_wait(wait)
        if self._outstanding == 0:
            self._drained.notify_all()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def shard_of_device(self, device_name: str) -> int:
        """The shard owning ``device_name``.

        Raises:
            ServiceError: Unknown device.
        """
        try:
            return self._device_shard[device_name]
        except KeyError:
            raise ServiceError(f"Device '{device_name}' is not part of this sharded fleet")

    def shard_of_tenant(self, tenant_id: str) -> int:
        """Consistent-hash shard for ``tenant_id`` (stable across runs)."""
        point = _stable_hash(tenant_id)
        index = bisect_right(self._ring, (point, len(self._processes)))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def _route(self, spec: JobSpec) -> int:
        pinned = pinned_device_of(spec.requirements.policy)
        if pinned is not None:
            return self.shard_of_device(pinned)
        return self.shard_of_tenant(spec.requirements.tenant_id)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        circuit: QuantumCircuit,
        requirements=None,
        *,
        shots: int = 1024,
        name: Optional[str] = None,
        policy: Optional[object] = None,
    ) -> ShardHandle:
        """Route one job to its shard; returns the parent-side handle."""
        from repro.service.service import _apply_policy, _coerce_requirements

        spec = JobSpec(
            circuit=circuit,
            requirements=_apply_policy(_coerce_requirements(requirements), policy),
            shots=shots,
            name=name,
        )
        return self.submit_specs([spec])[0]

    def submit_batch(
        self,
        circuits: Iterable[QuantumCircuit],
        requirements=None,
        *,
        shots: int = 1024,
        policy: Optional[object] = None,
    ) -> List[ShardHandle]:
        """Route many jobs at once (admission sees them as one batch)."""
        from repro.service.service import _apply_policy, _coerce_requirements

        coerced = _apply_policy(_coerce_requirements(requirements), policy)
        specs = [JobSpec(circuit=circuit, requirements=coerced, shots=shots) for circuit in circuits]
        return self.submit_specs(specs)

    def submit_specs(self, specs: Sequence[JobSpec]) -> List[ShardHandle]:
        """Admit, name, route and dispatch pre-built specs atomically.

        Raises:
            ServiceError: Service closed, duplicate name, or a pinned device
                is unknown.
            AdmissionRejectedError: The admission controller rejected a
                tenant's slice of the batch.
        """
        dispatch: List[Tuple[int, ShardJob]] = []
        handles: List[ShardHandle] = []
        with self._state_lock:
            if self._closed:
                raise ServiceError("ShardedService is closed")
            # Route (and validate pinned devices) before any state changes.
            shard_indices = [self._route(spec) for spec in specs]
            if self._admission is not None:
                batches: Dict[str, List[int]] = {}
                tenants: Dict[str, Tenant] = {}
                for spec in specs:
                    tenant = spec.requirements.effective_tenant
                    tenants[tenant.id] = tenant
                    entry = batches.setdefault(tenant.id, [0, 0])
                    entry[0] += 1
                    entry[1] += spec.shots
                for tenant_id, (jobs, batch_shots) in batches.items():
                    # Parent-side accounting cannot split queued from running
                    # inside a shard, so all outstanding work counts as queued
                    # (the conservative reading for quota purposes).
                    self._admission.admit(
                        tenants[tenant_id],
                        queued=self._tenant_outstanding.get(tenant_id, 0),
                        inflight=0,
                        batch_jobs=jobs,
                        batch_shots=batch_shots,
                    )
            names: List[str] = []
            for spec in specs:
                if spec.name is None:
                    candidate = f"shard-{self._next_name:04d}"
                    while candidate in self._names_taken:
                        self._next_name += 1
                        candidate = f"shard-{self._next_name:04d}"
                    self._next_name += 1
                else:
                    candidate = spec.name
                    if candidate in self._names_taken:
                        raise ServiceError(
                            f"A job named '{candidate}' was already submitted to this service"
                        )
                names.append(candidate)
                self._names_taken.add(candidate)
            for spec, shard_index, job_name in zip(specs, shard_indices, names):
                named = spec if spec.name == job_name else replace(spec, name=job_name)
                job_id = self._next_job_id
                self._next_job_id += 1
                handle = ShardHandle(job_name, named, shard_index)
                self._handles[job_name] = handle
                self._by_job_id[job_id] = handle
                tenant = named.requirements.effective_tenant
                self._tenants_seen[tenant.id] = tenant
                self._tenant_outstanding[tenant.id] = (
                    self._tenant_outstanding.get(tenant.id, 0) + 1
                )
                self._outstanding += 1
                self._counters["submitted"] += 1
                self._shard_jobs[shard_index] += 1
                handles.append(handle)
                if shard_index in self._dead_shards:
                    self._fail_locked(handle, f"shard died: {self._dead_shards[shard_index]}")
                else:
                    dispatch.append((shard_index, ShardJob(job_id=job_id, spec=named)))
        for shard_index, job in dispatch:
            self._inboxes[shard_index].put(job)
        return handles

    # ------------------------------------------------------------------ #
    # Introspection / draining
    # ------------------------------------------------------------------ #
    def job(self, name: str) -> ShardHandle:
        """Look up a handle by job name.

        Raises:
            ServiceError: Unknown name.
        """
        with self._state_lock:
            if name not in self._handles:
                raise ServiceError(f"Unknown sharded job '{name}'")
            return self._handles[name]

    def jobs(self) -> List[ShardHandle]:
        """Every handle, in submission order."""
        with self._state_lock:
            return list(self._by_job_id.values())

    def process(self, handle: Optional[ShardHandle] = None, timeout: Optional[float] = None) -> None:
        """Drain barrier: block until ``handle`` (or everything) completes.

        Raises:
            ServiceError: Timed out.
        """
        if handle is not None:
            if not handle.wait(timeout):
                raise ServiceError(f"Timed out waiting for sharded job '{handle.name}'")
            return
        with self._drained:
            if not self._drained.wait_for(lambda: self._outstanding == 0, timeout=timeout):
                raise ServiceError(
                    f"Timed out draining sharded service ({self._outstanding} outstanding)"
                )

    @property
    def num_shards(self) -> int:
        """Number of worker processes."""
        return len(self._processes)

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The parent-side admission controller, or ``None``."""
        return self._admission

    def shard_fleets(self) -> List[Tuple[str, ...]]:
        """Device names per shard (the partition, for tests and docs)."""
        return [tuple(device.name for device in sub) for sub in self._shard_fleets]

    def stats(self) -> Dict[str, object]:
        """Dispatcher counters plus per-shard job tallies."""
        with self._state_lock:
            return {
                "shards": len(self._processes),
                "outstanding": self._outstanding,
                **dict(self._counters),
                "jobs_per_shard": dict(self._shard_jobs),
                "dead_shards": dict(self._dead_shards),
            }

    def wait_report(self) -> Dict[str, object]:
        """Merged wait/makespan statistics across every shard.

        Same vocabulary as :meth:`QRIOService.wait_report`, computed from
        the event histories shards ship back with each outcome — child
        ``time.monotonic`` stamps are system-wide on Linux, so merging the
        timelines of different processes is sound.
        """
        from repro.scenarios.metrics import wall_wait_report

        with self._state_lock:
            handles = list(self._by_job_id.values())
        return wall_wait_report(
            ((handle.tenant_id, handle.events()) for handle in handles),
            wall_wait_from_events,
        )

    def tenants_report(self) -> Dict[str, object]:
        """Per-tenant occupancy, quotas, routing and admission posture."""
        with self._state_lock:
            tenant_ids = sorted(set(self._tenants_seen) | set(self._tenant_outstanding))
            rows: Dict[str, Dict[str, object]] = {}
            for tenant_id in tenant_ids:
                tenant = self._tenants_seen.get(tenant_id) or Tenant(id=tenant_id)
                rows[tenant_id] = {
                    "weight": tenant.weight,
                    "max_pending": tenant.max_pending,
                    "max_inflight": tenant.max_inflight,
                    "shots_per_second": tenant.shots_per_second,
                    "queued": self._tenant_outstanding.get(tenant_id, 0),
                    "inflight": 0,
                    "shard": self.shard_of_tenant(tenant_id),
                    "state": (
                        self._admission.state(tenant_id).value
                        if self._admission is not None
                        else "accept"
                    ),
                }
            report: Dict[str, object] = {"tenants": rows}
            if self._admission is not None:
                report["admission"] = self._admission.report()
            return report


def pinned_device_of(policy: Optional[object]) -> Optional[str]:
    """Extract the device name from a pinned-placement policy, if any.

    Accepts the registry spec string (``"pinned:device=NAME"``) or a
    :class:`~repro.policies.PinnedDevicePolicy` instance; anything else
    (including ``None``) returns ``None``.
    """
    if policy is None:
        return None
    from repro.policies import PinnedDevicePolicy, parse_policy_spec

    if isinstance(policy, PinnedDevicePolicy):
        return policy.device
    if isinstance(policy, str):
        name, params = parse_policy_spec(policy)
        if name == "pinned" and params.get("device"):
            return str(params["device"])
    return None


def _ensure_child_importable() -> None:
    """Make sure spawned children can ``import repro``.

    The benchmark drivers (and ad-hoc scripts) often reach the package via
    ``sys.path`` manipulation rather than an installed distribution or a
    ``PYTHONPATH`` environment variable — state a spawned interpreter does
    *not* inherit.  Prepending the package's source root to ``PYTHONPATH``
    in our own environment closes that gap for every child we spawn.
    """
    import repro

    source_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if source_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([source_root] + parts)
