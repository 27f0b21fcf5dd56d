"""Process-sharded dispatch: one fleet, N single-process QRIO services.

:class:`ShardedService` is the service layer's multi-process front desk.  It
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

The parent's submission surface is not its own: ``submit`` /
``submit_batch`` / ``submit_specs``, naming, the per-tenant
:class:`~repro.tenancy.AdmissionController` gate, the tenant ledger and
``job`` / ``jobs`` / ``wait_report`` / ``tenants_report`` come from the
:class:`~repro.service.service.FrontDesk` that :class:`~repro.service.QRIOService`
also uses, so both fronts name, admit and count jobs by one set of rules and
a rejected batch leaves no trace on either.  This module keeps what is
sharded: the hash ring and pinned-device routing, the shard processes and
their pipes, the collector thread (which feeds shipped-back waits to the
admission controller), dead-shard handling, :class:`ShardHandle`, and the
shard columns of ``stats()``.
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.cloud.simulation import CloudSimulationConfig
from repro.policies import PinnedDevicePolicy, parse_policy_spec
from repro.service.api import JobEvent, JobSpec, JobState, ServiceResult
from repro.service.engines import CloudEngine, DeviceLatencyEngine, OrchestratorEngine
from repro.service.handle import wall_wait_from_events
from repro.service.service import FrontDesk, QRIOService
from repro.tenancy.admission import AdmissionController
from repro.utils.exceptions import JobFailedError, ServiceError, ShardDiedError

#: Virtual nodes per shard on the consistent-hash ring.  64 points per shard
#: keeps the tenant->shard assignment within a few percent of uniform while
#: the ring stays tiny (shards x 64 entries).
DEFAULT_VNODES = 64

_ENGINE_KINDS = ("orchestrator", "cloud")


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
        kind: ``"orchestrator"`` or ``"cloud"``.
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
        canary_shots: Orchestrator canary budget (ignored by cloud).
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
        if self.kind == "orchestrator":
            engine = OrchestratorEngine(
                policy=self.policy, seed=self.seed, canary_shots=self.canary_shots
            )
        else:
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
        self._failure: type = JobFailedError

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
            ShardDiedError: The job's shard process died before reporting.
            JobFailedError: The job failed shard-side.
        """
        if not self._done.wait(timeout):
            raise ServiceError(f"Timed out waiting for sharded job '{self._name}'")
        outcome = self._outcome
        assert outcome is not None
        if not outcome.succeeded or outcome.result is None:
            raise self._failure(f"Sharded job '{self._name}' failed: {outcome.error}")
        return outcome.result

    def _resolve(self, outcome: ShardOutcome, failure: type = JobFailedError) -> None:
        self._outcome = outcome
        self._failure = failure
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardHandle({self._name!r}, shard={self._shard_index}, state={self.state.value})"


# --------------------------------------------------------------------------- #
# The meta-dispatcher
# --------------------------------------------------------------------------- #
class ShardedService(FrontDesk):
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

    Submission, naming, admission and the tenant ledger are the shared
    :class:`~repro.service.service.FrontDesk`'s.  The parent never sees a
    shard-side job start, so every outstanding job counts as *queued* and
    ``inflight`` stays 0.  ``block`` has no effect: shard inboxes are
    unbounded.
    """

    NAME_PREFIX = "shard-"

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
        super().__init__(admission)
        self._engine_spec = engine
        #: Drain wake-up: the tenant ledger emptied.
        self._drained = threading.Condition(self._state_lock)
        self._by_job_id: Dict[int, ShardHandle] = {}
        self._next_job_id = 1
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
                    self._fail_locked(handle, f"shard died: {detail}", ShardDiedError)

    def _fail_locked(self, handle: ShardHandle, error: str, failure: type = JobFailedError) -> None:
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
            failure,
        )

    def _resolve_locked(
        self, handle: ShardHandle, outcome: ShardOutcome, failure: type = JobFailedError
    ) -> None:
        handle._resolve(outcome, failure)
        self._settle_locked(self._tenant_queued, handle.tenant_id, 1, outcome.succeeded)
        if self._admission is not None:
            wait = wall_wait_from_events(list(outcome.events))
            if wait is not None:
                self._admission.observe_wait(wait)
        if not self._tenant_queued:
            self._drained.notify_all()

    def _release_queued_locked(self, specs: Sequence[JobSpec]) -> None:
        super()._release_queued_locked(specs)
        if not self._tenant_queued:
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
    # The shared desk's back end: routing and the shard inboxes
    # ------------------------------------------------------------------ #
    def _prepare_locked(self, specs: Sequence[JobSpec], names: List[str]) -> Tuple[list, object]:
        # Routing validates pinned devices before admission sees the batch.
        handles = [
            ShardHandle(name, spec if spec.name == name else replace(spec, name=name), self._route(spec))
            for spec, name in zip(specs, names)
        ]
        return handles, handles

    def _dispatch(self, work: object, *, block: bool) -> None:
        dispatch: List[Tuple[int, ShardJob]] = []
        with self._state_lock:
            # Checked here, under the lock close() takes, so no handle can
            # register after close() swept the unresolved ones.
            if self._closed:
                raise ServiceError("ShardedService is closed")
            for handle in work:
                shard_index = handle.shard_index
                self._shard_jobs[shard_index] += 1
                if shard_index in self._dead_shards:
                    self._fail_locked(handle, f"shard died: {self._dead_shards[shard_index]}", ShardDiedError)
                    continue
                job_id = self._next_job_id
                self._next_job_id += 1
                self._by_job_id[job_id] = handle
                dispatch.append((shard_index, ShardJob(job_id=job_id, spec=handle.spec)))
        for shard_index, job in dispatch:
            self._inboxes[shard_index].put(job)

    # ------------------------------------------------------------------ #
    # Introspection / draining
    # ------------------------------------------------------------------ #
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
            if not self._drained.wait_for(lambda: not self._tenant_queued, timeout=timeout):
                raise ServiceError(
                    f"Timed out draining sharded service ({sum(self._tenant_queued.values())} outstanding)"
                )

    @property
    def num_shards(self) -> int:
        """Number of worker processes."""
        return len(self._processes)

    def shard_fleets(self) -> List[Tuple[str, ...]]:
        """Device names per shard (the partition, for tests and docs)."""
        return [tuple(device.name for device in sub) for sub in self._shard_fleets]

    def stats(self) -> Dict[str, object]:
        """Dispatcher counters plus per-shard job tallies."""
        with self._state_lock:
            return {
                "shards": len(self._processes),
                "outstanding": sum(self._tenant_queued.values()),
                **dict(self._counters),
                "jobs_per_shard": dict(self._shard_jobs),
                "dead_shards": dict(self._dead_shards),
            }

    def _tenant_columns(self, tenant_id: str) -> Dict[str, object]:
        return {"shard": self.shard_of_tenant(tenant_id)}


def pinned_device_of(policy: Optional[object]) -> Optional[str]:
    """Extract the device name from a pinned-placement policy, if any.

    Accepts the registry spec string (``"pinned:device=NAME"``) or a
    :class:`~repro.policies.PinnedDevicePolicy` instance; anything else
    (including ``None``) returns ``None``.
    """
    if policy is None:
        return None
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
    source_root = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if source_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([source_root] + parts)
