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
a rejected batch leaves no trace on either.  Both return the same
:class:`~repro.service.JobHandle`: it stays QUEUED in the parent until the
job's :class:`ShardOutcome` arrives, whose event history and result or error
the parent then copies into it (a dead shard's jobs fail with a
:class:`~repro.utils.exceptions.ShardDiedError` as their ``exception``); its
shard index is ``status().detail["shard"]``.  This module keeps what is
sharded: the hash ring and pinned-device routing, the shard processes and
their pipes, the collector thread (which feeds shipped-back waits to the
admission controller), dead-shard handling, and the shard columns of
``stats()``.
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
from repro.service.api import JobEvent, JobSpec, ServiceResult
from repro.service.engines import CloudEngine, DeviceLatencyEngine, OrchestratorEngine
from repro.service.handle import JobHandle, wall_wait_from_events
from repro.service.service import FrontDesk, QRIOService
from repro.tenancy.admission import AdmissionController
from repro.utils.exceptions import ServiceError, ShardDiedError

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
        shots: Shot count: the orchestrator's canary shots, the cloud
            engine's execution shots.  ``None`` keeps each engine's
            default (512 canary shots, 256 execution shots).
    """

    kind: str = "orchestrator"
    policy: Optional[str] = None
    seed: Optional[int] = None
    latency_s: float = 0.0
    fidelity_report: str = "esp"
    inter_arrival_s: float = 1.0
    shots: Optional[int] = None

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
            shots = {} if self.shots is None else {"canary_shots": self.shots}
            engine = OrchestratorEngine(policy=self.policy, seed=self.seed, **shots)
        else:
            shots = {} if self.shots is None else {"execution_shots": self.shots}
            engine = CloudEngine(
                self.policy,
                config=CloudSimulationConfig(
                    fidelity_report=self.fidelity_report, seed=self.seed, **shots
                ),
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


def _outcome_of(handle: JobHandle, job_id: int, shard_index: int) -> ShardOutcome:
    """Terminal handle -> wire outcome (events ride along for wait merging)."""
    done = bool(handle.done)
    return ShardOutcome(
        job_id=job_id,
        job_name=handle.name,
        shard_index=shard_index,
        succeeded=done,
        result=_sanitized_result(handle.result(wait=False)) if done else None,
        error=None if done else handle.status().error,
        events=tuple(handle.events()),
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

    Submission, naming, handles, admission and the tenant ledger are the
    shared :class:`~repro.service.service.FrontDesk`'s.  The parent never
    sees a shard-side job start, so every outstanding job counts as *queued*
    (its handle stays QUEUED) and ``inflight`` stays 0.  ``block`` has no
    effect: shard inboxes are unbounded.
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
        self._engine_name = engine.build().name  # what every shard's engine reports
        #: Drain wake-up: the tenant ledger emptied.
        self._drained = threading.Condition(self._state_lock)
        #: Dispatched, unresolved jobs: wire id -> (handle, shard index).
        self._by_job_id: Dict[int, Tuple[JobHandle, int]] = {}
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
        self._fail_unresolved(None, "sharded service closed before the job completed")

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
                    with self._state_lock:
                        self._dead_shards[index] = message[2]
                    self._fail_unresolved(index, f"shard died: {message[2]}")
                    continue
                outcome: ShardOutcome = message[1]
                with self._state_lock:
                    entry = self._by_job_id.pop(outcome.job_id, None)
                    if entry is None:
                        continue
                    self._resolve_locked(entry[0], outcome.events, outcome.result, outcome.error)
                entry[0]._drain_callbacks()

    def _fail_unresolved(self, shard_index: Optional[int], error: str) -> None:
        """Fail the unresolved jobs of one shard (``None``: of every shard)."""
        with self._state_lock:
            failed = [job_id for job_id, (_, shard) in self._by_job_id.items() if shard_index in (None, shard)]
            handles = [self._by_job_id.pop(job_id)[0] for job_id in failed]
            for handle in handles:
                self._fail_locked(handle, error, died=shard_index is not None)
        for handle in handles:
            handle._drain_callbacks()

    def _fail_locked(self, handle: JobHandle, error: str, *, died: bool) -> None:
        """Fail ``handle`` (lock held); a dead shard's job records a :class:`ShardDiedError`."""
        exception = ShardDiedError(f"Job '{handle.name}' failed: {error}") if died else None
        self._resolve_locked(handle, (), None, error, exception)

    def _resolve_locked(
        self,
        handle: JobHandle,
        events: Sequence[JobEvent],
        result: Optional[ServiceResult],
        error: Optional[str],
        exception: Optional[BaseException] = None,
    ) -> None:
        """Copy a terminal report into ``handle`` and settle the ledger (lock held)."""
        handle._adopt(events, result, error, exception)
        self._settle_locked(self._tenant_queued, handle.spec.requirements.tenant_id, 1, bool(handle.done))
        if self._admission is not None:
            wait = wall_wait_from_events(list(events))
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
    def _prepare_locked(self, handles: List[JobHandle]) -> object:
        # Routing validates pinned devices before admission sees the batch.
        routed = [(handle, self._route(handle.spec)) for handle in handles]
        for handle, shard_index in routed:
            handle._set_placement(None, None, {"shard": shard_index})
        return routed

    def _dispatch(self, work: object, *, block: bool) -> None:
        dispatch: List[Tuple[int, ShardJob]] = []
        with self._state_lock:
            # Checked here, under the lock close() takes, so no handle can
            # register after close() swept the unresolved ones.
            if self._closed:
                raise ServiceError("ShardedService is closed")
            for handle, shard_index in work:
                self._shard_jobs[shard_index] += 1
                if shard_index in self._dead_shards:
                    self._fail_locked(handle, f"shard died: {self._dead_shards[shard_index]}", died=True)
                    continue
                job_id = self._next_job_id
                self._next_job_id += 1
                self._by_job_id[job_id] = (handle, shard_index)
                dispatch.append((shard_index, ShardJob(job_id=job_id, spec=replace(handle.spec, name=handle.name))))
        for shard_index, job in dispatch:
            self._inboxes[shard_index].put(job)

    # ------------------------------------------------------------------ #
    # Introspection / draining
    # ------------------------------------------------------------------ #
    def process(self, handle: Optional[JobHandle] = None, timeout: Optional[float] = None) -> None:
        """Drain barrier: block until ``handle`` (or everything) completes.

        Raises:
            ServiceError: Timed out.
        """
        if handle is not None:
            if not handle.wait(timeout).finished:
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
