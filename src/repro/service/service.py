"""The unified QRIO job service: one submission API over every engine.

:class:`QRIOService` owns a device fleet plus one pluggable
:class:`~repro.service.ExecutionEngine` and exposes the production-shaped
front door the three historical entry points (the ``QRIO`` facade, the cloud
simulator's trace runner and the cluster scheduling framework) lacked:

* ``submit(circuit, requirements, shots=...)`` returns a
  :class:`~repro.service.JobHandle` with an explicit lifecycle
  (``QUEUED → MATCHING → RUNNING → DONE/FAILED``);
* ``submit_batch(...)`` groups structurally-identical submissions (via
  :func:`repro.core.cache.structural_circuit_hash`) so a batch of N repeats
  pays **one** embedding search, **one** canary distribution and **one**
  batched-engine execution, sharing the result across all N handles;
* ``process()`` drains the queue through the engine; ``JobHandle.result()``
  drives it lazily.

Execution model — synchronous or concurrent
-------------------------------------------
With the default ``workers=0`` the service is deliberately synchronous and
in-process: the lifecycle is a real state machine driven on the caller's
thread, which keeps every engine deterministic under a seed while still
exercising the exact API shape a networked deployment would expose.

With ``workers=N`` (N ≥ 1) the service owns a
:class:`~repro.service.ServiceRuntime`: submissions are admitted into a
priority queue (ordered by ``JobRequirements.priority`` then ``deadline_s``
then FIFO), a dispatcher thread runs the MATCHING stage serially, and the
RUNNING stage executes on a bounded worker pool with **per-device shard
lanes** — jobs placed on different devices run concurrently, jobs placed on
the same device serialize.  ``max_pending`` bounds the queue and
``submit(..., block=False)`` surfaces backpressure as a typed
:class:`~repro.utils.exceptions.ServiceOverloadedError`.  Handles become
futures: ``wait(timeout=...)``, ``done()``, ``add_done_callback`` and the
streaming ``events(follow=True)`` iterator all work from any thread.  A
concurrent service should be :meth:`close`\\ d (or used as a context manager)
so the pool is released deterministically.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.service.api import (
    EngineResult,
    ExecutionEngine,
    JobRequirements,
    JobSpec,
    JobState,
    Placement,
    ServiceResult,
)
from repro.core.cache import all_cache_stats
from repro.service.engines import OrchestratorEngine
from repro.service.handle import JobHandle, wall_wait_from_events
from repro.service.runtime import ServiceRuntime
from repro.tenancy.admission import AdmissionController
from repro.tenancy.api import Tenant
from repro.utils.exceptions import ReproError, ServiceError
from repro.utils.rng import SeedLike

#: What ``submit``'s ``requirements`` argument accepts: the typed dataclass,
#: a bare fidelity threshold, or ``None`` (= fidelity 1.0).
RequirementsLike = Union[JobRequirements, float, int, None]


def _coerce_requirements(requirements: RequirementsLike) -> JobRequirements:
    if requirements is None:
        return JobRequirements()
    if isinstance(requirements, JobRequirements):
        return requirements
    if isinstance(requirements, (int, float)) and not isinstance(requirements, bool):
        return JobRequirements(fidelity_threshold=float(requirements))
    raise ServiceError(
        f"requirements must be a JobRequirements, a fidelity threshold or None, "
        f"not {type(requirements).__name__}"
    )


def _apply_policy(requirements: JobRequirements, policy) -> JobRequirements:
    """Graft a ``policy`` argument onto coerced requirements.

    An explicit ``requirements.policy`` wins; passing *both* (and different)
    is ambiguous and raises.
    """
    if policy is None:
        return requirements
    if requirements.policy is not None and requirements.policy != policy:
        raise ServiceError(
            "Conflicting placement policies: requirements.policy="
            f"{requirements.policy!r} vs policy={policy!r}"
        )
    return replace(requirements, policy=policy)


@dataclass
class _JobGroup:
    """Pending unit of work: one representative spec, N handles sharing it."""

    spec: JobSpec
    handles: List[JobHandle] = field(default_factory=list)
    processed: bool = False

    @property
    def leader(self) -> JobHandle:
        return self.handles[0]

    def drain_callbacks(self) -> None:
        """Fire every handle's deferred done-callbacks (post-accounting)."""
        for handle in self.handles:
            handle._drain_callbacks()


class QRIOService:
    """Fleet + engine + job queue: the one front door for QRIO jobs."""

    def __init__(
        self,
        fleet: Sequence[Backend],
        engine: Optional[ExecutionEngine] = None,
        *,
        seed: SeedLike = None,
        workers: int = 0,
        max_pending: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        """Bind a fleet to an engine, optionally with a concurrent runtime.

        Args:
            fleet: Devices this service schedules onto.
            engine: Execution engine; defaults to a fresh
                :class:`~repro.service.OrchestratorEngine`.
            seed: Seed for the *default* engine only (mutually exclusive with
                passing ``engine``).
            workers: Size of the worker pool.  ``0`` (default) keeps the
                fully synchronous caller-thread execution model; ``N >= 1``
                builds a :class:`~repro.service.ServiceRuntime` with priority
                dispatch and per-device shard lanes.
            max_pending: Backpressure bound on queued-but-undispatched jobs;
                only meaningful with ``workers >= 1``.
            admission: An :class:`~repro.tenancy.AdmissionController` gating
                submissions per tenant — quota checks plus SLO-pressure
                accept/defer/shed — before any queue capacity is consumed.
                ``None`` (default) admits everything, leaving the runtime's
                ``max_pending`` backpressure as the only limit.

        Raises:
            ServiceError: ``seed`` combined with an explicit engine,
                ``workers < 0`` or ``max_pending`` without workers.
        """
        if engine is not None and seed is not None:
            raise ServiceError(
                "seed only configures the default engine; pass the seed to your "
                "ExecutionEngine instead (e.g. OrchestratorEngine(seed=...))"
            )
        if workers < 0:
            raise ServiceError("workers must be >= 0 (0 = synchronous, N = worker-pool size)")
        if max_pending is not None and workers == 0:
            raise ServiceError(
                "max_pending only bounds the concurrent runtime's queue; pass workers >= 1"
            )
        self._engine = engine if engine is not None else OrchestratorEngine(seed=seed)
        self._engine.attach(list(fleet))
        self._handles: Dict[str, JobHandle] = {}
        self._group_of: Dict[str, _JobGroup] = {}
        #: Names claimed by submissions not yet admitted by the runtime
        #: (reserved so concurrent submitters cannot reuse them, but not yet
        #: published — observers never see a job the runtime may still reject).
        self._reserved_names: set = set()
        self._pending: Deque[_JobGroup] = deque()
        self._names = itertools.count(1)
        self._counters = {
            "submitted": 0,
            "groups_executed": 0,
            "jobs_succeeded": 0,
            "jobs_failed": 0,
            "jobs_deduplicated": 0,
        }
        #: Guards the name counter, handle registry and counters; submissions
        #: and worker-thread completions may touch them concurrently.
        self._state_lock = threading.Lock()
        #: Optional per-tenant admission gate; all calls serialized under the
        #: state lock, which is also what keeps per-tenant accounting atomic.
        self._admission = admission
        #: Per-tenant occupancy (job counts): queued = admitted but not yet
        #: matched, inflight = matched but not yet terminal.
        self._tenant_queued: Dict[str, int] = {}
        self._tenant_inflight: Dict[str, int] = {}
        #: Latest Tenant definition seen per id (quota/weight source of truth
        #: for ``tenants_report``; the newest submission wins).
        self._tenants_seen: Dict[str, Tenant] = {}
        #: Observers of admitted submissions (``fn(job_name, spec)``), called
        #: in submission order after a batch is registered — the hook
        #: :class:`~repro.scenarios.TraceRecorder` captures live runs with.
        self._submission_listeners: List = []
        #: Scenario fault injector advanced inside the MATCHING funnel
        #: (``None`` = fault-free).  Set via :meth:`set_fault_injector`.
        self._fault_injector = None
        self._runtime: Optional[ServiceRuntime] = None
        if workers:
            self._runtime = ServiceRuntime(self, workers=workers, max_pending=max_pending)

    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine jobs run on."""
        return self._engine

    @property
    def fleet(self) -> List[Backend]:
        """The devices this service schedules onto (live view via the engine)."""
        return self._engine.fleet()

    @property
    def is_concurrent(self) -> bool:
        """``True`` when a worker-pool runtime executes jobs (``workers >= 1``)."""
        return self._runtime is not None

    @property
    def workers(self) -> int:
        """Worker-pool size (``0`` for the synchronous service)."""
        return self._runtime.workers if self._runtime is not None else 0

    @property
    def runtime(self) -> Optional[ServiceRuntime]:
        """The concurrent runtime, or ``None`` for a synchronous service."""
        return self._runtime

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The admission controller gating submissions, or ``None``."""
        return self._admission

    @property
    def fault_injector(self):
        """The attached scenario fault injector, or ``None``."""
        return self._fault_injector

    def set_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.scenarios.FaultInjector` to this service.

        The injector binds to the engine (resolving fleet-relative device
        references) and, on a concurrent service, to the runtime's quiesce
        barrier, so run-visible fault effects (calibration jumps, straggler
        windows) apply at a deterministic point regardless of worker count.
        Every job matched afterwards first advances the injector to the
        job's arrival time.  Pass ``None`` to detach.
        """
        self._fault_injector = injector
        self._engine.set_fault_injector(injector)
        if injector is not None:
            quiesce = self._runtime.quiesce_runs if self._runtime is not None else None
            injector.bind(self._engine, quiesce=quiesce)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        circuit: QuantumCircuit,
        requirements: RequirementsLike = None,
        *,
        shots: int = 1024,
        name: Optional[str] = None,
        policy: Optional[object] = None,
        block: bool = True,
    ) -> JobHandle:
        """Queue one job; returns its handle immediately (state QUEUED).

        Args:
            circuit: The circuit to schedule and execute.
            requirements: A :class:`~repro.service.JobRequirements`, a bare
                fidelity threshold, or ``None`` (= fidelity 1.0).
            shots: Measurement shots for the execution.
            name: Explicit job name (must be unique per service); ``None``
                auto-assigns ``svc-NNNN``.
            policy: Placement policy for this job — a registry name
                (``"fidelity:queue_weight=0.3"``) or a
                :class:`~repro.policies.PlacementPolicy`; shorthand for
                setting ``requirements.policy``.  ``None`` keeps the
                engine's native (or default) placement path.
            block: Backpressure mode of a concurrent service whose queue is
                full: ``True`` (default) waits for capacity, ``False`` raises
                immediately.  Ignored by a synchronous service (its queue is
                unbounded).

        Returns:
            The job's :class:`~repro.service.JobHandle` (state QUEUED; on a
            concurrent service the lifecycle advances in the background).

        Raises:
            ServiceError: Duplicate job name, or the service was closed.
            ServiceOverloadedError: Concurrent service, queue full and
                ``block=False``.
        """
        spec = JobSpec(
            circuit=circuit,
            requirements=_apply_policy(_coerce_requirements(requirements), policy),
            shots=shots,
            name=name,
        )
        return self.submit_specs([spec], block=block)[0]

    def submit_batch(
        self,
        circuits: Iterable[QuantumCircuit],
        requirements: RequirementsLike = None,
        *,
        shots: int = 1024,
        policy: Optional[object] = None,
        block: bool = True,
    ) -> List[JobHandle]:
        """Queue many jobs at once, deduplicating structurally-identical ones.

        Handles come back in input order; submissions whose circuit
        structure, requirements and shot budget coincide are grouped so the
        engine matches and executes each distinct group exactly once — on a
        concurrent service the whole group is one unit of work for one
        worker, and every handle of the group resolves together.

        Args:
            circuits: Circuits to submit (one job each).
            requirements: Shared requirements (same coercion as :meth:`submit`).
            shots: Shared shot budget.
            policy: Shared placement policy (see :meth:`submit`).
            block: Backpressure mode (see :meth:`submit`); the batch is
                admitted atomically — all groups or none.

        Returns:
            One handle per input circuit, in input order.

        Raises:
            ServiceOverloadedError: Concurrent service and the batch exceeds
                queue capacity (always, when larger than ``max_pending``;
                otherwise only with ``block=False``).
        """
        coerced = _apply_policy(_coerce_requirements(requirements), policy)
        specs = [JobSpec(circuit=circuit, requirements=coerced, shots=shots) for circuit in circuits]
        return self.submit_specs(specs, block=block)

    def submit_specs(self, specs: Sequence[JobSpec], *, block: bool = True) -> List[JobHandle]:
        """Queue pre-built specs (the core submission path).

        Atomic: every name is validated (and, on a concurrent service, queue
        capacity secured) before any spec is queued, so a rejected batch
        leaves the service untouched.

        Args:
            specs: Fully-built job specs.
            block: Backpressure mode (see :meth:`submit`).

        Returns:
            One handle per spec, in input order.

        Raises:
            ServiceError: A spec reuses an existing job name.
            ServiceOverloadedError: See :meth:`submit_batch`.
        """
        handles: List[JobHandle] = []
        groups: Dict[Tuple, _JobGroup] = {}
        ordered_groups: List[_JobGroup] = []
        membership: List[Tuple[str, _JobGroup]] = []
        # Name validation, handle construction and (for the synchronous path)
        # registration share one critical section, so two concurrent
        # submitters can never both claim the same job name.
        with self._state_lock:
            self._admit_specs_locked(specs)
            names: List[str] = []
            taken = lambda name: name in self._handles or name in self._reserved_names  # noqa: E731
            for spec in specs:
                if spec.name is None:
                    # Skip generated names a user already claimed explicitly.
                    name = f"svc-{next(self._names):04d}"
                    while taken(name) or name in names:
                        name = f"svc-{next(self._names):04d}"
                else:
                    name = spec.name
                    if taken(name) or name in names:
                        raise ServiceError(f"A job named '{name}' was already submitted to this service")
                names.append(name)
            for name, spec in zip(names, specs):
                handle = JobHandle(name=name, spec=spec, service=self)
                key = spec.dedup_key()
                group = groups.get(key)
                if group is None:
                    group = _JobGroup(spec=spec)
                    groups[key] = group
                    ordered_groups.append(group)
                group.handles.append(handle)
                membership.append((name, group))
                handles.append(handle)
            if self._runtime is None:
                self._register_submission(membership, handles)
                self._pending.extend(ordered_groups)
            else:
                # Concurrent path: only *reserve* the names for now.  Handles
                # are published after the runtime admits the batch, so
                # observers never see a job that backpressure may still reject
                # (and a parked block=True submission is invisible until it is
                # really queued).
                self._reserved_names.update(names)
        if self._runtime is not None:
            try:
                self._runtime.enqueue(ordered_groups, block=block)
            except ReproError:
                # Atomicity: a rejected batch leaves the service untouched.
                with self._state_lock:
                    self._reserved_names.difference_update(names)
                    self._release_queued_locked(specs)
                raise
            with self._state_lock:
                self._register_submission(membership, handles)
                self._reserved_names.difference_update(names)
        self._notify_submission(handles)
        return handles

    def _notify_submission(self, handles: Sequence[JobHandle]) -> None:
        """Tell every submission listener about an admitted batch, in order."""
        if not self._submission_listeners:
            return
        with self._state_lock:
            listeners = list(self._submission_listeners)
        for handle in handles:
            for listener in listeners:
                listener(handle.name, handle.spec)

    def add_submission_listener(self, listener) -> None:
        """Register ``fn(job_name, spec)`` to observe every admitted job.

        Listeners run on the submitting thread, after the batch is admitted
        and registered (a rejected batch is never observed).  Listener
        exceptions propagate to the submitter — a broken recorder should be
        loud, not silently produce a truncated trace.
        """
        with self._state_lock:
            self._submission_listeners.append(listener)

    def remove_submission_listener(self, listener) -> None:
        """Deregister a submission listener (no-op when absent)."""
        with self._state_lock:
            if listener in self._submission_listeners:
                self._submission_listeners.remove(listener)

    def _register_submission(
        self, membership: List[Tuple[str, _JobGroup]], handles: List[JobHandle]
    ) -> None:
        """Publish admitted handles to the registry (caller holds the lock)."""
        for (name, group), handle in zip(membership, handles):
            self._handles[name] = handle
            self._group_of[name] = group
        self._counters["submitted"] += len(handles)

    @staticmethod
    def _batch_by_tenant(specs: Sequence[JobSpec]) -> Tuple[Dict[str, List[int]], Dict[str, Tenant]]:
        """Aggregate a batch per tenant: ``{id: [jobs, shots]}`` + definitions."""
        batches: Dict[str, List[int]] = {}
        tenants: Dict[str, Tenant] = {}
        for spec in specs:
            tenant = spec.requirements.effective_tenant
            tenants[tenant.id] = tenant
            entry = batches.setdefault(tenant.id, [0, 0])
            entry[0] += 1
            entry[1] += spec.shots
        return batches, tenants

    def _admit_specs_locked(self, specs: Sequence[JobSpec]) -> None:
        """Admission-check one batch and claim its queued slots (lock held).

        Every tenant in the batch is checked against the live occupancy
        counts *before* any slot is charged, so a rejected batch leaves the
        accounting untouched.  (The one non-rollback: in a mixed-tenant batch
        an earlier tenant's token-bucket draw stands even if a later tenant
        rejects — rate budgets measure offered load, not admitted load.)

        Raises:
            AdmissionRejectedError: A tenant's quota or SLO state rejected
                its slice of the batch.
        """
        batches, tenants = self._batch_by_tenant(specs)
        if self._admission is not None:
            for tenant_id, (jobs, shots) in batches.items():
                self._admission.admit(
                    tenants[tenant_id],
                    queued=self._tenant_queued.get(tenant_id, 0),
                    inflight=self._tenant_inflight.get(tenant_id, 0),
                    batch_jobs=jobs,
                    batch_shots=shots,
                )
        for tenant_id, (jobs, _) in batches.items():
            self._tenants_seen[tenant_id] = tenants[tenant_id]
            self._tenant_queued[tenant_id] = self._tenant_queued.get(tenant_id, 0) + jobs

    def _release_queued_locked(self, specs: Sequence[JobSpec]) -> None:
        """Give back a rejected batch's queued slots (lock held)."""
        batches, _ = self._batch_by_tenant(specs)
        for tenant_id, (jobs, _) in batches.items():
            self._shift_tenant_locked(self._tenant_queued, tenant_id, -jobs)

    @staticmethod
    def _shift_tenant_locked(counts: Dict[str, int], tenant_id: str, delta: int) -> None:
        value = counts.get(tenant_id, 0) + delta
        if value > 0:
            counts[tenant_id] = value
        else:
            counts.pop(tenant_id, None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def job(self, name: str) -> JobHandle:
        """Look up a handle by job name.

        Raises:
            ServiceError: No job of that name was submitted here.
        """
        with self._state_lock:
            if name not in self._handles:
                raise ServiceError(f"Unknown service job '{name}'")
            return self._handles[name]

    def jobs(self, state: Optional[JobState] = None) -> List[JobHandle]:
        """Every handle, optionally filtered by lifecycle state."""
        with self._state_lock:
            handles = list(self._handles.values())
        if state is None:
            return handles
        return [handle for handle in handles if handle.state == state]

    def stats(self) -> Dict[str, object]:
        """Service-level counters (used by tests and the benchmark report).

        A concurrent service adds the runtime's occupancy counters
        (``workers``, ``queued_jobs``, ``inflight_groups``, ``active_lanes``).
        """
        with self._state_lock:
            counters = dict(self._counters)
        if self._runtime is not None:
            runtime = self._runtime.stats()
            # Same semantics as the synchronous path: groups not yet dispatched.
            return {
                "engine": self._engine.name,
                "pending_groups": runtime["queued_groups"],
                **counters,
                **runtime,
            }
        return {"engine": self._engine.name, "pending_groups": len(self._pending), **counters}

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction statistics of every shared cache.

        Includes the fleet-wide execution-plan cache (key ``"plan"``) next
        to the embedding and canary ideal-distribution caches, so callers
        can see how many submits replayed a warm plan versus compiling cold.
        """
        return all_cache_stats()

    def wait_report(self) -> Dict[str, object]:
        """Wall-clock wait/makespan statistics over every job submitted so far.

        A job's *wait* is the time from submission (its QUEUED event) to the
        start of execution (its RUNNING event); jobs that never reached
        RUNNING (still queued, or failed during matching) contribute no wait
        sample.  The *makespan* spans the first submission to the last
        terminal transition.  Waits are summarised with the same
        p50/p95/p99 percentile vocabulary the cloud simulator reports
        (:func:`repro.scenarios.metrics.summarise_waits`), so a concurrent
        runtime drain and a discrete-event simulation produce comparable
        rows — the cloud simulator on its logical clock, this report on the
        wall clock.
        """
        from repro.scenarios.metrics import wall_wait_report

        return wall_wait_report(
            ((handle.spec.requirements.tenant_id, handle.events()) for handle in self.jobs()),
            wall_wait_from_events,
        )

    def tenants_report(self) -> Dict[str, object]:
        """Live per-tenant occupancy, quotas and admission posture.

        One row per tenant this service has ever seen: the tenant's declared
        weight/quotas, its current queued and inflight job counts, and its
        admission state (always ``"accept"`` without a controller).  With a
        controller attached, the controller's own snapshot (pressure, p99,
        rejection counts) rides along under ``"admission"``.
        """
        with self._state_lock:
            tenant_ids = sorted(
                set(self._tenants_seen) | set(self._tenant_queued) | set(self._tenant_inflight)
            )
            rows: Dict[str, Dict[str, object]] = {}
            for tenant_id in tenant_ids:
                tenant = self._tenants_seen.get(tenant_id) or Tenant(id=tenant_id)
                rows[tenant_id] = {
                    "weight": tenant.weight,
                    "max_pending": tenant.max_pending,
                    "max_inflight": tenant.max_inflight,
                    "shots_per_second": tenant.shots_per_second,
                    "queued": self._tenant_queued.get(tenant_id, 0),
                    "inflight": self._tenant_inflight.get(tenant_id, 0),
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

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #
    def process(self, handle: Optional[JobHandle] = None) -> None:
        """Drain the queue through the engine.

        Synchronous service: groups run FIFO on the calling thread.  With
        ``handle`` given, processing stops as soon as that handle's group has
        run (earlier groups still run first — submission order is part of the
        API contract).  Without it, everything pending runs.

        Concurrent service: the workers are already executing; this blocks
        until ``handle`` (or, without one, every admitted job) reaches a
        terminal state — i.e. ``process()`` is the drain barrier.

        Raises:
            ServiceError: ``handle`` belongs to a different service.
        """
        if handle is not None:
            with self._state_lock:
                target = self._group_of.get(handle.name)
            if target is None:
                raise ServiceError(f"Job '{handle.name}' does not belong to this service")
        if self._runtime is not None:
            if handle is not None:
                self._runtime.wait_handle(handle, timeout=None)
            else:
                self._runtime.drain()
            return
        if handle is not None and self._group_of[handle.name].processed:
            return
        while self._pending:
            group = self._pending.popleft()
            self._execute_group(group)
            if handle is not None and group is self._group_of[handle.name]:
                return

    def process_all(self) -> List[JobHandle]:
        """Process everything pending; returns all handles for convenience."""
        self.process()
        return self.jobs()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the concurrent runtime (drain, then shut the pool down).

        Queued jobs still execute — closing is a drain, not an abort; only
        new submissions are rejected afterwards.  A synchronous service has
        nothing to release, so this is a no-op there.  Idempotent.
        """
        if self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "QRIOService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Lifecycle execution (shared by the sync path and the runtime)
    # ------------------------------------------------------------------ #
    def _drive(self, handle: JobHandle, timeout: Optional[float] = None) -> None:
        """Advance ``handle`` to completion: process (sync) or await (concurrent)."""
        if self._runtime is not None:
            self._runtime.wait_handle(handle, timeout)
        else:
            self.process(handle)

    def _execute_group(self, group: _JobGroup) -> None:
        """Synchronous path: MATCHING then RUNNING on the calling thread."""
        try:
            placement = self._match_group(group)
            if placement is not None:
                self._run_group(group, placement, reraise=True)
        finally:
            # Callbacks fire even when an engine crash is propagating — the
            # handles are terminal by then.
            group.drain_callbacks()

    def _match_group(
        self,
        group: _JobGroup,
        wait_for_capacity: Optional[Callable[[], bool]] = None,
    ) -> Optional[Placement]:
        """Run the engine's MATCHING stage for one group.

        Returns the placement on success, ``None`` when the group failed
        (infeasible requirements or an engine error — the handles are already
        terminal).  Non-library engine exceptions propagate *after* the
        group's lifecycle is terminated, so no handle is ever stuck in a
        non-terminal state; the runtime's dispatcher catches them.

        ``wait_for_capacity`` (the concurrent runtime's hook) is called when
        a placement comes back :attr:`~repro.service.Placement.saturated`; it
        blocks until capacity may have been released and returns ``True`` to
        match again, ``False`` to fail the group as infeasible.
        """
        group.processed = True
        size = len(group.handles)
        spec = group.spec
        leader = group.leader
        with self._state_lock:
            # Tenant accounting: the group leaves the queue and is now
            # inflight, whatever happens next (failures decrement inflight).
            tenant_id = spec.requirements.tenant_id
            self._shift_tenant_locked(self._tenant_queued, tenant_id, -size)
            self._shift_tenant_locked(self._tenant_inflight, tenant_id, size)
        dedup_note = f" (group of {size} structurally-identical jobs)" if size > 1 else ""
        for handle in group.handles:
            handle._transition(
                JobState.MATCHING,
                f"matching via '{self._engine.name}' engine{dedup_note}",
            )
        if self._fault_injector is not None:
            # Scenario fault events due at this job's arrival apply before it
            # is matched — the serialized MATCHING funnel makes this the one
            # deterministic point shared by the sync and concurrent paths.
            self._fault_injector.advance_to(spec.requirements.arrival_time_s)
        try:
            placement = self._engine.match(spec, leader.name)
            while (
                placement.device is None
                and placement.saturated
                and wait_for_capacity is not None
                and wait_for_capacity()
            ):
                placement = self._engine.match(spec, leader.name)
        except ReproError as error:
            self._fail_group(group, f"matching failed: {error}", error)
            return None
        except Exception as error:
            # Engine bugs still terminate the lifecycle before propagating,
            # so no handle is ever stuck in a non-terminal state.
            self._fail_group(group, f"matching crashed: {error}", error)
            raise
        if placement.device is None:
            for handle in group.handles:
                handle._set_placement(None, None, {"num_feasible": placement.num_feasible, **placement.detail})
            self._fail_group(
                group,
                f"no feasible device ({placement.num_feasible} of {len(self._engine.fleet())} passed filtering)",
            )
            return None
        placement_detail = {"num_feasible": placement.num_feasible, **placement.detail}
        for handle in group.handles:
            handle._set_placement(placement.device, placement.score, dict(placement_detail))
        return placement

    def _run_group(self, group: _JobGroup, placement: Placement, *, reraise: bool) -> None:
        """Run the engine's RUNNING stage for one matched group.

        ``reraise=True`` (synchronous path) propagates non-library engine
        crashes to the caller after failing the group; the runtime passes
        ``False`` since there is no caller thread to surface them to — the
        exception is recorded on every handle instead.
        """
        for handle in group.handles:
            handle._transition(JobState.RUNNING, f"executing on '{placement.device}'")
        if self._admission is not None:
            # Feed the controller the same QUEUED->RUNNING waits wait_report()
            # summarises, one sample per job in the group.
            with self._state_lock:
                for handle in group.handles:
                    wait = wall_wait_from_events(handle.events())
                    if wait is not None:
                        self._admission.observe_wait(wait)
        try:
            outcome = self._engine.run(placement)
        except ReproError as error:
            self._fail_group(group, f"execution failed: {error}", error)
            return
        except Exception as error:
            self._fail_group(group, f"execution crashed: {error}", error)
            if reraise:
                raise
            return
        self._complete_group(group, placement, outcome)

    def _fail_group(
        self, group: _JobGroup, reason: str, exception: Optional[BaseException] = None
    ) -> None:
        for handle in group.handles:
            handle._fail(reason, exception)
        with self._state_lock:
            self._counters["jobs_failed"] += len(group.handles)
            self._shift_tenant_locked(
                self._tenant_inflight, group.spec.requirements.tenant_id, -len(group.handles)
            )

    def _complete_group(self, group: _JobGroup, placement: Placement, outcome: EngineResult) -> None:
        size = len(group.handles)
        for handle in group.handles:
            handle._complete(
                ServiceResult(
                    job_name=handle.name,
                    engine=self._engine.name,
                    device=outcome.device,
                    counts=dict(outcome.counts),
                    shots=outcome.shots,
                    score=outcome.score,
                    fidelity=outcome.fidelity,
                    num_feasible=placement.num_feasible,
                    group_size=size,
                    deduplicated=handle is not group.leader,
                    detail=dict(outcome.detail),
                )
            )
        with self._state_lock:
            self._counters["groups_executed"] += 1
            self._counters["jobs_succeeded"] += size
            self._counters["jobs_deduplicated"] += size - 1
            self._shift_tenant_locked(
                self._tenant_inflight, group.spec.requirements.tenant_id, -size
            )
