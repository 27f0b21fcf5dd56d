"""The unified QRIO job service: one submission API over every engine.

:class:`QRIOService` owns a device fleet plus one pluggable
:class:`~repro.service.ExecutionEngine` and exposes the production-shaped
front door the three historical entry points (the ``QRIO`` facade, the cloud
simulator's trace runner and the cluster scheduling framework) lacked:

* ``submit(circuit, requirements, shots=...)`` returns a
  :class:`~repro.service.JobHandle` with an explicit lifecycle
  (``QUEUED → MATCHING → RUNNING → DONE/FAILED``);
* ``submit_batch(...)`` groups structurally-identical submissions (via
  :func:`repro.utils.cache.structural_circuit_hash`) so a batch of N repeats
  pays **one** embedding search, **one** canary distribution and **one**
  batched-engine execution, sharing the result across all N handles;
* ``process()`` drains the queue through the engine; ``JobHandle.result()``
  drives it lazily.

Front desk
----------
:class:`FrontDesk` is the submission half, shared with the process-sharded
:class:`~repro.service.ShardedService`: ``submit`` / ``submit_batch`` /
``submit_specs``, job naming, per-tenant admission, the queued/inflight
tenant ledger, the submitted/succeeded/failed counters, ``job`` / ``jobs`` /
``wait_report`` / ``tenants_report``.  A batch is named, admitted and
charged before its back end (this runtime's queue, or the shard inboxes)
sees it, and a rejection at any step leaves no trace.

Execution model
---------------
Every service runs its jobs through one
:class:`~repro.service.ServiceRuntime` (tenant queue, serialized MATCHING,
per-device lanes); ``workers`` only picks the threads.  With the default
``workers=0`` no thread starts: ``process()``, ``result()`` and ``wait()``
dispatch inline on the caller's thread.  With ``workers=N`` a dispatcher
thread and N lane workers run the jobs in the background, and
``max_pending`` may bound the queue.  Engine crashes are recorded on the
handles (``result()`` raises :class:`~repro.utils.exceptions.JobFailedError`
chained from them), never raised out of ``process()``.  :meth:`close`
drains the queue and rejects later submissions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from repro.service.engines import OrchestratorEngine
from repro.service.handle import JobHandle, wall_wait_from_events
from repro.service.runtime import ServiceRuntime
from repro.tenancy.admission import AdmissionController
from repro.tenancy.api import Tenant
from repro.utils.cache import all_cache_stats
from repro.utils.exceptions import ReproError, ServiceError
from repro.utils.rng import SeedLike
from repro.workloads.metrics import wall_wait_report

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


def _failure_verb(error: Exception) -> str:
    """"failed" for a library error, "crashed" for an engine bug."""
    return "failed" if isinstance(error, ReproError) else "crashed"


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

    @property
    def leader(self) -> JobHandle:
        return self.handles[0]

    def drain_callbacks(self) -> None:
        """Fire every handle's deferred done-callbacks (post-accounting)."""
        for handle in self.handles:
            handle._drain_callbacks()


class FrontDesk:
    """The submission front desk every QRIO service shares.

    One set of rules names, admits and counts each tenant's jobs, whether
    the back end is the in-process runtime (:class:`QRIOService`) or a set
    of shard processes (:class:`~repro.service.ShardedService`).
    :meth:`submit_specs` runs four steps in order: it validates and claims
    every name, runs admission, charges the tenants' queued slots, and only
    then hands the batch to the back end.  A rejection at any step leaves
    names, tenant slots and counters exactly as they were.

    The tenant ledger counts each tenant's jobs as *queued* (admitted, not
    yet matched) or *inflight* (matched, not yet terminal).  A subclass
    builds its handles in :meth:`_prepare_locked`, hands them over in
    :meth:`_dispatch`, and settles finished jobs with :meth:`_settle_locked`.
    """

    #: Prefix of auto-generated job names (``svc-0001``, ...).
    NAME_PREFIX = "svc-"
    #: The counters ``stats()`` reports.
    _COUNTERS: Tuple[str, ...] = ("submitted", "jobs_succeeded", "jobs_failed")

    def __init__(self, admission: Optional[AdmissionController]) -> None:
        #: Guards names, handles, counters and the ledger; submissions and
        #: completions on other threads may touch them concurrently.
        self._state_lock = threading.Lock()
        #: Optional per-tenant admission gate; every call runs under the
        #: state lock, which keeps the ledger atomic with the decision.
        self._admission = admission
        self._handles: Dict[str, object] = {}
        #: Names claimed by batches not yet handed to the back end (reserved
        #: so concurrent submitters cannot reuse them, but not yet published:
        #: observers never see a job the back end may still reject).
        self._reserved_names: set = set()
        self._next_name = 1
        self._counters = dict.fromkeys(self._COUNTERS, 0)
        self._tenant_queued: Dict[str, int] = {}
        self._tenant_inflight: Dict[str, int] = {}
        #: Latest Tenant definition seen per id (the quota/weight source of
        #: ``tenants_report``; the newest submission wins).
        self._tenants_seen: Dict[str, Tenant] = {}

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The admission controller gating submissions, or ``None``."""
        return self._admission

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
    ):
        """Queue one job; returns its handle immediately (state QUEUED).

        Args:
            circuit: The circuit to schedule and execute.
            requirements: A :class:`~repro.service.JobRequirements`, a bare
                fidelity threshold, or ``None`` (= fidelity 1.0).
            shots: Measurement shots for the execution.
            name: Explicit job name (must be unique per service); ``None``
                auto-assigns ``NAME_PREFIX`` + a four-digit number.
            policy: Placement policy for this job — a registry name
                (``"fidelity:queue_weight=0.3"``) or a
                :class:`~repro.policies.PlacementPolicy`; shorthand for
                setting ``requirements.policy``.  ``None`` keeps the
                engine's native (or default) placement path.
            block: Backpressure mode of a ``max_pending`` queue that is
                full: ``True`` (default) waits for capacity, ``False`` raises
                immediately.  Irrelevant to an unbounded queue.

        Returns:
            The job's handle (state QUEUED; the lifecycle may advance in the
            background).

        Raises:
            ServiceError: Duplicate job name, or the service was closed.
            AdmissionRejectedError: The admission controller refused it.
            ServiceOverloadedError: Bounded queue full and ``block=False``.
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
    ) -> list:
        """Queue many jobs at once; admission sees them as one batch.

        Args:
            circuits: Circuits to submit (one job each).
            requirements: Shared requirements (same coercion as :meth:`submit`).
            shots: Shared shot budget.
            policy: Shared placement policy (see :meth:`submit`).
            block: Backpressure mode (see :meth:`submit`); the batch is
                admitted atomically — all jobs or none.

        Returns:
            One handle per input circuit, in input order.

        Raises:
            ServiceOverloadedError: The batch exceeds a bounded queue's
                capacity (always, when larger than ``max_pending``;
                otherwise only with ``block=False``).
        """
        coerced = _apply_policy(_coerce_requirements(requirements), policy)
        specs = [JobSpec(circuit=circuit, requirements=coerced, shots=shots) for circuit in circuits]
        return self.submit_specs(specs, block=block)

    def submit_specs(self, specs: Sequence[JobSpec], *, block: bool = True) -> list:
        """Queue pre-built specs (the core submission path).

        Atomic: names are claimed, admission passed and tenant slots charged
        before the back end sees the batch, and any rejection undoes every
        earlier step, so a rejected batch leaves the service untouched.

        Args:
            specs: Fully-built job specs.
            block: Backpressure mode (see :meth:`submit`).

        Returns:
            One handle per spec, in input order.

        Raises:
            ServiceError: A spec reuses an existing job name.
            AdmissionRejectedError: A tenant's quota or SLO state rejected
                its slice of the batch.
            ServiceOverloadedError: See :meth:`submit_batch`.
        """
        with self._state_lock:
            mark = self._next_name
            names = self._claim_names_locked(specs)
            counter = (mark, self._next_name)  # rewound if this batch is rejected
            try:
                handles, work = self._prepare_locked(specs, names)
                self._admit_locked(specs)
            except BaseException:
                self._release_names_locked(names, counter)
                raise
        try:
            self._dispatch(work, block=block)
        except BaseException:
            with self._state_lock:
                self._release_names_locked(names, counter)
                self._release_queued_locked(specs)
            raise
        with self._state_lock:
            for handle in handles:
                self._handles[handle.name] = handle
            self._counters["submitted"] += len(handles)
            self._reserved_names.difference_update(names)
        return handles

    def _prepare_locked(self, specs: Sequence[JobSpec], names: List[str]) -> Tuple[list, object]:
        """The batch's handles and back-end work item (lock held; must change no state)."""
        raise NotImplementedError

    def _dispatch(self, work: object, *, block: bool) -> None:
        """Hand an admitted batch to the back end; raising rejects it."""
        raise NotImplementedError

    def _claim_names_locked(self, specs: Sequence[JobSpec]) -> List[str]:
        """Validate and reserve one unique name per spec (lock held).

        Raises before reserving anything when an explicit name is taken.
        """
        names: List[str] = []
        claimed: set = set()

        def taken(name: str) -> bool:
            return name in claimed or name in self._handles or name in self._reserved_names

        number = self._next_name
        for spec in specs:
            name = spec.name
            if name is None:
                # Skip generated names a user already claimed explicitly.
                name = f"{self.NAME_PREFIX}{number:04d}"
                while taken(name):
                    number += 1
                    name = f"{self.NAME_PREFIX}{number:04d}"
                number += 1
            elif taken(name):
                raise ServiceError(f"A job named '{name}' was already submitted to this service")
            names.append(name)
            claimed.add(name)
        self._next_name = number
        self._reserved_names.update(names)
        return names

    def _release_names_locked(self, names: List[str], counter: Tuple[int, int]) -> None:
        """Free a rejected batch's names; rewind the name counter if no one drew since."""
        self._reserved_names.difference_update(names)
        mark, drawn = counter
        if self._next_name == drawn:
            self._next_name = mark

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

    def _admit_locked(self, specs: Sequence[JobSpec]) -> None:
        """Admission-check one batch and charge its queued slots (lock held).

        Every tenant in the batch is checked against the live ledger
        *before* any slot is charged, so a rejected batch leaves the ledger
        untouched.  (The one non-rollback: in a mixed-tenant batch an
        earlier tenant's token-bucket draw stands even if a later tenant
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

    def _settle_locked(self, ledger: Dict[str, int], tenant_id: str, jobs: int, succeeded: bool) -> None:
        """Take ``jobs`` finished jobs off ``ledger`` and count them (lock held)."""
        self._shift_tenant_locked(ledger, tenant_id, -jobs)
        self._counters["jobs_succeeded" if succeeded else "jobs_failed"] += jobs

    def _tenant_columns(self, tenant_id: str) -> Dict[str, object]:
        """Back-end columns a ``tenants_report`` row adds (lock held)."""
        return {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def job(self, name: str):
        """Look up a handle by job name.

        Raises:
            ServiceError: No job of that name was submitted here.
        """
        with self._state_lock:
            if name not in self._handles:
                raise ServiceError(f"Unknown service job '{name}'")
            return self._handles[name]

    def jobs(self, state: Optional[JobState] = None) -> list:
        """Every handle in submission order, optionally filtered by lifecycle state."""
        with self._state_lock:
            handles = list(self._handles.values())
        if state is None:
            return handles
        return [handle for handle in handles if handle.state == state]

    def wait_report(self) -> Dict[str, object]:
        """Wall-clock wait/makespan statistics over every job submitted so far.

        A job's *wait* is the time from submission (its QUEUED event) to the
        start of execution (its RUNNING event); jobs that never reached
        RUNNING (still queued, or failed during matching) contribute no wait
        sample.  The *makespan* spans the first submission to the last
        terminal transition.  Waits are summarised with the same
        p50/p95/p99 percentile vocabulary the cloud simulator reports
        (:func:`repro.workloads.metrics.summarise_waits`), so a concurrent
        runtime drain and a discrete-event simulation produce comparable
        rows — the cloud simulator on its logical clock, this report on the
        wall clock.
        """
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
                    **self._tenant_columns(tenant_id),
                }
            report: Dict[str, object] = {"tenants": rows}
            if self._admission is not None:
                report["admission"] = self._admission.report()
            return report


class QRIOService(FrontDesk):
    """Fleet + engine + job queue: the one front door for QRIO jobs."""

    _COUNTERS = ("submitted", "groups_executed", "jobs_succeeded", "jobs_failed", "jobs_deduplicated")

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
        """Bind a fleet to an engine behind the service runtime.

        Args:
            fleet: Devices this service schedules onto.
            engine: Execution engine; defaults to a fresh
                :class:`~repro.service.OrchestratorEngine`.
            seed: Seed for the *default* engine only (mutually exclusive with
                passing ``engine``).
            workers: Size of the runtime's worker pool.  ``0`` (default)
                starts no thread: the caller's thread runs the dispatch step
                inline.  ``N >= 1`` adds a dispatcher thread and N lane
                workers.
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
            raise ServiceError("workers must be >= 0 (0 = inline dispatch, N = worker-pool size)")
        if max_pending is not None and workers == 0:
            raise ServiceError(
                "max_pending only bounds a worker pool's queue; pass workers >= 1"
            )
        super().__init__(admission)
        self._engine = engine if engine is not None else OrchestratorEngine(seed=seed)
        self._engine.attach(list(fleet))
        #: Observers of admitted submissions (``fn(job_name, spec)``), called
        #: in submission order after a batch is registered — the hook
        #: :class:`~repro.scenarios.TraceRecorder` captures live runs with.
        self._submission_listeners: List = []
        #: Scenario fault injector advanced inside the MATCHING funnel
        #: (``None`` = fault-free).  Set via :meth:`set_fault_injector`.
        self._fault_injector = None
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
        """``True`` when runtime threads execute jobs (``workers >= 1``)."""
        return self._runtime.workers > 0

    @property
    def workers(self) -> int:
        """Worker-pool size (``0``: the caller's thread dispatches inline)."""
        return self._runtime.workers

    @property
    def runtime(self) -> ServiceRuntime:
        """The service runtime (queue, dispatch step, device lanes)."""
        return self._runtime

    @property
    def fault_injector(self):
        """The attached scenario fault injector, or ``None``."""
        return self._fault_injector

    def set_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.scenarios.FaultInjector` to this service.

        The injector binds to the engine (resolving fleet-relative device
        references) and to the runtime's quiesce barrier, so run-visible
        fault effects (calibration jumps, straggler windows) apply at a
        deterministic point regardless of worker count.
        Every job matched afterwards first advances the injector to the
        job's arrival time.  Pass ``None`` to detach.
        """
        self._fault_injector = injector
        self._engine.set_fault_injector(injector)
        if injector is not None:
            injector.bind(self._engine, quiesce=self._runtime.quiesce_runs)

    # ------------------------------------------------------------------ #
    # Submission (the shared desk, backed by the runtime's queue)
    # ------------------------------------------------------------------ #
    def submit_specs(self, specs: Sequence[JobSpec], *, block: bool = True) -> List[JobHandle]:
        """:meth:`FrontDesk.submit_specs`, then the submission listeners see the batch.

        Structurally identical specs (same :meth:`JobSpec.dedup_key`) form
        one group that the engine matches and executes once.
        """
        handles = super().submit_specs(specs, block=block)
        self._notify_submission(handles)
        return handles

    def _prepare_locked(self, specs: Sequence[JobSpec], names: List[str]) -> Tuple[list, object]:
        handles: List[JobHandle] = []
        groups: Dict[Tuple, _JobGroup] = {}
        for name, spec in zip(names, specs):
            handles.append(JobHandle(name=name, spec=spec, service=self))
            groups.setdefault(spec.dedup_key(), _JobGroup(spec=spec)).handles.append(handles[-1])
        return handles, list(groups.values())

    def _dispatch(self, work: object, *, block: bool) -> None:
        self._runtime.enqueue(work, block=block)

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

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Service-level counters (used by tests and the benchmark report).

        Includes the runtime's occupancy counters (``workers``,
        ``queued_jobs``, ``inflight_groups``, ``active_lanes``);
        ``pending_groups`` counts groups not yet dispatched.
        """
        with self._state_lock:
            counters = dict(self._counters)
        runtime = self._runtime.stats()
        return {
            "engine": self._engine.name,
            "pending_groups": runtime["queued_groups"],
            **counters,
            **runtime,
        }

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction statistics of the process-wide caches.

        The ``"plan"`` row sums every engine's plan store in the process, so
        callers can see how many submits replayed a warm plan versus
        compiling cold; ``"embedding"`` and ``"enumeration"`` are the shared
        matching caches.  ``"ideal_distribution"`` and ``"batch"`` stay as
        zero rows: canaries keep their ideal counts, and no cache backs
        batching.
        """
        return all_cache_stats()

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #
    def process(self, handle: Optional[JobHandle] = None) -> None:
        """Drain the queue through the engine: the drain barrier.

        Blocks until ``handle`` (or, without one, every admitted job) reaches
        a terminal state.  With ``workers=0`` the calling thread dispatches
        the queue itself, in queue order, stopping once ``handle`` is
        terminal; with ``workers >= 1`` the runtime threads are already
        executing and this only waits.

        Raises:
            ServiceError: ``handle`` belongs to a different service.
        """
        if handle is None:
            self._runtime.drain()
            return
        with self._state_lock:
            if self._handles.get(handle.name) is not handle:
                raise ServiceError(f"Job '{handle.name}' does not belong to this service")
        self._runtime.wait_handle(handle, timeout=None)

    def process_all(self) -> List[JobHandle]:
        """Process everything pending; returns all handles for convenience."""
        self.process()
        return self.jobs()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the runtime: drain, then release any worker threads.

        Queued jobs still execute — closing is a drain, not an abort; only
        new submissions are rejected afterwards.  Idempotent.
        """
        self._runtime.close()

    def __enter__(self) -> "QRIOService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Lifecycle stages (run by the runtime's dispatch step and lanes)
    # ------------------------------------------------------------------ #
    def _match_group(
        self, group: _JobGroup, wait_for_capacity: Callable[[], bool]
    ) -> Optional[Placement]:
        """Run the engine's MATCHING stage for one group.

        Returns the placement on success, ``None`` when the group failed
        (infeasible requirements, an engine error or an engine crash — the
        handles are already terminal, a crash recorded as
        ``handle.exception``).

        ``wait_for_capacity`` (the runtime's hook) is called when a
        placement comes back :attr:`~repro.service.Placement.saturated`; it
        blocks until capacity may have been released and returns ``True`` to
        match again, ``False`` to fail the group as saturated (a node held by
        a job bound outside the service is released by nothing it waits on).
        """
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
        try:
            if self._fault_injector is not None:
                # Scenario fault events due at this job's arrival apply before
                # it is matched — the serialized MATCHING funnel makes this
                # the one deterministic point at every worker count.
                self._fault_injector.advance_to(spec.requirements.arrival_time_s)
            placement = self._engine.match(spec, leader.name)
            while placement.device is None and placement.saturated and wait_for_capacity():
                placement = self._engine.match(spec, leader.name)
        except Exception as error:
            self._fail_group(group, f"matching {_failure_verb(error)}: {error}", error)
            return None
        placement_detail = placement.status_detail()
        for handle in group.handles:
            handle._set_placement(placement.device, placement.score, dict(placement_detail))
        if placement.device is None:
            if placement.saturated:
                reason = (
                    "saturated: every node that fits the job is full, and no job running on this "
                    "service will release one"
                )
            else:
                reason = f"no feasible device ({placement.num_feasible} of {len(self._engine.fleet())} passed filtering)"
            self._fail_group(group, reason)
            return None
        return placement

    def _run_group(self, group: _JobGroup, placement: Placement) -> None:
        """Run the engine's RUNNING stage for one matched group.

        An engine error or crash fails the group and is recorded on every
        handle (``handle.exception``); nothing propagates to the lane.
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
        except Exception as error:
            self._fail_group(group, f"execution {_failure_verb(error)}: {error}", error)
            return
        self._complete_group(group, placement, outcome)

    def _fail_group(
        self, group: _JobGroup, reason: str, exception: Optional[BaseException] = None
    ) -> None:
        for handle in group.handles:
            handle._fail(reason, exception)
        with self._state_lock:
            self._settle_locked(
                self._tenant_inflight, group.spec.requirements.tenant_id, len(group.handles), False
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
            self._counters["jobs_deduplicated"] += size - 1
            self._settle_locked(self._tenant_inflight, group.spec.requirements.tenant_id, size, True)
