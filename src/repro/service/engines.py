"""The :class:`~repro.service.ExecutionEngine` adapters.

Each adapter maps the engine protocol's MATCHING/RUNNING split onto one of
the existing subsystems:

* :class:`OrchestratorEngine` — the paper's Fig. 2 cluster.  It owns the
  cluster registry, the meta server, the master server and the QRIO
  scheduler.  Its one submission entry, :meth:`OrchestratorEngine.submit`,
  enters a spec's circuit object into the cluster (meta-server metadata,
  master containerize and manifest, the cluster job).  MATCHING submits a
  job that has not entered yet and then binds it from a warm plan or
  through one scheduling cycle (native meta-server ranking or a registry
  policy); matching a job that already entered from the same spec only
  routes it.  RUNNING is one plan path through the master server.  The
  :class:`~repro.core.QRIO` facade is a client of this engine: its form
  submissions enter eagerly, and every facade job runs on this
  MATCHING/RUNNING pair;
* :class:`CloudEngine` — the discrete-event cloud simulator via its
  incremental :class:`~repro.cloud.CloudSession`: each submission becomes an
  arrival routed by a placement policy onto per-device FCFS queues;
* :class:`DeviceLatencyEngine` — a decorator adding wall-clock device
  occupancy around any inner engine's execution, so the concurrent runtime's
  multi-device overlap is observable in real time (the
  ``BENCH_concurrency.json`` workload).

All adapters consume the same :class:`~repro.service.JobSpec` and produce the
same :class:`~repro.service.Placement` / :class:`~repro.service.EngineResult`
pair, which is what lets :class:`~repro.service.QRIOService` treat them
interchangeably.

Concurrency: ``match()`` is always serialized by the service (dispatcher
thread or caller thread), so adapters may mutate shared matching state
freely.  ``run()`` is only called concurrently when an engine sets
``supports_concurrent_run = True`` — :class:`CloudEngine` does (its session
is internally locked), :class:`OrchestratorEngine` does not (its execution
path mutates the shared cluster registry), and
:class:`DeviceLatencyEngine` does by construction (the inner engine's run is
re-serialized when it needs to be, only the latency overlaps).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends.backend import Backend
from repro.cloud.simulation import CloudSession, CloudSimulationConfig, CloudSimulationResult, CloudSimulator
from repro.cluster.registry import ClusterState
from repro.control.master_server import MasterServer, SubmittedJob
from repro.control.meta_server import JobMetadata, MetaServer
from repro.control.requirements import UserRequirements
from repro.control.scheduler import QRIOScheduler, device_bounds_violation
from repro.control.visualizer import TopologyCanvas
from repro.plans import ExecutionPlan
from repro.policies.api import PlacementContext, PlacementPolicy
from repro.policies.registry import PolicyLike, resolve_policy
from repro.service.api import EngineResult, ExecutionEngine, JobSpec, Placement
from repro.utils.cache import (
    PLAN_STATS,
    LRUCache,
    calibration_fingerprint,
    fleet_calibration_epoch,
    structural_circuit_hash,
)
from repro.utils.exceptions import ServiceError
from repro.utils.rng import SeedLike, derive_seed
from repro.workloads.arrivals import JobRequest


class _PolicyResolver:
    """Shared per-engine policy resolution: default + per-job overrides.

    Engines accept ``policy`` as a registry name or a
    :class:`~repro.policies.PlacementPolicy` instance, and every job may
    override it through ``JobRequirements.policy``.  Resolved string specs
    are cached per engine so stateful policies (round-robin cursors, RNG
    streams) keep their state across the jobs of one engine rather than
    being rebuilt per submission.
    """

    def __init__(self, default: Optional[PolicyLike], seed: SeedLike = None) -> None:
        self._default = default
        self._seed = seed
        self._resolved: dict = {}

    def for_requirements(self, requirements) -> Optional[PlacementPolicy]:
        """The effective policy for one job, or ``None`` for the native path."""
        spec = requirements.policy if requirements.policy is not None else self._default
        if spec is None:
            return None
        if isinstance(spec, PlacementPolicy):
            return spec
        if spec not in self._resolved:
            self._resolved[spec] = resolve_policy(
                spec, seed=derive_seed(self._seed, "placement-policy", spec)
            )
        return self._resolved[spec]


class _PlanStore(LRUCache):
    """One engine's execution plans, keyed by :meth:`JobSpec.dedup_key`.

    The key is ``(structural hash, requirements, shots)``.  The store
    belongs to one engine, so neither the engine nor its seed is part of
    it; the device is an output of MATCHING and lives in the plan.  A
    lookup replays a plan only while its device is in the fleet with the
    calibration the plan was compiled against.  Every engine's store
    records into the process-wide :data:`~repro.utils.cache.PLAN_STATS`.

    Plans only serve the engines' *native* scheduling paths.  Registry
    policies are load- and state-dependent by design (round-robin cursors,
    queue-aware scores), so policy-routed jobs always run the full
    filter → score → select pipeline and are never stored or replayed.
    """

    def __init__(self) -> None:
        super().__init__(512)
        self.stats = PLAN_STATS

    def lookup(
        self, spec: JobSpec, backend_of: Callable[[str], Optional[Backend]]
    ) -> Optional[ExecutionPlan]:
        """The warm plan for ``spec``, or ``None`` (recorded as a miss).

        ``backend_of`` maps a device name to the fleet's backend of that
        name, or ``None`` when no such device is in the fleet.

        A plan whose device left the fleet misses but stays stored: the
        device may come back with the same calibration.  A plan compiled
        against another calibration of its device misses, and this engine's
        stale plans for that device are dropped before the cold path
        recompiles.
        """
        key = spec.dedup_key()
        with self._lock:
            plan = self._data.get(key)
            backend = None if plan is None else backend_of(plan.device)
            fingerprint = None if backend is None else calibration_fingerprint(backend.properties)
            if fingerprint is not None and fingerprint == plan.calibration_fingerprint:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return plan
            self.stats.misses += 1
        if fingerprint is not None:
            self.drop_stale(plan.device, fingerprint)
        return None

    def store(self, spec: JobSpec, plan: ExecutionPlan) -> None:
        """Publish a cold submit's plan."""
        self.put(spec.dedup_key(), plan)

    def drop_stale(self, device: str, fingerprint: str) -> None:
        """Drop this engine's plans for ``device`` compiled under another calibration."""
        self.drop_where(
            lambda plan: plan.device == device and plan.calibration_fingerprint != fingerprint
        )


class OrchestratorEngine(ExecutionEngine):
    """Run jobs through the paper's Fig. 2 cluster: meta server, master server, scheduler, device.

    The engine owns the four Fig. 2 parts — the :class:`ClusterState`, the
    :class:`MetaServer`, the :class:`MasterServer` and the
    :class:`QRIOScheduler` — plus its own plan store.  :meth:`match` enters
    the spec's circuit object into the cluster, unless :meth:`submit`
    already entered the job from that spec, and then runs MATCHING: a warm
    plan, else one scheduling cycle.  :meth:`run` is one plan path: a cold
    job's plan is compiled once by the master server, and every job
    executes through :meth:`MasterServer.execute_bound_job`.
    """

    name = "orchestrator"

    def __init__(
        self,
        *,
        cluster_name: str = "service-cluster",
        canary_shots: int = 512,
        policy: Optional[PolicyLike] = None,
        seed: SeedLike = None,
    ) -> None:
        """Build the engine's cluster, servers and scheduler.

        Args:
            cluster_name: Name of the cluster registry.
            canary_shots: Clifford-canary shots of the meta server.
            policy: Default placement policy (registry name or
                :class:`~repro.policies.PlacementPolicy`) applied to jobs
                that do not set ``JobRequirements.policy``; ``None`` keeps
                the native meta-server ranking path.
            seed: Base seed of the meta server (``meta``), the master server
                (``master``) and policy resolution.
        """
        self._policies = _PolicyResolver(policy, seed=seed)
        self._policy_fidelity_cache: dict = {}
        self._plans = _PlanStore()
        #: Specs of jobs in the cluster whose next match only routes: eager
        #: submissions not matched yet, and saturated jobs waiting to match
        #: again.  A match consumes the entry.  A saturated job the service
        #: stops retrying (only a node bound outside the service, say by
        #: ``QRIO.schedule_job``, makes it stop) keeps its entry until the
        #: facade's ``run_job`` matches it.
        self._entered: Dict[str, JobSpec] = {}
        self.cluster = ClusterState(name=cluster_name)
        self.meta_server = MetaServer(canary_shots=canary_shots, seed=derive_seed(seed, "meta"))
        self.master_server = MasterServer(self.cluster, seed=derive_seed(seed, "master"))
        self.scheduler = QRIOScheduler(self.cluster, self.meta_server)

    def attach(self, fleet: Sequence[Backend]) -> None:
        registered = {backend.name for backend in self.cluster.backends()}
        for backend in fleet:
            if backend.name not in registered:
                self.cluster.register_backend(backend)
                self.meta_server.register_backend(backend)

    def fleet(self) -> List[Backend]:
        return self.cluster.backends()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec, job_name: str) -> SubmittedJob:
        """Fig. 2's submission of ``spec`` as ``job_name``; the job's next :meth:`match` only routes it.

        Every check runs before the first side effect, so a rejected
        submission (an invalid name, a name that is still active) leaves the
        meta server, the image registry and the cluster as they were.
        """
        submitted = self._enter(spec, job_name)
        self._entered[job_name] = spec
        return submitted

    def submitted_spec(self, job_name: str) -> Optional[JobSpec]:
        """The spec ``job_name`` entered the cluster with, while its next match only routes it."""
        return self._entered.get(job_name)

    def match(self, spec: JobSpec, job_name: str) -> Placement:
        """MATCHING: enter the job unless it entered from ``spec``, then route it.

        A saturated placement keeps the job entered, so the service's match
        after capacity frees routes it again and submits nothing twice.
        """
        if self._entered.get(job_name) is spec:
            del self._entered[job_name]
        else:
            self._enter(spec, job_name)
        placement = self._route(spec, job_name)
        if placement.saturated:
            self._entered[job_name] = spec
        return placement

    def _enter(self, spec: JobSpec, job_name: str) -> SubmittedJob:
        """Validate, check the name, upload metadata, containerize, create the job.

        The meta server keeps the circuit as ``<job>_circuit`` (the canary
        seeds read that name) or the requested topology's circuit as
        ``<job>_topology``.
        """
        requirements = spec.requirements
        qubits = requirements.qubits_for(spec.circuit)
        canvas = None
        if requirements.strategy == "topology":
            canvas = TopologyCanvas(qubits).load_edges(list(requirements.topology_edges))
        user = UserRequirements(
            job_name=job_name,
            image_name=spec.image_name or f"qrio/{job_name}",
            num_qubits=qubits,
            cpu_millicores=requirements.cpu_millicores,
            memory_mb=requirements.memory_mb,
            max_avg_two_qubit_error=requirements.max_avg_two_qubit_error,
            max_avg_readout_error=requirements.max_avg_readout_error,
            min_avg_t1=requirements.min_avg_t1,
            min_avg_t2=requirements.min_avg_t2,
            fidelity_threshold=None if canvas is not None else requirements.effective_fidelity_threshold,
            topology_edges=None if canvas is None else canvas.edges(),
            shots=spec.shots,
        )
        if canvas is not None:
            metadata = JobMetadata(
                job_name=job_name,
                strategy="topology",
                topology_circuit=canvas.to_topology_circuit(name=f"{job_name}_topology"),
            )
        else:
            metadata = JobMetadata(
                job_name=job_name,
                strategy="fidelity",
                fidelity_threshold=user.fidelity_threshold,
                circuit=spec.circuit.copy(name=f"{job_name}_circuit"),
            )
        self.cluster.check_new_job(job_name)
        self.meta_server.store_job_metadata(metadata)
        return self.master_server.submit(user, spec.circuit)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, placement: Placement) -> EngineResult:
        plan: Optional[ExecutionPlan] = placement.detail.get("plan")
        replay = plan is not None
        if not replay:
            plan = self.master_server.compile_plan(
                placement.job_name,
                placement.spec.circuit,
                num_feasible=placement.num_feasible,
                scores=placement.detail.get("scores"),
            )
        result = self.master_server.execute_bound_job(placement.job_name, plan=plan)
        if not replay and "decision" not in placement.detail:  # policy-routed runs are never stored
            self._plans.store(placement.spec, plan)
        return EngineResult(
            device=plan.device,
            counts=dict(result.counts),
            shots=result.shots,
            score=self.cluster.job(placement.job_name).score,
            detail={"swaps_inserted": plan.transpiled.swaps_inserted, "plan_replay": replay},
        )

    # ------------------------------------------------------------------ #
    # MATCHING
    # ------------------------------------------------------------------ #
    def _route(self, spec: JobSpec, job_name: str) -> Placement:
        """MATCHING for a job that entered the cluster: warm plan, else one scheduling cycle."""
        policy = self._policies.for_requirements(spec.requirements)
        if policy is None:
            # Warm path: a stored plan whose device still has the calibration
            # it compiled against binds the job directly — no filter chain,
            # no canary ranking.
            plan = self._plans.lookup(spec, self._backend_of)
            if plan is not None:
                placement = self._replay_placement(spec, job_name, plan)
                if placement is not None:
                    return placement
        return self._schedule(spec, job_name, policy)

    def _replay_placement(self, spec: JobSpec, job_name: str, plan: ExecutionPlan) -> Optional[Placement]:
        """Bind ``job_name`` straight from a warm plan, skipping the scheduler.

        Returns ``None`` when the plan's device is gone, cordoned or full — the
        caller then falls back to the native path (the plan stays cached;
        only this submission pays the full cycle).
        """
        cluster = self.cluster
        node = cluster.node_for_device(plan.device)
        requirements = spec.requirements
        if (
            node is None
            or not node.is_schedulable()
            or not node.can_host(requirements.cpu_millicores, requirements.memory_mb)
        ):
            return None
        cluster.bind(job_name, node.name, score=plan.score)
        cluster.events.record(
            "PlanScheduled", job_name, f"replayed cached execution plan on {plan.device}"
        )
        return Placement(
            job_name=job_name,
            spec=spec,
            device=plan.device,
            score=plan.score,
            num_feasible=plan.num_feasible,
            detail={"scores": dict(plan.scores), "plan": plan},
        )

    def _backend_of(self, device: str) -> Optional[Backend]:
        """The fleet's backend named ``device``, or ``None``."""
        node = self.cluster.node_for_device(device)
        return None if node is None else node.backend

    def _schedule(self, spec: JobSpec, job_name: str, policy: Optional[PlacementPolicy]) -> Placement:
        """One scheduling cycle over the cluster: filters, then the ranking policy, then bind.

        The scheduler's requirement filters (qubit count, classical resources,
        device characteristics) shortlist the nodes under every route, and
        one policy decides among the survivors: the meta server's per-job
        ranking on the native route (``policy is None``), or the job's
        registry policy over the engine's own context.
        """
        context = None if policy is None else functools.partial(self._policy_context, spec, job_name)
        decision = self.scheduler.schedule(self.cluster.job(job_name), policy, context=context)
        detail = {"scores": decision.scores}
        if policy is not None:
            detail["decision"] = decision.placement  # marks the job policy-routed: never stored
        return Placement(
            job_name=job_name,
            spec=spec,
            device=decision.device,
            score=decision.score,
            num_feasible=decision.num_feasible,
            detail=detail,
            saturated=decision.filter_report.saturated,
        )

    def _policy_context(self, spec: JobSpec, job_name: str, fleet: List[Backend]) -> PlacementContext:
        """The placement context of a registry-policy job over the filter survivors."""
        requirements = spec.requirements
        # Fidelity estimates are reused across jobs through the engine-lifetime
        # cache, keyed by circuit *structure* plus a fleet-calibration epoch, so
        # repeat submissions pay one estimate per device while recalibration
        # silently invalidates every stale entry.  The epoch is the stable digest
        # from utils.cache — the builtin hash() is salted per process, which would
        # break any key that outlives a restart.
        return PlacementContext(
            fleet=fleet,
            circuit=spec.circuit,
            job_name=job_name,
            workload_key=structural_circuit_hash(spec.circuit),
            strategy=requirements.strategy,
            fidelity_threshold=requirements.effective_fidelity_threshold,
            topology_edges=requirements.topology_edges,
            shots=spec.shots,
            required_qubits=requirements.qubits_for(spec.circuit),
            calibration_epoch=fleet_calibration_epoch(fleet),
            fidelity_cache=self._policy_fidelity_cache,
        )

    # ------------------------------------------------------------------ #
    # Fault hooks
    # ------------------------------------------------------------------ #
    def set_device_available(self, device: str, available: bool) -> None:
        """Outage events cordon/uncordon the device's cluster node.

        Cordoned nodes drop out of ``schedulable_nodes()``, so the native
        scheduler, the policy filter path and warm-plan replay all stop
        placing onto the device until recovery.
        """
        super().set_device_available(device, available)
        cluster = self.cluster
        node = cluster.node_for_device(device)
        if node is None:
            raise ServiceError(f"Cannot change availability: unknown device '{device}'")
        if available:
            node.uncordon()
            cluster.events.record("NodeUncordoned", node.name, "scenario outage ended")
        else:
            node.cordon()
            cluster.events.record("NodeCordoned", node.name, "scenario outage")

    def apply_calibration(self, device: str, properties) -> None:
        """Swap the properties, then drop this engine's now-stale plans of the device.

        Plans compiled against any other calibration of ``device`` can never
        replay again, so they are evicted eagerly, exactly as a vendor
        calibration push does.
        """
        super().apply_calibration(device, properties)
        self._plans.drop_stale(device, calibration_fingerprint(properties))


class CloudEngine(ExecutionEngine):
    """Run jobs as arrivals of the discrete-event cloud simulation.

    Each submission becomes one :class:`~repro.cloud.JobRequest` arriving
    ``inter_arrival_s`` after the previous one; a placement policy routes
    it at arrival time onto a per-device FCFS queue, restricted to the
    devices that satisfy the spec's qubit request and device-characteristic
    bounds.  The engine reports the simulated fidelity (per the config's
    ``fidelity_report`` mode) together with queueing detail (wait and
    turnaround times) instead of measurement counts — this is the
    latency-model engine, not a sampling engine.

    Because the simulation runs on a *logical* clock, all of its queueing
    and fidelity bookkeeping is performed in arrival order during MATCHING
    (which the service serializes) — ``route`` and ``execute`` happen
    back-to-back per arrival, so load-aware policies always observe the
    queue state every earlier arrival already produced, exactly as in a
    ``workers=0`` or trace-driven run.  The RUNNING stage then just reports
    the precomputed record, which makes it trivially safe to call
    concurrently; wall-clock overlap comes from wrapping this engine in
    :class:`DeviceLatencyEngine`.
    """

    supports_concurrent_run = True

    def __init__(
        self,
        policy: Optional[PolicyLike] = None,
        config: Optional[CloudSimulationConfig] = None,
        *,
        inter_arrival_s: float = 1.0,
        user: str = "service",
    ) -> None:
        """Build a cloud-simulation engine.

        Args:
            policy: How arrivals are routed: a
                :class:`~repro.policies.PlacementPolicy`, a registry name
                (e.g. ``"fidelity:queue_weight=0.3"``) or ``None`` for the
                registry's ``"least-loaded"``.  Jobs may override it per
                submission via ``JobRequirements.policy``.
            config: Simulation knobs (fidelity reporting, time model, seed).
            inter_arrival_s: Logical gap between consecutive submissions.
            user: Submitting user recorded on every arrival.
        """
        if inter_arrival_s < 0:
            raise ServiceError("inter_arrival_s must be non-negative")
        self._policy = policy
        self._config = config
        self._inter_arrival_s = inter_arrival_s
        self._user = user
        self._fleet: List[Backend] = []
        self._session: Optional[CloudSession] = None
        self._overrides = _PolicyResolver(
            None, seed=derive_seed(config.seed if config is not None else None, "cloud-policy")
        )
        self._clock = 0.0
        self._index = 0

    @property
    def name(self) -> str:
        return "cloud"

    @property
    def session(self) -> CloudSession:
        """The underlying incremental simulation session."""
        if self._session is None:
            raise ServiceError("CloudEngine is not attached to a fleet yet")
        return self._session

    def attach(self, fleet: Sequence[Backend]) -> None:
        self._fleet = list(fleet)
        policy = resolve_policy(
            self._policy if self._policy is not None else "least-loaded",
            seed=derive_seed(self._config.seed if self._config is not None else None, "cloud-policy"),
        )
        simulator = CloudSimulator(self._fleet, policy, config=self._config)
        self._session = simulator.open_session()

    def fleet(self) -> List[Backend]:
        return list(self._fleet)

    def match(self, spec: JobSpec, job_name: str) -> Placement:
        requirements = spec.requirements
        # An explicit JobRequirements.arrival_time_s pins the job on the
        # simulated clock (how the scenario runner replays a trace's exact
        # timeline); otherwise submissions arrive inter_arrival_s apart.
        if requirements.arrival_time_s is not None:
            arrival = requirements.arrival_time_s
            self._clock = max(self._clock, arrival + self._inter_arrival_s)
        else:
            arrival = self._clock
            self._clock = arrival + self._inter_arrival_s
        request = JobRequest(
            index=self._index,
            arrival_time=arrival,
            workload_key=job_name,
            circuit=spec.circuit,
            strategy=requirements.strategy,
            fidelity_threshold=(
                requirements.effective_fidelity_threshold if requirements.strategy == "fidelity" else 0.0
            ),
            shots=spec.shots,
            user=self._user,
        )
        self._index += 1
        feasible = self._feasible_devices(spec)
        if not feasible:
            return Placement(job_name=job_name, spec=spec, device=None, num_feasible=0)
        decision = self.session.route(
            request,
            candidates=[backend.name for backend in feasible],
            policy=self._overrides.for_requirements(requirements),
        )
        # Simulated-time queueing + fidelity reporting happens here, in
        # arrival order, so every later arrival's routing sees this job
        # already enqueued (the discrete-event contract) no matter how the
        # service interleaves the RUNNING stages.
        record = self.session.execute(request, decision.device)
        return Placement(
            job_name=job_name,
            spec=spec,
            device=decision.device,
            score=decision.score,
            num_feasible=len(feasible),
            detail={
                "request": request,
                "record": record,
                "decision": decision,
                "scores": decision.scores,
            },
        )

    def _feasible_devices(self, spec: JobSpec) -> List[Backend]:
        """The devices this spec may route onto, filtered afresh per arrival.

        Calibration pushes and outage windows take effect on the very next
        arrival because nothing about the fleet is memoized here.
        """
        requirements = spec.requirements
        required_qubits = requirements.qubits_for(spec.circuit)
        return [
            backend
            for backend in self._fleet
            if backend.num_qubits >= required_qubits
            and device_bounds_violation(backend.properties, requirements) is None
            and self.device_is_available(backend.name)
        ]

    def run(self, placement: Placement) -> EngineResult:
        record = placement.detail["record"]
        return EngineResult(
            device=record.device,
            counts={},
            shots=placement.spec.shots,
            score=placement.score,
            fidelity=record.fidelity,
            detail={
                "wait_time_s": record.wait_time,
                "turnaround_time_s": record.turnaround_time,
            },
        )

    @property
    def simulator(self):
        """The discrete-event simulator behind the session (after attach)."""
        return self.session.simulator

    def apply_calibration(self, device: str, properties) -> None:
        """Calibration jumps additionally advance the session's policy epoch.

        The shared-backend property swap (base implementation) already
        reaches the per-arrival feasibility filter; the session bump forces
        fidelity-aware routing policies to re-estimate against the drifted
        properties.
        """
        super().apply_calibration(device, properties)
        if self._session is not None:
            self._session.notice_calibration_change()

    def inject_queue_backlog(self, devices, *, at_time_s: float, backlog_s: float) -> int:
        """Queue-storm events enqueue synthetic occupancy on device queues."""
        affected = 0
        for device in devices:
            self.session.inject_backlog(device, at_time=at_time_s, backlog_s=backlog_s)
            affected += 1
        return affected

    def simulation_result(self) -> CloudSimulationResult:
        """Everything executed so far as a cloud-simulation result."""
        return self.session.result()


class DeviceLatencyEngine(ExecutionEngine):
    """Decorator engine: add wall-clock device occupancy to any inner engine.

    Every simulator in this repo completes a job as fast as Python allows —
    real quantum clouds do not: once a job is committed to a QPU, the device
    is occupied for milliseconds-to-seconds of pulse schedules, readout and
    classical I/O.  This wrapper makes that occupancy real by sleeping
    ``latency_s`` after the inner engine's execution, which is exactly the
    regime the concurrent runtime's per-device lanes are built for: with
    ``workers >= 2`` the occupancy windows of jobs on *different* devices
    overlap, while same-device jobs still serialize in their lane.
    ``BENCH_concurrency.json`` measures precisely this overlap.

    The inner engine's ``run`` is re-serialized under a lock when it does not
    advertise ``supports_concurrent_run`` itself — only the latency window
    (where a real deployment would be blocked on the device, not on Python)
    runs outside the lock.
    """

    supports_concurrent_run = True

    def __init__(self, inner: ExecutionEngine, *, latency_s: float = 0.05) -> None:
        """Wrap ``inner``, occupying the placed device ``latency_s`` per job.

        Args:
            inner: Any execution engine; matching is delegated untouched.
            latency_s: Wall-clock seconds of device occupancy per executed
                job group (must be >= 0).

        Raises:
            ServiceError: Negative ``latency_s``.
        """
        if latency_s < 0:
            raise ServiceError("latency_s must be >= 0")
        self._inner = inner
        self._latency_s = latency_s
        self._run_lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"{self._inner.name}+latency"

    @property
    def inner(self) -> ExecutionEngine:
        """The wrapped engine."""
        return self._inner

    @property
    def session(self):
        """The inner engine's cloud session, if it has one (else ``None``)."""
        return getattr(self._inner, "session", None)

    @property
    def latency_s(self) -> float:
        """Per-job device occupancy in wall-clock seconds."""
        return self._latency_s

    def attach(self, fleet: Sequence[Backend]) -> None:
        self._inner.attach(fleet)

    def fleet(self) -> List[Backend]:
        return self._inner.fleet()

    def match(self, spec: JobSpec, job_name: str) -> Placement:
        return self._inner.match(spec, job_name)

    # Fault hooks delegate to the inner engine (which owns the filter path);
    # the wrapper additionally stretches its own occupancy window while a
    # straggler slowdown is active on the placed device.
    def set_fault_injector(self, injector) -> None:
        super().set_fault_injector(injector)
        self._inner.set_fault_injector(injector)

    def set_device_available(self, device: str, available: bool) -> None:
        self._inner.set_device_available(device, available)

    def device_is_available(self, device: str) -> bool:
        return self._inner.device_is_available(device)

    def apply_calibration(self, device: str, properties) -> None:
        self._inner.apply_calibration(device, properties)

    def inject_queue_backlog(self, devices, *, at_time_s: float, backlog_s: float) -> int:
        return self._inner.inject_queue_backlog(devices, at_time_s=at_time_s, backlog_s=backlog_s)

    def run(self, placement: Placement) -> EngineResult:
        if self._inner.supports_concurrent_run:
            outcome = self._inner.run(placement)
        else:
            with self._run_lock:
                outcome = self._inner.run(placement)
        if self._latency_s:
            injector = self.fault_injector
            factor = 1.0 if injector is None else injector.straggler_factor(placement.device)
            time.sleep(self._latency_s * factor)
        return outcome
