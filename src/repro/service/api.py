"""Typed request/response model of the unified QRIO job service.

Both execution engines — the synchronous orchestrator and the discrete-event
cloud simulator — speak this one vocabulary:

* :class:`JobRequirements` + :class:`JobSpec` — what a user submits;
* :class:`JobState` / :class:`JobStatus` / :class:`JobEvent` — the explicit
  job lifecycle (``QUEUED → MATCHING → RUNNING → DONE/FAILED``);
* :class:`Placement` / :class:`EngineResult` — what an engine reports back
  from its two lifecycle stages (device selection, then execution);
* :class:`ServiceResult` — what a finished :class:`~repro.service.JobHandle`
  hands to the user;
* :class:`ExecutionEngine` — the protocol the engine adapters implement.

``JobRequirements`` is frozen and hashable on purpose: together with
:func:`repro.utils.cache.structural_circuit_hash` and the shot budget it forms
the batch-deduplication key, so a batch of N structurally-identical requests
collapses onto one embedding search, one canary distribution and one
execution.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.policies.api import PlacementPolicy
from repro.tenancy.api import DEFAULT_TENANT, DEFAULT_TENANT_ID, Tenant
from repro.utils.cache import structural_circuit_hash
from repro.utils.exceptions import ServiceError
from repro.utils.validation import require_positive_int, require_probability


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    QUEUED = "Queued"
    MATCHING = "Matching"
    RUNNING = "Running"
    DONE = "Done"
    FAILED = "Failed"

    @property
    def terminal(self) -> bool:
        """``True`` once the job can no longer change state."""
        return self in (JobState.DONE, JobState.FAILED)


#: Legal lifecycle transitions (enforced by the service, tested explicitly).
ALLOWED_TRANSITIONS: Dict[JobState, Tuple[JobState, ...]] = {
    JobState.QUEUED: (JobState.MATCHING, JobState.FAILED),
    JobState.MATCHING: (JobState.RUNNING, JobState.FAILED),
    JobState.RUNNING: (JobState.DONE, JobState.FAILED),
    JobState.DONE: (),
    JobState.FAILED: (),
}


@dataclass(frozen=True)
class JobRequirements:
    """What a user asks of the fleet, independent of any engine.

    Exactly one of ``fidelity_threshold`` / ``topology_edges`` selects the
    ranking strategy; leaving both unset defaults to a fidelity requirement
    of 1.0 (the paper's evaluation setting: "give me the best device").
    Device-characteristic bounds and classical resources mirror the
    visualizer's step-2 form.  ``priority`` and ``deadline_s`` order the
    service runtime's dispatch queue within a tenant (higher priority first,
    then earliest deadline, then submission order) at every worker count.
    """

    fidelity_threshold: Optional[float] = None
    topology_edges: Optional[Tuple[Tuple[int, int], ...]] = None
    max_avg_two_qubit_error: Optional[float] = None
    max_avg_readout_error: Optional[float] = None
    min_avg_t1: Optional[float] = None
    min_avg_t2: Optional[float] = None
    cpu_millicores: int = 500
    memory_mb: int = 512
    #: Override of the qubit resource request; ``None`` uses the circuit
    #: width.  A request below the circuit width is rejected at submit.
    num_qubits: Optional[int] = None
    #: Scheduling priority in the service runtime's queue: higher runs
    #: earlier, at every worker count (``workers=0`` included).
    priority: int = 0
    #: Soft deadline in seconds since submission.  Among equal priorities the
    #: runtime dispatches by earliest *absolute* due time (submission time +
    #: ``deadline_s``); ``None`` sorts after every explicit deadline.  The
    #: deadline orders the queue at every worker count — it does not cancel
    #: late jobs.
    deadline_s: Optional[float] = None
    #: Simulated arrival time of this job in seconds, honoured by
    #: latency-model engines (:class:`~repro.service.CloudEngine` stamps the
    #: arrival on its discrete-event clock instead of spacing submissions
    #: ``inter_arrival_s`` apart).  ``None`` (default) keeps the engine's own
    #: clock.  The scenario runner sets this when replaying a recorded trace
    #: so queueing dynamics reproduce the trace's timeline exactly; other
    #: engines ignore it.  Part of the dedup key on purpose: two jobs
    #: arriving at different simulated times are different queueing events.
    arrival_time_s: Optional[float] = None
    #: Placement policy for this job: a registry name (optionally
    #: parameterized, e.g. ``"fidelity:queue_weight=0.3"``) or a ready
    #: :class:`~repro.policies.PlacementPolicy` instance.  ``None`` (default)
    #: keeps each engine's native placement path.  Every engine honours it,
    #: so the *same* policy routes a job identically whichever engine runs
    #: it.  The policy is part of the batch-dedup key: jobs under different
    #: policies never share one placement.
    policy: Optional[Union[str, PlacementPolicy]] = None
    #: The submitting tenant (:class:`~repro.tenancy.Tenant`).  ``None``
    #: (default) means the implicit anonymous tenant — exactly the
    #: pre-tenancy behaviour, so existing callers and recorded traces are
    #: unaffected.  Part of the dedup key by construction (requirements are
    #: in the key): two tenants never share one deduplicated execution,
    #: which keeps fair-queueing and quota accounting attributable.
    tenant: Optional[Tenant] = None

    def __post_init__(self) -> None:
        if self.num_qubits is not None:
            require_positive_int(self.num_qubits, "num_qubits")
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ServiceError("priority must be an integer (higher = dispatched earlier)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError("deadline_s must be a positive number of seconds")
        if self.arrival_time_s is not None and self.arrival_time_s < 0:
            raise ServiceError("arrival_time_s must be a non-negative simulated time")
        if self.policy is not None and not isinstance(self.policy, (str, PlacementPolicy)):
            raise ServiceError(
                "policy must be a registry name (e.g. 'fidelity:queue_weight=0.3') "
                "or a PlacementPolicy instance"
            )
        if isinstance(self.policy, str) and not self.policy.strip():
            raise ServiceError("policy name must be a non-empty string")
        if self.tenant is not None and not isinstance(self.tenant, Tenant):
            raise ServiceError(
                "tenant must be a repro.tenancy.Tenant (or None for the default tenant)"
            )
        if self.fidelity_threshold is not None and self.topology_edges is not None:
            raise ServiceError(
                "Fidelity and topology requirements are mutually exclusive; pick one"
            )
        if self.fidelity_threshold is not None:
            require_probability(self.fidelity_threshold, "fidelity_threshold")
        if self.topology_edges is not None:
            edges = tuple(sorted((min(int(a), int(b)), max(int(a), int(b))) for a, b in self.topology_edges))
            if not edges:
                raise ServiceError("A topology requirement needs at least one edge")
            for a, b in edges:
                if a == b:
                    raise ServiceError("Topology edges must connect distinct qubits")
            object.__setattr__(self, "topology_edges", edges)
        if self.max_avg_two_qubit_error is not None:
            require_probability(self.max_avg_two_qubit_error, "max_avg_two_qubit_error")
        if self.max_avg_readout_error is not None:
            require_probability(self.max_avg_readout_error, "max_avg_readout_error")

    @property
    def strategy(self) -> str:
        """``"fidelity"`` or ``"topology"`` — which ranking strategy applies."""
        return "topology" if self.topology_edges is not None else "fidelity"

    @property
    def effective_tenant(self) -> Tenant:
        """The submitting tenant, with the anonymous default applied."""
        return self.tenant if self.tenant is not None else DEFAULT_TENANT

    @property
    def tenant_id(self) -> str:
        """Tenant id shorthand (``"default"`` for anonymous submissions)."""
        return self.tenant.id if self.tenant is not None else DEFAULT_TENANT_ID

    @property
    def effective_fidelity_threshold(self) -> float:
        """The fidelity requirement with the 1.0 default applied."""
        return 1.0 if self.fidelity_threshold is None else self.fidelity_threshold

    def qubits_for(self, circuit: QuantumCircuit) -> int:
        """The qubit resource request for ``circuit`` (override or width)."""
        return self.num_qubits if self.num_qubits is not None else circuit.num_qubits


@dataclass(frozen=True)
class JobSpec:
    """One service submission: a circuit, its requirements, a shot budget."""

    circuit: QuantumCircuit
    requirements: JobRequirements = field(default_factory=JobRequirements)
    shots: int = 1024
    name: Optional[str] = None
    #: Container image name; ``None`` derives one from the job name.
    image_name: Optional[str] = None

    def __post_init__(self) -> None:
        require_positive_int(self.shots, "shots")
        bound = self.requirements.qubits_for(self.circuit)
        if bound < self.circuit.num_qubits:
            raise ServiceError(
                f"num_qubits={bound} is below the {self.circuit.num_qubits} qubits "
                f"circuit '{self.circuit.name}' needs"
            )
        if self.requirements.topology_edges is not None:
            for a, b in self.requirements.topology_edges:
                if not (0 <= a < bound and 0 <= b < bound):
                    raise ServiceError(
                        f"Topology edge ({a}, {b}) is out of range for {bound} qubits"
                    )

    def dedup_key(self) -> Tuple[str, JobRequirements, int]:
        """Batch-grouping key: circuit *structure* + requirements + shots.

        Two submissions with the same key are interchangeable — same
        embedding search, same canary distribution, same execution — so the
        service runs the group once and shares the result.  The circuit
        keeps its structural hash until it is next edited, so the grouping,
        plan lookup and plan store of one submit hash it once between them.
        """
        return (structural_circuit_hash(self.circuit), self.requirements, self.shots)


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle transition of a service job."""

    sequence: int
    state: JobState
    message: str
    #: Monotonic wall-clock stamp of when the transition was recorded.  Only
    #: differences are meaningful (``time.monotonic`` has an arbitrary
    #: origin); :meth:`QRIOService.wait_report` turns them into the
    #: QUEUED→RUNNING wait and drain-makespan statistics.
    # Event timestamps are observability metadata (wait reports), never
    # replay inputs; only differences between them are used.
    # qrio: allow[QRIO-D002] observability timestamp, not simulated time
    timestamp: float = field(default_factory=time.monotonic)
    #: Id of the tenant the job belongs to, so event streams (and the wait
    #: reports built from them) stay attributable after events leave their
    #: handle — e.g. when a shard process ships them back to the parent.
    tenant: str = DEFAULT_TENANT_ID

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.sequence}] {self.state.value}: {self.message}"


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time snapshot of a job's lifecycle."""

    name: str
    state: JobState
    engine: str
    device: Optional[str] = None
    score: Optional[float] = None
    message: str = ""
    error: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """``True`` once the job reached DONE or FAILED."""
        return self.state.terminal


@dataclass(frozen=True)
class ServiceResult:
    """What a successfully completed service job returns to the user."""

    job_name: str
    engine: str
    device: str
    counts: Dict[str, int]
    shots: int
    score: Optional[float] = None
    fidelity: Optional[float] = None
    num_feasible: int = 0
    group_size: int = 1
    deduplicated: bool = False
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class Placement:
    """Outcome of an engine's MATCHING stage (device selection).

    ``device is None`` means no device satisfied the requirements — the
    service fails the job without entering RUNNING, mirroring the paper's
    "job not fit for scheduling" outcome.  ``saturated`` marks the transient
    variant: every candidate was rejected only because it is full, so the
    concurrent runtime matches again once a running job frees capacity.
    """

    job_name: str
    spec: JobSpec
    device: Optional[str]
    score: Optional[float] = None
    num_feasible: int = 0
    detail: Dict[str, object] = field(default_factory=dict)
    saturated: bool = False

    def status_detail(self) -> Dict[str, object]:
        """What a job's status detail records of this placement (``saturated`` only when unplaced)."""
        detail: Dict[str, object] = {"num_feasible": self.num_feasible, **self.detail}
        if self.device is None:
            detail["saturated"] = self.saturated
        return detail


@dataclass
class EngineResult:
    """Outcome of an engine's RUNNING stage (execution)."""

    device: str
    counts: Dict[str, int]
    shots: int
    score: Optional[float] = None
    fidelity: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)


class ExecutionEngine(abc.ABC):
    """The one protocol every execution backend of the service implements.

    The split into :meth:`match` and :meth:`run` is deliberate: it maps the
    MATCHING and RUNNING lifecycle states onto engine work, so every engine
    reports device selection and execution as separate, observable steps.

    Concurrency contract (used by :class:`~repro.service.ServiceRuntime`):
    :meth:`match` is always called by exactly one thread at a time (the
    runtime's dispatcher serializes it).  :meth:`replay` may run on a
    submitting thread while that one :meth:`match` is in progress, so an
    engine that overrides it guards the state both share.  :meth:`run`,
    however, is called from worker threads — concurrently for jobs placed
    on *different* devices — whenever
    :attr:`supports_concurrent_run` is ``True``.  Engines that cannot execute
    concurrently keep the default ``False`` and the runtime serializes their
    ``run`` calls under a global lock (jobs still overlap in queueing and
    lifecycle, just not in execution).
    """

    #: Whether :meth:`run` may be invoked concurrently from several worker
    #: threads (for placements on different devices).  Engines whose execution
    #: path mutates unguarded shared state must leave this ``False``.
    supports_concurrent_run: bool = False

    @property
    def name(self) -> str:
        """Engine name used in statuses, events and reports."""
        return type(self).__name__

    @abc.abstractmethod
    def attach(self, fleet: Sequence[Backend]) -> None:
        """Bind the engine to a device fleet (called once by the service)."""

    @abc.abstractmethod
    def fleet(self) -> List[Backend]:
        """The engine's *current* fleet (live — vendor-side changes show up)."""

    @abc.abstractmethod
    def match(self, spec: JobSpec, job_name: str) -> Placement:
        """Select a device for ``spec`` (filtering + ranking)."""

    def replay(
        self, spec: JobSpec, job_name: str, *, alongside: Optional[JobSpec] = None
    ) -> Optional[Placement]:
        """Bind a warm job without MATCHING, or return ``None`` and change nothing.

        ``alongside`` is the spec of the group in MATCHING, if any: a replay
        binds only where that group's classical request still fits
        afterwards.  The base engine keeps no plans, so every job matches.
        """
        return None

    @abc.abstractmethod
    def run(self, placement: Placement) -> EngineResult:
        """Execute a matched job and return its outcome."""

    # ------------------------------------------------------------------ #
    # Fault-injection hooks (scenario event layer)
    #
    # All four hooks are only ever called from the serialized MATCHING
    # funnel (the FaultInjector advances inside QRIOService._match_group),
    # so the default implementations keep plain, unguarded state.
    # ------------------------------------------------------------------ #
    def set_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.scenarios.FaultInjector` (or ``None``)."""
        self._fault_injector = injector

    @property
    def fault_injector(self):
        """The attached fault injector, or ``None``."""
        return getattr(self, "_fault_injector", None)

    def set_device_available(self, device: str, available: bool) -> None:
        """Flip one device's availability (outage start/end).

        The base implementation tracks the down-set for
        :meth:`device_is_available`; engines with their own filter path
        (cordonable nodes, feasibility shortlists) extend it.
        """
        down = getattr(self, "_fault_unavailable", None)
        if down is None:
            down = set()
            self._fault_unavailable = down
        if available:
            down.discard(device)
        else:
            down.add(device)

    def device_is_available(self, device: str) -> bool:
        """``False`` while ``device`` is inside an injected outage window."""
        return device not in getattr(self, "_fault_unavailable", ())

    def apply_calibration(self, device: str, properties) -> None:
        """Install freshly drifted properties on ``device`` (epoch jump).

        Backends are shared objects across every registry an engine keeps
        (cluster nodes, meta server, session context), so swapping
        ``backend.properties`` propagates everywhere.  Engines that store
        execution plans extend this to drop the device's stale plans.
        """
        for backend in self.fleet():
            if backend.name == device:
                backend.properties = properties
                return
        raise ServiceError(f"Cannot apply calibration: unknown device '{device}'")

    def inject_queue_backlog(self, devices: Sequence[str], *, at_time_s: float, backlog_s: float) -> int:
        """Drop synthetic backlog on device queues (queue storm).

        Only meaningful on engines with simulated queues; the default is a
        recorded no-op returning 0 affected devices.
        """
        return 0
