"""The discrete-event quantum-cloud simulator.

Jobs arrive according to a trace, a policy routes each arrival to a device,
and every device works through its own first-come-first-served queue with
deterministic service times.  Because routing happens at arrival time and
queues are single-server FCFS, processing arrivals in order is an exact
discrete-event simulation — no future event can change a decision already
made, which mirrors how today's quantum clouds commit jobs to a machine at
submission time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.cloud.queueing import DeviceQueue, ExecutionTimeModel, QueueSlot, build_queues
from repro.fidelity.canary import achieved_fidelity
from repro.fidelity.estimator import ESPEstimator
from repro.policies.api import PlacementContext, PlacementDecision, PlacementPolicy
from repro.utils.cache import calibration_fingerprint, structural_circuit_hash
from repro.utils.exceptions import CloudError, SchedulingError
from repro.utils.rng import SeedLike, derive_seed
from repro.workloads.arrivals import JobRequest
from repro.workloads.metrics import render_metric_table, summarise_waits, wait_fairness


@dataclass(frozen=True)
class CloudSimulationConfig:
    """Knobs of one cloud-simulation run."""

    #: Service-time model shared by all devices.
    time_model: ExecutionTimeModel = field(default_factory=ExecutionTimeModel)
    #: How to report per-job fidelity: ``"none"`` (skip), ``"esp"`` (analytic
    #: estimate on the chosen device) or ``"execute"`` (noisy execution vs the
    #: ideal reference — accurate but slow, intended for small traces).
    fidelity_report: str = "esp"
    #: Shots used when ``fidelity_report == "execute"``.
    execution_shots: int = 256
    #: Reuse ``"execute"``-mode fidelity results across jobs whose circuits
    #: share the same structure on the same device calibration.  Repeat-heavy
    #: traces (the common cloud pattern) then pay for one noisy execution per
    #: distinct (circuit, device, calibration) instead of one per job.
    reuse_fidelity_cache: bool = True
    #: Base seed for fidelity execution and estimator tie-breaking.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fidelity_report not in ("none", "esp", "execute"):
            raise CloudError("fidelity_report must be 'none', 'esp' or 'execute'")
        if self.execution_shots <= 0:
            raise CloudError("execution_shots must be positive")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job in the simulation."""

    request: JobRequest
    device: str
    slot: QueueSlot
    fidelity: Optional[float] = None

    @property
    def wait_time(self) -> float:
        """Seconds spent queued."""
        return self.slot.wait_time

    @property
    def turnaround_time(self) -> float:
        """Seconds from submission to completion."""
        return self.slot.turnaround_time

    @property
    def user(self) -> str:
        """Submitting user."""
        return self.request.user


@dataclass
class CloudSimulationResult:
    """All job records of one run plus the final queue state."""

    policy_name: str
    records: List[JobRecord]
    queues: Dict[str, DeviceQueue]

    # ------------------------------------------------------------------ #
    # Wait / turnaround metrics
    # ------------------------------------------------------------------ #
    def waits(self) -> List[float]:
        """Per-job wait times in arrival order."""
        return [record.wait_time for record in self.records]

    def mean_wait(self) -> float:
        """Average queueing delay in seconds."""
        waits = self.waits()
        return sum(waits) / len(waits) if waits else 0.0

    def wait_summary(self) -> Dict[str, float]:
        """Mean / median / p95 / max wait."""
        return summarise_waits(self.waits())

    def mean_turnaround(self) -> float:
        """Average submission-to-completion latency in seconds."""
        if not self.records:
            return 0.0
        return sum(record.turnaround_time for record in self.records) / len(self.records)

    def makespan(self) -> float:
        """Completion time of the last job."""
        return max((record.slot.finish_time for record in self.records), default=0.0)

    # ------------------------------------------------------------------ #
    # Fidelity, fairness, utilisation
    # ------------------------------------------------------------------ #
    def mean_fidelity(self) -> Optional[float]:
        """Average reported fidelity (``None`` when fidelity reporting was off)."""
        values = [record.fidelity for record in self.records if record.fidelity is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def fairness(self) -> float:
        """Jain fairness over users' inverse mean waits."""
        by_user: Dict[str, List[float]] = {}
        for record in self.records:
            by_user.setdefault(record.user, []).append(record.wait_time)
        return wait_fairness(by_user)

    def jobs_per_device(self) -> Dict[str, int]:
        """Number of jobs each device received."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.device] = counts.get(record.device, 0) + 1
        return dict(sorted(counts.items()))

    def device_utilisation(self) -> Dict[str, float]:
        """Busy fraction of every device over the simulation makespan."""
        horizon = self.makespan()
        return {
            name: queue.utilisation(horizon=horizon) if horizon > 0 else 0.0
            for name, queue in sorted(self.queues.items())
        }

    def summary(self) -> Dict[str, object]:
        """One row of the policy-comparison table (tail percentiles included)."""
        waits = self.wait_summary()
        return {
            "policy": self.policy_name,
            "jobs": len(self.records),
            "mean_wait_s": waits["mean"],
            "p50_wait_s": waits["p50"],
            "p95_wait_s": waits["p95"],
            "p99_wait_s": waits["p99"],
            "mean_turnaround_s": self.mean_turnaround(),
            "makespan_s": self.makespan(),
            "mean_fidelity": self.mean_fidelity() if self.mean_fidelity() is not None else float("nan"),
            "fairness": self.fairness(),
        }


class CloudSimulator:
    """Run one policy over one arrival trace on one fleet."""

    def __init__(
        self,
        fleet: Sequence[Backend],
        policy: PlacementPolicy,
        config: Optional[CloudSimulationConfig] = None,
    ) -> None:
        if not fleet:
            raise CloudError("The cloud simulation needs at least one device")
        self._fleet = list(fleet)
        self._policy = policy
        self._config = config or CloudSimulationConfig()
        self._esp = ESPEstimator(seed=derive_seed(self._config.seed, "cloud-esp"))
        #: "execute"-mode fidelity results keyed by (circuit structure,
        #: device, calibration fingerprint, shots); persists across runs so
        #: repeated traces on the same fleet stay warm.
        self._execute_fidelity_cache: Dict[Tuple[str, str, str, int], float] = {}

    # ------------------------------------------------------------------ #
    @property
    def fleet(self) -> List[Backend]:
        """The devices this simulator routes onto."""
        return list(self._fleet)

    @property
    def policy(self) -> PlacementPolicy:
        """The placement policy routing arrivals to devices."""
        return self._policy

    @property
    def config(self) -> CloudSimulationConfig:
        """The simulation configuration."""
        return self._config

    def set_time_model(self, time_model) -> None:
        """Swap the execution-time model (scenario straggler injection).

        Calling this mid-session only affects service times computed after
        the swap.
        """
        self._config = replace(self._config, time_model=time_model)

    def open_session(self) -> "CloudSession":
        """Start an incremental simulation accepting arrivals one at a time.

        This is the streaming face of the simulator used by the unified
        service layer (:class:`repro.service.CloudEngine`): instead of handing
        over a complete trace, callers route and execute arrivals as they
        occur.  :meth:`run` is a thin wrapper that opens a session and feeds
        it the whole trace in arrival order.
        """
        return CloudSession(self)

    def run(self, trace: Sequence[JobRequest]) -> CloudSimulationResult:
        """Simulate the whole trace and return per-job records."""
        session = self.open_session()
        for request in sorted(trace, key=lambda item: item.arrival_time):
            session.submit(request)
        return session.result()

    # ------------------------------------------------------------------ #
    def _job_fidelity(
        self,
        request: JobRequest,
        backend: Backend,
        fidelity_cache: Dict[Tuple[str, str, int], float],
        calibration_epoch: int,
    ) -> Optional[float]:
        mode = self._config.fidelity_report
        if mode == "none":
            return None
        if mode == "execute":
            if not self._config.reuse_fidelity_cache:
                return self._execute_fidelity(request, backend)
            key = (
                structural_circuit_hash(request.circuit),
                backend.name,
                calibration_fingerprint(backend.properties),
                self._config.execution_shots,
            )
            if key not in self._execute_fidelity_cache:
                self._execute_fidelity_cache[key] = self._execute_fidelity(request, backend)
            return self._execute_fidelity_cache[key]
        # "esp": a fidelity-aware policy already filled the shared cache entry
        # while scoring, so the report does not re-transpile what it scored.
        key = (request.workload_key, backend.name, calibration_epoch)
        if key not in fidelity_cache:
            fidelity_cache[key] = self._esp.estimate(request.circuit, backend).esp
        return fidelity_cache[key]

    def _execute_fidelity(self, request: JobRequest, backend: Backend) -> float:
        return achieved_fidelity(
            request.circuit,
            backend,
            shots=self._config.execution_shots,
            seed=derive_seed(self._config.seed, "cloud-execute", request.name, backend.name),
        )


class CloudSession:
    """One incremental simulation run: arrivals are submitted one at a time.

    Because routing happens at arrival time and device queues are
    single-server FCFS, feeding arrivals in non-decreasing arrival order is
    an exact discrete-event simulation — the session enforces that ordering
    and otherwise behaves exactly like :meth:`CloudSimulator.run`.

    The two-step :meth:`route` / :meth:`execute` split mirrors the service
    layer's job lifecycle: ``route`` is the MATCHING step (policy decision,
    feasibility check), ``execute`` the RUNNING step (queueing + fidelity
    reporting).  :meth:`submit` performs both.

    Thread safety and logical time: the simulation runs on a logical clock,
    so :meth:`route`/:meth:`execute` must be fed in arrival order — the
    concurrent service runtime does both back-to-back inside its serialized
    MATCHING stage precisely so that load-aware policies always observe the
    queue state produced by every earlier arrival (identical to a serial
    run).  The internal lock additionally guards the queues, records and
    arrival clock against snapshot readers (:attr:`records`,
    :meth:`result`) running on other threads mid-simulation.
    """

    def __init__(self, simulator: CloudSimulator) -> None:
        self._simulator = simulator
        self._fleet = simulator.fleet
        self._queues = build_queues(self._fleet)
        #: Bumped whenever calibration changes; part of the fidelity-estimate
        #: cache key, so a bump forces re-estimation.
        self._calibration_epoch = 0
        #: Fidelity estimates keyed by (workload, device, epoch), shared by
        #: every policy routing into this session and by ESP reporting.
        self._fidelity_cache: Dict[Tuple[str, str, int], float] = {}
        self._records: List[JobRecord] = []
        self._last_arrival = 0.0
        self._mutex = threading.Lock()

    @property
    def records(self) -> List[JobRecord]:
        """Records of every job executed so far, in arrival order."""
        with self._mutex:
            return list(self._records)

    @property
    def simulator(self) -> CloudSimulator:
        """The simulator this session streams arrivals into."""
        return self._simulator

    # ------------------------------------------------------------------ #
    # Scenario fault-injection hooks (called from the serialized MATCHING
    # funnel of the service layer, like route/execute)
    # ------------------------------------------------------------------ #
    def set_time_model(self, time_model) -> None:
        """Swap the execution-time model for this session and its simulator.

        Installed by the scenario fault injector so straggler windows
        stretch the service times charged at :meth:`execute` (and hence the
        predicted waits load-aware policies see at :meth:`route`).
        """
        with self._mutex:
            self._simulator.set_time_model(time_model)

    def notice_calibration_change(self) -> None:
        """Advance the session's calibration epoch (epoch jump).

        Fidelity estimates cached by routing policies are keyed by this
        epoch, so bumping it forces re-estimation against the freshly
        drifted device properties.
        """
        with self._mutex:
            self._calibration_epoch += 1

    def inject_backlog(self, device_name: str, *, at_time: float, backlog_s: float, label: str = "queue-storm") -> QueueSlot:
        """Enqueue ``backlog_s`` seconds of synthetic occupancy on one queue.

        The storm behaves like an opaque job arriving at ``at_time``: later
        arrivals queue behind it (and load-aware policies see the stretched
        predicted wait), but no :class:`JobRecord` is created — the backlog
        is not part of this trace's workload.

        Raises:
            CloudError: Unknown device or negative parameters (via the
                queue's own validation).
        """
        if device_name not in self._queues:
            raise CloudError(f"Cannot inject backlog: unknown device '{device_name}'")
        with self._mutex:
            return self._queues[device_name].enqueue(label, at_time, backlog_s)

    def route(
        self,
        request: JobRequest,
        candidates: Optional[Sequence[str]] = None,
        policy: Optional[PlacementPolicy] = None,
    ) -> PlacementDecision:
        """Decide the device for ``request`` (the policy's arrival-time decision).

        ``candidates`` optionally restricts the policy's choice to a subset
        of the fleet (the service layer uses this to enforce user
        requirements the policies themselves do not know about); queues and
        the fidelity cache stay shared with the unrestricted fleet.

        ``policy`` optionally overrides the simulator's policy for this one
        arrival — how the unified service layer honours a per-job
        ``JobRequirements.policy`` while the session's queues, clock and
        caches stay shared across every arrival.

        Raises:
            CloudError: ``request`` arrives before the previous arrival.
            SchedulingError: No candidate device can host the job.
        """
        with self._mutex:
            if request.arrival_time < self._last_arrival:
                raise CloudError(
                    f"Arrival '{request.name}' at t={request.arrival_time:.3f}s is earlier than the "
                    f"previous arrival (t={self._last_arrival:.3f}s); sessions need arrival order"
                )
        fleet = self._fleet
        if candidates is not None:
            allowed = set(candidates)
            fleet = [backend for backend in fleet if backend.name in allowed]
        active_policy = policy if policy is not None else self._simulator.policy
        ctx = PlacementContext(
            fleet=fleet,
            circuit=request.circuit,
            job_name=request.name,
            workload_key=request.workload_key,
            strategy=request.strategy,
            fidelity_threshold=request.fidelity_threshold,
            shots=request.shots,
            arrival_time=request.arrival_time,
            calibration_epoch=self._calibration_epoch,
            predicted_wait=lambda name: self._queues[name].predicted_wait(request.arrival_time),
            fidelity_cache=self._fidelity_cache,
        )
        decision = active_policy.decide(ctx)
        if decision.device is None:
            raise SchedulingError(
                f"No device in the fleet can host job '{request.name}' "
                f"({request.circuit.num_qubits} qubits)"
            )
        if ctx.device(decision.device).num_qubits < request.circuit.num_qubits:
            raise SchedulingError(
                f"Policy '{decision.policy}' routed job '{request.name}' to "
                f"'{decision.device}', which is too small for it"
            )
        # Only a *successful* routing advances the arrival clock — a failed
        # route leaves the session exactly as it was.
        with self._mutex:
            self._last_arrival = max(self._last_arrival, request.arrival_time)
        return decision

    def execute(self, request: JobRequest, device_name: str) -> JobRecord:
        """Queue ``request`` on ``device_name`` and report its fidelity.

        The queue mutation, the fidelity computation (which shares the
        simulator-level fidelity caches) and the record append happen under
        the session lock, so concurrent snapshot readers never observe a
        half-recorded job.
        """
        backend = next((backend for backend in self._fleet if backend.name == device_name), None)
        if backend is None:
            raise SchedulingError(f"Unknown device '{device_name}'")
        simulator = self._simulator
        service = simulator.config.time_model.service_time_s(request.circuit, backend, request.shots)
        with self._mutex:
            slot = self._queues[device_name].enqueue(request.name, request.arrival_time, service)
            fidelity = simulator._job_fidelity(
                request, backend, self._fidelity_cache, self._calibration_epoch
            )
            record = JobRecord(request=request, device=device_name, slot=slot, fidelity=fidelity)
            self._records.append(record)
            self._last_arrival = max(self._last_arrival, request.arrival_time)
        return record

    def submit(self, request: JobRequest) -> JobRecord:
        """Route and execute one arrival (the one-call form)."""
        return self.execute(request, self.route(request).device)

    def result(self) -> CloudSimulationResult:
        """Snapshot of everything submitted so far as a simulation result.

        Records are reported in arrival order even when a concurrent service
        executed them out of order across device lanes.
        """
        with self._mutex:
            records = sorted(self._records, key=lambda record: (record.request.arrival_time, record.request.index))
        return CloudSimulationResult(
            policy_name=self._simulator.policy.name,
            records=records,
            queues=self._queues,
        )


def compare_policies(
    fleet: Sequence[Backend],
    trace: Sequence[JobRequest],
    policies: Iterable[PlacementPolicy],
    config: Optional[CloudSimulationConfig] = None,
) -> Dict[str, CloudSimulationResult]:
    """Run every policy on the same fleet and trace; results keyed by policy name."""
    results: Dict[str, CloudSimulationResult] = {}
    for policy in policies:
        simulator = CloudSimulator(fleet, policy, config=config)
        results[policy.name] = simulator.run(trace)
    return results


def render_policy_comparison(results: Dict[str, CloudSimulationResult]) -> str:
    """Text table comparing the policies of one :func:`compare_policies` run."""
    rows = [result.summary() for result in results.values()]
    columns = ["policy", "jobs", "mean_wait_s", "p95_wait_s", "mean_fidelity", "fairness", "makespan_s"]
    return render_metric_table(rows, columns, title="Cloud policy comparison")
