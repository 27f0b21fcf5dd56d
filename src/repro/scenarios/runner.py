"""Replay any trace against any engine × policy × workers configuration.

:class:`ScenarioRunner` is the evaluation loop the paper's future-work item 4
(multi-job scheduling) needs: it takes a portable
:class:`~repro.scenarios.Trace` and drives it through
:meth:`~repro.service.QRIOService.submit`, so the *same* workload exercises
the full orchestrator cycle or the discrete-event cloud simulator — under
any registered placement policy and any worker-pool size — and comes back as
one comparable :class:`ScenarioReport`.

Determinism contract: a runner builds a **fresh, seeded engine per replay**,
and trace jobs carry their recorded arrival times into the cloud engine's
discrete-event clock (``JobRequirements.arrival_time_s``).  Replaying one
trace twice under the same seed therefore reproduces routing decisions and
per-job results bit-for-bit — the property the scenario test-suite and
``BENCH_scenarios.json`` pin.

Imports of the service layer are deliberately function-local: the service's
engines import :mod:`repro.workloads.arrivals`, so a module-level import here
would create a cycle during package initialisation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.backends.backend import Backend
from repro.cloud.simulation import CloudSimulationConfig
from repro.scenarios.events import FaultInjector, tenants_from_events
from repro.scenarios.resilience import RESILIENCE_ROW_KEYS, resilience_summary
from repro.scenarios.trace import Trace
from repro.service import CloudEngine, JobRequirements, OrchestratorEngine, QRIOService
from repro.tenancy.api import Tenant
from repro.utils.exceptions import AdmissionRejectedError, ScenarioError
from repro.utils.rng import SeedLike, derive_seed
from repro.workloads.arrivals import JobRequest
from repro.workloads.metrics import summarise_waits, wait_fairness

#: Engine names the runner can build on its own.
ENGINE_NAMES = ("orchestrator", "cloud")

#: Label rendered (and accepted by lookups) for "no policy — the engine's
#: native placement path".  One constant so report rows, sweep-cell lookup
#: and the CLI's ``--policies`` parsing cannot drift apart.
NATIVE_POLICY = "native"

#: Row keys appended by tenant-aware replays (sweep tables pick them up).
TENANT_ROW_KEYS = ("tenants", "worst_tenant_p99_s")


def policy_label(policy: Optional[str]) -> str:
    """The display/lookup label of a report's policy (``None`` → native)."""
    return NATIVE_POLICY if policy is None else policy


@dataclass(frozen=True)
class JobOutcome:
    """One job's replay outcome (the rows behind a report's signatures)."""

    name: str
    user: str
    device: Optional[str]
    succeeded: bool
    wait_s: Optional[float] = None
    fidelity: Optional[float] = None
    score: Optional[float] = None
    counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: The trace's recorded arrival time (drives the resilience metrics'
    #: outage-window attribution; not part of the replay signatures).
    arrival_s: Optional[float] = None


@dataclass(frozen=True)
class ScenarioReport:
    """Unified result of replaying one trace on one configuration."""

    scenario: str
    engine: str
    policy: Optional[str]
    workers: int
    jobs: int
    succeeded: int
    failed: int
    outcomes: Tuple[JobOutcome, ...]
    #: p50/p95/p99/mean/max wait summary (see :attr:`wait_clock` for units).
    wait_summary: Dict[str, float]
    #: ``"simulated"`` (cloud engine's logical clock) or ``"wall"`` seconds.
    wait_clock: str
    makespan_s: float
    mean_fidelity: Optional[float]
    fairness: float
    jobs_per_device: Dict[str, int]
    #: Busy fraction per device over the makespan (cloud engine only).
    device_utilisation: Optional[Dict[str, float]] = None
    #: Resilience metrics (:func:`~repro.scenarios.resilience.resilience_summary`)
    #: — populated only when the replayed trace carried fault events.
    resilience: Optional[Dict[str, object]] = None
    #: Per-tenant wait summaries (p50/p95/p99/mean/max, keyed by tenant id)
    #: — populated only by tenant-aware replays; ``fairness`` then reads as
    #: the cross-tenant Jain index.
    tenant_waits: Optional[Dict[str, Dict[str, float]]] = None

    # ------------------------------------------------------------------ #
    def routing(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """``(job name, device)`` per job, in arrival order."""
        return tuple((outcome.name, outcome.device) for outcome in self.outcomes)

    def routing_signature(self) -> str:
        """Digest of the routing decisions (bit-identical replays agree)."""
        return hashlib.sha256(repr(self.routing()).encode("utf-8")).hexdigest()

    def results_signature(self) -> str:
        """Digest of per-job results: device, counts, fidelity, score, error."""
        payload = tuple(
            (
                outcome.name,
                outcome.device,
                tuple(sorted(outcome.counts.items())),
                outcome.fidelity,
                outcome.score,
                outcome.error,
            )
            for outcome in self.outcomes
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

    def row(self) -> Dict[str, object]:
        """One flat row for comparison tables and JSON reports.

        Fault-augmented replays append the resilience columns
        (:data:`~repro.scenarios.resilience.RESILIENCE_ROW_KEYS`); fault-free
        rows keep the original shape so existing consumers are unaffected.
        """
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "engine": self.engine,
            "policy": policy_label(self.policy),
            "workers": self.workers,
            "jobs": self.jobs,
            "failed": self.failed,
            "p50_wait_s": self.wait_summary["p50"],
            "p95_wait_s": self.wait_summary["p95"],
            "p99_wait_s": self.wait_summary["p99"],
            "mean_wait_s": self.wait_summary["mean"],
            "makespan_s": self.makespan_s,
            "mean_fidelity": float("nan") if self.mean_fidelity is None else self.mean_fidelity,
            "fairness": self.fairness,
            "wait_clock": self.wait_clock,
        }
        if self.resilience is not None:
            for key in RESILIENCE_ROW_KEYS:
                row[key] = self.resilience[key]
        if self.tenant_waits is not None:
            row["tenants"] = len(self.tenant_waits)
            row["worst_tenant_p99_s"] = max(
                (summary["p99"] for summary in self.tenant_waits.values()), default=0.0
            )
        return row

    def to_json(self) -> str:
        """The flat row as a JSON document (used by the CLI ``--json`` mode).

        Strict JSON: a missing fidelity is ``null``, never the non-standard
        ``NaN`` literal, so downstream parsers need no leniency flags.
        """
        return json.dumps(_json_safe_row(self.row()), sort_keys=True)


def _json_safe_row(row: Dict[str, object]) -> Dict[str, object]:
    """Replace non-finite floats with ``None`` for strict-JSON consumers."""
    import math

    return {
        key: (None if isinstance(value, float) and not math.isfinite(value) else value)
        for key, value in row.items()
    }


def _topology_edges(circuit) -> Tuple[Tuple[int, int], ...]:
    """The circuit's two-qubit interaction pairs, as a topology request."""
    edges = set()
    for instruction in circuit.data:
        if instruction.is_two_qubit_gate:
            a, b = instruction.qubits
            edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


class ScenarioRunner:
    """Replay traces through the unified service against one configuration.

    Args:
        fleet: Devices the replayed jobs are scheduled onto.
        engine: ``"orchestrator"`` / ``"cloud"``, or a
            zero-argument callable returning a fresh
            :class:`~repro.service.ExecutionEngine` (one per replay).
        policy: Placement policy applied to every job — a registry name
            (optionally parameterized) or a
            :class:`~repro.policies.PlacementPolicy` factory input; ``None``
            keeps each engine's native path.
        workers: Worker-pool size of the service (``0`` = inline dispatch).
        seed: Base seed; every replay derives the same engine seed from it,
            which is what makes replays bit-identical.
        fidelity_report: Cloud engine's fidelity mode (ignored elsewhere).
        canary_shots: Clifford-canary shots of the orchestrator engine.
        slo_wait_s: Wait-time SLO used by the resilience metrics of
            fault-augmented replays (seconds on the report's wait clock).
        tenant_aware: Stamp each replayed job's trace user onto
            ``JobRequirements.tenant``, so weighted-fair queueing and
            per-tenant quotas apply during the replay and the report gains
            per-tenant wait summaries.  **Off by default**: tenants join the
            service's dedup key, so enabling this changes grouping (and
            hence routing) — the pre-tenancy bit-identity pins require the
            default to stay tenant-blind.
        tenants: Explicit ``{user: Tenant}`` definitions for tenant-aware
            replays; merged over (and winning against) the definitions the
            trace's :class:`~repro.scenarios.events.TenantBurst` events
            declare.  Users without a definition replay as weight-1
            unconstrained tenants.
        admission: Zero-argument factory building a fresh
            :class:`~repro.tenancy.AdmissionController` per replay (a
            controller is stateful, so sharing one across replays would
            leak pressure between them).  Submissions it rejects become
            failed outcomes with the rejection message — the trace is
            replayed, not aborted.
    """

    def __init__(
        self,
        fleet: List[Backend],
        *,
        engine: Union[str, Callable] = "orchestrator",
        policy: Optional[object] = None,
        workers: int = 0,
        seed: SeedLike = None,
        fidelity_report: str = "esp",
        canary_shots: int = 128,
        slo_wait_s: float = 600.0,
        tenant_aware: bool = False,
        tenants: Optional[Dict[str, object]] = None,
        admission: Optional[Callable] = None,
    ) -> None:
        if isinstance(engine, str) and engine not in ENGINE_NAMES:
            raise ScenarioError(
                f"Unknown engine '{engine}'; expected one of {', '.join(ENGINE_NAMES)} "
                "or an engine factory"
            )
        if slo_wait_s <= 0:
            raise ScenarioError("slo_wait_s must be a positive number of seconds")
        self._fleet = list(fleet)
        self._engine = engine
        self._policy = policy
        self._workers = workers
        self._seed = seed
        self._fidelity_report = fidelity_report
        self._canary_shots = canary_shots
        self._slo_wait_s = float(slo_wait_s)
        if (tenants or admission) and not tenant_aware:
            raise ScenarioError(
                "tenants/admission only apply to tenant-aware replays; pass tenant_aware=True"
            )
        self._tenant_aware = bool(tenant_aware)
        self._tenants = dict(tenants) if tenants else {}
        self._admission_factory = admission

    # ------------------------------------------------------------------ #
    @property
    def engine_name(self) -> str:
        """The configured engine selector (name, or the factory's repr)."""
        return self._engine if isinstance(self._engine, str) else getattr(self._engine, "__name__", "custom")

    def _make_engine(self):
        """A fresh, deterministically-seeded engine for one replay."""
        if callable(self._engine):
            return self._engine()
        engine_seed = derive_seed(self._seed, "scenario-engine", self._engine)
        if self._engine == "orchestrator":
            return OrchestratorEngine(
                canary_shots=self._canary_shots, policy=self._policy, seed=engine_seed
            )
        return CloudEngine(
            policy=self._policy,
            config=CloudSimulationConfig(fidelity_report=self._fidelity_report, seed=engine_seed),
        )

    def _requirements_for(self, request: JobRequest, arrival: bool, tenant=None):
        arrival_time = request.arrival_time if arrival else None
        if request.strategy == "topology":
            edges = _topology_edges(request.circuit)
            if edges:
                return JobRequirements(
                    topology_edges=edges, arrival_time_s=arrival_time, tenant=tenant
                )
        threshold = request.fidelity_threshold
        if not 0.0 < threshold <= 1.0:
            threshold = 1.0
        return JobRequirements(
            fidelity_threshold=threshold, arrival_time_s=arrival_time, tenant=tenant
        )

    # ------------------------------------------------------------------ #
    def replay(self, trace: Union[Trace, List[JobRequest]], *, name: Optional[str] = None) -> ScenarioReport:
        """Replay every job of ``trace`` and aggregate a scenario report.

        Jobs are submitted in arrival order with their recorded arrival
        times, shots and strategy-derived requirements (fidelity threshold,
        or a topology request reconstructed from the circuit's two-qubit
        interaction structure), then the service is drained.

        Fault-augmented traces (``trace.events``) are replayed through a
        :class:`~repro.scenarios.events.FaultInjector` bound to the replay's
        engine: every job carries its recorded arrival time (on every
        engine, so event ordering against the arrival clock is identical
        across engines) and each replay schedules onto private copies of the
        fleet's :class:`~repro.backends.Backend` objects, because
        calibration jumps mutate device properties in place.

        Raises:
            ScenarioError: The trace is empty.
        """
        jobs = list(trace.jobs) if isinstance(trace, Trace) else list(trace)
        events = tuple(trace.events) if isinstance(trace, Trace) else ()
        if not jobs:
            raise ScenarioError("Cannot replay an empty trace")
        has_faults = bool(events)
        scenario_name = name or (trace.name if isinstance(trace, Trace) else "trace")
        engine = self._make_engine()
        is_cloud = isinstance(engine, CloudEngine)
        fleet = (
            [Backend(properties=backend.properties) for backend in self._fleet]
            if has_faults
            else self._fleet
        )
        tenant_map: Dict[str, object] = {}
        if self._tenant_aware:
            tenant_map = tenants_from_events(events)
            tenant_map.update(self._tenants)
        admission = self._admission_factory() if self._admission_factory is not None else None
        service = QRIOService(fleet, engine, workers=self._workers, admission=admission)
        injector = None
        if has_faults:
            # Engine-independent seed: the injected drift must be the same
            # across engines for the cross-engine signature contract.
            injector = FaultInjector(events, seed=derive_seed(self._seed, "scenario-faults"))
            service.set_fault_injector(injector)
        try:
            handles = []
            for request in sorted(jobs, key=lambda job: (job.arrival_time, job.index)):
                tenant = None
                if self._tenant_aware:
                    tenant = tenant_map.get(request.user)
                    if tenant is None:
                        tenant = Tenant(id=request.user)
                        tenant_map[request.user] = tenant
                requirements = self._requirements_for(
                    request, arrival=is_cloud or has_faults, tenant=tenant
                )
                try:
                    handle = service.submit(
                        request.circuit,
                        requirements,
                        shots=request.shots,
                        name=request.name,
                    )
                except AdmissionRejectedError as rejection:
                    # A rejected submission is an outcome of the scenario,
                    # not a replay failure: record the shed and keep going.
                    handles.append((request, None, str(rejection)))
                else:
                    handles.append((request, handle, None))
            service.process()
            if injector is not None:
                injector.finish()
            outcomes: List[JobOutcome] = []
            for request, handle, shed_error in handles:
                if handle is None:
                    outcomes.append(
                        JobOutcome(
                            name=request.name,
                            user=request.user,
                            device=None,
                            succeeded=False,
                            error=shed_error,
                            arrival_s=request.arrival_time,
                        )
                    )
                    continue
                status = handle.status()
                if handle.done:
                    result = handle.result()
                    outcomes.append(
                        JobOutcome(
                            name=handle.name,
                            user=request.user,
                            device=result.device,
                            succeeded=True,
                            wait_s=self._wait_of(handle, result),
                            fidelity=result.fidelity,
                            score=result.score,
                            counts=dict(result.counts),
                            arrival_s=request.arrival_time,
                        )
                    )
                else:
                    outcomes.append(
                        JobOutcome(
                            name=handle.name,
                            user=request.user,
                            device=status.device,
                            succeeded=False,
                            error=status.error,
                            arrival_s=request.arrival_time,
                        )
                    )
            wall_report = service.wait_report()
        finally:
            service.close()
        return self._build_report(scenario_name, engine, is_cloud, outcomes, wall_report, events)

    @staticmethod
    def _wait_of(handle, result) -> Optional[float]:
        """Per-job wait: simulated (cloud detail) or wall-clock (events)."""
        wait = result.detail.get("wait_time_s")
        if wait is not None:
            return float(wait)
        return handle.wall_wait_s()

    def _build_report(
        self,
        scenario_name: str,
        engine,
        is_cloud: bool,
        outcomes: List[JobOutcome],
        wall_report: Dict[str, object],
        events: Tuple[object, ...] = (),
    ) -> ScenarioReport:
        waits = [outcome.wait_s for outcome in outcomes if outcome.wait_s is not None]
        waits_by_user: Dict[str, List[float]] = {}
        for outcome in outcomes:
            if outcome.wait_s is not None:
                waits_by_user.setdefault(outcome.user, []).append(outcome.wait_s)
        jobs_per_device: Dict[str, int] = {}
        for outcome in outcomes:
            if outcome.device is not None:
                jobs_per_device[outcome.device] = jobs_per_device.get(outcome.device, 0) + 1
        fidelities = [outcome.fidelity for outcome in outcomes if outcome.fidelity is not None]
        utilisation: Optional[Dict[str, float]] = None
        if is_cloud:
            simulation = engine.simulation_result()
            makespan_s = simulation.makespan()
            utilisation = simulation.device_utilisation()
            wait_clock = "simulated"
        else:
            makespan_s = float(wall_report["makespan_s"])
            wait_clock = "wall"
        succeeded = sum(1 for outcome in outcomes if outcome.succeeded)
        resilience: Optional[Dict[str, object]] = None
        if events:
            resilience = resilience_summary(outcomes, events, slo_wait_s=self._slo_wait_s)
        tenant_waits: Optional[Dict[str, Dict[str, float]]] = None
        if self._tenant_aware:
            # Tenant-aware replays stamp the trace user as the tenant id, so
            # the per-user wait groups *are* the per-tenant groups.
            tenant_waits = {
                user: summarise_waits(samples)
                for user, samples in sorted(waits_by_user.items())
            }
        policy_label: Optional[str]
        if self._policy is None:
            policy_label = None
        elif isinstance(self._policy, str):
            policy_label = self._policy
        else:
            policy_label = getattr(self._policy, "name", type(self._policy).__name__)
        return ScenarioReport(
            scenario=scenario_name,
            engine=engine.name,
            policy=policy_label,
            workers=self._workers,
            jobs=len(outcomes),
            succeeded=succeeded,
            failed=len(outcomes) - succeeded,
            outcomes=tuple(outcomes),
            wait_summary=summarise_waits(waits),
            wait_clock=wait_clock,
            makespan_s=makespan_s,
            mean_fidelity=(sum(fidelities) / len(fidelities)) if fidelities else None,
            fairness=wait_fairness(waits_by_user),
            jobs_per_device=dict(sorted(jobs_per_device.items())),
            device_utilisation=utilisation,
            resilience=resilience,
            tenant_waits=tenant_waits,
        )
