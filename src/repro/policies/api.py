"""The unified placement-policy protocol: one filter → score → select pipeline.

This module defines the one placement surface every engine routes through,
and the only ranking code: the meta server scores through the registry
policies too, and the orchestrator/cluster scheduling cycle ranks its
filter survivors with :meth:`PlacementPolicy.decide` on every route:

* :class:`PlacementContext` — everything a policy may consult when placing
  one job (the job's circuit and requirements, the candidate fleet, an
  optional queue-wait oracle, a shared fidelity-estimate cache);
* :class:`PlacementPolicy` — ``filter(ctx, device) -> (bool, reason)``,
  ``score(ctx, device) -> float`` (lower is better, as everywhere in the
  paper) and ``select(ctx, scored) -> DeviceScore``, plus the concrete
  :meth:`PlacementPolicy.decide` driver that runs the three stages and
  assembles an explainable decision;
* :class:`DeviceScore` / :class:`PlacementDecision` — the per-device
  breakdown and final verdict every engine reports back, so ``--explain``
  can print *why* a device won under any engine.

Every engine (:class:`~repro.service.OrchestratorEngine`,
:class:`~repro.service.ClusterEngine`, :class:`~repro.service.CloudEngine`)
builds a :class:`PlacementContext` from its own state and calls
:meth:`PlacementPolicy.decide`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.utils.exceptions import SchedulingError

#: Score of a device that cannot host the request at all (the meta server's
#: answer for a device the job's policy filters out).
INFEASIBLE_SCORE = float("inf")


@dataclass
class PlacementContext:
    """Everything a placement policy may consult when routing one job.

    The context is deliberately engine-neutral: each engine fills the fields
    it knows about and leaves the rest at their defaults.  Policies must
    treat absent information gracefully (e.g. :meth:`wait_for` returns 0.0
    when no queue-wait oracle is available, which makes load-aware policies
    degrade to name-ordered tie-breaking instead of crashing).
    """

    #: Candidate devices, in the order the engine proposes them.
    fleet: Sequence[Backend]
    #: The circuit being placed (``None`` for pure topology requests).
    circuit: Optional[QuantumCircuit] = None
    #: Job identity (unique per submission), used in messages and reports.
    job_name: str = "job"
    #: Workload identity used as the fidelity-estimate cache key; unlike
    #: :attr:`job_name` it should be *shared* by repeated submissions of the
    #: same work (the engines pass the structural circuit hash, the cloud
    #: simulator its trace ``workload_key``).  ``None`` falls back to the
    #: job name.
    workload_key: Optional[str] = None
    #: ``"fidelity"`` or ``"topology"`` — which requirement the job carries.
    strategy: str = "fidelity"
    #: The user's requested fidelity (1.0 = "give me the best device").
    fidelity_threshold: float = 1.0
    #: User-drawn topology as an edge list (topology strategy only).
    topology_edges: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Shot budget of the execution.
    shots: int = 1024
    #: Qubit resource request; ``None`` uses the circuit width.
    required_qubits: Optional[int] = None
    #: Logical arrival time (cloud engine); 0.0 elsewhere.
    arrival_time: float = 0.0
    #: Calibration epoch — part of every fidelity-estimate cache key, so
    #: recalibration invalidates stale scores without explicit hooks.  The
    #: engines pass the stable fleet digest from
    #: :func:`repro.core.cache.fleet_calibration_epoch`; any hashable works.
    calibration_epoch: Hashable = 0
    #: Queue-wait oracle: device name -> predicted wait in seconds.  ``None``
    #: when the engine has no queueing model (orchestrator/cluster engines).
    predicted_wait: Optional[Callable[[str], float]] = None
    #: Shared fidelity-estimate cache keyed ``(job key, device, epoch)``.
    fidelity_cache: Dict[Tuple[str, str, Hashable], float] = field(default_factory=dict)
    #: Lazily-built topology circuit (see :meth:`topology_circuit`).
    _topology_circuit: Optional[QuantumCircuit] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    def workload(self) -> str:
        """The fidelity-cache key component (workload key or job name)."""
        return self.workload_key if self.workload_key is not None else self.job_name

    def qubits(self) -> int:
        """The job's qubit request (explicit override or circuit width)."""
        if self.required_qubits is not None:
            return self.required_qubits
        if self.circuit is not None:
            return self.circuit.num_qubits
        if self.topology_edges:
            return 1 + max(max(a, b) for a, b in self.topology_edges)
        return 0

    def wait_for(self, device_name: str) -> float:
        """Predicted queueing delay on a device (0.0 without an oracle)."""
        if self.predicted_wait is None:
            return 0.0
        return self.predicted_wait(device_name)

    def device(self, name: str) -> Backend:
        """Look up a candidate device by name."""
        for backend in self.fleet:
            if backend.name == name:
                return backend
        raise SchedulingError(f"Unknown device '{name}' in placement context")

    def topology_circuit(self) -> QuantumCircuit:
        """The job's topology request as a pseudo-circuit (Section 3.2).

        Built lazily from :attr:`topology_edges` exactly like the
        visualizer's canvas does (one CX per sorted edge), so topology
        scores are identical whichever surface produced the request.
        """
        if self._topology_circuit is not None:
            return self._topology_circuit
        if not self.topology_edges:
            raise SchedulingError(
                f"Job '{self.job_name}' carries no topology edges to build a topology circuit from"
            )
        circuit = QuantumCircuit(self.qubits(), name=f"{self.job_name}_topology")
        for a, b in sorted(self.topology_edges):
            circuit.cx(a, b)
        self._topology_circuit = circuit
        return circuit


@dataclass
class DeviceScore:
    """One feasible device's score plus the policy's per-metric breakdown."""

    device: str
    score: float
    #: Optional metric breakdown (e.g. ``estimated_fidelity``,
    #: ``predicted_wait_s``) rendered by :meth:`PlacementDecision.explain`.
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class PlacementDecision:
    """Outcome of one filter → score → select pipeline run.

    Carries the full per-device breakdown — every feasible device's score
    (and metric detail) plus every rejection reason — so callers can render
    *why* a device won without re-running the policy.
    """

    policy: str
    device: Optional[str]
    score: Optional[float]
    ranked: List[DeviceScore] = field(default_factory=list)
    rejected: Dict[str, str] = field(default_factory=dict)

    @property
    def scheduled(self) -> bool:
        """``True`` when a device was selected."""
        return self.device is not None

    @property
    def num_feasible(self) -> int:
        """How many devices survived the filter stage."""
        return len(self.ranked)

    @property
    def scores(self) -> Dict[str, float]:
        """Feasible-device scores keyed by device name."""
        return {entry.device: entry.score for entry in self.ranked}

    def explain(self) -> str:
        """Human-readable per-device breakdown of this decision."""
        lines: List[str] = []
        if self.device is None:
            lines.append(
                f"policy '{self.policy}': no feasible device "
                f"({len(self.rejected)} rejected during filtering)"
            )
        else:
            lines.append(
                f"policy '{self.policy}' selected '{self.device}' "
                f"(score {self.score:.4f}; lower is better; "
                f"{self.num_feasible} feasible, {len(self.rejected)} filtered out)"
            )
        for entry in sorted(self.ranked, key=lambda item: (item.score, item.device)):
            marker = "→" if entry.device == self.device else " "
            detail = "".join(
                f"  {key}={value:.4f}" for key, value in sorted(entry.detail.items())
            )
            lines.append(f"  {marker} {entry.device:<18s} score={entry.score:.4f}{detail}")
        for device, reason in sorted(self.rejected.items()):
            lines.append(f"  ✗ {device:<18s} filtered: {reason}")
        return "\n".join(lines)


class PlacementPolicy(abc.ABC):
    """One placement policy: the filter → score → select pipeline.

    Subclasses override any subset of the three stages:

    * :meth:`filter` — default: qubit-count feasibility;
    * :meth:`score` — default: 0.0 (every feasible device ties);
    * :meth:`select` — default: lowest score, ties broken by device name.

    The concrete :meth:`decide` driver runs the stages over a
    :class:`PlacementContext` and assembles the explainable
    :class:`PlacementDecision` every engine reports.  Policies may be
    stateful (RNG streams, round-robin cursors), which is why the registry
    hands out a fresh instance per :meth:`~repro.policies.PolicyRegistry.resolve`.
    """

    @property
    def name(self) -> str:
        """Policy name used in decisions, reports and the registry listing."""
        return type(self).__name__

    # ------------------------------------------------------------------ #
    # The three pipeline stages
    # ------------------------------------------------------------------ #
    def filter(self, ctx: PlacementContext, device: Backend) -> Tuple[bool, str]:
        """Whether ``device`` is feasible for the job; ``(ok, reason)``."""
        required = ctx.qubits()
        if device.num_qubits < required:
            return False, f"device has {device.num_qubits} qubits, job needs {required}"
        return True, "feasible"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        """Score ``device`` for the job (lower is better)."""
        return 0.0

    def score_many(self, ctx: PlacementContext, devices: Sequence[Backend]) -> List[float]:
        """Score every feasible device of one decision, in ``devices`` order.

        Default: :meth:`score` per device.  A policy whose scores are
        cheaper computed together (one batched canary ranking) overrides it.
        """
        return [self.score(ctx, device) for device in devices]

    def select(self, ctx: PlacementContext, scored: Sequence[DeviceScore]) -> DeviceScore:
        """Pick the winner among scored devices (default: min score, then name)."""
        return min(scored, key=lambda entry: (entry.score, entry.device))

    # ------------------------------------------------------------------ #
    def breakdown(self, ctx: PlacementContext, device: Backend) -> Dict[str, float]:
        """Per-metric detail for one scored device (cheap: caches are warm)."""
        return {}

    def describe(self) -> str:
        """One-line human description (overridden by registered builtins)."""
        return (type(self).__doc__ or self.name).strip().splitlines()[0]

    # ------------------------------------------------------------------ #
    # The pipeline driver
    # ------------------------------------------------------------------ #
    def decide(
        self,
        ctx: PlacementContext,
        *,
        rejected: Optional[Dict[str, str]] = None,
    ) -> PlacementDecision:
        """Run filter → score → select over ``ctx.fleet``.

        Every device is filtered first; the survivors are then scored
        together by :meth:`score_many`.

        Args:
            ctx: The placement context to decide over.
            rejected: Devices an *engine-level* filter already removed (e.g.
                the cluster's requirement filters), merged into the decision
                so ``--explain`` shows the complete picture.

        Returns:
            The decision; ``device is None`` when filtering left nothing.
        """
        verdict_rejected: Dict[str, str] = dict(rejected or {})
        feasible: List[Backend] = []
        for device in ctx.fleet:
            ok, reason = self.filter(ctx, device)
            if ok:
                feasible.append(device)
            else:
                verdict_rejected[device.name] = f"{self.name}: {reason}"
        ranked = [
            DeviceScore(device=device.name, score=value, detail=self.breakdown(ctx, device))
            for device, value in zip(feasible, self.score_many(ctx, feasible))
        ]
        if not ranked:
            return PlacementDecision(
                policy=self.name, device=None, score=None, ranked=[], rejected=verdict_rejected
            )
        choice = self.select(ctx, ranked)
        return PlacementDecision(
            policy=self.name,
            device=choice.device,
            score=choice.score,
            ranked=ranked,
            rejected=verdict_rejected,
        )
