"""The scheduling framework: filter plugins, score plugins, one cycle.

This mirrors the Kubernetes scheduler-framework structure the paper builds
on: a scheduling cycle first runs every *filter* plugin to shortlist feasible
nodes, then every *score* plugin to rank them, and finally binds the job to
the winner.  QRIO's contribution is the concrete plugins (requirement
filtering and meta-server-backed ranking); those live in
:mod:`repro.core.scheduler`, while the generic machinery lives here so other
plugin combinations (the random baseline, the oracle, ablations) can reuse it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.job import Job, JobPhase
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState
from repro.utils.exceptions import NoFeasibleNodeError, SchedulingError


class FilterPlugin(abc.ABC):
    """Decides whether a node is feasible for a job."""

    @property
    def name(self) -> str:
        """Plugin name used in events and filter reports."""
        return type(self).__name__

    @abc.abstractmethod
    def filter(self, job: Job, node: Node) -> Tuple[bool, str]:
        """Return ``(feasible, reason)`` for scheduling ``job`` on ``node``."""

    def rejection_is_transient(self, job: Job, node: Node) -> bool:
        """Whether this plugin's rejection of ``node`` can clear by itself.

        ``True`` when the rejection reflects momentary occupancy that goes
        away as bound jobs release their resources, not a property of the
        node or the job.  The default is ``False``.
        """
        return False


class ScorePlugin(abc.ABC):
    """Assigns a score to a feasible node (lower is better, as in the paper)."""

    @property
    def name(self) -> str:
        """Plugin name used in events and score reports."""
        return type(self).__name__

    @abc.abstractmethod
    def score(self, job: Job, node: Node) -> float:
        """Score ``node`` for ``job``; the node with the lowest score wins."""


@dataclass
class FilterReport:
    """Outcome of the filtering stage for one job."""

    feasible: List[str] = field(default_factory=list)
    rejected: Dict[str, str] = field(default_factory=dict)
    #: Rejected nodes whose rejection :meth:`FilterPlugin.rejection_is_transient`.
    transient: List[str] = field(default_factory=list)

    @property
    def num_feasible(self) -> int:
        """Number of nodes that passed every filter plugin."""
        return len(self.feasible)

    @property
    def saturated(self) -> bool:
        """``True`` when every candidate node was rejected, each only for being full."""
        return not self.feasible and bool(self.rejected) and len(self.transient) == len(self.rejected)


@dataclass
class SchedulingDecision:
    """Result of one scheduling cycle."""

    job_name: str
    node_name: Optional[str]
    score: Optional[float]
    filter_report: FilterReport
    scores: Dict[str, float] = field(default_factory=dict)

    @property
    def scheduled(self) -> bool:
        """``True`` when a node was selected."""
        return self.node_name is not None


class SchedulingFramework:
    """Runs filter plugins, score plugins and binding for pending jobs."""

    def __init__(
        self,
        cluster: ClusterState,
        filter_plugins: Sequence[FilterPlugin],
        score_plugins: Sequence[ScorePlugin],
    ) -> None:
        if not score_plugins:
            raise SchedulingError("At least one score plugin is required")
        self._cluster = cluster
        self._filter_plugins = list(filter_plugins)
        self._score_plugins = list(score_plugins)

    # ------------------------------------------------------------------ #
    @property
    def cluster(self) -> ClusterState:
        """The cluster this framework schedules onto."""
        return self._cluster

    def run_filters(self, job: Job, nodes: Optional[Iterable[Node]] = None) -> FilterReport:
        """Run every filter plugin over ``nodes`` (default: schedulable nodes)."""
        report = FilterReport()
        candidates = list(nodes) if nodes is not None else self._cluster.schedulable_nodes()
        for node in candidates:
            rejected_reason: Optional[str] = None
            for plugin in self._filter_plugins:
                feasible, reason = plugin.filter(job, node)
                if not feasible:
                    rejected_reason = f"{plugin.name}: {reason}"
                    if plugin.rejection_is_transient(job, node):
                        report.transient.append(node.name)
                    break
            if rejected_reason is None:
                report.feasible.append(node.name)
            else:
                report.rejected[node.name] = rejected_reason
        self._cluster.events.record(
            "Filtered",
            job.name,
            f"{report.num_feasible}/{len(candidates)} nodes feasible",
        )
        return report

    def run_scoring(self, job: Job, node_names: Sequence[str]) -> Dict[str, float]:
        """Run every score plugin on the shortlisted nodes and sum their scores."""
        scores: Dict[str, float] = {}
        for node_name in node_names:
            node = self._cluster.node(node_name)
            total = 0.0
            for plugin in self._score_plugins:
                total += plugin.score(job, node)
            scores[node_name] = total
        if scores:
            best = min(scores, key=scores.get)
            self._cluster.events.record(
                "Scored",
                job.name,
                f"{len(scores)} nodes scored; best={best} ({scores[best]:.4f})",
            )
        return scores

    # ------------------------------------------------------------------ #
    def schedule(self, job: Job, bind: bool = True) -> SchedulingDecision:
        """Run one full scheduling cycle for ``job``.

        When filtering leaves no node, the job is marked unschedulable — the
        situation the paper describes for overly tight two-qubit error bounds
        in the Fig. 10 experiment.
        """
        if job.phase not in (JobPhase.PENDING, JobPhase.UNSCHEDULABLE):
            raise SchedulingError(f"Job '{job.name}' is not pending (phase {job.phase.value})")
        filter_report = self.run_filters(job)
        if filter_report.num_feasible == 0:
            job.mark_unschedulable("no node satisfies the job's requirements")
            self._cluster.events.record("Unschedulable", job.name, "0 feasible nodes after filtering")
            return SchedulingDecision(
                job_name=job.name,
                node_name=None,
                score=None,
                filter_report=filter_report,
            )
        scores = self.run_scoring(job, filter_report.feasible)
        best_node = min(scores, key=lambda name: (scores[name], name))
        decision = SchedulingDecision(
            job_name=job.name,
            node_name=best_node,
            score=scores[best_node],
            filter_report=filter_report,
            scores=scores,
        )
        if bind:
            self._cluster.bind(job.name, best_node, score=scores[best_node])
        return decision

    def schedule_pending(self, bind: bool = True) -> List[SchedulingDecision]:
        """Schedule every pending job in submission order."""
        decisions = []
        for job in self._cluster.pending_jobs():
            decisions.append(self.schedule(job, bind=bind))
        return decisions
