"""The scheduling framework's filter stage: filter plugins over cluster nodes.

This mirrors the Kubernetes scheduler-framework structure the paper builds
on: a scheduling cycle first runs every *filter* plugin to shortlist the
feasible nodes.  Ranking the survivors and binding the winner sit above this
substrate, in :class:`repro.control.QRIOScheduler`, which hands the shortlist to
a placement policy.  QRIO's concrete filter plugins (qubit count, classical
resources, device characteristics) live in :mod:`repro.control.scheduler`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.job import Job
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState


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


def run_filters(cluster: ClusterState, plugins: Sequence[FilterPlugin], job: Job) -> FilterReport:
    """Run every filter plugin over the cluster's schedulable nodes, in node order."""
    report = FilterReport()
    candidates = cluster.schedulable_nodes()
    for node in candidates:
        rejected_reason: Optional[str] = None
        for plugin in plugins:
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
    cluster.events.record(
        "Filtered",
        job.name,
        f"{report.num_feasible}/{len(candidates)} nodes feasible",
    )
    return report
