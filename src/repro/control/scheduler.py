"""The QRIO scheduler: one cycle of requirement filtering, ranking and binding.

Section 3.5: "The entire workflow of the scheduler is broken into many parts,
but the two primary stages are — Filtering and Ranking.  In the Filtering
stage, the scheduler checks which nodes are fit for scheduling ... Following
the filtering phase, we enter the Ranking phase where each node is given a
score ... The ranking plugin contacts the QRIO Meta Server for the score of a
certain job against a particular node."

:meth:`QRIOScheduler.schedule` is the only way a cluster job is placed: the
filter plugins here shortlist the schedulable nodes, one
:class:`~repro.policies.PlacementPolicy` decides among the survivors
(:meth:`~repro.policies.PlacementPolicy.decide`), and the winner is bound.
By default the policy is the meta server's per-job ranking
(:meth:`MetaServer.ranking <repro.control.meta_server.MetaServer.ranking>`); the
service engines' registry-policy route and the baselines supply their own.

:func:`device_bounds_violation` is the one device-characteristics check: the
filter plugin here and the cloud engine both call it on live calibration
data, so a calibration swap moves every engine's feasibility set alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends.backend import Backend
from repro.backends.properties import BackendProperties
from repro.cluster.framework import FilterPlugin, FilterReport, run_filters
from repro.cluster.job import Job, JobPhase
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState
from repro.control.meta_server import MetaServer
from repro.policies import PlacementContext, PlacementDecision, PlacementPolicy
from repro.utils.exceptions import SchedulingError


class QubitCountFilter(FilterPlugin):
    """Reject nodes whose device has fewer qubits than the job requests."""

    def filter(self, job: Job, node: Node) -> Tuple[bool, str]:
        requested = job.spec.resources.qubits
        available = node.labels.qubits
        if available < requested:
            return False, f"device has {available} qubits, job needs {requested}"
        return True, "enough qubits"


class ClassicalResourceFilter(FilterPlugin):
    """Reject nodes that cannot host the job's CPU/memory request."""

    def filter(self, job: Job, node: Node) -> Tuple[bool, str]:
        cpu = job.spec.resources.cpu_millicores
        memory = job.spec.resources.memory_mb
        if not node.can_host(cpu, memory):
            return False, (
                f"insufficient classical capacity (requested {cpu}m/{memory}MB, "
                f"available {node.available_cpu}m/{node.available_memory}MB)"
            )
        return True, "fits classical capacity"

    def rejection_is_transient(self, job: Job, node: Node) -> bool:
        """A full node clears as its jobs finish, unless the job can never fit."""
        resources = job.spec.resources
        return node.capacity.fits(resources.cpu_millicores, resources.memory_mb)


class DeviceCharacteristicsFilter(FilterPlugin):
    """Apply the user's optional bounds on device characteristics.

    This is the in-built filtering mechanism highlighted by use-case 1 of the
    paper and evaluated in Fig. 10: e.g. a maximum tolerable average two-qubit
    error rate removes every device whose calibration exceeds it.
    """

    def filter(self, job: Job, node: Node) -> Tuple[bool, str]:
        violation = device_bounds_violation(node.backend.properties, job.spec.constraints)
        if violation is not None:
            return False, violation
        return True, "within requested device characteristics"


def device_bounds_violation(properties: BackendProperties, bounds) -> Optional[str]:
    """Why a device's calibration breaks the requested characteristic bounds.

    ``bounds`` carries the four optional bounds
    (``max_avg_two_qubit_error``, ``max_avg_readout_error``, ``min_avg_t1``,
    ``min_avg_t2``), as the cluster's
    :class:`~repro.cluster.job.DeviceConstraints` and the service's job
    requirements both do.  ``properties`` is read live, never through node
    labels, so a calibration jump takes effect on the next check.  Returns
    ``None`` when every bound holds.
    """
    if bounds.max_avg_two_qubit_error is not None:
        error = properties.average_two_qubit_error()
        if error > bounds.max_avg_two_qubit_error:
            return f"avg two-qubit error {error:.4f} exceeds bound {bounds.max_avg_two_qubit_error:.4f}"
    if bounds.max_avg_readout_error is not None:
        error = properties.average_readout_error()
        if error > bounds.max_avg_readout_error:
            return f"avg readout error {error:.4f} exceeds bound {bounds.max_avg_readout_error:.4f}"
    if bounds.min_avg_t1 is not None:
        t1 = properties.average_t1()
        if t1 < bounds.min_avg_t1:
            return f"avg T1 {t1:.0f} below bound {bounds.min_avg_t1:.0f}"
    if bounds.min_avg_t2 is not None:
        t2 = properties.average_t2()
        if t2 < bounds.min_avg_t2:
            return f"avg T2 {t2:.0f} below bound {bounds.min_avg_t2:.0f}"
    return None


def default_filter_plugins() -> List[FilterPlugin]:
    """The QRIO filter chain, in evaluation order."""
    return [QubitCountFilter(), ClassicalResourceFilter(), DeviceCharacteristicsFilter()]


@dataclass
class SchedulingDecision:
    """Result of one scheduling cycle: the filter report and the policy's verdict."""

    job_name: str
    #: The bound (or, with ``bind=False``, chosen) node; ``None`` when unschedulable.
    node_name: Optional[str]
    filter_report: FilterReport
    placement: PlacementDecision

    @property
    def scheduled(self) -> bool:
        """``True`` when a node was selected."""
        return self.node_name is not None

    @property
    def device(self) -> Optional[str]:
        """The chosen device's name."""
        return self.placement.device

    @property
    def score(self) -> Optional[float]:
        """The chosen device's score (lower is better)."""
        return self.placement.score

    @property
    def scores(self) -> Dict[str, float]:
        """Scores of the devices the policy ranked, keyed by device name."""
        return self.placement.scores

    @property
    def num_feasible(self) -> int:
        """Devices that passed the filter plugins and the policy's own filter."""
        return self.placement.num_feasible


class QRIOScheduler:
    """The QRIO scheduling cycle: default filters, a ranking policy, binding."""

    def __init__(self, cluster: ClusterState, meta_server: MetaServer) -> None:
        self._cluster = cluster
        self._meta_server = meta_server
        self._filters = default_filter_plugins()

    @property
    def cluster(self) -> ClusterState:
        """The cluster this scheduler binds jobs in."""
        return self._cluster

    @property
    def meta_server(self) -> MetaServer:
        """The meta server whose per-job policy ranks by default."""
        return self._meta_server

    def run_filters(self, job: Job) -> FilterReport:
        """Run the QRIO filter chain over the schedulable nodes."""
        return run_filters(self._cluster, self._filters, job)

    def schedule(
        self,
        job: Job,
        policy: Optional[PlacementPolicy] = None,
        *,
        context: Optional[Callable[[List[Backend]], PlacementContext]] = None,
        bind: bool = True,
    ) -> SchedulingDecision:
        """Run one scheduling cycle for ``job``: filters, ``policy.decide``, bind.

        Args:
            job: A pending (or earlier unschedulable) cluster job.
            policy: The ranking policy; ``None`` ranks with the meta server's
                policy for the job (Section 3.4).
            context: Builds the placement context from the filter survivors,
                for a caller-supplied ``policy``.  ``None`` uses the meta
                server's context for the job, its fleet set to the survivors
                in node order.
            bind: Bind the job to the chosen node; ``False`` only decides.

        When the filters and the policy leave no device, the job is marked
        unschedulable — the situation the paper describes for overly tight
        two-qubit error bounds in the Fig. 10 experiment.
        """
        if job.phase not in (JobPhase.PENDING, JobPhase.UNSCHEDULABLE):
            raise SchedulingError(f"Job '{job.name}' is not pending (phase {job.phase.value})")
        cluster = self._cluster
        report = self.run_filters(job)
        nodes = [cluster.node(name) for name in report.feasible]
        fleet = [node.backend for node in nodes]
        if context is None:
            native, ctx = self._meta_server.ranking(job.name)
            ctx.fleet = fleet
            policy = native if policy is None else policy
        else:
            ctx = context(fleet)
        rejected = {cluster.node(name).backend.name: reason for name, reason in report.rejected.items()}
        placement = policy.decide(ctx, rejected=rejected)
        node_name = next((node.name for node in nodes if node.backend.name == placement.device), None)
        if node_name is None:
            job.mark_unschedulable(f"no feasible device under policy '{placement.policy}'")
            cluster.events.record(
                "Unschedulable", job.name, f"0 feasible devices under policy '{placement.policy}'"
            )
        else:
            cluster.events.record(
                "Ranked",
                job.name,
                f"policy '{placement.policy}' selected {placement.device} (score {placement.score:.4f})",
            )
            if bind:
                cluster.bind(job.name, node_name, score=placement.score)
        return SchedulingDecision(job.name, node_name, report, placement)
