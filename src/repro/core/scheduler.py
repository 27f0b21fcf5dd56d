"""The QRIO scheduler: requirement filtering plus meta-server-backed ranking.

Section 3.5: "The entire workflow of the scheduler is broken into many parts,
but the two primary stages are — Filtering and Ranking.  In the Filtering
stage, the scheduler checks which nodes are fit for scheduling ... Following
the filtering phase, we enter the Ranking phase where each node is given a
score ... The ranking plugin contacts the QRIO Meta Server for the score of a
certain job against a particular node."  The meta server answers through the
job's registry placement policy (:mod:`repro.policies`).

:func:`device_bounds_violation` is the one device-characteristics check: the
filter plugin here and the cloud engine both call it on live calibration
data, so a calibration swap moves every engine's feasibility set alike.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.backends.properties import BackendProperties
from repro.cluster.framework import FilterPlugin, SchedulingFramework, ScorePlugin
from repro.cluster.job import Job
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState
from repro.core.meta_server import MetaServer


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


class MetaServerScorePlugin(ScorePlugin):
    """Ranking plugin that asks the meta server to score each filtered node."""

    def __init__(self, meta_server: MetaServer) -> None:
        self._meta_server = meta_server

    def score(self, job: Job, node: Node) -> float:
        return self._meta_server.score(job.name, node.backend.name)


def default_filter_plugins() -> List[FilterPlugin]:
    """The QRIO filter chain, in evaluation order."""
    return [QubitCountFilter(), ClassicalResourceFilter(), DeviceCharacteristicsFilter()]


class QRIOScheduler(SchedulingFramework):
    """The production QRIO scheduler: default filters + meta-server ranking."""

    def __init__(
        self,
        cluster: ClusterState,
        meta_server: MetaServer,
        extra_filters: Optional[Sequence[FilterPlugin]] = None,
    ) -> None:
        filters: List[FilterPlugin] = default_filter_plugins()
        if extra_filters:
            filters.extend(extra_filters)
        super().__init__(
            cluster,
            filter_plugins=filters,
            score_plugins=[MetaServerScorePlugin(meta_server)],
        )
        self._meta_server = meta_server

    @property
    def meta_server(self) -> MetaServer:
        """The meta server this scheduler queries for scores."""
        return self._meta_server
