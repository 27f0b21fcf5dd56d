"""The cluster state: node registry, job registry and the event log.

This is the in-process stand-in for the Kubernetes API server: vendors
register worker nodes (each wrapping a quantum backend), the master server
submits jobs, the scheduler binds jobs to nodes, and everything that happens
is recorded as events.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.backends.backend import Backend
from repro.cluster.events import EventLog
from repro.cluster.job import Job, JobPhase, JobSpec
from repro.cluster.node import Node, NodeCapacity
from repro.utils.exceptions import ClusterError


class ClusterState:
    """Registry of nodes and jobs plus the cluster-wide event log."""

    def __init__(self, name: str = "qrio-cluster") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._device_nodes: Dict[str, Node] = {}
        self._jobs: Dict[str, Job] = {}
        self.events = EventLog()

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def register_node(self, node: Node) -> Node:
        """Add a worker node to the cluster; one node hosts each device name."""
        if node.name in self._nodes:
            raise ClusterError(f"Node '{node.name}' is already registered")
        device = node.backend.name
        if device in self._device_nodes:
            raise ClusterError(
                f"Device '{device}' is already hosted by node '{self._device_nodes[device].name}'"
            )
        self._nodes[node.name] = node
        self._device_nodes[device] = node
        self.events.record("NodeRegistered", node.name, f"backend={node.backend.name}, qubits={node.backend.num_qubits}")
        return node

    def register_backend(self, backend: Backend, capacity: Optional[NodeCapacity] = None) -> Node:
        """Convenience: wrap ``backend`` in a node and register it."""
        node = Node(backend, capacity=capacity)
        return self.register_node(node)

    def register_backends(self, backends: Iterable[Backend]) -> List[Node]:
        """Register a whole fleet of backends at once."""
        return [self.register_backend(backend) for backend in backends]

    def remove_node(self, name: str) -> None:
        """Remove a node (e.g. a vendor withdrawing a device)."""
        node = self.node(name)
        if node.bound_jobs:
            raise ClusterError(
                f"Node '{name}' still has bound jobs: {node.bound_jobs}; drain it first"
            )
        del self._nodes[name]
        del self._device_nodes[node.backend.name]
        self.events.record("NodeRemoved", name, "node removed from cluster")

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        if name not in self._nodes:
            raise ClusterError(f"Unknown node '{name}'")
        return self._nodes[name]

    def node_for_device(self, name: str) -> Optional[Node]:
        """The node hosting the device named ``name``, or ``None``."""
        return self._device_nodes.get(name)

    def nodes(self) -> List[Node]:
        """All registered nodes (registration order)."""
        return list(self._nodes.values())

    def schedulable_nodes(self) -> List[Node]:
        """Nodes currently accepting new jobs."""
        return [node for node in self._nodes.values() if node.is_schedulable()]

    def backends(self) -> List[Backend]:
        """The quantum backends of all registered nodes."""
        return [node.backend for node in self._nodes.values()]

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    def check_new_job(self, name: str) -> None:
        """Raise :class:`ClusterError` while a job named ``name`` is still active."""
        if name in self._jobs and not self._jobs[name].is_finished():
            raise ClusterError(f"A job named '{name}' is already active")

    def submit_job(self, spec: JobSpec) -> Job:
        """Accept a job specification and track it as Pending."""
        self.check_new_job(spec.name)
        job = Job(spec=spec)
        self._jobs[spec.name] = job
        self.events.record("JobSubmitted", spec.name, f"strategy={spec.strategy}, image={spec.image}")
        return job

    def job(self, name: str) -> Job:
        """Look up a job by name."""
        if name not in self._jobs:
            raise ClusterError(f"Unknown job '{name}'")
        return self._jobs[name]

    def jobs(self, phase: Optional[JobPhase] = None) -> List[Job]:
        """All jobs, optionally filtered by phase."""
        jobs = list(self._jobs.values())
        if phase is None:
            return jobs
        return [job for job in jobs if job.phase == phase]

    def pending_jobs(self) -> List[Job]:
        """Jobs waiting for a scheduling decision."""
        return self.jobs(JobPhase.PENDING)

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, job_name: str, node_name: str, score: Optional[float] = None) -> None:
        """Bind a pending job to a node, reserving the node's resources."""
        job = self.job(job_name)
        node = self.node(node_name)
        node.allocate(job_name, job.spec.resources.cpu_millicores, job.spec.resources.memory_mb)
        job.mark_scheduled(node_name, score=score)
        self.events.record("Bound", job_name, f"bound to {node_name}" + (f" (score {score:.4f})" if score is not None else ""))

    def release(self, job_name: str) -> None:
        """Release a finished job's resources from its node."""
        job = self.job(job_name)
        if job.node_name is None:
            return
        node = self.node(job.node_name)
        if job_name in node.bound_jobs:
            node.release(job_name, job.spec.resources.cpu_millicores, job.spec.resources.memory_mb)
            self.events.record("Released", job_name, f"resources released on {job.node_name}")

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Cluster-wide summary used by the dashboard's front page."""
        return {
            "name": self.name,
            "nodes": [node.describe() for node in self._nodes.values()],
            "jobs": [job.describe() for job in self._jobs.values()],
            "num_events": len(self.events),
        }
