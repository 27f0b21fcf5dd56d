"""Kubernetes-like cluster substrate: nodes, jobs, the filter stage, containers."""

from repro.cluster.container import CONTAINER_REQUIREMENTS, ContainerImage, ImageBuilder, ImageRegistry
from repro.cluster.events import Event, EventLog
from repro.cluster.framework import FilterPlugin, FilterReport, run_filters
from repro.cluster.job import DeviceConstraints, Job, JobPhase, JobSpec, ResourceRequest
from repro.cluster.labels import NodeLabels
from repro.cluster.node import Node, NodeCapacity, NodeStatus
from repro.cluster.registry import ClusterState

__all__ = [
    "CONTAINER_REQUIREMENTS",
    "ClusterState",
    "ContainerImage",
    "DeviceConstraints",
    "Event",
    "EventLog",
    "FilterPlugin",
    "FilterReport",
    "ImageBuilder",
    "ImageRegistry",
    "Job",
    "JobPhase",
    "JobSpec",
    "Node",
    "NodeCapacity",
    "NodeLabels",
    "NodeStatus",
    "ResourceRequest",
    "run_filters",
]
