"""Unified placement-policy API: one registry, one filter → score → select pipeline.

This package is the single policy surface shared by both execution
engines (orchestrator, cloud).  A policy written once — a ≤50-line
:class:`PlacementPolicy` subclass — runs under any engine through
:class:`~repro.service.QRIOService`, composes via :class:`Pipeline`, and is
addressable by registry name (``resolve_policy("fidelity:queue_weight=0.3")``)
from Python or the CLI.  The discrete-event cloud simulator
(:class:`~repro.cloud.CloudSimulator`) drives these policies directly.
"""

from repro.policies.api import (
    INFEASIBLE_SCORE,
    DeviceScore,
    PlacementContext,
    PlacementDecision,
    PlacementPolicy,
)
from repro.policies.registry import (
    PolicyLike,
    PolicyRegistry,
    RegisteredPolicy,
    default_registry,
    parse_policy_spec,
    register_policy,
    resolve_policy,
)
from repro.policies.builtin import (
    SURPLUS_WEIGHT,
    FidelityPlacementPolicy,
    LeastLoadedPlacementPolicy,
    PinnedDevicePolicy,
    RandomPlacementPolicy,
    RoundRobinPlacementPolicy,
    ThresholdFidelityPolicy,
    TopologyPlacementPolicy,
)
from repro.policies.pipeline import Pipeline
from repro.utils.exceptions import PolicyNotFoundError

__all__ = [
    "INFEASIBLE_SCORE",
    "SURPLUS_WEIGHT",
    "DeviceScore",
    "FidelityPlacementPolicy",
    "LeastLoadedPlacementPolicy",
    "Pipeline",
    "PlacementContext",
    "PlacementDecision",
    "PinnedDevicePolicy",
    "PlacementPolicy",
    "PolicyLike",
    "PolicyNotFoundError",
    "PolicyRegistry",
    "RandomPlacementPolicy",
    "RegisteredPolicy",
    "RoundRobinPlacementPolicy",
    "ThresholdFidelityPolicy",
    "TopologyPlacementPolicy",
    "default_registry",
    "parse_policy_spec",
    "register_policy",
    "resolve_policy",
]
