"""Compiled execution plans: the compile-once/execute-many submit path.

The paper's matching→canary→execute cycle re-derives every stage on every
submit.  This package separates *compile once* (transpilation and
execution-dispatch analysis, bundled with the cold placement verdict into a
frozen :class:`ExecutionPlan` by the :class:`PlanCompiler`) from *execute
many* (replaying the bundle through the engines with fresh shots).  Plans
live in the fleet-wide :func:`repro.core.cache.plan_cache`, filed by the
orchestrator and cluster engines under ``(structural_circuit_hash, device,
calibration_fingerprint)`` plus engine context — a warm submit skips
transpile, match and lower entirely.  See ``docs/plans.md``.
"""

from repro.plans.compiler import PlanCompiler
from repro.plans.plan import ExecutionPlan

__all__ = [
    "ExecutionPlan",
    "PlanCompiler",
]
