"""Compiled execution plans: the compile-once/execute-many submit path.

The paper's matching→canary→execute cycle re-derives every stage on every
submit.  This package separates *compile once* (transpilation and
execution-dispatch analysis, bundled with the cold placement verdict into a
frozen :class:`ExecutionPlan` by the :class:`PlanCompiler`) from *execute
many* (replaying the bundle through the master server with fresh shots).
Each cluster engine keeps its own plan store, keyed by
``(structural_circuit_hash, requirements, shots)``; a warm submit whose
plan's device still has the calibration it compiled against skips
transpile, match and lower entirely.  See ``docs/plans.md``.
"""

from repro.plans.compiler import PlanCompiler
from repro.plans.plan import ExecutionPlan

__all__ = [
    "ExecutionPlan",
    "PlanCompiler",
]
