"""The :class:`PlanCompiler`: run every compile stage once, bundle the result.

The compiler is deliberately dumb about *placement*: it does not rank
devices.  The engines hand it the device their cold MATCHING stage chose
(plus the :class:`~repro.transpiler.TranspileResult` their cold RUNNING stage
already produced, so nothing is compiled twice), and it derives the rest —
the calibration fingerprint and the precompiled execution dispatch.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.core.cache import calibration_fingerprint
from repro.plans.plan import ExecutionPlan
from repro.simulators.noisy import precompile_execution
from repro.transpiler.preset import TranspileResult, transpile
from repro.utils.rng import SeedLike

__all__ = ["PlanCompiler"]


class PlanCompiler:
    """Build :class:`~repro.plans.ExecutionPlan` bundles from cold submits."""

    def __init__(self) -> None:
        self._compiled = 0

    @property
    def plans_compiled(self) -> int:
        """How many plans this compiler instance has built (cold compiles)."""
        return self._compiled

    def compile(
        self,
        circuit: QuantumCircuit,
        backend: Backend,
        *,
        transpiled: Optional[TranspileResult] = None,
        transpile_seed: SeedLike = None,
        score: Optional[float] = None,
        num_feasible: int = 0,
        scores: Optional[Dict[str, float]] = None,
    ) -> ExecutionPlan:
        """Compile ``circuit`` for ``backend`` into a frozen plan.

        ``circuit`` is the logical circuit as submitted.  ``transpiled``
        should be the cold path's own :class:`~repro.transpiler.TranspileResult`
        when available — passing it avoids transpiling twice and guarantees
        the plan replays the *identical* artifact; when omitted the compiler
        transpiles itself under ``transpile_seed`` (appending measurements if
        missing, exactly as the engines do).
        """
        if transpiled is None:
            transpiled = transpile(circuit.measured(), backend, seed=transpile_seed)
        self._compiled += 1
        return ExecutionPlan(
            device=backend.name,
            calibration_fingerprint=calibration_fingerprint(backend.properties),
            transpiled=transpiled,
            execution=precompile_execution(transpiled.circuit),
            score=score,
            num_feasible=num_feasible,
            scores=dict(scores or {}),
        )
