"""The :class:`PlanCompiler`: run every compile stage once, bundle the result.

The compiler is deliberately dumb about *placement*: it does not rank
devices.  The master server hands it a cold job's circuit, the device the
MATCHING stage chose and the job's transpile seed, and it derives the rest —
the transpiled circuit, the calibration fingerprint and the precompiled
execution dispatch, which for a narrow circuit carries its exact outcome law
under the rates it reads from the device's live calibration.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.plans.plan import ExecutionPlan
from repro.simulators.noisy import precompile_execution
from repro.transpiler.preset import transpile
from repro.utils.cache import calibration_fingerprint
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
        transpile_seed: SeedLike = None,
        score: Optional[float] = None,
        num_feasible: int = 0,
        scores: Optional[Dict[str, float]] = None,
    ) -> ExecutionPlan:
        """Compile ``circuit`` for ``backend`` into a frozen plan.

        ``circuit`` is the logical circuit as submitted.  The compiler
        transpiles it under ``transpile_seed``, appending measurements if
        missing.
        """
        transpiled = transpile(circuit.measured(), backend, seed=transpile_seed)
        self._compiled += 1
        return ExecutionPlan(
            device=backend.name,
            calibration_fingerprint=calibration_fingerprint(backend.properties),
            transpiled=transpiled,
            execution=precompile_execution(transpiled.circuit, noise_model=backend.properties),
            score=score,
            num_feasible=num_feasible,
            scores=dict(scores or {}),
        )
