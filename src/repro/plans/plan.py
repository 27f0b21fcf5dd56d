"""The :class:`ExecutionPlan` artifact: everything a warm submit replays.

A plan is the frozen, picklable outcome of one cold submit's compile stages:

* the **fused** logical circuit (adjacent single-qubit Clifford runs
  collapsed by :func:`repro.transpiler.fusion.fuse_clifford_runs`) and its
  structural hash — the canonical workload identity;
* the **transpiled**, placement-bound circuit
  (:class:`~repro.transpiler.TranspileResult`, carrying layouts and SWAP
  counts) exactly as the cold path produced it;
* the **precompiled execution** dispatch
  (:class:`~repro.simulators.noisy.PrecompiledExecution`: compacted circuit,
  noise-restriction mapping, engine choice, and — on the stabilizer path —
  the compiled tableau program), so replay skips every per-gate walk;
* **references** into the sibling caches: the embedding pattern digest
  (:func:`repro.core.cache.pattern_hash` of the interaction graph) and the
  canary ideal-distribution key, so a warm submit finds its neighbours'
  cached artifacts without recomputing their keys;
* the cold placement verdict (device, score, per-device scores, feasible
  count) so MATCHING can be skipped wholesale on the native path.

Plans live in :func:`repro.core.cache.plan_cache`, keyed by
``(structural_hash, device, calibration_fingerprint, *engine context)``; a
calibration-drift cycle changes the fingerprint and the stale plan simply
stops matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noisy import PrecompiledExecution
from repro.transpiler.preset import TranspileResult

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """A frozen compile-once bundle replayed by warm submits.

    Built by :class:`~repro.plans.PlanCompiler`; every field is plain Python
    data (circuits, instructions, layouts, tableau steps), so plans pickle —
    the contract that keeps them shippable to the process-sharded runtime.
    """

    #: Structural hash of the logical (measured) circuit — the workload key.
    structural_hash: str
    #: Device the cold submit was placed on.
    device: str
    #: Calibration fingerprint of that device at compile time.
    calibration_fingerprint: str
    #: Engine that compiled the plan (``orchestrator``/``cluster``/``cloud``).
    engine: str
    #: Shot budget the plan was compiled for.
    shots: int
    #: The fused logical circuit (single-qubit Clifford runs collapsed).
    fused_circuit: QuantumCircuit
    #: Structural hash of :attr:`fused_circuit` (the canary/ideal-cache key
    #: component for the canonical form of this workload).
    fused_hash: str
    #: The transpiled, placement-bound circuit with its compile metadata.
    transpiled: TranspileResult
    #: Precomputed execution dispatch of :attr:`transpiled`'s circuit.
    execution: PrecompiledExecution
    #: Reference into the embedding cache: the interaction-graph pattern
    #: digest (``None`` when the circuit has no two-qubit structure).
    embedding_reference: Optional[str] = None
    #: Reference into the ideal-distribution cache: ``(fused_hash, shots)``.
    canary_reference: Optional[Tuple[str, int]] = None
    #: Cold placement score (``None`` when the scheduler reported none).
    score: Optional[float] = None
    #: Number of devices that survived the cold submit's filters.
    num_feasible: int = 0
    #: Per-device score breakdown of the cold MATCHING stage.
    scores: Dict[str, float] = field(default_factory=dict)

    def cache_key(self, *extra: Hashable) -> Tuple[Hashable, ...]:
        """The plan's :func:`~repro.core.cache.plan_cache` key.

        ``extra`` must carry the same engine context (engine name, base seed,
        requirements, shots) the storing engine used, or the key will not
        match — which is the point: plans never leak across configurations.
        """
        return (self.structural_hash, self.device, self.calibration_fingerprint) + extra

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ValueError("shots must be positive")
