"""The :class:`ExecutionPlan` artifact: everything a warm submit replays.

A plan is the frozen, picklable outcome of one cold submit's compile stages:

* the **transpiled**, placement-bound circuit
  (:class:`~repro.transpiler.TranspileResult`, carrying layouts and SWAP
  counts) exactly as the cold path produced it;
* the **precompiled execution** dispatch
  (:class:`~repro.simulators.noisy.PrecompiledExecution`: compacted circuit,
  noise-restriction mapping, engine choice, and — on the stabilizer path —
  the compiled tableau program), so replay skips every per-gate walk;
* inside that dispatch, for a circuit of at most ``DENSITY_LIMIT`` active
  qubits, its exact **outcome law** (``execution.law``, an
  :class:`~repro.simulators.density.OutcomeLaw`) under the device's
  calibration, with the noise rates it read, so a replay is one multinomial draw
  under the job's seed;
* the device and its calibration fingerprint at compile time;
* the cold placement verdict (score, per-device scores, feasible count) so
  MATCHING can be skipped wholesale on the native path.

Each cluster engine files its plans in its own plan store
under ``(structural hash of the submitted circuit, requirements, shots)``;
a lookup replays a plan only while its device's live calibration
fingerprint equals the one recorded here, so a calibration-drift cycle
makes the stale plan miss.  Independently, a replay draws from the law only
while the rates it recorded equal the ones the live calibration gives;
otherwise the execution computes a fresh law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

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

    #: Device the cold submit was placed on.
    device: str
    #: Calibration fingerprint of that device at compile time.
    calibration_fingerprint: str
    #: The transpiled, placement-bound circuit with its compile metadata.
    transpiled: TranspileResult
    #: Precomputed execution dispatch of :attr:`transpiled`'s circuit.
    execution: PrecompiledExecution
    #: Cold placement score (``None`` when the scheduler reported none).
    score: Optional[float] = None
    #: Number of devices that survived the cold submit's filters.
    num_feasible: int = 0
    #: Per-device score breakdown of the cold MATCHING stage.
    scores: Dict[str, float] = field(default_factory=dict)
