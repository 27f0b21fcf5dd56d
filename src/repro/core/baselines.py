"""Baseline rankings used by the paper's evaluation.

* :class:`~repro.policies.RandomPlacementPolicy` — "randomly picks up a
  device in the list of filtered devices" (the Fig. 6 and Fig. 7 baseline);
* :class:`OraclePlacementPolicy` — "scores the backends directly on the
  user's submitted circuit and does not convert it to a clifford circuit",
  using the noise-free simulator to know the correct answer (the Fig. 7
  upper bound; not implementable in a real scheduler because the right
  answer is not available at scheduling time).

Both are placement policies, so they run through the same scheduling cycle
and the same filtering stage as the real QRIO ranking
(:meth:`repro.control.QRIOScheduler.schedule`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.backends.backend import Backend
from repro.fidelity.canary import achieved_fidelity
from repro.policies import SURPLUS_WEIGHT, PlacementContext, PlacementPolicy
from repro.utils.rng import SeedLike, derive_seed


class OraclePlacementPolicy(PlacementPolicy):
    """Scores devices by the *true* fidelity of the user's circuit on them.

    The true fidelity compares the device's noisy execution of the original
    circuit with the noise-free reference obtained from classical simulation,
    so this policy is only usable when the circuit is small enough to
    simulate — exactly the caveat the paper gives for its oracle algorithm.
    The score is the meta server's threshold distance (deficit at full
    weight, surplus at :data:`~repro.policies.SURPLUS_WEIGHT`) against
    ``fidelity_threshold``.
    """

    def __init__(
        self,
        fidelity_threshold: float = 1.0,
        shots: int = 512,
        seed: SeedLike = None,
    ) -> None:
        self._threshold = fidelity_threshold
        self._shots = shots
        self._seed = seed
        self._fidelities: Dict[Tuple[str, str], float] = {}

    @property
    def name(self) -> str:
        return "oracle"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        key = (ctx.job_name, device.name)
        if key not in self._fidelities:
            self._fidelities[key] = achieved_fidelity(
                ctx.circuit,
                device,
                shots=self._shots,
                seed=derive_seed(self._seed, "oracle", ctx.job_name, device.name),
            )
        fidelity = self._fidelities[key]
        deficit = max(0.0, self._threshold - fidelity)
        surplus = max(0.0, fidelity - self._threshold)
        return deficit + SURPLUS_WEIGHT * surplus

    def known_fidelity(self, job_name: str, device: str) -> Optional[float]:
        """Fidelity already computed for a (job, device) pair, if any."""
        return self._fidelities.get((job_name, device))
