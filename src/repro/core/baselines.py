"""Baseline schedulers used by the paper's evaluation.

* :class:`RandomScheduler` — "randomly picks up a device in the list of
  filtered devices" (the Fig. 6 and Fig. 7 baseline).
* :class:`OracleScheduler` — "scores the backends directly on the user's
  submitted circuit and does not convert it to a clifford circuit", using the
  noise-free simulator to know the correct answer (the Fig. 7 upper bound;
  not implementable in a real scheduler because the right answer is not
  available at scheduling time).

Both reuse the generic scheduling framework so they run through exactly the
same filtering stage as the real QRIO scheduler.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.cluster.framework import FilterPlugin, SchedulingFramework, ScorePlugin
from repro.cluster.job import Job
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState
from repro.core.scheduler import default_filter_plugins
from repro.fidelity.canary import achieved_fidelity
from repro.policies import INFEASIBLE_SCORE, SURPLUS_WEIGHT
from repro.qasm.parser import parse_qasm
from repro.utils.rng import SeedLike, derive_seed, ensure_generator


class RandomScorePlugin(ScorePlugin):
    """Assigns every feasible node an independent uniform random score."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    def score(self, job: Job, node: Node) -> float:
        return float(self._rng.random())


class RandomScheduler(SchedulingFramework):
    """Filtering as usual, then a uniformly random choice among survivors."""

    def __init__(
        self,
        cluster: ClusterState,
        seed: SeedLike = None,
        extra_filters: Optional[Sequence[FilterPlugin]] = None,
    ) -> None:
        filters = default_filter_plugins()
        if extra_filters:
            filters.extend(extra_filters)
        super().__init__(cluster, filter_plugins=filters, score_plugins=[RandomScorePlugin(seed)])


class OracleScorePlugin(ScorePlugin):
    """Scores nodes by the *true* fidelity of the user's circuit on the device.

    The true fidelity compares the device's noisy execution of the original
    circuit with the noise-free reference obtained from classical simulation,
    so this plugin is only usable when the circuit is small enough to
    simulate — exactly the caveat the paper gives for its oracle algorithm.
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

    def score(self, job: Job, node: Node) -> float:
        circuit = parse_qasm(job.spec.circuit_qasm, name=job.name)
        backend = node.backend
        if backend.num_qubits < circuit.num_qubits:
            return INFEASIBLE_SCORE
        key = (job.name, backend.name)
        if key not in self._fidelities:
            self._fidelities[key] = achieved_fidelity(
                circuit,
                backend,
                shots=self._shots,
                seed=derive_seed(self._seed, "oracle", job.name, backend.name),
            )
        fidelity = self._fidelities[key]
        deficit = max(0.0, self._threshold - fidelity)
        surplus = max(0.0, fidelity - self._threshold)
        return deficit + SURPLUS_WEIGHT * surplus

    def known_fidelity(self, job_name: str, device: str) -> Optional[float]:
        """Fidelity already computed for a (job, device) pair, if any."""
        return self._fidelities.get((job_name, device))


class OracleScheduler(SchedulingFramework):
    """Filtering as usual, then ranking by true achieved fidelity."""

    def __init__(
        self,
        cluster: ClusterState,
        fidelity_threshold: float = 1.0,
        shots: int = 512,
        seed: SeedLike = None,
        extra_filters: Optional[Sequence[FilterPlugin]] = None,
    ) -> None:
        filters = default_filter_plugins()
        if extra_filters:
            filters.extend(extra_filters)
        self.oracle_plugin = OracleScorePlugin(fidelity_threshold=fidelity_threshold, shots=shots, seed=seed)
        super().__init__(cluster, filter_plugins=filters, score_plugins=[self.oracle_plugin])
