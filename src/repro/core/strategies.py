"""Ranking strategies used by the QRIO meta server.

The meta server scores a (job, device) pair with one of two strategies
(Section 3.4): the *fidelity ranking strategy* when the job carries a
fidelity threshold (Clifford canary execution, Section 3.4.1), or the
*topology ranking strategy* when the job carries a user-drawn topology
(Mapomatic-style subgraph scoring, Section 3.4.2).  Lower scores are better;
the scheduler picks the device with the lowest score.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.fidelity.canary import DEFAULT_CANARY_SHOTS, CliffordCanaryEstimator
from repro.matching.mapomatic import match_device
from repro.utils.exceptions import MetaServerError
from repro.utils.rng import SeedLike
from repro.utils.validation import require_probability

#: Score returned when a device cannot host the request at all.
INFEASIBLE_SCORE = float("inf")

#: Weight applied to fidelity *surplus* (device better than required).  A
#: deficit is penalised at full weight so the scheduler never prefers a
#: device that misses the requirement; a small surplus weight nudges it to
#: hand out the device that most closely matches the request instead of
#: always consuming the best device in the cluster.
SURPLUS_WEIGHT = 0.25


class RankingStrategy(abc.ABC):
    """Interface shared by the meta server's ranking strategies."""

    @property
    def name(self) -> str:
        """Strategy name used in logs and reports."""
        return type(self).__name__

    @abc.abstractmethod
    def score(self, backend: Backend) -> float:
        """Score ``backend`` for the job this strategy instance was built for."""


@dataclass
class FidelityScoreBreakdown:
    """Detailed result of a fidelity-strategy scoring call."""

    device: str
    canary_fidelity: float
    required_fidelity: float
    score: float


class FidelityRankingStrategy(RankingStrategy):
    """Clifford-canary based scoring against a user fidelity requirement.

    The score is the weighted distance between the canary fidelity estimate
    and the requested fidelity: a deficit counts at full weight, a surplus at
    :data:`SURPLUS_WEIGHT`.  With the paper's evaluation setting (a demanded
    fidelity of 1.0) the score reduces to ``1 - canary_fidelity``, i.e. the
    scheduler simply picks the highest-fidelity device.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        fidelity_threshold: float,
        shots: int = DEFAULT_CANARY_SHOTS,
        seed: SeedLike = None,
    ) -> None:
        require_probability(fidelity_threshold, "fidelity_threshold")
        self._circuit = circuit
        self._threshold = fidelity_threshold
        self._estimator = CliffordCanaryEstimator(shots=shots, seed=seed)
        self._breakdowns: Dict[str, FidelityScoreBreakdown] = {}

    @property
    def circuit(self) -> QuantumCircuit:
        """The user circuit this strategy scores devices for."""
        return self._circuit

    @property
    def fidelity_threshold(self) -> float:
        """The user's requested fidelity."""
        return self._threshold

    def score(self, backend: Backend) -> float:
        """Score ``backend`` (lower is better); infeasible devices score infinity."""
        if backend.num_qubits < self._circuit.num_qubits:
            return INFEASIBLE_SCORE
        fidelity = self._estimator.estimate(self._circuit, backend).canary_fidelity
        deficit = max(0.0, self._threshold - fidelity)
        surplus = max(0.0, fidelity - self._threshold)
        value = deficit + SURPLUS_WEIGHT * surplus
        self._breakdowns[backend.name] = FidelityScoreBreakdown(
            device=backend.name,
            canary_fidelity=fidelity,
            required_fidelity=self._threshold,
            score=value,
        )
        return value

    def breakdown(self, device: str) -> Optional[FidelityScoreBreakdown]:
        """Scoring detail for a device already scored by this strategy."""
        return self._breakdowns.get(device)


class TopologyRankingStrategy(RankingStrategy):
    """Mapomatic-style scoring of how well a device hosts a requested topology.

    The topology circuit produced by the visualizer's canvas is matched
    against the device's coupling map; the score is the error cost of the
    best embedding (exact subgraph embeddings when they exist, a penalised
    greedy embedding otherwise).
    """

    def __init__(
        self,
        topology_circuit: QuantumCircuit,
        max_embeddings: int = 100,
        seed: SeedLike = None,
    ) -> None:
        if topology_circuit.num_two_qubit_gates() == 0:
            raise MetaServerError("A topology circuit must contain at least one interaction")
        self._topology_circuit = topology_circuit
        self._max_embeddings = max_embeddings
        self._seed = seed
        self._layouts: Dict[str, Dict[int, int]] = {}
        self._exact: Dict[str, bool] = {}

    @property
    def topology_circuit(self) -> QuantumCircuit:
        """The user's topology circuit."""
        return self._topology_circuit

    def score(self, backend: Backend) -> float:
        """Score ``backend`` (lower is better); infeasible devices score infinity."""
        match = match_device(
            self._topology_circuit,
            backend,
            max_embeddings=self._max_embeddings,
            seed=self._seed,
        )
        if match is None:
            return INFEASIBLE_SCORE
        self._layouts[backend.name] = match.layout
        self._exact[backend.name] = match.exact
        return match.score

    def layout_for(self, device: str) -> Optional[Dict[int, int]]:
        """Best layout found on a device already scored by this strategy."""
        return self._layouts.get(device)

    def was_exact(self, device: str) -> Optional[bool]:
        """Whether the best embedding on ``device`` was an exact subgraph match."""
        return self._exact.get(device)
