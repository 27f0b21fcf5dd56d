"""Execution results and distribution metrics.

Every simulator in the library returns a :class:`SimulationResult` whose
``counts`` use the Qiskit bit-string convention (classical bit 0 is the
right-most character) so that workloads such as Bernstein-Vazirani read their
expected answers naturally.  The module also hosts the distribution metrics
QRIO's fidelity ranking relies on: Hellinger fidelity, total variation
distance and success probability against an ideal reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.utils.exceptions import SimulationError


@dataclass
class SimulationResult:
    """Outcome of executing a circuit on a simulator.

    Attributes
    ----------
    counts:
        Mapping from classical bit-strings to the number of shots observing
        them.
    shots:
        Total number of shots.
    statevector:
        Final statevector for noise-free statevector runs (``None``
        otherwise).
    metadata:
        Simulator-specific extra information (seed, noise model summary, ...).
    """

    counts: Dict[str, int]
    shots: int
    statevector: Optional[np.ndarray] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def probabilities(self) -> Dict[str, float]:
        """Return the empirical outcome distribution."""
        if self.shots <= 0:
            raise SimulationError("Result has no shots")
        return {bitstring: count / self.shots for bitstring, count in self.counts.items()}

    def most_frequent(self) -> str:
        """Return the most frequently observed bit-string."""
        if not self.counts:
            raise SimulationError("Result has no counts")
        return max(self.counts.items(), key=lambda item: (item[1], item[0]))[0]

    def merged(self, other: "SimulationResult") -> "SimulationResult":
        """Combine two results of the same experiment (summing counts)."""
        counts = dict(self.counts)
        for bitstring, count in other.counts.items():
            counts[bitstring] = counts.get(bitstring, 0) + count
        return SimulationResult(counts=counts, shots=self.shots + other.shots)


def counts_to_probabilities(counts: Mapping[str, int]) -> Dict[str, float]:
    """Normalise a counts dictionary into a probability distribution."""
    total = sum(counts.values())
    if total <= 0:
        raise SimulationError("Cannot normalise an empty counts dictionary")
    return {bitstring: count / total for bitstring, count in counts.items()}


def hellinger_fidelity(counts_a: Mapping[str, int], counts_b: Mapping[str, int]) -> float:
    """Hellinger fidelity between two counts dictionaries.

    Defined as ``(sum_i sqrt(p_i * q_i))**2``; equals 1 for identical
    distributions and 0 for disjoint supports.  This is the quantity the
    QRIO evaluation reports as "achieved fidelity".
    """
    p = counts_to_probabilities(counts_a)
    q = counts_to_probabilities(counts_b)
    overlap = 0.0
    # Sorted, so the float sum does not follow the per-process string-hash
    # salt; outcomes missing from either side add exactly 0.0.
    for bitstring in sorted(p.keys() & q.keys()):
        overlap += math.sqrt(p[bitstring] * q[bitstring])
    return min(1.0, overlap**2)


def total_variation_distance(counts_a: Mapping[str, int], counts_b: Mapping[str, int]) -> float:
    """Total variation distance between two counts dictionaries."""
    p = counts_to_probabilities(counts_a)
    q = counts_to_probabilities(counts_b)
    distance = 0.0
    for bitstring in sorted(p.keys() | q.keys()):
        distance += abs(p.get(bitstring, 0.0) - q.get(bitstring, 0.0))
    return 0.5 * distance


def success_probability(counts: Mapping[str, int], ideal_bitstring: str) -> float:
    """Fraction of shots observing ``ideal_bitstring``.

    Useful for workloads with a single correct answer (Bernstein-Vazirani,
    repetition code, Grover's marked state).
    """
    total = sum(counts.values())
    if total <= 0:
        raise SimulationError("Cannot compute success probability of empty counts")
    return counts.get(ideal_bitstring, 0) / total


def uniform_counts(num_clbits: int, shots: int) -> Dict[str, int]:
    """A perfectly uniform counts dictionary over ``num_clbits`` bits.

    Used as the depolarised-limit reference when reporting how far a noisy
    distribution has drifted from useful output.
    """
    num_outcomes = 2**num_clbits
    base = shots // num_outcomes
    counts = {format(i, f"0{num_clbits}b"): base for i in range(num_outcomes)}
    remainder = shots - base * num_outcomes
    for i in range(remainder):
        counts[format(i, f"0{num_clbits}b")] += 1
    return counts


def marginal_counts(counts: Mapping[str, int], bit_indices) -> Dict[str, int]:
    """Marginalise ``counts`` onto the classical bits in ``bit_indices``.

    ``bit_indices`` are classical bit positions (0 = right-most character of
    the bit-string keys); the resulting keys preserve that ordering.
    """
    bit_indices = list(bit_indices)
    marginal: Dict[str, int] = {}
    for bitstring, count in counts.items():
        key = "".join(bitstring[len(bitstring) - 1 - index] for index in reversed(bit_indices))
        marginal[key] = marginal.get(key, 0) + count
    return marginal
