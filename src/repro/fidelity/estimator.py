"""Analytic fidelity estimation (the baseline the canary method outperforms).

The paper motivates Clifford canaries by noting that "as circuit complexity
continues to increase, simplistic analytical methods of fidelity estimation
fail".  The classic analytical method is the Estimated Success Probability
(ESP): a product of ``(1 - error)`` over every gate and measurement of the
compiled circuit.  It is cheap — no simulation at all — but ignores error
cancellation, error propagation and the structure of the output distribution.
It is provided here both as a fast pre-filter and as the comparison point for
the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.preset import transpile
from repro.utils.rng import SeedLike, derive_seed


@dataclass(frozen=True)
class ESPReport:
    """Analytic estimate of a circuit's success probability on one device."""

    device: str
    circuit_name: str
    esp: float
    two_qubit_gates: int
    swaps_inserted: int


class ESPEstimator:
    """Estimated-success-probability calculator over transpiled circuits."""

    def __init__(self, optimization_level: int = 2, seed: SeedLike = None) -> None:
        self._optimization_level = optimization_level
        self._seed = seed

    def estimate(self, circuit: QuantumCircuit, backend: Backend) -> ESPReport:
        """Transpile ``circuit`` for ``backend`` and compute its analytic ESP."""
        compiled = transpile(
            circuit,
            backend,
            optimization_level=self._optimization_level,
            seed=derive_seed(self._seed, "esp-transpile", backend.name, circuit.name),
        )
        esp = backend.noise_model().expected_success_probability(compiled.circuit)
        return ESPReport(
            device=backend.name,
            circuit_name=circuit.name,
            esp=esp,
            two_qubit_gates=compiled.two_qubit_gate_count(),
            swaps_inserted=compiled.swaps_inserted,
        )

    def rank_backends(self, circuit: QuantumCircuit, backends: Iterable[Backend]) -> List[ESPReport]:
        """Rank ``backends`` by analytic ESP, best first."""
        reports = [self.estimate(circuit, backend) for backend in backends]
        return sorted(reports, key=lambda report: (-report.esp, report.device))
