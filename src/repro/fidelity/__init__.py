"""Fidelity estimation: Clifford canaries and the analytic ESP baseline."""

from repro.fidelity.canary import (
    DEFAULT_CANARY_SHOTS,
    CanaryReport,
    CliffordCanaryEstimator,
    achieved_fidelity,
)
from repro.fidelity.clifford import (
    cliffordize,
    closest_single_qubit_clifford,
    is_clifford_circuit,
    is_clifford_instruction,
)
from repro.fidelity.estimator import ESPEstimator, ESPReport

__all__ = [
    "DEFAULT_CANARY_SHOTS",
    "CanaryReport",
    "CliffordCanaryEstimator",
    "ESPEstimator",
    "ESPReport",
    "achieved_fidelity",
    "cliffordize",
    "closest_single_qubit_clifford",
    "is_clifford_circuit",
    "is_clifford_instruction",
]
