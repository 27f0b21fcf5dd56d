"""Calibration-cycle drift: the temporal variability of Section 2.2.

The paper reports 2-3x swings in two-qubit gate characteristics between
calibration cycles (roughly one cycle per day).  :class:`CalibrationDriftModel`
reproduces that behaviour synthetically: each cycle multiplies every error
rate by an independent log-normal factor whose spread is chosen so the
typical cycle-to-cycle ratio matches the requested variability, clamped to
physical bounds.  The drifted :class:`~repro.backends.BackendProperties` can
be pushed back into a running cluster through
:meth:`repro.core.vendor.VendorConsole.update_calibration`, which is exactly
the vendor workflow the drift model exists to exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.backends.backend import Backend
from repro.backends.properties import BackendProperties
from repro.utils.exceptions import BackendError
from repro.utils.rng import SeedLike, ensure_generator


@dataclass(frozen=True)
class CalibrationDriftModel:
    """Multiplicative log-normal drift applied once per calibration cycle.

    Parameters
    ----------
    two_qubit_spread:
        Standard deviation of the log-factor applied to two-qubit errors.
        ``0.35`` gives typical cycle-to-cycle ratios of ~1.4x with tails
        reaching the 2-3x the paper reports.
    one_qubit_spread / readout_spread:
        Spreads for single-qubit and readout errors (usually smaller).
    error_floor / error_ceiling:
        Bounds the drifted error rates are clamped to.
    """

    two_qubit_spread: float = 0.35
    one_qubit_spread: float = 0.2
    readout_spread: float = 0.2
    error_floor: float = 1e-4
    error_ceiling: float = 0.95

    def __post_init__(self) -> None:
        if min(self.two_qubit_spread, self.one_qubit_spread, self.readout_spread) < 0:
            raise BackendError("Drift spreads must be non-negative")
        if not 0.0 < self.error_floor < self.error_ceiling <= 1.0:
            raise BackendError("error_floor/error_ceiling must satisfy 0 < floor < ceiling <= 1")

    # ------------------------------------------------------------------ #
    def _drift_value(self, value: float, spread: float, rng) -> float:
        factor = math.exp(float(rng.normal(0.0, spread))) if spread > 0 else 1.0
        return min(self.error_ceiling, max(self.error_floor, value * factor))

    def drift_properties(self, properties: BackendProperties, seed: SeedLike = None) -> BackendProperties:
        """One calibration cycle: return a drifted copy of ``properties``."""
        rng = ensure_generator(seed)
        two_qubit = {
            edge: self._drift_value(rate, self.two_qubit_spread, rng)
            for edge, rate in properties.two_qubit_error.items()
        }
        one_qubit = {
            qubit: self._drift_value(rate, self.one_qubit_spread, rng)
            for qubit, rate in properties.one_qubit_error.items()
        }
        readout = {
            qubit: self._drift_value(rate, self.readout_spread, rng)
            for qubit, rate in properties.readout_error.items()
        }
        return BackendProperties(
            name=properties.name,
            num_qubits=properties.num_qubits,
            coupling_map=list(properties.coupling_map),
            basis_gates=tuple(properties.basis_gates),
            two_qubit_error=two_qubit,
            one_qubit_error=one_qubit,
            readout_error=readout,
            readout_length=dict(properties.readout_length),
            t1=dict(properties.t1),
            t2=dict(properties.t2),
            extras=dict(properties.extras),
        )

    def drift_backend(self, backend: Backend, seed: SeedLike = None) -> Backend:
        """One calibration cycle applied to a :class:`Backend`."""
        return Backend(self.drift_properties(backend.properties, seed=seed))

    def cycles(self, properties: BackendProperties, num_cycles: int, seed: SeedLike = None) -> Iterator[BackendProperties]:
        """Yield ``num_cycles`` successive calibration records (cycle N builds on N-1)."""
        rng = ensure_generator(seed)
        current = properties
        for _ in range(num_cycles):
            current = self.drift_properties(current, seed=rng)
            yield current

    # ------------------------------------------------------------------ #
    def typical_ratio(self) -> float:
        """Median multiplicative swing of a two-qubit error over one cycle.

        For a log-normal factor the median of ``max(f, 1/f)`` is
        ``exp(0.6745 * spread)`` — a quick way to sanity-check the spread
        against the 2-3x variability the paper quotes.
        """
        return math.exp(0.6745 * self.two_qubit_spread)


def drift_fleet(
    fleet: Sequence[Backend],
    model: CalibrationDriftModel = CalibrationDriftModel(),
    seed: SeedLike = None,
) -> List[Backend]:
    """Apply one calibration cycle to every device in ``fleet``."""
    rng = ensure_generator(seed)
    return [model.drift_backend(backend, seed=rng) for backend in fleet]


def drift_history(
    backend: Backend,
    num_cycles: int,
    model: CalibrationDriftModel = CalibrationDriftModel(),
    seed: SeedLike = None,
) -> List[Tuple[int, float]]:
    """Average two-qubit error of ``backend`` over ``num_cycles`` cycles.

    Returns ``(cycle_index, average_two_qubit_error)`` pairs, cycle 0 being
    the starting calibration — handy for plotting drift trajectories.
    """
    history: List[Tuple[int, float]] = [(0, backend.properties.average_two_qubit_error())]
    for index, properties in enumerate(model.cycles(backend.properties, num_cycles, seed=seed), start=1):
        history.append((index, properties.average_two_qubit_error()))
    return history
