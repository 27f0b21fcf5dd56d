"""Experiment configuration shared by every table/figure driver.

The paper's evaluation uses the full 100-device fleet, 25 repetitions for
Fig. 6 and 50 repetitions for Figs. 8/9.  Because the reproduction simulates
every noisy execution in pure Python, the default configuration used by the
benchmark harness trims the fleet and shot counts to keep a full benchmark
run in CI-friendly time; :func:`paper_scale` restores the published scale.
EXPERIMENTS.md records which configuration produced the committed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.backends.backend import Backend
from repro.backends.fleet import FleetSpec, generate_fleet
from repro.utils.rng import DEFAULT_SEED


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling experiment scale and determinism."""

    #: Number of fleet devices to use (``None`` = the full 100 of Table 2).
    fleet_limit: Optional[int] = 24
    #: Repetitions of the random-scheduler comparison (Fig. 6; paper uses 25).
    fig6_repetitions: int = 25
    #: Repetitions of the user-topology selection (Figs. 8/9; paper uses 50).
    fig8_repetitions: int = 50
    #: Shots used for canary and achieved-fidelity executions.
    shots: int = 256
    #: Base seed for fleet generation, noise sampling and random baselines.
    seed: int = DEFAULT_SEED

    def build_fleet(self) -> List[Backend]:
        """Generate the (possibly truncated) Table 2 fleet."""
        return generate_fleet(spec=FleetSpec(), seed=self.seed, limit=self.fleet_limit)

    def describe(self) -> str:
        """One-line description recorded alongside experiment outputs."""
        fleet = self.fleet_limit if self.fleet_limit is not None else 100
        return (
            f"fleet={fleet} devices, shots={self.shots}, "
            f"fig6_reps={self.fig6_repetitions}, fig8_reps={self.fig8_repetitions}, seed={self.seed}"
        )


def quick_config() -> ExperimentConfig:
    """Small configuration used by the test suite (seconds, not minutes)."""
    return ExperimentConfig(fleet_limit=10, fig6_repetitions=5, fig8_repetitions=5, shots=128)


def default_config() -> ExperimentConfig:
    """The configuration the benchmark harness runs by default."""
    return ExperimentConfig()


def paper_scale_config() -> ExperimentConfig:
    """The full published scale: 100 devices, 25/50 repetitions."""
    return ExperimentConfig(fleet_limit=None, fig6_repetitions=25, fig8_repetitions=50, shots=512)
