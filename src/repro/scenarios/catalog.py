"""Named, reproducible scenarios: the workload menu of the sweep harness.

A :class:`ScenarioSpec` bundles an arrival process, a workload suite and a
population/shot configuration under a short name, so experiments, the CLI
(``repro-qrio scenarios list/run/sweep``) and the benchmarks all talk about
the same workloads.  ``build_trace(seed=...)`` freezes a spec into a
normalised, replayable :class:`~repro.scenarios.Trace` — the same seed always
yields the same trace.

The built-in catalogue covers the scenario-diversity axis of the ROADMAP:
steady and diurnal Poisson load, MMPP bursts, heavy-tailed silences, a flash
crowd and a closed client loop.  ``register_scenario`` adds custom entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.scenarios.events import (
    CalibrationJump,
    DeviceOutage,
    QueueStorm,
    StragglerSlowdown,
    TenantBurst,
    apply_workload_events,
    normalise_events,
)
from repro.scenarios.trace import Trace
from repro.utils.exceptions import ScenarioError
from repro.utils.rng import SeedLike, derive_seed
from repro.workloads.arrivals import (
    ArrivalProcess,
    ClosedLoopProcess,
    FlashCrowdProcess,
    MMPPProcess,
    ParetoProcess,
    PoissonProcess,
    generate_requests,
)
from repro.workloads.suites import WorkloadSuite, grid_random_suite, nisq_mix_suite


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload scenario: process + suite + population."""

    name: str
    description: str
    #: Builds a fresh arrival process (processes are stateful; never shared).
    process_factory: Callable[[], ArrivalProcess]
    num_jobs: int = 60
    num_users: int = 8
    shots: int = 1024
    #: Builds the workload suite jobs are drawn from (default: NISQ mix).
    suite_factory: Callable[[], WorkloadSuite] = field(default=nisq_mix_suite)
    #: Builds the scenario's fault-event stream (``None`` = fault-free).
    #: Device references may use the fleet-relative ``"@N"`` form so catalog
    #: scenarios stay portable across fleets.
    events_factory: Optional[Callable[[], Sequence[object]]] = None

    def process(self) -> ArrivalProcess:
        """A fresh instance of the scenario's arrival process."""
        return self.process_factory()

    def events(self) -> tuple:
        """The scenario's normalised fault events (empty when fault-free)."""
        if self.events_factory is None:
            return ()
        return normalise_events(self.events_factory())

    def build_trace(self, seed: SeedLike = None, *, num_jobs: Optional[int] = None) -> Trace:
        """Freeze this scenario into a normalised, replayable trace.

        The seed is mixed with the scenario name, so two scenarios built from
        the same base seed still draw independent streams; ``num_jobs``
        optionally overrides the spec's default length (benchmarks shrink it
        for smoke runs).  Fault scenarios fold workload-shaping events
        (tenant bursts) into the arrival stream and record the full event
        stream on the trace, so the frozen artefact replays hostile
        conditions deterministically.
        """
        process = self.process()
        suite = self.suite_factory()
        trace_seed = derive_seed(seed, "scenario", self.name)
        requests = generate_requests(
            process,
            num_jobs=num_jobs if num_jobs is not None else self.num_jobs,
            num_users=self.num_users,
            shots=self.shots,
            suite=suite,
            seed=trace_seed,
        )
        events = self.events()
        if events:
            requests = apply_workload_events(
                requests, events, suite=suite, shots=self.shots, seed=trace_seed
            )
        return Trace.from_requests(
            self.name,
            requests,
            events=events,
            description=self.description,
            **process.describe(),
        )

    def describe(self) -> Dict[str, object]:
        """Serialisable listing row (CLI ``scenarios list [--json]``)."""
        events = self.events()
        return {
            "name": self.name,
            "description": self.description,
            "num_jobs": self.num_jobs,
            "num_users": self.num_users,
            "shots": self.shots,
            "suite": self.suite_factory().name,
            "num_events": len(events),
            "event_kinds": sorted({event.kind for event in events}),
            **self.process().describe(),
        }


_CATALOG: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the catalogue (``replace=True`` to overwrite)."""
    if not replace and spec.name in _CATALOG:
        raise ScenarioError(f"A scenario named '{spec.name}' is already registered")
    _CATALOG[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    """Remove a scenario (used by tests to keep the catalogue clean)."""
    _CATALOG.pop(name, None)


def available_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_CATALOG)


def scenario(name: str) -> ScenarioSpec:
    """Look up one scenario by name.

    Raises:
        ScenarioError: Unknown name (listing the registered ones).
    """
    if name not in _CATALOG:
        raise ScenarioError(
            f"Unknown scenario '{name}' (registered: {', '.join(available_scenarios())})"
        )
    return _CATALOG[name]


def build_scenario_trace(name: str, seed: SeedLike = None, *, num_jobs: Optional[int] = None) -> Trace:
    """Shorthand: ``scenario(name).build_trace(seed, num_jobs=...)``."""
    return scenario(name).build_trace(seed, num_jobs=num_jobs)


# --------------------------------------------------------------------------- #
# Built-in catalogue
# --------------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        name="steady",
        description="Steady Poisson load at 60 jobs/hour (the legacy default)",
        process_factory=lambda: PoissonProcess(rate_per_hour=60.0),
    )
)
register_scenario(
    ScenarioSpec(
        name="diurnal",
        description="Poisson load with a strong day/night cycle (amplitude 0.6)",
        process_factory=lambda: PoissonProcess(rate_per_hour=60.0, diurnal_amplitude=0.6),
        num_jobs=80,
    )
)
register_scenario(
    ScenarioSpec(
        name="bursty",
        description="MMPP bursts: quiet stretches punctuated by 8x-rate batches",
        process_factory=lambda: MMPPProcess(rate_per_hour=60.0, burst_factor=8.0),
        num_jobs=80,
    )
)
register_scenario(
    ScenarioSpec(
        name="heavy-tail",
        description="Pareto (alpha=1.3) inter-arrivals: long silences, tight clusters",
        process_factory=lambda: ParetoProcess(rate_per_hour=60.0, alpha=1.3),
    )
)
register_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description="Steady load with a 10x submission spike half an hour in",
        process_factory=lambda: FlashCrowdProcess(
            rate_per_hour=60.0, flash_at_s=1800.0, flash_duration_s=900.0, flash_multiplier=10.0
        ),
        num_jobs=80,
    )
)
register_scenario(
    ScenarioSpec(
        name="closed-loop",
        description="8 interactive clients, 2-minute think time (self-limiting load)",
        process_factory=lambda: ClosedLoopProcess(num_clients=8, think_time_s=120.0),
    )
)

# --------------------------------------------------------------------------- #
# Fault-augmented scenarios (hostile-world conditions).  Event times are laid
# out against each scenario's expected trace span (num_jobs / rate), and all
# device references use the fleet-relative "@N" form so the scenarios replay
# on any fleet with enough devices.
# --------------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        name="outage-recovery",
        description="Steady load; the first device drops out mid-trace and returns",
        process_factory=lambda: PoissonProcess(rate_per_hour=120.0),
        num_jobs=60,
        events_factory=lambda: (
            DeviceOutage(time_s=400.0, device="@0", duration_s=500.0),
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="calibration-shock",
        description="Steady load; two devices take calibration-epoch jumps mid-trace",
        process_factory=lambda: PoissonProcess(rate_per_hour=120.0),
        num_jobs=60,
        events_factory=lambda: (
            CalibrationJump(time_s=350.0, device="@0"),
            CalibrationJump(time_s=900.0, device="@1", two_qubit_spread=0.6),
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="hostile-world",
        description="Bursty load under all five fault kinds: outage, drift, storm, straggler, tenant burst",
        process_factory=lambda: MMPPProcess(rate_per_hour=120.0, burst_factor=6.0),
        num_jobs=80,
        events_factory=lambda: (
            StragglerSlowdown(time_s=120.0, device="@2", duration_s=700.0, factor=3.0),
            QueueStorm(time_s=250.0, backlog_s=600.0, devices=("@1",)),
            DeviceOutage(time_s=500.0, device="@0", duration_s=450.0),
            TenantBurst(time_s=600.0, duration_s=300.0, rate_per_hour=480.0),
            CalibrationJump(time_s=800.0, device="@1"),
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="grid-stress",
        description="Supremacy-style grid random circuits under an outage plus drift",
        process_factory=lambda: PoissonProcess(rate_per_hour=120.0),
        num_jobs=60,
        suite_factory=grid_random_suite,
        events_factory=lambda: (
            DeviceOutage(time_s=300.0, device="@1", duration_s=400.0),
            CalibrationJump(time_s=700.0, device="@2"),
        ),
    )
)
