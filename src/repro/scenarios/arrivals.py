"""Pluggable job-arrival processes for scenario generation.

Real quantum-cloud measurement studies (the IISWC'21 characterisation the
paper cites) observe bursty, diurnal, heavy-tailed streams of mostly-small
jobs from many users.  The original reproduction hard-wired one such model —
a Poisson process with optional day/night modulation — inside the cloud
simulator.  This module hoists it into an engine-neutral
:class:`ArrivalProcess` protocol and adds the other canonical shapes of that
characterisation literature:

* :class:`PoissonProcess` — memoryless arrivals, optionally diurnally
  modulated (the legacy generator, bit-for-bit);
* :class:`MMPPProcess` — a two-state Markov-modulated Poisson process:
  quiet/burst phases with geometric dwell times, the standard bursty model;
* :class:`ParetoProcess` — heavy-tailed inter-arrival gaps (occasional long
  silences between packed batches);
* :class:`FlashCrowdProcess` — a steady baseline with one rate spike
  (a paper deadline, a course assignment going out);
* :class:`ClosedLoopProcess` — a fixed client population where each client
  "thinks" before resubmitting, so the offered load saturates instead of
  growing without bound.

Every process feeds :func:`generate_requests`, which samples jobs from a
:class:`~repro.workloads.WorkloadSuite` and attributes them to a fixed user
population — the same :class:`JobRequest` records the cloud simulator, the
unified service and the scenario runner all consume.
"""

from __future__ import annotations

import abc
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.utils.exceptions import CloudError
from repro.utils.rng import SeedLike, ensure_generator
from repro.utils.validation import require_positive_int
from repro.workloads.suites import WorkloadSuite, nisq_mix_suite


@dataclass(frozen=True)
class JobRequest:
    """One job in an arrival trace."""

    #: Monotonically increasing arrival index.
    index: int
    #: Arrival time in seconds from the start of the trace.
    arrival_time: float
    #: Workload-suite entry key the job was drawn from.
    workload_key: str
    #: The job's circuit (already built; traces are reproducible artefacts).
    circuit: QuantumCircuit
    #: ``"fidelity"`` or ``"topology"`` — the strategy the submitting user picks.
    strategy: str
    #: Fidelity requirement carried by fidelity-strategy submissions.
    fidelity_threshold: float
    #: Number of shots requested.
    shots: int
    #: Identifier of the submitting user (for fairness metrics).
    user: str

    @property
    def name(self) -> str:
        """Unique job name within the trace."""
        return f"{self.workload_key}-{self.index:04d}"


# --------------------------------------------------------------------------- #
# The arrival-process protocol
# --------------------------------------------------------------------------- #
class ArrivalProcess(abc.ABC):
    """How long until the next job arrives.

    A process is a stream of inter-arrival gaps: :func:`generate_requests`
    calls :meth:`begin` once per trace and then :meth:`next_gap` once per
    job, threading the shared generator through so the whole trace is one
    reproducible draw sequence.  Processes may keep per-trace state (phase of
    a modulated process, client pool of a closed loop) — :meth:`begin` must
    reset it so one process instance can generate many independent traces.
    """

    #: Short name recorded in trace metadata and scenario listings.
    name: str = "process"

    def begin(self, rng: np.random.Generator) -> None:
        """Reset per-trace state (default: stateless, nothing to do)."""

    @abc.abstractmethod
    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        """Seconds between the arrival at ``clock`` and the next one.

        Args:
            rng: The trace's shared generator (consume draws only from here).
            clock: Current trace time — the previous job's arrival time.
            index: Index of the job about to arrive (0-based).
        """

    def describe(self) -> Dict[str, object]:
        """Serialisable description recorded in trace metadata."""
        return {"process": self.name}


def _require_positive_rate(rate_per_hour: float) -> float:
    if rate_per_hour <= 0:
        raise CloudError("rate_per_hour must be positive")
    return rate_per_hour / 3600.0


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals, optionally modulated by a day/night load factor.

    This is the cloud simulator's original generator, draw-for-draw: gaps are
    exponential with the instantaneous rate evaluated at the previous
    arrival, and with ``diurnal_amplitude > 0`` the rate oscillates between
    ``rate * (1 - amplitude)`` and ``rate * (1 + amplitude)`` over a 24-hour
    period.
    """

    name = "poisson"

    def __init__(self, rate_per_hour: float = 60.0, diurnal_amplitude: float = 0.0) -> None:
        self._base_rate = _require_positive_rate(rate_per_hour)
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise CloudError("diurnal_amplitude must lie in [0, 1)")
        self.rate_per_hour = rate_per_hour
        self.diurnal_amplitude = diurnal_amplitude
        if diurnal_amplitude > 0.0:
            self.name = "diurnal-poisson"

    def rate_at(self, time_s: float) -> float:
        """Arrival rate (jobs per second) at ``time_s`` under the diurnal model."""
        if self.diurnal_amplitude <= 0.0:
            return self._base_rate
        phase = 2.0 * math.pi * (time_s / 86_400.0)
        return self._base_rate * (1.0 + self.diurnal_amplitude * math.sin(phase))

    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        return float(rng.exponential(1.0 / self.rate_at(clock)))

    def describe(self) -> Dict[str, object]:
        return {
            "process": self.name,
            "rate_per_hour": self.rate_per_hour,
            "diurnal_amplitude": self.diurnal_amplitude,
        }


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (the standard bursty model).

    The process alternates between a *quiet* phase (rate scaled down so the
    long-run mean stays ``rate_per_hour``) and a *burst* phase (rate scaled
    up by ``burst_factor``).  Phase dwell times are geometric in *jobs*:
    after each arrival the phase flips with probability ``1/mean_quiet_jobs``
    (or ``1/mean_burst_jobs``).  The result is the clumped arrival pattern
    cloud characterisation studies report — long lulls punctuated by packed
    batches — with a coefficient of variation well above the Poisson 1.0.
    """

    name = "mmpp"

    def __init__(
        self,
        rate_per_hour: float = 60.0,
        burst_factor: float = 8.0,
        mean_burst_jobs: float = 6.0,
        mean_quiet_jobs: float = 18.0,
    ) -> None:
        self._base_rate = _require_positive_rate(rate_per_hour)
        if burst_factor <= 1.0:
            raise CloudError("burst_factor must exceed 1.0 (1.0 is plain Poisson)")
        if mean_burst_jobs < 1.0 or mean_quiet_jobs < 1.0:
            raise CloudError("mean phase lengths must be at least one job")
        self.rate_per_hour = rate_per_hour
        self.burst_factor = burst_factor
        self.mean_burst_jobs = mean_burst_jobs
        self.mean_quiet_jobs = mean_quiet_jobs
        # Pick the quiet-phase rate so the time-averaged rate stays at the
        # requested mean: burst jobs arrive burst_factor times faster, so the
        # quiet phase must be slowed by the jobs-weighted complement.
        burst_share = mean_burst_jobs / (mean_burst_jobs + mean_quiet_jobs)
        time_scale = burst_share / burst_factor + (1.0 - burst_share)
        self._quiet_rate = self._base_rate * time_scale
        self._in_burst = False

    def begin(self, rng: np.random.Generator) -> None:
        self._in_burst = False

    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        rate = self._quiet_rate * (self.burst_factor if self._in_burst else 1.0)
        gap = float(rng.exponential(1.0 / rate))
        flip_probability = 1.0 / (self.mean_burst_jobs if self._in_burst else self.mean_quiet_jobs)
        if float(rng.random()) < flip_probability:
            self._in_burst = not self._in_burst
        return gap

    def describe(self) -> Dict[str, object]:
        return {
            "process": self.name,
            "rate_per_hour": self.rate_per_hour,
            "burst_factor": self.burst_factor,
            "mean_burst_jobs": self.mean_burst_jobs,
            "mean_quiet_jobs": self.mean_quiet_jobs,
        }


class ParetoProcess(ArrivalProcess):
    """Heavy-tailed inter-arrival gaps (Pareto with shape ``alpha``).

    ``alpha`` must exceed 1 so the mean gap is finite; the scale is chosen so
    the mean matches ``rate_per_hour``.  Small ``alpha`` (1.1–1.5) produces
    the occasional very long silence followed by tight clusters that
    session-level traffic models exhibit.
    """

    name = "pareto"

    def __init__(self, rate_per_hour: float = 60.0, alpha: float = 1.5) -> None:
        self._base_rate = _require_positive_rate(rate_per_hour)
        if alpha <= 1.0:
            raise CloudError("alpha must exceed 1.0 so the mean inter-arrival gap is finite")
        self.rate_per_hour = rate_per_hour
        self.alpha = alpha
        # Lomax-shifted Pareto: gap = scale * (pareto(alpha) + 1) has mean
        # scale * alpha / (alpha - 1); solve for the requested mean gap.
        self._scale = (alpha - 1.0) / (alpha * self._base_rate)

    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        return float((rng.pareto(self.alpha) + 1.0) * self._scale)

    def describe(self) -> Dict[str, object]:
        return {"process": self.name, "rate_per_hour": self.rate_per_hour, "alpha": self.alpha}


class FlashCrowdProcess(ArrivalProcess):
    """A steady Poisson baseline with one multiplicative rate spike.

    Between ``flash_at_s`` and ``flash_at_s + flash_duration_s`` the rate is
    multiplied by ``flash_multiplier`` — the submission-deadline / demo-day
    pattern where a quiet service is suddenly swamped and must drain the
    backlog afterwards.
    """

    name = "flash-crowd"

    def __init__(
        self,
        rate_per_hour: float = 60.0,
        flash_at_s: float = 1800.0,
        flash_duration_s: float = 900.0,
        flash_multiplier: float = 10.0,
    ) -> None:
        self._base_rate = _require_positive_rate(rate_per_hour)
        if flash_at_s < 0 or flash_duration_s <= 0:
            raise CloudError("flash window must start at t >= 0 and last > 0 seconds")
        if flash_multiplier <= 1.0:
            raise CloudError("flash_multiplier must exceed 1.0")
        self.rate_per_hour = rate_per_hour
        self.flash_at_s = flash_at_s
        self.flash_duration_s = flash_duration_s
        self.flash_multiplier = flash_multiplier

    def rate_at(self, time_s: float) -> float:
        """Arrival rate (jobs per second) at ``time_s``."""
        in_flash = self.flash_at_s <= time_s < self.flash_at_s + self.flash_duration_s
        return self._base_rate * (self.flash_multiplier if in_flash else 1.0)

    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        return float(rng.exponential(1.0 / self.rate_at(clock)))

    def describe(self) -> Dict[str, object]:
        return {
            "process": self.name,
            "rate_per_hour": self.rate_per_hour,
            "flash_at_s": self.flash_at_s,
            "flash_duration_s": self.flash_duration_s,
            "flash_multiplier": self.flash_multiplier,
        }


class ClosedLoopProcess(ArrivalProcess):
    """A fixed client population with exponential think times.

    Open processes (Poisson, MMPP, …) submit regardless of how the service
    is doing; a closed loop models interactive users: each of ``num_clients``
    clients submits, "thinks" for an exponential ``think_time_s``, then
    submits again.  The merged stream therefore self-limits at
    ``num_clients / think_time_s`` jobs per second — the saturation regime
    multi-job schedulers must stay stable under.

    The loop is closed over the trace's own arrival clock (think time starts
    at the previous submission), which keeps trace generation independent of
    any engine — replaying the trace against a slow engine then models
    clients who fire-and-forget their next job.
    """

    name = "closed-loop"

    def __init__(self, num_clients: int = 8, think_time_s: float = 120.0) -> None:
        require_positive_int(num_clients, "num_clients")
        if think_time_s <= 0:
            raise CloudError("think_time_s must be positive")
        self.num_clients = num_clients
        self.think_time_s = think_time_s
        self._ready: List[float] = []

    def begin(self, rng: np.random.Generator) -> None:
        # Every client starts an independent think before its first job, so
        # the trace does not open with a synchronized thundering herd.
        self._ready = [float(rng.exponential(self.think_time_s)) for _ in range(self.num_clients)]
        heapq.heapify(self._ready)

    def next_gap(self, rng: np.random.Generator, clock: float, index: int) -> float:
        if not self._ready:  # begin() not called: single implicit client
            self._ready = [float(rng.exponential(self.think_time_s))]
        ready = heapq.heappop(self._ready)
        arrival = max(ready, clock)
        heapq.heappush(self._ready, arrival + float(rng.exponential(self.think_time_s)))
        return arrival - clock

    def describe(self) -> Dict[str, object]:
        return {
            "process": self.name,
            "num_clients": self.num_clients,
            "think_time_s": self.think_time_s,
        }


# --------------------------------------------------------------------------- #
# Trace generation
# --------------------------------------------------------------------------- #
def generate_requests(
    process: ArrivalProcess,
    *,
    num_jobs: int,
    num_users: int = 8,
    shots: int = 1024,
    suite: Optional[WorkloadSuite] = None,
    seed: SeedLike = None,
) -> List[JobRequest]:
    """Generate a reproducible arrival trace from any :class:`ArrivalProcess`.

    Per job, in this order (the draw sequence is part of the reproducibility
    contract): one gap from the process, one suite entry, one user.  Jobs are
    drawn from the suite's weighted mix and users are assigned uniformly at
    random.
    """
    require_positive_int(num_jobs, "num_jobs")
    require_positive_int(num_users, "num_users")
    require_positive_int(shots, "shots")
    rng = ensure_generator(seed)
    suite = suite if suite is not None else nisq_mix_suite()
    process.begin(rng)
    requests: List[JobRequest] = []
    clock = 0.0
    for index in range(num_jobs):
        clock += process.next_gap(rng, clock, index)
        entry = suite.sample(rng=rng)
        user = f"user-{int(rng.integers(0, num_users)):02d}"
        requests.append(
            JobRequest(
                index=index,
                arrival_time=clock,
                workload_key=entry.key,
                circuit=entry.circuit(),
                strategy=entry.strategy,
                fidelity_threshold=entry.fidelity_threshold,
                shots=shots,
                user=user,
            )
        )
    return requests


@dataclass(frozen=True)
class ArrivalSpec:
    """Parameters of a synthetic Poisson/diurnal arrival trace.

    The cloud simulator's callers configure traces through it; it is a thin
    shorthand for ``generate_requests(PoissonProcess(...), ...)``.
    """

    #: Mean arrival rate in jobs per hour.
    rate_per_hour: float = 60.0
    #: Number of jobs in the trace.
    num_jobs: int = 100
    #: Number of distinct users submitting jobs.
    num_users: int = 8
    #: Shots requested by every job.
    shots: int = 1024
    #: Relative amplitude of the diurnal modulation (0 disables it); the rate
    #: oscillates between ``rate * (1 - amplitude)`` and ``rate * (1 + amplitude)``
    #: over a 24-hour period.
    diurnal_amplitude: float = 0.0
    #: Workload suite jobs are drawn from; ``None`` uses the NISQ mix.
    suite: Optional[WorkloadSuite] = None

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise CloudError("rate_per_hour must be positive")
        require_positive_int(self.num_jobs, "num_jobs")
        require_positive_int(self.num_users, "num_users")
        require_positive_int(self.shots, "shots")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise CloudError("diurnal_amplitude must lie in [0, 1)")

    def workload_suite(self) -> WorkloadSuite:
        """The suite the trace samples from."""
        return self.suite if self.suite is not None else nisq_mix_suite()

    def process(self) -> PoissonProcess:
        """The arrival process this spec describes."""
        return PoissonProcess(self.rate_per_hour, self.diurnal_amplitude)


def generate_trace(spec: ArrivalSpec, seed: SeedLike = None) -> List[JobRequest]:
    """Generate a reproducible arrival trace from ``spec``.

    Inter-arrival gaps are exponential with the (possibly time-varying) rate
    evaluated at the previous arrival, jobs are drawn from the suite's
    weighted mix, and users are assigned uniformly at random.  Identical
    draw-for-draw to the cloud simulator's original trace generator.
    """
    return generate_requests(
        spec.process(),
        num_jobs=spec.num_jobs,
        num_users=spec.num_users,
        shots=spec.shots,
        suite=spec.workload_suite(),
        seed=seed,
    )


def trace_summary(requests: List[JobRequest]) -> Dict[str, object]:
    """Aggregate description of a trace (used by reports and logs)."""
    if not requests:
        return {"num_jobs": 0, "duration_s": 0.0, "workload_mix": {}, "num_users": 0}
    mix: Dict[str, int] = {}
    users = set()
    for request in requests:
        mix[request.workload_key] = mix.get(request.workload_key, 0) + 1
        users.add(request.user)
    return {
        "num_jobs": len(requests),
        "duration_s": requests[-1].arrival_time,
        "workload_mix": dict(sorted(mix.items())),
        "num_users": len(users),
    }
