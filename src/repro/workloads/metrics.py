"""Engine-neutral wait-time, fairness and utilisation metrics.

These once lived inside the cloud package and could only describe the
discrete-event cloud simulator.  The workloads package holds them, below the
cloud simulator, the service and the scenarios that all read them, so the
same summary vocabulary — wait percentiles, makespan, Jain
fairness, per-device load shares — describes a run of *any* engine: the
cloud simulator's logical-clock records, the concurrent service runtime's
wall-clock drains, and the :class:`~repro.scenarios.ScenarioReport` rows a
policy×engine sweep emits.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.exceptions import CloudError

#: The percentiles every wait summary reports.  Cloud measurement studies
#: characterise queueing by its tail, so the p95/p99 columns matter as much
#: as the mean — a policy that halves the mean while tripling p99 is a
#: regression for the unlucky users.
WAIT_PERCENTILES = (50, 95, 99)


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-user allocations.

    Ranges from ``1/n`` (one user gets everything) to ``1.0`` (perfectly even).
    Conventionally computed over *throughput*-like quantities, so callers
    should pass something where "more is better" (e.g. inverse mean wait).
    """
    values = [float(value) for value in values]
    if not values:
        raise CloudError("jain_fairness_index needs at least one value")
    if any(value < 0 for value in values):
        raise CloudError("jain_fairness_index values must be non-negative")
    total = sum(values)
    if total == 0.0:
        return 1.0
    squares = sum(value * value for value in values)
    return (total * total) / (len(values) * squares)


def summarise_waits(waits: Sequence[float]) -> Dict[str, float]:
    """Mean / median / p50 / p95 / p99 / max of a collection of wait times.

    ``median`` and ``p50`` are aliases: ``median`` is the historical key the
    cloud simulator reported, ``p50`` lines up with the other percentile
    columns so tables can iterate :data:`WAIT_PERCENTILES` uniformly.
    """
    if not waits:
        empty = {"mean": 0.0, "median": 0.0, "max": 0.0}
        empty.update({f"p{percentile}": 0.0 for percentile in WAIT_PERCENTILES})
        return empty
    array = np.asarray(list(waits), dtype=float)
    summary = {
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "max": float(array.max()),
    }
    for percentile in WAIT_PERCENTILES:
        summary[f"p{percentile}"] = float(np.percentile(array, percentile))
    return summary


def wall_wait_report(
    jobs: Iterable[Tuple[str, Sequence]],
    wait_of: Callable[[Sequence], Optional[float]],
) -> Dict[str, object]:
    """Wall-clock wait/makespan report over ``(tenant id, event history)`` pairs.

    The one builder behind ``QRIOService.wait_report`` and
    ``ShardedService.wait_report``.  Events carry a ``timestamp`` and a
    ``state`` with a ``terminal`` flag; ``wait_of`` maps a history to its
    QUEUED→RUNNING wait, or ``None`` for a job that never ran (it then adds
    no wait sample).  The service passes its own definition in, so this
    module needs no service import.  The makespan spans the first QUEUED
    event to the last terminal one; waits are summarised per tenant and
    overall with :func:`summarise_waits`.
    """
    jobs = list(jobs)
    waits: List[float] = []
    tenant_waits: Dict[str, List[float]] = {}
    first_queued: Optional[float] = None
    last_terminal: Optional[float] = None
    finished = 0
    for tenant, events in jobs:
        if not events:
            continue
        queued_at = events[0].timestamp
        first_queued = queued_at if first_queued is None else min(first_queued, queued_at)
        wait = wait_of(events)
        if wait is not None:
            waits.append(wait)
            tenant_waits.setdefault(tenant, []).append(wait)
        if events[-1].state.terminal:
            finished += 1
            ended_at = events[-1].timestamp
            last_terminal = ended_at if last_terminal is None else max(last_terminal, ended_at)
    makespan_s = 0.0
    if first_queued is not None and last_terminal is not None:
        makespan_s = max(0.0, last_terminal - first_queued)
    return {
        "jobs": len(jobs),
        "finished": finished,
        "waits": summarise_waits(waits),
        "makespan_s": makespan_s,
        "clock": "wall",
        "tenants": {
            tenant: summarise_waits(samples) for tenant, samples in sorted(tenant_waits.items())
        },
    }


def makespan(finish_times: Sequence[float], start_times: Sequence[float] = ()) -> float:
    """Completion time of the last job, optionally relative to the first start.

    With only ``finish_times`` this is the simulated-clock makespan (the
    cloud simulator starts at t=0); passing ``start_times`` as well gives the
    wall-clock span of a service-runtime drain, where the origin is the first
    submission rather than zero.
    """
    if not finish_times:
        return 0.0
    end = max(float(value) for value in finish_times)
    origin = min((float(value) for value in start_times), default=0.0)
    return max(0.0, end - origin)


def per_user_mean_waits(waits_by_user: Mapping[str, Sequence[float]]) -> Dict[str, float]:
    """Mean wait per user (the input to the fairness index)."""
    return {
        user: (float(np.mean(list(values))) if len(list(values)) else 0.0)
        for user, values in waits_by_user.items()
    }


def wait_fairness(waits_by_user: Mapping[str, Sequence[float]]) -> float:
    """Jain fairness over users' inverse mean waits (higher is fairer)."""
    means = per_user_mean_waits(waits_by_user)
    if not means:
        return 1.0
    inverse = [1.0 / (mean + 1.0) for mean in means.values()]
    return jain_fairness_index(inverse)


def render_metric_table(rows: List[Dict[str, object]], columns: List[str], title: str) -> str:
    """Fixed-width text table used by the policy-comparison and sweep reports."""
    header = " ".join(f"{column:>18}" for column in columns)
    lines = [title, header, "-" * len(header)]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4f}")
            else:
                cells.append(f"{str(value):>18}")
        lines.append(" ".join(cells))
    return "\n".join(lines)
