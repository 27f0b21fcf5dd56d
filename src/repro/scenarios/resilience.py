"""Resilience metrics: how gracefully did a replay degrade under faults?

Pure functions over a replay's per-job outcomes and the trace's fault-event
stream — no service state, so the same numbers are computable from a saved
report.  The vocabulary (pinned by hand-computed fixtures in
``tests/scenarios/test_resilience.py``):

* **p99 wait during outages** — p99 of the waits of jobs that *arrived*
  inside any :class:`~repro.scenarios.DeviceOutage` window (the jobs that had
  to be absorbed by the degraded fleet).
* **recovery time** — per outage window, the gap between the window's end
  and the arrival of the first job at/after it that succeeded within the
  SLO; the reported ``recovery_s`` is the worst window.  ``inf`` means the
  fleet never got back under the SLO before the trace ended.
* **SLO violations** — jobs that failed, plus jobs that succeeded but waited
  longer than ``slo_wait_s``.
* **failed vs rerouted** — of the jobs arriving during outage windows, how
  many failed outright vs were served by the remaining devices.

Percentiles use :func:`numpy.percentile` with its default linear
interpolation, matching :func:`repro.workloads.metrics.summarise_waits`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.scenarios.events import DeviceOutage, StragglerSlowdown, TenantBurst

#: Resilience keys merged into a report's flat row (stable, table-friendly).
RESILIENCE_ROW_KEYS = (
    "slo_violations",
    "jobs_failed",
    "jobs_rerouted",
    "p99_outage_wait_s",
    "recovery_s",
)


def outage_windows(events: Iterable) -> List[Tuple[float, float, str]]:
    """``(start_s, end_s, device)`` per outage event, in time order."""
    windows = [
        (event.time_s, event.end_s, event.device)
        for event in events
        if isinstance(event, DeviceOutage)
    ]
    return sorted(windows)


def _in_any_window(arrival: float, windows: Sequence[Tuple[float, float, str]]) -> bool:
    return any(start <= arrival < end for start, end, _ in windows)


def resilience_summary(
    outcomes: Sequence,
    events: Iterable,
    *,
    slo_wait_s: float,
) -> Dict[str, object]:
    """Aggregate the resilience metrics of one replay.

    ``outcomes`` rows need ``arrival_s``, ``wait_s``, ``succeeded`` (the
    shape of :class:`~repro.scenarios.JobOutcome`); ``events`` is the trace's
    fault-event stream.  Jobs without an arrival stamp are excluded from the
    window-relative metrics but still count toward failures and violations.
    """
    events = list(events)
    windows = outage_windows(events)
    jobs_failed = sum(1 for outcome in outcomes if not outcome.succeeded)
    slo_violations = jobs_failed + sum(
        1
        for outcome in outcomes
        if outcome.succeeded and outcome.wait_s is not None and outcome.wait_s > slo_wait_s
    )
    in_outage = [
        outcome
        for outcome in outcomes
        if outcome.arrival_s is not None and _in_any_window(outcome.arrival_s, windows)
    ]
    outage_waits = [
        outcome.wait_s for outcome in in_outage if outcome.succeeded and outcome.wait_s is not None
    ]
    p99_outage = float(np.percentile(np.asarray(outage_waits, dtype=float), 99)) if outage_waits else 0.0
    recovery = 0.0
    for start, end, _ in windows:
        after = sorted(
            (outcome for outcome in outcomes if outcome.arrival_s is not None and outcome.arrival_s >= end),
            key=lambda outcome: outcome.arrival_s,
        )
        window_recovery = float("inf")
        for outcome in after:
            if outcome.succeeded and outcome.wait_s is not None and outcome.wait_s <= slo_wait_s:
                window_recovery = outcome.arrival_s - end
                break
        recovery = max(recovery, window_recovery)
    return {
        "slo_wait_s": float(slo_wait_s),
        "events": len(events),
        "outages": len(windows),
        "stragglers": sum(1 for event in events if isinstance(event, StragglerSlowdown)),
        "tenant_bursts": sum(1 for event in events if isinstance(event, TenantBurst)),
        "jobs_during_outage": len(in_outage),
        "jobs_failed": jobs_failed,
        "jobs_rerouted": sum(1 for outcome in in_outage if outcome.succeeded),
        "slo_violations": slo_violations,
        "p99_outage_wait_s": p99_outage,
        "recovery_s": recovery,
    }
