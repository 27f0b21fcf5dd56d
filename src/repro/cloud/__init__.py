"""Quantum-cloud load simulation: queues, calibration drift and the simulator.

The paper motivates QRIO with the state of today's quantum cloud — thousands
of queued jobs, multi-day wait times and calibration data that drifts by 2-3x
between calibration cycles (Sections 1 and 2.2, citing the IISWC'21 cloud
characterisation study) — but its prototype schedules a single job at a time.
This subpackage supplies the missing substrate so the multi-job future-work
direction can be evaluated end to end:

* :mod:`repro.cloud.queueing` — per-device queues and a service-time model;
* :mod:`repro.cloud.calibration` — calibration-cycle drift models;
* :mod:`repro.cloud.simulation` — the discrete-event simulator tying the
  pieces together.

Arrival traces come from :mod:`repro.scenarios.arrivals`, wait/fairness
metrics from :mod:`repro.scenarios.metrics`, and every routing decision from
a :class:`~repro.policies.PlacementPolicy` (random through queue-aware
fidelity scheduling, by registry name via :func:`~repro.policies.resolve_policy`).
"""

from repro.cloud.calibration import CalibrationDriftModel, drift_fleet, drift_history
from repro.scenarios.arrivals import ArrivalSpec, JobRequest, generate_trace, trace_summary
from repro.scenarios.metrics import jain_fairness_index, summarise_waits, wait_fairness
from repro.cloud.queueing import DeviceQueue, ExecutionTimeModel, QueueSlot, build_queues
from repro.cloud.simulation import (
    CloudSession,
    CloudSimulationConfig,
    CloudSimulationResult,
    CloudSimulator,
    JobRecord,
    compare_policies,
    render_policy_comparison,
)

__all__ = [
    "ArrivalSpec",
    "CalibrationDriftModel",
    "CloudSession",
    "CloudSimulationConfig",
    "CloudSimulationResult",
    "CloudSimulator",
    "DeviceQueue",
    "ExecutionTimeModel",
    "JobRecord",
    "JobRequest",
    "QueueSlot",
    "build_queues",
    "compare_policies",
    "drift_fleet",
    "drift_history",
    "generate_trace",
    "jain_fairness_index",
    "render_policy_comparison",
    "summarise_waits",
    "trace_summary",
    "wait_fairness",
]
