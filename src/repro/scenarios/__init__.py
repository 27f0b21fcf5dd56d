"""Engine-neutral scenarios: portable traces, replays, faults and sweeps.

The source paper is a workload-characterisation study, yet until this
subsystem existed the repo's workload machinery was trapped inside the cloud
simulator.  ``repro.scenarios`` is the missing layer:

* :mod:`repro.scenarios.trace` — the versioned JSONL :class:`Trace` format
  (``save``/:func:`load_trace`), plus :class:`TraceRecorder` for capturing
  live :class:`~repro.service.QRIOService` runs;
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`, replaying any
  trace against any engine × policy × workers configuration into a unified
  :class:`ScenarioReport` (wait percentiles, makespan, utilisation,
  fidelity, Jain fairness);
* :mod:`repro.scenarios.events` — the typed, versioned fault-event layer
  (device outages, calibration jumps, queue storms, stragglers, tenant
  bursts) and the :class:`FaultInjector` that replays an event stream
  deterministically through any engine;
* :mod:`repro.scenarios.resilience` — resilience metrics of fault-augmented
  replays (p99 wait during outages, recovery time, SLO violations);
* :mod:`repro.scenarios.catalog` — named, reproducible scenario specs,
  including fault-augmented hostile-world entries;
* :mod:`repro.scenarios.sweep` — the policy × engine sweep harness.

The arrival processes and the metric vocabulary live lower, in
:mod:`repro.workloads.arrivals` (the pluggable :class:`ArrivalProcess`
protocol — Poisson/diurnal, MMPP bursts, Pareto heavy tails, flash crowds,
closed client loops — feeding :func:`generate_requests`) and
:mod:`repro.workloads.metrics` (wait percentiles, makespan, Jain fairness),
where the cloud simulator and the service read them; this package
re-exports them.
"""

from repro.scenarios.catalog import (
    ScenarioSpec,
    available_scenarios,
    build_scenario_trace,
    register_scenario,
    scenario,
    unregister_scenario,
)
from repro.scenarios.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    CalibrationJump,
    DeviceOutage,
    FaultInjector,
    QueueStorm,
    StragglerSlowdown,
    TenantBurst,
    apply_workload_events,
    event_to_payload,
    normalise_events,
    parse_event,
    tenants_from_events,
)
from repro.scenarios.resilience import (
    RESILIENCE_ROW_KEYS,
    outage_windows,
    resilience_summary,
)
from repro.scenarios.runner import (
    ENGINE_NAMES,
    NATIVE_POLICY,
    TENANT_ROW_KEYS,
    JobOutcome,
    ScenarioReport,
    ScenarioRunner,
    policy_label,
)
from repro.scenarios.sweep import (
    RESILIENCE_COLUMNS,
    SWEEP_COLUMNS,
    TENANT_COLUMNS,
    SweepResult,
    render_sweep,
    run_sweep,
)
from repro.scenarios.trace import (
    READABLE_TRACE_VERSIONS,
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceRecorder,
    load_trace,
    record,
)
from repro.utils.exceptions import ScenarioError
from repro.workloads.arrivals import (
    ArrivalProcess,
    ArrivalSpec,
    ClosedLoopProcess,
    FlashCrowdProcess,
    JobRequest,
    MMPPProcess,
    ParetoProcess,
    PoissonProcess,
    generate_requests,
    generate_trace,
    trace_summary,
)
from repro.workloads.metrics import (
    WAIT_PERCENTILES,
    jain_fairness_index,
    makespan,
    per_user_mean_waits,
    render_metric_table,
    summarise_waits,
    wait_fairness,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "CalibrationJump",
    "ClosedLoopProcess",
    "DeviceOutage",
    "ENGINE_NAMES",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "FaultInjector",
    "FlashCrowdProcess",
    "JobOutcome",
    "JobRequest",
    "MMPPProcess",
    "NATIVE_POLICY",
    "ParetoProcess",
    "PoissonProcess",
    "QueueStorm",
    "READABLE_TRACE_VERSIONS",
    "RESILIENCE_COLUMNS",
    "RESILIENCE_ROW_KEYS",
    "SWEEP_COLUMNS",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "StragglerSlowdown",
    "SweepResult",
    "TENANT_COLUMNS",
    "TENANT_ROW_KEYS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TenantBurst",
    "Trace",
    "TraceRecorder",
    "WAIT_PERCENTILES",
    "apply_workload_events",
    "available_scenarios",
    "build_scenario_trace",
    "event_to_payload",
    "generate_requests",
    "generate_trace",
    "jain_fairness_index",
    "load_trace",
    "makespan",
    "normalise_events",
    "outage_windows",
    "parse_event",
    "per_user_mean_waits",
    "policy_label",
    "record",
    "register_scenario",
    "render_metric_table",
    "render_sweep",
    "resilience_summary",
    "run_sweep",
    "scenario",
    "summarise_waits",
    "tenants_from_events",
    "trace_summary",
    "unregister_scenario",
    "wait_fairness",
]
