"""The policy × engine sweep harness.

One call — :func:`run_sweep` — answers the operator question the unified
service, runtime and policy registry were built toward: *given these
workload scenarios, which placement policy on which engine gives the best
wait/fidelity/fairness trade-off?*  Each scenario is frozen into **one**
trace that every (engine, policy) cell replays, so differences between rows
are attributable to the configuration, never to workload noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.backends.backend import Backend
from repro.scenarios.catalog import build_scenario_trace
from repro.scenarios.resilience import RESILIENCE_ROW_KEYS
from repro.scenarios.runner import TENANT_ROW_KEYS, ScenarioReport, ScenarioRunner, _json_safe_row, policy_label
from repro.scenarios.trace import Trace
from repro.utils.exceptions import ScenarioError
from repro.utils.rng import SeedLike
from repro.workloads.metrics import render_metric_table

#: Columns of the sweep comparison table, in display order.
SWEEP_COLUMNS = [
    "scenario",
    "engine",
    "policy",
    "jobs",
    "failed",
    "p50_wait_s",
    "p95_wait_s",
    "p99_wait_s",
    "makespan_s",
    "mean_fidelity",
    "fairness",
]

#: Extra columns appended when any swept scenario carries fault events —
#: the "which policy degrades gracefully" view of a resilience sweep.
RESILIENCE_COLUMNS = list(RESILIENCE_ROW_KEYS)

#: Extra columns appended when any cell replayed tenant-aware — the
#: "who starved whom" view of a multi-tenant sweep.
TENANT_COLUMNS = list(TENANT_ROW_KEYS)


@dataclass(frozen=True)
class SweepResult:
    """Every cell of one scenario × engine × policy grid."""

    reports: Tuple[ScenarioReport, ...]

    def rows(self) -> List[Dict[str, object]]:
        """One flat dict per cell (table/JSON source)."""
        return [report.row() for report in self.reports]

    def report(
        self, scenario: str, engine: str, policy: Optional[str] = None
    ) -> ScenarioReport:
        """The cell for one (scenario, engine, policy) combination.

        Raises:
            ScenarioError: No such cell in this sweep.
        """
        wanted_policy = policy_label(policy)
        for report in self.reports:
            have_policy = policy_label(report.policy)
            if (
                report.scenario == scenario
                and report.engine == engine
                and have_policy == wanted_policy
            ):
                return report
        raise ScenarioError(
            f"Sweep has no cell (scenario={scenario!r}, engine={engine!r}, policy={wanted_policy!r})"
        )

    def to_json(self) -> str:
        """All rows as one strict-JSON array (CLI ``scenarios sweep --json``)."""
        return json.dumps([_json_safe_row(row) for row in self.rows()], sort_keys=True)


def run_sweep(
    fleet: Sequence[Backend],
    scenarios: Sequence[Union[str, Trace]],
    *,
    engines: Sequence[str] = ("orchestrator", "cloud"),
    policies: Sequence[Optional[object]] = (None,),
    workers: int = 0,
    seed: SeedLike = None,
    num_jobs: Optional[int] = None,
    fidelity_report: str = "esp",
    canary_shots: int = 128,
    slo_wait_s: float = 600.0,
    tenant_aware: bool = False,
) -> SweepResult:
    """Replay every scenario through every engine × policy cell.

    Args:
        fleet: Devices every cell schedules onto.
        scenarios: Catalogue names (frozen once per sweep with ``seed``) or
            pre-built :class:`~repro.scenarios.Trace` objects.
        engines: Engine names from :data:`repro.scenarios.runner.ENGINE_NAMES`.
        policies: Placement-policy specs per cell; ``None`` means each
            engine's native path.
        workers: Service worker-pool size shared by every cell.
        seed: Base seed for trace freezing and engine seeding.
        num_jobs: Optional trace-length override for catalogue scenarios.
        fidelity_report: Cloud engine's fidelity mode.
        canary_shots: Canary shots of the orchestrator engine.
        slo_wait_s: Wait-time SLO of the resilience metrics computed for
            fault-augmented scenario cells.
        tenant_aware: Replay every cell tenant-aware (trace users become
            :class:`~repro.tenancy.Tenant` identities; see
            :class:`~repro.scenarios.ScenarioRunner`), appending the
            per-tenant columns to the comparison table.

    Returns:
        A :class:`SweepResult` with one report per cell, ordered scenario ×
        engine × policy.

    Raises:
        ScenarioError: Empty scenario/engine/policy axes or unknown names.
    """
    if not scenarios:
        raise ScenarioError("run_sweep needs at least one scenario")
    if not engines:
        raise ScenarioError("run_sweep needs at least one engine")
    if not policies:
        raise ScenarioError("run_sweep needs at least one policy (None = native)")
    traces: List[Trace] = []
    for item in scenarios:
        if isinstance(item, Trace):
            traces.append(item)
        else:
            traces.append(build_scenario_trace(item, seed=seed, num_jobs=num_jobs))
    reports: List[ScenarioReport] = []
    for trace in traces:
        for engine in engines:
            for policy in policies:
                runner = ScenarioRunner(
                    list(fleet),
                    engine=engine,
                    policy=policy,
                    workers=workers,
                    seed=seed,
                    fidelity_report=fidelity_report,
                    canary_shots=canary_shots,
                    slo_wait_s=slo_wait_s,
                    tenant_aware=tenant_aware,
                )
                reports.append(runner.replay(trace))
    return SweepResult(reports=tuple(reports))


def render_sweep(result: SweepResult, title: str = "Scenario sweep") -> str:
    """Fixed-width comparison table over every sweep cell.

    Resilience columns are appended when any cell replayed a fault-augmented
    trace (fault-free cells leave those cells blank).
    """
    columns = list(SWEEP_COLUMNS)
    if any(report.resilience is not None for report in result.reports):
        columns += RESILIENCE_COLUMNS
    if any(report.tenant_waits is not None for report in result.reports):
        columns += TENANT_COLUMNS
    return render_metric_table(result.rows(), columns, title)
