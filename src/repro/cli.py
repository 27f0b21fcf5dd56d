"""Command-line interface for the QRIO reproduction.

The CLI exposes the pieces a new user typically wants without writing Python:

* ``repro-qrio demo`` — run the end-to-end quickstart (register a fleet,
  submit a GHZ job with a fidelity requirement, print the dashboard views);
* ``repro-qrio fleet`` — generate the Table 2 fleet and print its summary;
* ``repro-qrio experiment fig6|fig7|fig8_9|fig10|tables`` — regenerate one of
  the paper's tables/figures and print the same rows the paper reports;
* ``repro-qrio extension cloud-policies|calibration-drift|scalable-matching``
  — run one of the future-work extension experiments;
* ``repro-qrio policies [--json]`` — list the registered placement policies
  (the unified ``repro.policies`` registry) with their tunable parameters;
* ``repro-qrio scenarios list|run|replay|sweep`` — the scenario subsystem:
  list the named workload scenarios (``--json`` for scripts), replay one
  against any engine × policy × workers configuration (``run``; ``--record``
  saves the generated trace as a portable JSONL file), replay a previously
  recorded trace file (``replay``), or run the policy × engine grid over
  named scenarios and print the comparison table (``sweep``);
* ``repro-qrio analyze [--json] [--write-baseline]`` — run the invariant
  analyzer (determinism/concurrency/serialization lint rules of
  :mod:`repro.analysis`) over the source tree and exit non-zero on any
  finding not recorded in the committed baseline;
* ``repro-qrio cache-stats [--json]`` — run a small warm/cold workload
  through the concurrent service and print the process-wide cache hit/miss
  counters (the :meth:`~repro.service.QRIOService.cache_stats` view),
  including the ``plan`` counters of every engine's plan store;
* ``repro-qrio tenants [--json]`` — run a small multi-tenant demo through
  the admission-controlled service and print every tenant's declared
  quotas, live queue depth and admission state (the
  :meth:`~repro.service.QRIOService.tenants_report` view);
* ``repro-qrio submit <circuit.qasm>`` — schedule a QASM file against a
  generated fleet with either a fidelity or a topology requirement, routed
  through the unified job service (``--engine`` picks the execution engine —
  orchestrator or cloud simulator; ``--policy`` picks the
  placement policy by registry name, optionally parameterized, and runs
  under *any* engine; ``--explain`` prints the per-device score/filter
  breakdown; ``--fidelity-report`` controls the cloud engine's fidelity
  mode; ``--workers N`` runs the job through the concurrent service
  runtime; ``--tenant NAME`` submits under a named tenant identity and
  ``--shards N`` dispatches through the process-sharded
  :class:`~repro.service.ShardedService`, routing the job to its shard by
  consistent tenant hash); the job's lifecycle transitions are printed as
  they are recorded.

Every command accepts ``--seed`` and the experiment commands accept
``--scale quick|default|paper`` mirroring the benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis import Baseline, analyze_tree
from repro.backends import generate_fleet
from repro.circuits import ghz, random_clifford_circuit
from repro.cloud.simulation import CloudSimulationConfig
from repro.core import QRIO
from repro.experiments import (
    ExperimentConfig,
    default_config,
    paper_scale_config,
    quick_config,
    render_calibration_drift,
    render_cloud_policy_comparison,
    render_fig10,
    render_fig6,
    render_fig7,
    render_fig8_9,
    render_rows,
    render_scalable_matching,
    run_calibration_drift,
    run_cloud_policy_comparison,
    run_fig10,
    run_fig6,
    run_fig7,
    run_fig8_9,
    run_scalable_matching,
    table1_rows,
    table2_rows,
)
from repro.policies import default_registry, resolve_policy
from repro.qasm import load_qasm_file
from repro.scenarios import (
    NATIVE_POLICY,
    RESILIENCE_COLUMNS,
    SWEEP_COLUMNS,
    TENANT_COLUMNS,
    ScenarioRunner,
    available_scenarios,
    build_scenario_trace,
    load_trace,
    record,
    render_metric_table,
    render_sweep,
    run_sweep,
    scenario,
)
from repro.service import CloudEngine, EngineSpec, JobRequirements, QRIOService, ShardedService
from repro.tenancy import AdmissionController, Tenant
from repro.utils.cache import clear_all_caches
from repro.utils.exceptions import AdmissionRejectedError, ReproError
from repro.utils.rng import DEFAULT_SEED


def _config_for_scale(scale: str, seed: int) -> ExperimentConfig:
    if scale == "quick":
        base = quick_config()
    elif scale == "paper":
        base = paper_scale_config()
    else:
        base = default_config()
    return ExperimentConfig(
        fleet_limit=base.fleet_limit,
        fig6_repetitions=base.fig6_repetitions,
        fig8_repetitions=base.fig8_repetitions,
        shots=base.shots,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_demo(args: argparse.Namespace) -> int:
    qrio = QRIO(cluster_name="cli-demo", canary_shots=256, seed=args.seed)
    qrio.register_devices(generate_fleet(limit=args.devices, seed=args.seed))
    print(qrio.render_dashboard())
    print()
    submitted = qrio.submit_fidelity_job(ghz(4), fidelity_threshold=0.9, job_name="cli-demo-job", shots=512)
    outcome = qrio.run_job(submitted.job.name)
    print(qrio.render_job("cli-demo-job"))
    print()
    print(f"Chosen device: {outcome.device} (score {outcome.score:.4f}, "
          f"{outcome.num_filtered} devices passed filtering)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    print(render_rows("Table 2 — Controllable Backend Parameters", table2_rows()))
    print()
    print(f"{'DEVICE':<18s} {'QUBITS':>6s} {'EDGES':>6s} {'AVG 2Q ERR':>11s} {'AVG RO ERR':>11s}")
    for backend in fleet:
        properties = backend.properties
        print(
            f"{backend.name:<18s} {properties.num_qubits:>6d} {len(properties.coupling_map):>6d} "
            f"{properties.average_two_qubit_error():>11.4f} {properties.average_readout_error():>11.4f}"
        )
    print(f"\n{len(fleet)} devices generated (seed {args.seed}).")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _config_for_scale(args.scale, args.seed)
    name = args.figure
    if name == "tables":
        print(render_rows("Table 1 — Details sent to QRIO Meta Server", table1_rows(),
                          key_header="User Chosen Option", value_header="Details sent"))
        print()
        print(render_rows("Table 2 — Controllable Backend Parameters", table2_rows()))
        return 0
    fleet = config.build_fleet()
    if name == "fig6":
        print(render_fig6(run_fig6(config, fleet=fleet)))
    elif name == "fig7":
        print(render_fig7(run_fig7(config, fleet=fleet)))
    elif name == "fig8_9":
        print(render_fig8_9(run_fig8_9(config)))
    elif name == "fig10":
        print(render_fig10(run_fig10(config, fleet=fleet)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"Unknown experiment '{name}'")
    return 0


def _cmd_extension(args: argparse.Namespace) -> int:
    config = _config_for_scale(args.scale, args.seed)
    name = args.experiment
    if name == "cloud-policies":
        result = run_cloud_policy_comparison(config, num_jobs=args.jobs, num_devices=args.devices)
        print(render_cloud_policy_comparison(result))
    elif name == "calibration-drift":
        print(render_calibration_drift(run_calibration_drift(config, num_cycles=args.cycles)))
    elif name == "scalable-matching":
        print(render_scalable_matching(run_scalable_matching(config)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"Unknown extension experiment '{name}'")
    return 0


def _submit_engine(args: argparse.Namespace) -> str:
    """The ``submit`` engine: ``--engine``, else ``qrio`` without a policy and ``cloud`` with one."""
    if args.engine is not None:
        return args.engine
    return "qrio" if args.policy is None else "cloud"


def _service_for_submit(args: argparse.Namespace):
    """Build the (service, qrio-or-None, policy-or-None) triple for submit."""
    policy = args.policy
    if policy is not None:
        # Fail fast (and with a did-you-mean) before any fleet is generated.
        resolve_policy(policy, seed=args.seed)
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    if _submit_engine(args) == "qrio":
        qrio = QRIO(cluster_name="cli-submit", canary_shots=args.shots, seed=args.seed)
        qrio.register_devices(fleet)
        return qrio.service(workers=args.workers), qrio, policy
    engine = CloudEngine(
        policy=policy,
        config=CloudSimulationConfig(
            fidelity_report=args.fidelity_report,
            execution_shots=args.shots,
            seed=args.seed,
        ),
    )
    # The cloud engine resolves the policy itself (engine-level), so the
    # per-job requirements need not repeat it.
    return QRIOService(fleet, engine, workers=args.workers), None, None


def _cmd_policies(args: argparse.Namespace) -> int:
    """List every registered placement policy with its tunable parameters."""
    if args.json:
        payload = [
            {
                "name": entry.name,
                "description": entry.description,
                "parameters": {key: value for key, value in entry.parameters},
            }
            for entry in default_registry.entries()
        ]
        print(json.dumps(payload, indent=2, sort_keys=True, default=repr))
        return 0
    print("Registered placement policies (submit --policy NAME or NAME:key=value,...):")
    for entry in default_registry.entries():
        print(f"  {entry.name:<20s} {entry.description}")
        if entry.parameters:
            print(f"  {'':<20s}   parameters: {entry.signature()}")
    print(
        "\nAny engine (--engine qrio|cloud) can run any of these; "
        "add --explain to submit to see the per-device breakdown."
    )
    return 0


# --------------------------------------------------------------------------- #
# Scenario subcommands
# --------------------------------------------------------------------------- #
def _print_scenario_report(report, as_json: bool) -> None:
    if as_json:
        print(report.to_json())
        return
    columns = list(SWEEP_COLUMNS)
    if report.resilience is not None:
        columns += RESILIENCE_COLUMNS
    if report.tenant_waits is not None:
        columns += TENANT_COLUMNS
    print(
        render_metric_table(
            [report.row()],
            columns,
            title=f"Scenario '{report.scenario}' ({report.wait_clock}-clock waits)",
        )
    )
    print("\nJobs per device:", ", ".join(f"{d}={n}" for d, n in report.jobs_per_device.items()))
    if report.device_utilisation:
        print(
            "Device utilisation:",
            ", ".join(f"{d}={u:.2f}" for d, u in report.device_utilisation.items()),
        )
    if report.resilience is not None:
        print(
            f"Resilience (SLO {report.resilience['slo_wait_s']:.0f}s waits): "
            f"{report.resilience['events']} events, "
            f"{report.resilience['jobs_during_outage']} jobs during outages, "
            f"{report.resilience['slo_violations']} SLO violations"
        )
    if report.tenant_waits:
        print(
            "Per-tenant waits:",
            ", ".join(
                f"{tenant} p99={summary['p99']:.2f}s"
                for tenant, summary in report.tenant_waits.items()
            ),
        )


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    rows = [scenario(name).describe() for name in available_scenarios()]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print("Named workload scenarios (scenarios run NAME, scenarios sweep --scenarios a,b):")
    for row in rows:
        print(f"  {row['name']:<16s} {row['description']}")
        print(
            f"  {'':<16s}   process={row['process']}  jobs={row['num_jobs']}  "
            f"users={row['num_users']}  suite={row['suite']}"
        )
        if row["num_events"]:
            print(
                f"  {'':<16s}   faults: {row['num_events']} events "
                f"({', '.join(row['event_kinds'])})"
            )
    return 0


def _scenario_runner(args: argparse.Namespace, fleet):
    return ScenarioRunner(
        fleet,
        engine=args.engine,
        policy=args.policy,
        workers=args.workers,
        seed=args.seed,
        fidelity_report=args.fidelity_report,
        canary_shots=args.canary_shots,
        slo_wait_s=args.slo_wait_s,
        tenant_aware=args.tenant_aware,
    )


def _scenario_errors(handler):
    """Print library errors as ``error: ...`` + exit 2, like ``submit`` does."""
    def wrapped(args: argparse.Namespace) -> int:
        try:
            return handler(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return wrapped


@_scenario_errors
def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    trace = build_scenario_trace(args.name, seed=args.seed, num_jobs=args.jobs)
    if args.no_faults:
        trace = trace.without_events()
    if args.record:
        path = record(trace, args.record)
        print(f"Trace '{trace.name}' ({len(trace)} jobs) recorded to {path}", file=sys.stderr)
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    report = _scenario_runner(args, fleet).replay(trace)
    _print_scenario_report(report, args.json)
    return 0


@_scenario_errors
def _cmd_scenarios_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    if args.no_faults:
        trace = trace.without_events()
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    report = _scenario_runner(args, fleet).replay(trace)
    _print_scenario_report(report, args.json)
    return 0


@_scenario_errors
def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    scenarios = args.scenarios.split(",") if args.scenarios else available_scenarios()
    engines = args.engines.split(",")
    policies: List[Optional[str]] = [
        None if name in (NATIVE_POLICY, "") else name for name in args.policies.split(",")
    ]
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    result = run_sweep(
        fleet,
        scenarios,
        engines=engines,
        policies=policies,
        workers=args.workers,
        seed=args.seed,
        num_jobs=args.jobs,
        fidelity_report=args.fidelity_report,
        canary_shots=args.canary_shots,
        slo_wait_s=args.slo_wait_s,
        tenant_aware=args.tenant_aware,
    )
    if args.json:
        print(result.to_json())
    else:
        print(render_sweep(result, title=f"Scenario sweep ({len(result.reports)} cells)"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run the invariant analyzer; exit 1 on non-baselined findings."""
    from pathlib import Path

    root = Path(args.root) if args.root else None
    baseline_path = Path(args.baseline) if args.baseline else None
    report = analyze_tree(root, baseline_path=baseline_path)
    new, baselined = report["new"], report["baselined"]
    if args.write_baseline:
        Baseline.from_findings(list(new) + list(baselined)).save(Path(report["baseline_path"]))
        print(f"baseline written to {report['baseline_path']} ({len(new) + len(baselined)} findings)")
        return 0
    if args.json:
        payload = {
            "root": str(report["root"]),
            "baseline": str(report["baseline_path"]),
            "new": [finding.as_dict() for finding in new],
            "baselined": [finding.as_dict() for finding in baselined],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(str(finding))
        print(f"{len(new)} new finding(s); {len(baselined)} baselined")
    return 1 if new else 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """Run a small warm/cold workload and print the process-wide cache counters."""
    clear_all_caches()
    fleet = [b for b in generate_fleet(limit=12, seed=args.seed) if b.num_qubits >= 20][:3]
    circuits = [
        random_clifford_circuit(14, 8, seed=args.seed + i, measure=True, name=f"cache-demo-{i}")
        for i in range(6)
    ]
    with QRIOService(fleet, seed=args.seed, workers=2) as service:
        # Cold pass compiles plans; warm pass replays them.
        for round_index in range(2):
            for index, circuit in enumerate(circuits):
                service.submit(circuit, shots=256, name=f"demo-{round_index}-{index}")
            service.process()
        stats = service.cache_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{'cache':<20} {'hits':>8} {'misses':>8} {'evictions':>10} {'hit_rate':>9}")
    for name, row in sorted(stats.items()):
        print(
            f"{name:<20} {int(row['hits']):>8} {int(row['misses']):>8} "
            f"{int(row['evictions']):>10} {row['hit_rate']:>9.2f}"
        )
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    """Run a small multi-tenant demo and list per-tenant quotas + admission state."""
    tenants = (
        Tenant(id="alpha", weight=3.0),
        Tenant(id="bravo", weight=1.0),
        Tenant(id="carol", weight=1.0, max_pending=max(1, args.jobs // 2)),
    )
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    engine = CloudEngine(
        config=CloudSimulationConfig(
            fidelity_report="none", execution_shots=256, seed=args.seed
        )
    )
    admission = AdmissionController(slo_wait_s=args.slo_wait_s)
    service = QRIOService(fleet, engine, workers=args.workers, admission=admission)
    rejected: dict = {}
    try:
        for tenant in tenants:
            requirements = JobRequirements(tenant=tenant)
            for index in range(args.jobs):
                try:
                    service.submit(
                        ghz(3), requirements, shots=128, name=f"{tenant.id}-{index:02d}"
                    )
                except AdmissionRejectedError as rejection:
                    entry = rejected.setdefault(tenant.id, {"count": 0, "reason": ""})
                    entry["count"] += 1
                    entry["reason"] = str(rejection)
        # Snapshot *before* draining: this is the live queue-depth view.
        live = service.tenants_report()
        service.process()
        waits = service.wait_report()
        final = service.tenants_report()
    finally:
        service.close()
    if args.json:
        payload = {
            "live": live,
            "final": final,
            "rejected": rejected,
            "tenant_waits": waits["tenants"],
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=repr))
        return 0
    mode = f"{args.workers} workers" if args.workers else "inline dispatch"
    print(
        f"Multi-tenant demo: {len(tenants)} tenants x {args.jobs} jobs on "
        f"{len(fleet)} devices (cloud engine, {mode}, SLO {args.slo_wait_s:.0f}s)\n"
    )
    header = (
        f"{'TENANT':<10s} {'WEIGHT':>6s} {'MAX_PEND':>8s} {'MAX_INFL':>8s} "
        f"{'SHOTS/S':>8s} {'QUEUED':>6s} {'INFLIGHT':>8s} {'STATE':<7s}"
    )
    print("At peak (every accepted job submitted, nothing drained):")
    print(header)

    def quota(value) -> str:
        return "-" if value is None else f"{value:g}"

    for tenant_id, row in live["tenants"].items():
        print(
            f"{tenant_id:<10s} {row['weight']:>6g} {quota(row['max_pending']):>8s} "
            f"{quota(row['max_inflight']):>8s} {quota(row['shots_per_second']):>8s} "
            f"{row['queued']:>6d} {row['inflight']:>8d} {row['state']:<7s}"
        )
    for tenant_id, entry in sorted(rejected.items()):
        print(f"  rejected: {tenant_id} x{entry['count']} ({entry['reason']})")
    print("\nAfter draining:")
    print(f"{'TENANT':<10s} {'JOBS':>5s} {'MEAN_WAIT':>10s} {'P99_WAIT':>10s}")
    for tenant_id, row in final["tenants"].items():
        summary = waits["tenants"].get(tenant_id, {})
        jobs_done = args.jobs - rejected.get(tenant_id, {}).get("count", 0)
        print(
            f"{tenant_id:<10s} {jobs_done:>5d} {summary.get('mean', 0.0):>9.3f}s "
            f"{summary.get('p99', 0.0):>9.3f}s"
        )
    return 0


def _submit_requirements(args: argparse.Namespace, policy) -> JobRequirements:
    """Build the per-job requirements for ``submit`` (tenant included)."""
    tenant = None
    if args.tenant:
        tenant = Tenant(id=args.tenant, weight=args.tenant_weight)
    if args.topology:
        edges = []
        for chunk in args.topology.split(","):
            a, b = chunk.split("-")
            edges.append((int(a), int(b)))
        return JobRequirements(
            topology_edges=tuple(edges),
            max_avg_two_qubit_error=args.max_two_qubit_error,
            policy=policy,
            tenant=tenant,
        )
    return JobRequirements(
        fidelity_threshold=args.fidelity,
        max_avg_two_qubit_error=args.max_two_qubit_error,
        policy=policy,
        tenant=tenant,
    )


def _cmd_submit_sharded(args: argparse.Namespace, circuit) -> int:
    """The ``submit --shards N`` path: dispatch through the process shards."""
    policy = args.policy
    if policy is not None:
        resolve_policy(policy, seed=args.seed)
    kind = "orchestrator" if _submit_engine(args) == "qrio" else "cloud"
    # Mirror _service_for_submit: the cloud engine resolves the policy
    # engine-level, the orchestrator takes it per job.
    spec = EngineSpec(
        kind=kind,
        policy=policy if kind == "cloud" else None,
        seed=args.seed,
        fidelity_report=args.fidelity_report,
        canary_shots=args.shots,
    )
    job_policy = None if kind == "cloud" else policy
    fleet = generate_fleet(limit=args.devices, seed=args.seed)
    requirements = _submit_requirements(args, job_policy)
    with ShardedService(fleet, shards=args.shards, engine=spec, workers=args.workers) as service:
        handle = service.submit(circuit, requirements, shots=args.shots, name="cli-submitted-job")
        print(
            f"Sharded dispatch ({kind} engine, {service.num_shards} shard processes over "
            f"{len(fleet)} devices): tenant '{handle.tenant_id}' routed to shard "
            f"{handle.shard_index}"
        )
        service.process(handle)
        print("Job lifecycle (as recorded inside the shard):")
        for event in handle.events():
            print(f"  {event.state.value:<9s} {event.message}")
        print()
        if args.explain:
            print("(--explain is unavailable with --shards: placement decisions stay "
                  "inside the worker process)\n")
        if handle.error() is not None:
            print("The job could not be scheduled with the given requirements.")
            return 1
        result = handle.result()
        summary = f"Device: {result.device}"
        if result.score is not None:
            summary += f"  score {result.score:.4f}"
        if result.fidelity is not None:
            summary += f"  reported fidelity {result.fidelity:.4f}"
        summary += f"  ({result.num_feasible} devices passed filtering)"
        print(summary)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    circuit = load_qasm_file(args.circuit)
    if args.shards:
        try:
            return _cmd_submit_sharded(args, circuit)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        service, qrio, policy = _service_for_submit(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    requirements = _submit_requirements(args, policy)
    handle = service.submit(circuit, requirements, shots=args.shots, name="cli-submitted-job")
    mode = f"{service.workers} workers" if service.is_concurrent else "inline dispatch"
    print(f"Job lifecycle ({service.engine.name} engine, {mode}):")
    # follow=True streams transitions as the runtime records them; at
    # workers=0 it dispatches the job inline first.
    for event in handle.events(follow=True):
        print(f"  {event.state.value:<9s} {event.message}")
    service.close()
    print()
    if qrio is not None:
        print(qrio.render_job("cli-submitted-job"))
    if args.explain:
        decision = handle.status().detail.get("decision")
        if decision is not None:
            print("Placement decision:")
            print(decision.explain())
            print()
        else:
            print("(no per-device breakdown: pass --policy to run a registry policy)\n")
    if handle.failed:
        print("\nThe job could not be scheduled with the given requirements.")
        return 1
    result = handle.result()
    summary = f"Device: {result.device}"
    if result.score is not None:
        summary += f"  score {result.score:.4f}"
    if result.fidelity is not None:
        summary += f"  reported fidelity {result.fidelity:.4f}"
    summary += f"  ({result.num_feasible} devices passed filtering)"
    print(summary)
    plan_stats = service.cache_stats().get("plan", {})
    print(
        f"Plan cache: {int(plan_stats.get('hits', 0))} hits / "
        f"{int(plan_stats.get('misses', 0))} misses "
        f"(hit rate {plan_stats.get('hit_rate', 0.0):.0%})"
    )
    return 0


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-qrio",
        description="QRIO reproduction: quantum cloud resource orchestration on simulated devices.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base random seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the end-to-end quickstart demo")
    demo.add_argument("--devices", type=int, default=16, help="number of fleet devices to register")
    demo.set_defaults(handler=_cmd_demo)

    fleet = subparsers.add_parser("fleet", help="generate and summarise the Table 2 fleet")
    fleet.add_argument("--devices", type=int, default=None, help="truncate the fleet to this many devices")
    fleet.set_defaults(handler=_cmd_fleet)

    experiment = subparsers.add_parser("experiment", help="regenerate one of the paper's tables/figures")
    experiment.add_argument("figure", choices=["fig6", "fig7", "fig8_9", "fig10", "tables"])
    experiment.add_argument("--scale", choices=["quick", "default", "paper"], default="default")
    experiment.set_defaults(handler=_cmd_experiment)

    extension = subparsers.add_parser(
        "extension", help="run one of the future-work extension experiments"
    )
    extension.add_argument(
        "experiment", choices=["cloud-policies", "calibration-drift", "scalable-matching"]
    )
    extension.add_argument("--scale", choices=["quick", "default", "paper"], default="default")
    extension.add_argument("--jobs", type=int, default=60, help="trace length for cloud-policies")
    extension.add_argument("--devices", type=int, default=8, help="fleet size for cloud-policies")
    extension.add_argument("--cycles", type=int, default=8, help="calibration cycles for calibration-drift")
    extension.set_defaults(handler=_cmd_extension)

    policies = subparsers.add_parser(
        "policies", help="list the registered placement policies and their parameters"
    )
    policies.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (name, description, parameter defaults) for scripts",
    )
    policies.set_defaults(handler=_cmd_policies)

    scenarios = subparsers.add_parser(
        "scenarios", help="named workload scenarios: list, run, replay a trace file, or sweep"
    )
    scenario_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    def _add_replay_options(sub, *, single_cell: bool = True, workers_default: int = 0) -> None:
        sub.add_argument("--devices", type=int, default=6, help="fleet size to schedule onto")
        if single_cell:
            sub.add_argument(
                "--engine", choices=["orchestrator", "cloud"], default="cloud",
                help="execution engine the trace replays against (default: cloud)",
            )
            sub.add_argument(
                "--policy", default=None,
                help="placement policy by registry name (optionally parameterized); "
                     "default: the engine's native path",
            )
            sub.add_argument(
                "--no-faults", action="store_true", dest="no_faults",
                help="strip the trace's fault events and replay fault-free",
            )
        sub.add_argument("--slo-wait", type=float, default=600.0, dest="slo_wait_s",
                         help="wait-time SLO (seconds) of the resilience metrics "
                              "computed for fault-augmented traces")
        sub.add_argument("--workers", type=int, default=workers_default,
                         help="service worker-pool size (0 = inline dispatch on this thread)")
        sub.add_argument("--fidelity-report", choices=["none", "esp", "execute"],
                         default="esp", dest="fidelity_report",
                         help="cloud engine's per-job fidelity mode")
        sub.add_argument("--canary-shots", type=int, default=128, dest="canary_shots",
                         help="Clifford-canary shots of the orchestrator engine")
        sub.add_argument("--tenant-aware", action="store_true", dest="tenant_aware",
                         help="replay trace users as tenant identities (weighted-fair "
                              "queueing, per-tenant wait columns); TenantBurst events "
                              "declare weights/quotas")
        sub.add_argument("--json", action="store_true", help="emit the report as JSON")

    scenarios_list = scenario_sub.add_parser("list", help="list the named scenarios")
    scenarios_list.add_argument("--json", action="store_true",
                                help="emit the catalogue as JSON for scripts")
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)

    scenarios_run = scenario_sub.add_parser(
        "run", help="build a named scenario's trace and replay it against an engine"
    )
    scenarios_run.add_argument("name", help="scenario name (see 'scenarios list')")
    scenarios_run.add_argument("--jobs", type=int, default=None,
                               help="override the scenario's trace length")
    scenarios_run.add_argument("--record", default=None, metavar="PATH",
                               help="also save the generated trace as a JSONL file")
    _add_replay_options(scenarios_run)
    scenarios_run.set_defaults(handler=_cmd_scenarios_run)

    scenarios_replay = scenario_sub.add_parser(
        "replay", help="replay a previously recorded JSONL trace file"
    )
    scenarios_replay.add_argument("trace", help="path to a qrio-trace JSONL file")
    _add_replay_options(scenarios_replay)
    scenarios_replay.set_defaults(handler=_cmd_scenarios_replay)

    scenarios_sweep = scenario_sub.add_parser(
        "sweep", help="replay scenarios over a policy × engine grid and compare"
    )
    scenarios_sweep.add_argument("--scenarios", default=None,
                                 help="comma-separated scenario names (default: all)")
    scenarios_sweep.add_argument("--engines", default="cloud",
                                 help="comma-separated engines (orchestrator,cloud)")
    scenarios_sweep.add_argument("--policies", default="native,least-loaded,fidelity",
                                 help="comma-separated policy names; 'native' = no policy")
    scenarios_sweep.add_argument("--jobs", type=int, default=None,
                                 help="override every scenario's trace length")
    _add_replay_options(scenarios_sweep, single_cell=False)
    scenarios_sweep.set_defaults(handler=_cmd_scenarios_sweep)

    analyze = subparsers.add_parser(
        "analyze", help="run the determinism/concurrency invariant analyzer over the source tree"
    )
    analyze.add_argument("--json", action="store_true",
                         help="emit findings (new and baselined) as JSON for scripts/CI")
    analyze.add_argument("--write-baseline", action="store_true", dest="write_baseline",
                         help="record the current findings as the accepted baseline and exit 0")
    analyze.add_argument("--root", default=None,
                         help="source tree to analyze (default: the installed repro package)")
    analyze.add_argument("--baseline", default=None,
                         help="baseline file path (default: analysis-baseline.json at the repo root)")
    analyze.set_defaults(handler=_cmd_analyze)

    tenants = subparsers.add_parser(
        "tenants",
        help="run a small multi-tenant demo and list per-tenant quotas, "
             "queue depth and admission state",
    )
    tenants.add_argument("--devices", type=int, default=6, help="fleet size to schedule onto")
    tenants.add_argument("--jobs", type=int, default=4, help="jobs submitted per tenant")
    tenants.add_argument("--workers", type=int, default=0,
                         help="service worker-pool size (0 = inline dispatch on this thread)")
    tenants.add_argument("--slo-wait", type=float, default=30.0, dest="slo_wait_s",
                         help="per-tenant p99 wait SLO driving the admission state machine")
    tenants.add_argument("--json", action="store_true",
                         help="emit the live/final tenant reports as JSON for scripts")
    tenants.set_defaults(handler=_cmd_tenants)

    cache_stats = subparsers.add_parser(
        "cache-stats",
        help="run a small warm/cold workload and print the process-wide cache "
             "hit/miss counters (plan stores, embedding, enumeration)",
    )
    cache_stats.add_argument("--json", action="store_true",
                             help="emit the cache statistics as JSON for scripts")
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    submit = subparsers.add_parser("submit", help="schedule a QASM circuit against a generated fleet")
    submit.add_argument("circuit", help="path to an OpenQASM 2.0 file")
    submit.add_argument("--fidelity", type=float, default=1.0, help="requested fidelity (default 1.0)")
    submit.add_argument("--topology", default=None,
                        help="topology request as edge list, e.g. '0-1,1-2,2-3' (overrides --fidelity)")
    submit.add_argument("--max-two-qubit-error", type=float, default=None, dest="max_two_qubit_error",
                        help="maximum tolerable average two-qubit error")
    submit.add_argument("--shots", type=int, default=512)
    submit.add_argument("--devices", type=int, default=20)
    submit.add_argument(
        "--engine",
        choices=["qrio", "cloud"],
        default=None,
        help="execution engine: 'qrio' (full orchestrator cycle) or 'cloud' "
             "(discrete-event simulator).  Default: 'qrio' without --policy, "
             "'cloud' with one",
    )
    submit.add_argument(
        "--policy",
        default=None,
        help="placement policy by registry name, optionally parameterized, e.g. "
             "'fidelity' or 'fidelity:queue_weight=0.3' (see 'repro-qrio policies'); "
             "runs under whichever --engine is selected",
    )
    submit.add_argument(
        "--explain",
        action="store_true",
        help="print the policy's per-device score/filter breakdown (why a device won)",
    )
    submit.add_argument(
        "--fidelity-report",
        choices=["none", "esp", "execute"],
        default="esp",
        dest="fidelity_report",
        help="how the cloud engine reports per-job fidelity (cloud engine only)",
    )
    submit.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker-pool size for the service runtime: 0 (default) dispatches inline "
             "on this thread, N >= 1 adds a dispatcher thread and N lane workers and "
             "streams lifecycle events as they happen",
    )
    submit.add_argument(
        "--tenant",
        default=None,
        help="tenant identity the job is submitted under (weighted-fair queueing and "
             "admission account per tenant); default: the implicit 'default' tenant",
    )
    submit.add_argument(
        "--tenant-weight",
        type=float,
        default=1.0,
        dest="tenant_weight",
        help="fair-share weight of --tenant (ignored without --tenant)",
    )
    submit.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the fleet across N spawn-safe worker processes and route the "
             "job by consistent tenant hash (0 = in-process service; implies "
             "--engine qrio maps to the orchestrator engine recipe)",
    )
    submit.set_defaults(handler=_cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
