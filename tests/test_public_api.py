"""The public API: ``repro.__all__`` and every subpackage's ``__all__``.

The snapshot makes adding or dropping a public name a visible diff in this
file, and every listed name must resolve on its package.  Modules and
classes deleted because nothing in the package needed them stay deleted,
and no source, bench, example or document names them again.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.control.master_server as master_server
import repro.core.cache
import repro.core.master_server
import repro.qasm.parser
import repro.utils.cache
from repro.core import MasterServer

_REPO = Path(__file__).resolve().parent.parent

API = {
    "repro": (
        "Backend", "BackendProperties", "CloudEngine", "ExecutionEngine", "FleetSpec",
        "JobHandle", "JobOutcome", "JobRequirements", "JobSpec", "JobState", "JobStatus",
        "NoiseModel", "OrchestratorEngine", "Pipeline", "PlacementContext", "PlacementDecision",
        "PlacementPolicy", "QRIO", "QRIOService", "QuantumCircuit", "ServiceResult",
        "SimulationResult", "UserRequirements", "__version__", "dump_qasm", "generate_fleet",
        "hellinger_fidelity", "parse_qasm", "register_policy", "resolve_policy",
        "three_device_testbed", "transpile",
    ),
    "repro.analysis": (
        "Analyzer", "BareSharedWriteRule", "Baseline", "DEFAULT_PICKLE_CONTRACT", "Finding",
        "FrozenPicklableRule", "LAYERS", "LayerRule", "LockOrderRule", "LockOrderViolation",
        "ModuleInfo", "ProcessSaltedKeyRule", "RaceMonitor", "RaceTraceError", "Rule",
        "TracedCondition", "TracedLock", "UnseededRandomRule", "WallClockRule", "analysis_root",
        "analyze_tree", "default_baseline_path", "default_rules", "dotted_name", "load_baseline",
        "render_layer_diagram", "traced_threading",
    ),
    "repro.backends": (
        "Backend", "BackendProperties", "DEFAULT_BASIS_GATES", "DEFAULT_SHOTS", "FleetSpec",
        "MAX_CONNECTIONS_PER_QUBIT", "NAMED_TOPOLOGIES", "average_degree", "coupling_density",
        "coupling_to_graph", "fully_connected_topology", "generate_device", "generate_fleet",
        "grid_topology", "heavy_hex_topology", "heavy_square_topology", "is_connected",
        "line_topology", "named_topology", "named_topology_device", "random_coupling_map",
        "ring_topology", "star_topology", "three_device_testbed", "tree_topology",
        "uniform_error_device",
    ),
    "repro.circuits": (
        "CLIFFORD_GATE_NAMES", "GATE_SPECS", "GateSpec", "Instruction", "QuantumCircuit",
        "bernstein_vazirani", "circ2_benchmark", "circ_benchmark", "deutsch_jozsa", "gate_matrix",
        "gate_spec", "ghz", "grid_random_circuit", "grover_search", "hardware_efficient_ansatz",
        "hidden_subgroup", "is_directive", "is_known_gate", "phase_estimation", "qaoa_maxcut",
        "qft", "random_circuit", "random_clifford_circuit", "repetition_code_encoder",
        "ripple_carry_adder", "simon", "w_state",
    ),
    "repro.cloud": (
        "ArrivalSpec", "CalibrationDriftModel", "CloudSession", "CloudSimulationConfig",
        "CloudSimulationResult", "CloudSimulator", "DeviceQueue", "ExecutionTimeModel",
        "JobRecord", "JobRequest", "QueueSlot", "build_queues", "compare_policies", "drift_fleet",
        "drift_history", "generate_trace", "jain_fairness_index", "render_policy_comparison",
        "summarise_waits", "trace_summary", "wait_fairness",
    ),
    "repro.cluster": (
        "CONTAINER_REQUIREMENTS", "ClusterState", "ContainerImage", "DeviceConstraints", "Event",
        "EventLog", "FilterPlugin", "FilterReport", "ImageBuilder", "ImageRegistry", "Job",
        "JobPhase", "JobSpec", "Node", "NodeCapacity", "NodeLabels", "NodeStatus",
        "ResourceRequest", "run_filters",
    ),
    "repro.control": (
        "ClassicalResourceFilter", "DeviceCharacteristicsFilter", "JobMetadata",
        "JobSubmissionForm", "MasterServer", "MetaServer", "MetaServerPayload", "QRIOScheduler",
        "QRIOVisualizer", "QubitCountFilter", "SchedulingDecision", "SubmittedJob",
        "TopologyCanvas", "UserRequirements", "default_filter_plugins",
    ),
    "repro.core": (
        "CacheStats", "ClassicalResourceFilter", "DeviceCharacteristicsFilter", "DeviceSpec",
        "JobMetadata", "JobOutcome", "JobSubmissionForm", "LRUCache", "MasterServer",
        "MetaServer", "MetaServerPayload", "OraclePlacementPolicy", "QRIO", "QRIOScheduler",
        "QRIOVisualizer", "QubitCountFilter", "SchedulingDecision", "SubmittedJob",
        "TopologyCanvas", "UserRequirements", "VendorConsole", "all_cache_stats",
        "calibration_fingerprint", "clear_all_caches", "default_filter_plugins",
        "embedding_cache", "fleet_calibration_epoch", "pattern_hash", "structural_circuit_hash",
    ),
    "repro.experiments": (
        "CalibrationDriftResult", "CloudPolicyComparisonResult", "CloudPolicyRow",
        "DriftCycleRow", "ExperimentConfig", "Fig10Result", "Fig10Row", "Fig6Result", "Fig6Row",
        "Fig7Result", "Fig7Row", "Fig89Result", "PAPER_THRESHOLDS", "ScalableMatchingResult",
        "ScalableMatchingRow", "TableRow", "ablation_devices", "cloud_testbed_fleet",
        "count_filtered_devices", "default_config", "drift_testbed_fleet", "paper_scale_config",
        "quick_config", "render_calibration_drift", "render_cloud_policy_comparison",
        "render_fig10", "render_fig6", "render_fig7", "render_fig8_9", "render_rows",
        "render_scalable_matching", "run_calibration_drift", "run_cloud_policy_comparison",
        "run_fig10", "run_fig6", "run_fig7", "run_fig8_9", "run_scalable_matching", "table1_rows",
        "table2_rows", "user_topology_canvas",
    ),
    "repro.fidelity": (
        "CanaryReport", "CliffordCanaryEstimator", "DEFAULT_CANARY_SHOTS", "ESPEstimator",
        "ESPReport", "achieved_fidelity", "cliffordize", "closest_single_qubit_clifford",
        "is_clifford_circuit", "is_clifford_instruction",
    ),
    "repro.matching": (
        "DEFAULT_MAX_EMBEDDINGS", "DeviceMatch", "Embedding", "MatchBudget", "ScoredEmbedding",
        "anneal_embedding", "best_device_scalable", "best_embedding", "best_overall_device",
        "embedding_cost", "evaluate_embeddings", "find_embeddings", "find_exact_embeddings",
        "graph_summary", "greedy_embedding", "has_exact_embedding", "interaction_edge_list",
        "interaction_graph", "match_device", "rank_devices", "rank_devices_scalable",
        "scalable_match_device", "topology_as_graph",
    ),
    "repro.plans": (
        "ExecutionPlan", "PlanCompiler",
    ),
    "repro.policies": (
        "DeviceScore", "FidelityPlacementPolicy", "INFEASIBLE_SCORE",
        "LeastLoadedPlacementPolicy", "PinnedDevicePolicy", "Pipeline", "PlacementContext",
        "PlacementDecision", "PlacementPolicy", "PolicyLike", "PolicyNotFoundError",
        "PolicyRegistry", "RandomPlacementPolicy", "RegisteredPolicy",
        "RoundRobinPlacementPolicy", "SURPLUS_WEIGHT", "ThresholdFidelityPolicy",
        "TopologyPlacementPolicy", "default_registry", "parse_policy_spec", "register_policy",
        "resolve_policy",
    ),
    "repro.qasm": (
        "QASMParser", "Token", "TokenStream", "dump_qasm", "load_qasm_file", "parse_qasm",
        "tokenize", "write_qasm_file",
    ),
    "repro.scenarios": (
        "ArrivalProcess", "ArrivalSpec", "CalibrationJump", "ClosedLoopProcess", "DeviceOutage",
        "ENGINE_NAMES", "EVENT_KINDS", "EVENT_SCHEMA_VERSION", "FaultInjector",
        "FlashCrowdProcess", "JobOutcome", "JobRequest", "MMPPProcess", "NATIVE_POLICY",
        "ParetoProcess", "PoissonProcess", "QueueStorm", "READABLE_TRACE_VERSIONS",
        "RESILIENCE_COLUMNS", "RESILIENCE_ROW_KEYS", "SWEEP_COLUMNS", "ScenarioError",
        "ScenarioReport", "ScenarioRunner", "ScenarioSpec", "StragglerSlowdown", "SweepResult",
        "TENANT_COLUMNS", "TENANT_ROW_KEYS", "TRACE_FORMAT", "TRACE_VERSION", "TenantBurst",
        "Trace", "TraceRecorder", "WAIT_PERCENTILES", "apply_workload_events",
        "available_scenarios", "build_scenario_trace", "event_to_payload", "generate_requests",
        "generate_trace", "jain_fairness_index", "load_trace", "makespan", "normalise_events",
        "outage_windows", "parse_event", "per_user_mean_waits", "policy_label", "record",
        "register_scenario", "render_metric_table", "render_sweep", "resilience_summary",
        "run_sweep", "scenario", "summarise_waits", "tenants_from_events", "trace_summary",
        "unregister_scenario", "wait_fairness",
    ),
    "repro.service": (
        "ALLOWED_TRANSITIONS", "CloudEngine", "DeviceLatencyEngine", "EngineResult", "EngineSpec",
        "ExecutionEngine", "JobEvent", "JobHandle", "JobRequirements", "JobSpec", "JobState",
        "JobStatus", "OrchestratorEngine", "Placement", "QRIOService", "RequirementsLike",
        "ServiceOverloadedError", "ServiceResult", "ServiceRuntime", "ShardJob",
        "ShardOutcome", "ShardRequest", "ShardedService", "pinned_device_of",
    ),
    "repro.simulators": (
        "BATCHED_STATEVECTOR_LIMIT", "BatchedStabilizerState", "DENSITY_LIMIT", "GateDurations",
        "MAX_STATEVECTOR_QUBITS", "NoiseModel", "NoisyStatevectorSimulator", "OutcomeLaw",
        "PrecompiledExecution", "SimulationResult", "StabilizerSimulator", "StabilizerState",
        "StatevectorSimulator", "apply_matrix", "circuit_duration", "compact_circuit",
        "counts_to_probabilities", "execute_with_noise", "hellinger_fidelity",
        "is_stabilizer_gate", "marginal_counts", "outcome_law", "precompile_execution",
        "probe_deterministic_outcome", "qubit_finish_times", "reference_stabilizer_counts",
        "success_probability", "total_variation_distance", "uniform_counts",
    ),
    "repro.tenancy": (
        "AdmissionController", "AdmissionState", "DEFAULT_TENANT", "DEFAULT_TENANT_ID", "Tenant",
        "WeightedFairQueue", "coerce_tenant",
    ),
    "repro.transpiler": (
        "Layout", "PassManager", "TranspileContext", "TranspileResult", "TranspilerPass",
        "VirtualCircuit", "build_preset_pass_manager", "decompose_instruction", "place",
        "resynthesise_single_qubit", "transpile", "virtual_stage", "zyz_angles",
    ),
    "repro.utils": (
        "BackendError", "CircuitError", "ClusterError", "DEFAULT_SEED", "FidelityEstimationError",
        "GateError", "LayoutError", "MasterServerError", "MatchingError", "MetaServerError",
        "NoFeasibleNodeError", "QASMError", "ReproError", "RequirementsError", "SchedulingError",
        "SeedLike", "SimulationError", "StabilizerError", "TranspilerError", "VisualizerError",
        "derive_seed", "ensure_generator", "spawn_generator", "uniform_choice",
    ),
    "repro.workloads": (
        "DefaultTopology", "EvaluationWorkload", "SuiteEntry", "WorkloadSuite",
        "available_suites", "clifford_suite", "default_topologies", "default_topology",
        "evaluation_workload", "evaluation_workloads", "grid_random_suite", "nisq_mix_suite",
        "paper_evaluation_suite", "workload_circuits", "workload_suite",
    ),
}


def test_every_subpackage_is_pinned():
    subpackages = {f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg}
    assert subpackages | {"repro"} == set(API)


@pytest.mark.parametrize("package", sorted(API))
def test_all_matches_the_snapshot(package):
    exported = importlib.import_module(package).__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert sorted(exported) == sorted(API[package])


@pytest.mark.parametrize("package", sorted(API))
def test_every_listed_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


#: Library modules deleted because no caller in ``src/`` reached them, and
#: the old paths of modules moved to break the package import cycle.
DELETED_MODULES = (
    "repro.cluster.queue",
    "repro.fidelity.analytic",
    "repro.simulators.channels",
    "repro.simulators.mitigation",
    "repro.transpiler.fusion",
    "repro.utils.linalg",
    "repro.core.requirements",
    "repro.core.visualizer",
    "repro.core.meta_server",
    "repro.core.scheduler",
    "repro.matching.subgraph",
    "repro.scenarios.arrivals",
    "repro.scenarios.metrics",
    "repro.tenancy.sharding",
)

_DELETED_REFERENCE = re.compile(
    r"ClusterEngine|transpiler\.fusion|simulators\.(mitigation|channels)|fidelity\.analytic"
    r"|utils\.linalg|fuse_clifford_runs|ReadoutMitigator|cluster\.queue|JobQueue|QueuePolicy"
    r"|core[./](requirements|visualizer|meta_server|scheduler)\b|matching[./]subgraph\b"
    r"|scenarios[./](arrivals|metrics)\b|tenancy[./]sharding\b"
    r"|NoisyStabilizerSimulator|BatchedStabilizerSimulator|apply_instruction_to_tableau|_StateFlag"
)
_TEXT_SUFFIXES = {".py", ".md", ".json", ".txt", ".cfg", ".toml", ".yml", ".yaml", ".qasm"}


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_deleted_module_stays_deleted(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("root", ["src", "benchmarks", "examples", "docs", "README.md"])
def test_nothing_references_a_deleted_name(root):
    path = _REPO / root
    files = [path] if path.is_file() else sorted(
        file for file in path.rglob("*") if file.suffix in _TEXT_SUFFIXES and "__pycache__" not in file.parts
    )
    assert files
    hits = [
        f"{file.relative_to(_REPO)}:{number}: {line.strip()}"
        for file in files
        for number, line in enumerate(file.read_text(encoding="utf-8").splitlines(), 1)
        if _DELETED_REFERENCE.search(line)
    ]
    assert not hits


def test_the_master_server_runs_only_plans():
    # Every bound job arrives with a plan: none has its manifest QASM parsed.
    plan = inspect.signature(MasterServer.execute_bound_job).parameters["plan"]
    assert plan.default is inspect.Parameter.empty
    assert "parse_qasm(" not in inspect.getsource(master_server)


#: The pre-move module paths the frozen ``perfbench/`` harness still imports.
REEXPORTS = (
    ("repro.core.cache", "repro.utils.cache"),
    ("repro.core.master_server", "repro.control.master_server"),
)


@pytest.mark.parametrize("old, new", REEXPORTS)
def test_a_kept_old_path_defines_nothing_of_its_own(old, new):
    module = importlib.import_module(old)
    tree = ast.parse(inspect.getsource(module))
    assert all(isinstance(node, (ast.Expr, ast.ImportFrom)) for node in tree.body)
    public = [name for name in vars(module) if not name.startswith("_")]
    assert public
    for name in public:
        assert getattr(module, name).__module__ in (new, "repro.qasm.parser"), name


def test_the_old_cache_path_binds_the_librarys_own_caches():
    # perfbench empties the caches through repro.core.cache between cold
    # runs; a copy there would leave the caches the jobs use full.
    old, new = repro.core.cache, repro.utils.cache
    assert old.clear_all_caches is new.clear_all_caches
    assert old.PLAN_STATS is new.PLAN_STATS
    for name in new.__all__:
        assert getattr(old, name) is getattr(new, name), name
    for cache in ("enumeration_cache", "embedding_cache", "placement_cache"):
        assert getattr(old, cache)() is getattr(new, cache)()
    new.embedding_cache().put("reexport-probe", 1)
    old.clear_all_caches()
    assert new.embedding_cache().get("reexport-probe") is None


def test_the_old_master_server_path_binds_the_librarys_class():
    # perfbench's tracer wraps execute_bound_job on the class it finds there.
    assert repro.core.master_server.MasterServer is master_server.MasterServer is MasterServer
    assert repro.core.master_server.SubmittedJob is master_server.SubmittedJob


def test_only_the_old_master_server_path_binds_parse_qasm():
    assert repro.core.master_server.parse_qasm is repro.qasm.parser.parse_qasm
    assert not hasattr(master_server, "parse_qasm")
