"""repro — a reproduction of "Empowering the Quantum Cloud User with QRIO".

The package is organised in layers, declared lowest first as
:data:`repro.analysis.LAYERS` (a package imports only lower layers; the
analyzer's rule QRIO-L001 enforces it).  The main groups:

* ``repro.circuits`` / ``repro.qasm`` / ``repro.simulators`` / ``repro.backends``
  / ``repro.transpiler`` — a self-contained quantum software substrate
  (circuit IR, OpenQASM 2 front end, statevector/stabilizer/noisy simulators,
  simulated devices, transpiler);
* ``repro.matching`` / ``repro.fidelity`` — the scoring engines QRIO relies
  on (Mapomatic-style subgraph matching and Clifford-canary fidelity
  estimation);
* ``repro.cluster`` — a Kubernetes-like cluster substrate (nodes, labels,
  jobs, scheduling framework, simulated containers);
* ``repro.control`` — QRIO's Fig. 2 control plane (visualizer, meta server,
  master server, scheduler);
* ``repro.core`` — the :class:`~repro.core.QRIO` facade on top, the vendor
  console and the baselines;
* ``repro.cloud`` — the discrete-event quantum-cloud simulator (per-device
  queues, allocation policies, calibration drift);
* ``repro.policies`` — the unified placement-policy API: one
  :class:`~repro.policies.PlacementPolicy` protocol (filter → score →
  select), a string-keyed registry with parameterized lookup
  (``resolve_policy("fidelity:queue_weight=0.3")``), a :class:`Pipeline`
  composition combinator, and thin adapters so the same policy routes jobs
  identically under the orchestrator and cloud engines;
* ``repro.service`` — the unified job service: one
  :class:`~repro.service.QRIOService` submission API with an explicit
  ``QUEUED → MATCHING → RUNNING → DONE/FAILED`` lifecycle, structural batch
  deduplication, one :class:`~repro.service.ExecutionEngine` protocol
  adapting the orchestrator, cloud and cluster layers, and an optional
  concurrent runtime (``workers=N``: priority scheduling, per-device lanes,
  backpressure, futures-style handles) and the process-sharded front desk;
* ``repro.workloads`` / ``repro.experiments`` — the paper's evaluation
  workloads and arrival traces, and the drivers regenerating every table
  and figure.
"""

from repro.backends import Backend, BackendProperties, FleetSpec, generate_fleet, three_device_testbed
from repro.circuits import QuantumCircuit
from repro.control import UserRequirements
from repro.core import QRIO, JobOutcome
from repro.policies import (
    Pipeline,
    PlacementContext,
    PlacementDecision,
    PlacementPolicy,
    register_policy,
    resolve_policy,
)
from repro.qasm import dump_qasm, parse_qasm
from repro.service import (
    CloudEngine,
    ExecutionEngine,
    JobHandle,
    JobRequirements,
    JobSpec,
    JobState,
    JobStatus,
    OrchestratorEngine,
    QRIOService,
    ServiceResult,
)
from repro.simulators import NoiseModel, SimulationResult, hellinger_fidelity
from repro.transpiler import transpile

__version__ = "1.2.0"

__all__ = [
    "Backend",
    "BackendProperties",
    "CloudEngine",
    "ExecutionEngine",
    "FleetSpec",
    "JobHandle",
    "JobOutcome",
    "JobRequirements",
    "JobSpec",
    "JobState",
    "JobStatus",
    "NoiseModel",
    "OrchestratorEngine",
    "Pipeline",
    "PlacementContext",
    "PlacementDecision",
    "PlacementPolicy",
    "QRIO",
    "QRIOService",
    "QuantumCircuit",
    "ServiceResult",
    "SimulationResult",
    "UserRequirements",
    "__version__",
    "dump_qasm",
    "generate_fleet",
    "hellinger_fidelity",
    "parse_qasm",
    "register_policy",
    "resolve_policy",
    "three_device_testbed",
    "transpile",
]
