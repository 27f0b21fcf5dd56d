"""The QRIO facade: one object wiring visualizer, servers, scheduler and cluster.

This is the library's historical entry point.  A vendor registers devices, a
user submits a job with either a fidelity or a topology requirement, and the
orchestrator drives the full cycle of Fig. 2: visualizer → meta server →
master server → scheduler → chosen quantum device → logs.

Since the unified service layer landed (``repro.service``), the facade's
execution-cycle methods are thin shims over a :class:`~repro.service.QRIOService`
bound to this orchestrator: :meth:`QRIO.submit`/:meth:`QRIO.submit_batch`
return :class:`~repro.service.JobHandle` objects with the explicit
``QUEUED → MATCHING → RUNNING → DONE/FAILED`` lifecycle, and the legacy
:meth:`QRIO.submit_and_run` routes through the same service while preserving
its original :class:`JobOutcome` return type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.cluster.job import Job, JobPhase
from repro.cluster.node import Node, NodeCapacity
from repro.cluster.queue import JobQueue, QueuePolicy
from repro.cluster.registry import ClusterState
from repro.core.baselines import OracleScheduler, RandomScheduler
from repro.core.master_server import MasterServer, SubmittedJob
from repro.core.meta_server import MetaServer
from repro.core.requirements import UserRequirements
from repro.core.scheduler import QRIOScheduler
from repro.core.visualizer import JobSubmissionForm, QRIOVisualizer, TopologyCanvas
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import ClusterError, MasterServerError, SchedulingError
from repro.utils.rng import SeedLike, derive_seed


@dataclass
class JobOutcome:
    """End-to-end result of a QRIO job submission."""

    job: Job
    device: Optional[str]
    score: Optional[float]
    result: Optional[SimulationResult]
    scores: Dict[str, float] = field(default_factory=dict)
    num_filtered: int = 0
    #: Unplaced only because every candidate node was full (see
    #: :attr:`~repro.cluster.framework.FilterReport.saturated`).
    saturated: bool = False

    @property
    def succeeded(self) -> bool:
        """``True`` when the job executed successfully."""
        return self.job.phase == JobPhase.SUCCEEDED


class QRIO:
    """The Quantum Resource Infrastructure Orchestrator."""

    def __init__(
        self,
        cluster_name: str = "qrio-cluster",
        canary_shots: int = 512,
        seed: SeedLike = None,
        workspace: Optional[Path] = None,
    ) -> None:
        self.cluster = ClusterState(name=cluster_name)
        self.meta_server = MetaServer(canary_shots=canary_shots, seed=derive_seed(seed, "meta"))
        self.master_server = MasterServer(self.cluster, workspace=workspace, seed=derive_seed(seed, "master"))
        self.scheduler = QRIOScheduler(self.cluster, self.meta_server)
        self.visualizer = QRIOVisualizer(self.cluster)
        self.queue = JobQueue(policy=QueuePolicy.FIFO)
        self._seed = seed
        self._service = None

    # ------------------------------------------------------------------ #
    # Vendor-side API
    # ------------------------------------------------------------------ #
    def register_device(self, backend: Backend, capacity: Optional[NodeCapacity] = None) -> Node:
        """Register one quantum device as a cluster node (vendor operation)."""
        node = self.cluster.register_backend(backend, capacity=capacity)
        self.meta_server.register_backend(backend)
        return node

    def register_devices(self, backends: Iterable[Backend]) -> List[Node]:
        """Register a whole fleet of devices."""
        return [self.register_device(backend) for backend in backends]

    def devices(self) -> List[Backend]:
        """The registered quantum devices."""
        return self.cluster.backends()

    def vendor_console(self) -> "VendorConsole":
        """The vendor-side dashboard for this deployment (future-work items 1-2)."""
        from repro.core.vendor import VendorConsole

        return VendorConsole(self)

    # ------------------------------------------------------------------ #
    # User-side API
    # ------------------------------------------------------------------ #
    def new_submission_form(self) -> JobSubmissionForm:
        """Start the 3-step submission workflow (what the dashboard does)."""
        return self.visualizer.new_form()

    def new_topology_canvas(self, num_qubits: int) -> TopologyCanvas:
        """Open a topology drawing canvas."""
        return self.visualizer.new_canvas(num_qubits)

    def submit_form(self, form: JobSubmissionForm) -> SubmittedJob:
        """Submit a completed form: uploads metadata, containerizes, creates the job."""
        submission = form.submit()
        self.meta_server.upload_job_metadata(submission.meta)
        return self.master_server.submit(submission.master)

    def submit_fidelity_job(
        self,
        circuit: QuantumCircuit,
        fidelity_threshold: float,
        job_name: Optional[str] = None,
        image_name: Optional[str] = None,
        shots: int = 1024,
        max_avg_two_qubit_error: Optional[float] = None,
        max_avg_readout_error: Optional[float] = None,
        min_avg_t1: Optional[float] = None,
        min_avg_t2: Optional[float] = None,
        cpu_millicores: int = 500,
        memory_mb: int = 512,
    ) -> SubmittedJob:
        """Convenience wrapper: submit ``circuit`` with a fidelity requirement."""
        job_name = job_name or f"{circuit.name}-job"
        form = (
            self.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name=job_name,
                image_name=image_name or f"qrio/{job_name}",
                num_qubits=circuit.num_qubits,
                cpu_millicores=cpu_millicores,
                memory_mb=memory_mb,
                shots=shots,
            )
            .set_device_characteristics(
                max_avg_two_qubit_error=max_avg_two_qubit_error,
                max_avg_readout_error=max_avg_readout_error,
                min_avg_t1=min_avg_t1,
                min_avg_t2=min_avg_t2,
            )
            .request_fidelity(fidelity_threshold)
        )
        return self.submit_form(form)

    def submit_topology_job(
        self,
        circuit: QuantumCircuit,
        topology_edges: Sequence[Tuple[int, int]],
        topology_qubits: Optional[int] = None,
        job_name: Optional[str] = None,
        image_name: Optional[str] = None,
        shots: int = 1024,
        max_avg_two_qubit_error: Optional[float] = None,
        cpu_millicores: int = 500,
        memory_mb: int = 512,
    ) -> SubmittedJob:
        """Convenience wrapper: submit ``circuit`` with a topology requirement."""
        job_name = job_name or f"{circuit.name}-job"
        canvas = TopologyCanvas(topology_qubits or circuit.num_qubits)
        canvas.load_edges(topology_edges)
        form = (
            self.new_submission_form()
            .choose_circuit(circuit)
            .set_job_details(
                job_name=job_name,
                image_name=image_name or f"qrio/{job_name}",
                num_qubits=circuit.num_qubits,
                cpu_millicores=cpu_millicores,
                memory_mb=memory_mb,
                shots=shots,
            )
            .set_device_characteristics(max_avg_two_qubit_error=max_avg_two_qubit_error)
            .request_topology(canvas)
        )
        return self.submit_form(form)

    # ------------------------------------------------------------------ #
    # Scheduling and execution
    # ------------------------------------------------------------------ #
    def schedule_job(self, job_name: str) -> JobOutcome:
        """Run the filter + rank cycle for one submitted job (no execution)."""
        job = self.cluster.job(job_name)
        decision = self.scheduler.schedule(job)
        return JobOutcome(
            job=job,
            device=self._device_of(decision.node_name),
            score=decision.score,
            result=None,
            scores=decision.scores,
            num_filtered=decision.filter_report.num_feasible,
            saturated=decision.filter_report.saturated,
        )

    def run_job(self, job_name: str) -> JobOutcome:
        """Schedule and execute one submitted job end-to-end."""
        job = self.cluster.job(job_name)
        if job.phase == JobPhase.PENDING:
            decision = self.scheduler.schedule(job)
            if not decision.scheduled:
                return JobOutcome(
                    job=job,
                    device=None,
                    score=None,
                    result=None,
                    num_filtered=decision.filter_report.num_feasible,
                )
            scores = decision.scores
            num_filtered = decision.filter_report.num_feasible
        else:
            scores = {}
            num_filtered = 0
        result = self.master_server.execute_bound_job(job_name)
        return JobOutcome(
            job=job,
            device=self._device_of(job.node_name),
            score=job.score,
            result=result,
            scores=scores,
            num_filtered=num_filtered,
        )

    def submit_and_run(self, form: JobSubmissionForm) -> JobOutcome:
        """Full user cycle in one call: submit the form, schedule, execute.

        Legacy shim: the form is converted into a service
        :class:`~repro.service.JobSpec` and processed through
        :meth:`service`, then the handle's outcome is translated back into
        the historical :class:`JobOutcome` shape.
        """
        handle = self.service().submit_specs([self._spec_from_form(form)])[0]
        handle.wait()
        return self._outcome_from_handle(handle)

    # ------------------------------------------------------------------ #
    # Unified service layer (repro.service)
    # ------------------------------------------------------------------ #
    def service(self, *, workers: int = 0, max_pending: Optional[int] = None) -> "QRIOService":
        """The unified job service bound to this orchestrator.

        Created lazily on first use (so the fleet can be registered first)
        and cached; its :class:`~repro.service.OrchestratorEngine` shares
        this facade's cluster, servers and scheduler, so vendor-side changes
        (new devices, recalibration, cordons) are visible to service jobs.

        Args:
            workers: Worker-pool size for the service created on the *first*
                call: ``0`` (default) keeps the synchronous service, ``N >= 1``
                attaches a concurrent :class:`~repro.service.ServiceRuntime`.
                Note the orchestrator engine's execution path mutates this
                facade's shared cluster, so its RUNNING stage is serialized
                even with many workers — concurrency shows up in submission,
                queueing and lifecycle, not in overlapped execution.
            max_pending: Backpressure bound forwarded to the service (first
                call only; needs ``workers >= 1``).

        Returns:
            The cached :class:`~repro.service.QRIOService`.

        Raises:
            ServiceError: A later call requested a different non-zero
                ``workers`` than the service was created with.
        """
        from repro.service import OrchestratorEngine, QRIOService
        from repro.utils.exceptions import ServiceError

        if self._service is None:
            self._service = QRIOService(
                self.devices(),
                OrchestratorEngine(qrio=self, seed=self._seed),
                workers=workers,
                max_pending=max_pending,
            )
        elif workers and self._service.workers != workers:
            raise ServiceError(
                f"This orchestrator's service already runs with workers={self._service.workers}; "
                f"it cannot be reconfigured to workers={workers}"
            )
        return self._service

    def submit(self, circuit, requirements=None, *, shots: int = 1024, name: Optional[str] = None):
        """Submit one job through the unified service; returns a JobHandle."""
        return self.service().submit(circuit, requirements, shots=shots, name=name)

    def submit_batch(self, circuits, requirements=None, *, shots: int = 1024):
        """Submit many jobs through the unified service with batch dedup."""
        return self.service().submit_batch(circuits, requirements, shots=shots)

    def _spec_from_form(self, form: JobSubmissionForm):
        """Convert a completed visualizer form into a service job spec."""
        from repro.qasm.parser import parse_qasm
        from repro.service import JobRequirements, JobSpec as ServiceJobSpec

        requirements = form.build_requirements()
        circuit = parse_qasm(form.submit().master.circuit_qasm, name=requirements.job_name)
        return ServiceJobSpec(
            circuit=circuit,
            requirements=JobRequirements(
                fidelity_threshold=requirements.fidelity_threshold,
                topology_edges=(
                    tuple(requirements.topology_edges) if requirements.topology_edges is not None else None
                ),
                max_avg_two_qubit_error=requirements.max_avg_two_qubit_error,
                max_avg_readout_error=requirements.max_avg_readout_error,
                min_avg_t1=requirements.min_avg_t1,
                min_avg_t2=requirements.min_avg_t2,
                cpu_millicores=requirements.cpu_millicores,
                memory_mb=requirements.memory_mb,
                num_qubits=requirements.num_qubits,
            ),
            shots=requirements.shots,
            name=requirements.job_name,
            image_name=requirements.image_name,
        )

    def _outcome_from_handle(self, handle) -> JobOutcome:
        """Translate a finished service handle into the legacy JobOutcome."""
        status = handle.status()
        if handle.done:
            outcome = handle.result().detail.get("outcome")
            if isinstance(outcome, JobOutcome):
                return outcome
        if handle.exception is not None:
            # The legacy path let engine errors (duplicate job names,
            # execution failures, ...) propagate — keep that contract rather
            # than returning an outcome for a job this submission never ran.
            raise handle.exception
        job = self.cluster.job(handle.name)
        if job.phase == JobPhase.FAILED:
            raise MasterServerError(
                f"Execution of job '{handle.name}' failed: {status.error or job.failure_reason}"
            )
        return JobOutcome(
            job=job,
            device=status.device,
            score=status.score,
            result=job.result,
            scores=dict(status.detail.get("scores", {})),
            num_filtered=int(status.detail.get("num_feasible", 0)),
        )

    # ------------------------------------------------------------------ #
    # Multi-job extension (future work item 4)
    # ------------------------------------------------------------------ #
    def enqueue_form(self, form: JobSubmissionForm) -> str:
        """Queue a submission for later batch scheduling; returns the job name."""
        submission = form.submit()
        self.meta_server.upload_job_metadata(submission.meta)
        submitted = self.master_server.submit(submission.master)
        self.queue.enqueue(submitted.job.spec)
        return submitted.job.name

    def drain_queue(self, execute: bool = True) -> List[JobOutcome]:
        """Schedule (and optionally execute) every queued job in policy order."""
        outcomes: List[JobOutcome] = []
        while len(self.queue):
            spec = self.queue.dequeue()
            outcome = self.run_job(spec.name) if execute else self.schedule_job(spec.name)
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------ #
    # Baseline schedulers (for experiments)
    # ------------------------------------------------------------------ #
    def random_scheduler(self, seed: SeedLike = None) -> RandomScheduler:
        """A random-choice scheduler over this orchestrator's cluster."""
        return RandomScheduler(self.cluster, seed=seed)

    def oracle_scheduler(self, fidelity_threshold: float = 1.0, shots: int = 512, seed: SeedLike = None) -> OracleScheduler:
        """An oracle scheduler over this orchestrator's cluster."""
        return OracleScheduler(self.cluster, fidelity_threshold=fidelity_threshold, shots=shots, seed=seed)

    # ------------------------------------------------------------------ #
    def job_logs(self, job_name: str) -> List[str]:
        """Fetch job logs through the master server (what the dashboard shows)."""
        return self.master_server.job_logs(job_name)

    def render_dashboard(self) -> str:
        """Text rendering of the cluster front page."""
        return self.visualizer.render_front_page()

    def render_job(self, job_name: str) -> str:
        """Text rendering of one job's detail view."""
        return self.visualizer.render_job_view(job_name)

    def _device_of(self, node_name: Optional[str]) -> Optional[str]:
        if node_name is None:
            return None
        return self.cluster.node(node_name).backend.name
