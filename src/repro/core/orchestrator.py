"""The QRIO facade: one object wiring visualizer, servers, scheduler and cluster.

This is the library's historical entry point.  A vendor registers devices, a
user submits a job with either a fidelity or a topology requirement, and the
orchestrator drives the full cycle of Fig. 2: visualizer → meta server →
master server → scheduler → chosen quantum device → logs.

The facade is a client of one :class:`~repro.service.OrchestratorEngine`: the
engine owns the cluster, the meta server, the master server and the
scheduler, and the facade takes those parts from it.  A form becomes a
service :class:`~repro.service.JobSpec`; :meth:`QRIO.submit_form` enters it
through the engine's one submission entry, and :meth:`QRIO.run_job` runs it
on the engine's one MATCHING/RUNNING pair.  :meth:`QRIO.submit`,
:meth:`QRIO.submit_batch`, :meth:`QRIO.submit_and_run` and the job queue
(:meth:`QRIO.enqueue_form`, :meth:`QRIO.drain_queue`) run on the one
:class:`~repro.service.QRIOService` over the same engine.  Every route
reports the historical :class:`JobOutcome` through one builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.circuits.circuit import QuantumCircuit
from repro.cluster.job import Job, JobPhase
from repro.cluster.node import Node, NodeCapacity
from repro.core.baselines import OraclePlacementPolicy
from repro.core.master_server import SubmittedJob
from repro.core.visualizer import JobSubmissionForm, QRIOVisualizer, TopologyCanvas
from repro.policies import RandomPlacementPolicy
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import ClusterError, ServiceError
from repro.utils.rng import SeedLike


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
    ) -> None:
        from repro.service.engines import OrchestratorEngine

        self._engine = OrchestratorEngine(cluster_name=cluster_name, canary_shots=canary_shots, seed=seed)
        self.cluster = self._engine.cluster
        self.meta_server = self._engine.meta_server
        self.master_server = self._engine.master_server
        self.scheduler = self._engine.scheduler
        self.visualizer = QRIOVisualizer(self.cluster)
        self._service = None
        #: Service handles of the jobs :meth:`enqueue_form` queued since the
        #: last :meth:`drain_queue`.
        self._queued: List["JobHandle"] = []

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
        """Submit a completed form: uploads metadata, containerizes, creates the job.

        Runs the engine's one submission entry on the form's spec, so a
        rejected form (say, a name that is still active) leaves no metadata,
        image or job behind; :meth:`run_job` then matches and runs the job.
        """
        spec = self._spec_from_form(form)
        return self._engine.submit(spec, spec.name)

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
        """Run the scheduling cycle for one submitted job (no execution).

        A job this binds cannot be run by :meth:`run_job` afterwards.
        """
        decision = self.scheduler.schedule(self.cluster.job(job_name))
        return self._outcome(
            job_name,
            {
                "scores": decision.scores,
                "num_feasible": decision.num_feasible,
                "saturated": decision.filter_report.saturated,
            },
        )

    def run_job(self, job_name: str) -> JobOutcome:
        """Match and execute one job that :meth:`submit_form` entered.

        The engine's MATCHING routes the job (a warm plan, else one scheduling
        cycle) and, when it placed the job, RUNNING executes it.  An unplaced
        job's outcome has no device; a saturated one can be run again once
        capacity frees.

        Raises:
            ClusterError: The job is unknown, was never submitted with
                :meth:`submit_form`, has already run, or was bound by
                :meth:`schedule_job`.
        """
        job = self.cluster.job(job_name)
        spec = self._engine.submitted_spec(job_name)
        if spec is None or job.node_name is not None:
            raise ClusterError(
                f"Job '{job_name}' is not waiting to run: submit it with submit_form "
                "and run it without binding it through schedule_job first"
            )
        placement = self._engine.match(spec, job_name)
        if placement.device is not None:
            self._engine.run(placement)
        return self._outcome(job_name, placement.status_detail())

    def submit_and_run(self, form: JobSubmissionForm) -> JobOutcome:
        """Full user cycle in one call: submit the form, schedule, execute.

        The form's spec is processed through :meth:`service` and the job's
        outcome is reported in the historical :class:`JobOutcome` shape.
        """
        handle = self.service().submit_specs([self._spec_from_form(form)])[0]
        handle.wait()
        return self._handle_outcome(handle)

    def _outcome(self, job_name: str, detail: Dict[str, object]) -> JobOutcome:
        """A job's outcome: its cluster job plus the placement detail of its match."""
        job = self.cluster.job(job_name)
        return JobOutcome(
            job=job,
            device=self._device_of(job.node_name),
            score=job.score,
            result=job.result,
            scores=dict(detail.get("scores", {})),
            num_filtered=int(detail.get("num_feasible", 0)),
            saturated=bool(detail.get("saturated", False)),
        )

    def _handle_outcome(self, handle) -> JobOutcome:
        """The outcome of a finished service job; re-raises the engine error that failed it."""
        if handle.exception is not None:
            raise handle.exception
        return self._outcome(handle.name, handle.status().detail)

    # ------------------------------------------------------------------ #
    # Unified service layer (repro.service)
    # ------------------------------------------------------------------ #
    def service(self, *, workers: int = 0, max_pending: Optional[int] = None) -> "QRIOService":
        """The unified job service over this orchestrator's engine.

        Created lazily on first use (so the fleet can be registered first)
        and cached.  Its engine is the one this facade's cluster, servers and
        scheduler belong to, so vendor-side changes (new devices,
        recalibration, cordons) are visible to service jobs.

        Args:
            workers: Worker-pool size for the service created on the *first*
                call: ``0`` (default) dispatches inline on the caller's
                thread, ``N >= 1`` gives the service runtime N lane workers.
                Note the engine's execution path mutates this facade's
                shared cluster, so its RUNNING stage is serialized even with
                many workers — concurrency shows up in submission, queueing
                and lifecycle, not in overlapped execution.
            max_pending: Backpressure bound forwarded to the service (first
                call only; needs ``workers >= 1``).

        Returns:
            The cached :class:`~repro.service.QRIOService`.

        Raises:
            ServiceError: A later call requested a different non-zero
                ``workers`` than the service was created with.
        """
        from repro.service import QRIOService

        if self._service is None:
            self._service = QRIOService(self.devices(), self._engine, workers=workers, max_pending=max_pending)
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

    def _spec_from_form(self, form: JobSubmissionForm, priority: int = 0):
        """Convert a completed visualizer form into a service job spec on the form's circuit."""
        from repro.service import JobRequirements, JobSpec as ServiceJobSpec

        requirements = form.build_requirements()
        return ServiceJobSpec(
            circuit=form.circuit.copy(name=requirements.job_name),
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
                priority=priority,
            ),
            shots=requirements.shots,
            name=requirements.job_name,
            image_name=requirements.image_name,
        )

    # ------------------------------------------------------------------ #
    # Multi-job extension (future work item 4)
    # ------------------------------------------------------------------ #
    def enqueue_form(self, form: JobSubmissionForm, priority: int = 0) -> str:
        """Submit a form now and queue its job on :meth:`service`; returns the job name.

        ``priority`` is the job's :attr:`~repro.service.JobRequirements.priority`:
        the service dispatches higher priorities first and equal ones in
        submission order.  A rejection by the service (say, a name it already
        ran) leaves the job submitted, as :meth:`submit_form` does.
        """
        spec = self._spec_from_form(form, priority=priority)
        self._engine.submit(spec, spec.name)
        self._queued.append(self.service().submit_specs([spec])[0])
        return spec.name

    def drain_queue(self) -> List[JobOutcome]:
        """Run every queued job through :meth:`service`; returns their outcomes in dispatch order.

        Raises the engine error of the first job in that order that one failed.
        """
        queued, self._queued = self._queued, []
        self.service().process()
        queued.sort(key=_dispatch_time)
        return [self._handle_outcome(handle) for handle in queued]

    # ------------------------------------------------------------------ #
    # Baseline rankings (for experiments)
    # ------------------------------------------------------------------ #
    def random_scheduler(self, seed: SeedLike = None) -> RandomPlacementPolicy:
        """The random-choice baseline, run by ``self.scheduler.schedule(job, policy)``."""
        return RandomPlacementPolicy(seed=seed)

    def oracle_scheduler(
        self, fidelity_threshold: float = 1.0, shots: int = 512, seed: SeedLike = None
    ) -> OraclePlacementPolicy:
        """The oracle baseline, run by ``self.scheduler.schedule(job, policy)``."""
        return OraclePlacementPolicy(fidelity_threshold=fidelity_threshold, shots=shots, seed=seed)

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


def _dispatch_time(handle) -> float:
    """When the service started matching ``handle``'s job: its dispatch order."""
    from repro.service import JobState

    return next(event.timestamp for event in handle.events() if event.state is JobState.MATCHING)
