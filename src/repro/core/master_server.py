"""The QRIO Master Server: containerization, job YAML, plans, execution, logs.

Section 3.3: the master server receives the job details from the visualizer,
creates the job directory (QASM file, generated run script, requirements
file, Dockerfile), builds and pushes the docker image, constructs the job
YAML with the user's resource requirements, and invokes the cluster's master
node to schedule the job.  It is also the component the visualizer contacts
to fetch job logs once execution has finished.

Execution has one branch: a bound job runs an
:class:`~repro.plans.ExecutionPlan`.  A cold job's plan is compiled here once
(:meth:`MasterServer.compile_plan`, on the submitted circuit object); a warm
job replays a stored one.  No job's manifest QASM is parsed back into a
circuit: every caller, the :class:`~repro.core.QRIO` facade included, runs
through the engine, which hands over a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.cluster.container import ContainerImage, ImageBuilder, ImageRegistry
from repro.cluster.job import Job
from repro.cluster.node import Node
from repro.cluster.registry import ClusterState
from repro.core.requirements import UserRequirements
from repro.plans import ExecutionPlan, PlanCompiler
# Bound only for perfbench/test_tracer.py, which checks that the tracer
# rewraps every module's binding of parse_qasm; nothing here parses QASM.
from repro.qasm.parser import parse_qasm  # noqa: F401
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import MasterServerError
from repro.utils.rng import SeedLike, derive_seed


@dataclass
class SubmittedJob:
    """What the master server hands back after accepting a submission."""

    job: Job
    image: ContainerImage
    manifest: Dict[str, object]


class MasterServer:
    """In-process reproduction of the QRIO master server."""

    def __init__(
        self,
        cluster: ClusterState,
        registry: Optional[ImageRegistry] = None,
        seed: SeedLike = None,
    ) -> None:
        self._cluster = cluster
        self._registry = registry or ImageRegistry()
        self._builder = ImageBuilder()
        self._compiler = PlanCompiler()
        self._seed = seed

    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> ImageRegistry:
        """The docker-hub stand-in images are pushed to."""
        return self._registry

    def containerize(self, requirements: UserRequirements, circuit: QuantumCircuit) -> ContainerImage:
        """Build and push the job's container image (Section 3.3 step 4)."""
        image = self._builder.build(
            job_name=requirements.job_name,
            image_name=requirements.image_name,
            circuit=circuit,
            shots=requirements.shots,
        )
        self._registry.push(image)
        return image

    def submit(self, requirements: UserRequirements, circuit: QuantumCircuit) -> SubmittedJob:
        """Containerize the job, build its YAML and submit it to the cluster.

        The circuit is dumped to QASM once, into the image; the manifest
        carries that same text.
        """
        image = self.containerize(requirements, circuit)
        spec = requirements.to_job_spec(
            circuit_qasm=image.file(f"{requirements.job_name}.qasm"),
            image_reference=image.reference,
        )
        job = self._cluster.submit_job(spec)
        job.log(f"Image {image.reference} pushed to registry")
        job.log("Job manifest created and sent to the QRIO scheduler")
        return SubmittedJob(job=job, image=image, manifest=spec.to_manifest())

    # ------------------------------------------------------------------ #
    def compile_plan(
        self,
        job_name: str,
        circuit: QuantumCircuit,
        *,
        num_feasible: int = 0,
        scores: Optional[Dict[str, float]] = None,
    ) -> ExecutionPlan:
        """Compile ``circuit`` into the execution plan of a bound job.

        The circuit is transpiled to the job's node under the job's own
        ``master-transpile`` seed and its execution dispatch is precompiled;
        the plan records the job's score and the caller's ranking verdict
        (``num_feasible``, ``scores``) so a warm replay can skip MATCHING.  A
        failed compile fails the job and frees its node; a successful one
        records on the job the transpile summary it logs when it runs.
        """
        job, node = self._bound(job_name)
        try:
            plan = self._compiler.compile(
                circuit,
                node.backend,
                transpile_seed=derive_seed(self._seed, "master-transpile", job_name, node.backend.name),
                score=job.score,
                num_feasible=num_feasible,
                scores=scores,
            )
        except Exception as error:  # noqa: BLE001 - report any compile failure on the job
            raise self._fail(job, error) from error
        job.transpile_summary = (
            f"Transpiled to {node.backend.name}: {plan.transpiled.two_qubit_gate_count()} two-qubit gates, "
            f"{plan.transpiled.swaps_inserted} SWAPs inserted"
        )
        return plan

    def execute_bound_job(self, job_name: str, plan: ExecutionPlan) -> SimulationResult:
        """Run a job that the scheduler has already bound to a node.

        The node "reads the backend object from its backend.py file and uses
        it as the quantum device running their quantum job": the plan's
        transpiled circuit executes under the node's noise model through the
        plan's precompiled dispatch, and the result plus logs are recorded on
        the job object.  The execution seed is per job, so a replayed plan
        samples fresh shots.

        A job whose plan :meth:`compile_plan` built logs that plan's
        transpile summary; a job replaying a stored plan logs a replay.
        """
        job, node = self._bound(job_name)
        if not self._registry.exists(job.spec.image):
            raise MasterServerError(
                f"Image '{job.spec.image}' for job '{job_name}' is missing from the registry"
            )
        image = self._registry.pull(job.spec.image)
        job.mark_running()
        self._cluster.events.record("Pulled", job_name, f"image {image.reference} pulled on {node.name}")
        job.transpiled = plan.transpiled.circuit
        job.log(
            job.transpile_summary
            or f"Replayed cached execution plan for {node.backend.name} (transpile skipped)"
        )
        try:
            result = node.execute(
                job.transpiled,
                shots=job.spec.shots,
                seed=derive_seed(self._seed, "master-execute", job_name, node.backend.name),
                precompiled=plan.execution,
            )
        except Exception as error:  # noqa: BLE001 - report any execution failure on the job
            raise self._fail(job, error) from error
        job.mark_succeeded(result)
        self._cluster.events.record("Executed", job_name, f"{result.shots} shots on {node.name}")
        self._cluster.release(job_name)
        return result

    def _bound(self, job_name: str) -> Tuple[Job, Node]:
        """The job and the node it is bound to."""
        job = self._cluster.job(job_name)
        if job.node_name is None:
            raise MasterServerError(f"Job '{job_name}' has not been scheduled yet")
        return job, self._cluster.node(job.node_name)

    def _fail(self, job: Job, error: Exception) -> MasterServerError:
        """Record ``error`` on the job, free its node and return the error to raise."""
        job.mark_failed(str(error))
        self._cluster.events.record("Failed", job.name, str(error))
        self._cluster.release(job.name)
        return MasterServerError(f"Execution of job '{job.name}' failed: {error}")

    # ------------------------------------------------------------------ #
    def job_logs(self, job_name: str) -> List[str]:
        """Fetch a job's logs (only complete once execution has finished)."""
        job = self._cluster.job(job_name)
        if not job.is_finished():
            return ["Logs are available once the job has finished execution."]
        return list(job.logs)
