"""The QRIO Master Server: containerization, job YAML, submission, logs.

Section 3.3: the master server receives the job details from the visualizer,
creates the job directory (QASM file, generated run script, requirements
file, Dockerfile), builds and pushes the docker image, constructs the job
YAML with the user's resource requirements, and invokes the cluster's master
node to schedule the job.  It is also the component the visualizer contacts
to fetch job logs once execution has finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.container import ContainerImage, ImageBuilder, ImageRegistry
from repro.cluster.job import Job, JobSpec
from repro.cluster.registry import ClusterState
from repro.core.visualizer import MasterServerPayload
from repro.qasm.parser import parse_qasm
from repro.simulators.result import SimulationResult
from repro.transpiler.preset import transpile
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
        workspace: Optional[Path] = None,
        seed: SeedLike = None,
    ) -> None:
        self._cluster = cluster
        self._registry = registry or ImageRegistry()
        self._builder = ImageBuilder(workspace=workspace)
        self._seed = seed

    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> ImageRegistry:
        """The docker-hub stand-in images are pushed to."""
        return self._registry

    def containerize(self, payload: MasterServerPayload) -> ContainerImage:
        """Build and push the job's container image (Section 3.3 step 4)."""
        requirements = payload.requirements
        circuit = parse_qasm(payload.circuit_qasm, name=requirements.job_name)
        image = self._builder.build(
            job_name=requirements.job_name,
            image_name=requirements.image_name,
            circuit=circuit,
            shots=requirements.shots,
        )
        self._registry.push(image)
        return image

    def submit(self, payload: MasterServerPayload) -> SubmittedJob:
        """Containerize the job, build its YAML and submit it to the cluster."""
        image = self.containerize(payload)
        spec = payload.requirements.to_job_spec(
            circuit_qasm=payload.circuit_qasm,
            image_reference=image.reference,
        )
        job = self._cluster.submit_job(spec)
        job.log(f"Image {image.reference} pushed to registry")
        job.log("Job manifest created and sent to the QRIO scheduler")
        return SubmittedJob(job=job, image=image, manifest=spec.to_manifest())

    # ------------------------------------------------------------------ #
    def execute_bound_job(
        self, job_name: str, transpile_seed: SeedLike = None, plan=None
    ) -> SimulationResult:
        """Run a job that the scheduler has already bound to a node.

        The node "reads the backend object from its backend.py file and uses
        it as the quantum device running their quantum job": the job circuit
        is transpiled to the node's backend and executed under its noise
        model, and the result plus logs are recorded on the job object.

        ``plan`` replays a cached :class:`~repro.plans.ExecutionPlan` for this
        workload/device/calibration: the QASM parse and the transpile stages
        are skipped entirely and the plan's precompiled execution dispatch
        drives the device, while the execution seed stays per-job so repeat
        submissions sample fresh shots.
        """
        job = self._cluster.job(job_name)
        if job.node_name is None:
            raise MasterServerError(f"Job '{job_name}' has not been scheduled yet")
        node = self._cluster.node(job.node_name)
        if not self._registry.exists(job.spec.image):
            raise MasterServerError(
                f"Image '{job.spec.image}' for job '{job_name}' is missing from the registry"
            )
        image = self._registry.pull(job.spec.image)
        execution_seed = derive_seed(self._seed, "master-execute", job_name, node.backend.name)
        job.mark_running()
        self._cluster.events.record("Pulled", job_name, f"image {image.reference} pulled on {node.name}")
        if plan is None:
            circuit = parse_qasm(job.spec.circuit_qasm, name=job.name).measured()
        try:
            if plan is not None:
                compiled = plan.transpiled
                job.transpiled = compiled.circuit
                job.transpile_result = compiled
                job.log(f"Replayed cached execution plan for {node.backend.name} (transpile skipped)")
                result = node.execute(
                    compiled.circuit,
                    shots=job.spec.shots,
                    seed=execution_seed,
                    precompiled=plan.execution,
                )
            else:
                compiled = transpile(
                    circuit,
                    node.backend,
                    seed=derive_seed(transpile_seed if transpile_seed is not None else self._seed,
                                     "master-transpile", job_name, node.backend.name),
                )
                job.transpiled = compiled.circuit
                job.transpile_result = compiled
                job.log(
                    f"Transpiled to {node.backend.name}: {compiled.two_qubit_gate_count()} two-qubit gates, "
                    f"{compiled.swaps_inserted} SWAPs inserted"
                )
                result = node.execute(
                    compiled.circuit,
                    shots=job.spec.shots,
                    seed=execution_seed,
                )
        except Exception as error:  # noqa: BLE001 - report any execution failure on the job
            job.mark_failed(str(error))
            self._cluster.events.record("Failed", job_name, str(error))
            self._cluster.release(job_name)
            raise MasterServerError(f"Execution of job '{job_name}' failed: {error}") from error
        job.mark_succeeded(result)
        self._cluster.events.record("Executed", job_name, f"{result.shots} shots on {node.name}")
        self._cluster.release(job_name)
        return result

    # ------------------------------------------------------------------ #
    def job_logs(self, job_name: str) -> List[str]:
        """Fetch a job's logs (only complete once execution has finished)."""
        job = self._cluster.job(job_name)
        if not job.is_finished():
            return ["Logs are available once the job has finished execution."]
        return list(job.logs)
