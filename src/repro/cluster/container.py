"""Simulated containerization: image building, the registry, and the runtime.

The QRIO master server packages every job into a docker image holding the
user's QASM file, a generated Python run-script, a requirements file and the
Dockerfile itself, then pushes the image to a registry so the chosen node can
pull and run it (Section 3.3).  This module reproduces those artefacts and
the pull/run lifecycle fully in memory (optionally materialising the build
directory on disk), so the end-to-end flow is inspectable without a Docker
daemon.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.qasm.exporter import dump_qasm
from repro.utils.exceptions import ClusterError
from repro.utils.validation import require_name

#: Python packages the paper installs inside every job container.
CONTAINER_REQUIREMENTS = (
    "qiskit",
    "qiskit-aer",
    "matplotlib",
    "qiskit_ibmq_provider",
    "qiskit_ibm_runtime",
)

_RUN_SCRIPT_TEMPLATE = '''"""Auto-generated QRIO job runner.

Reads the node-local backend description (backend.py), transpiles the job's
QASM circuit to that backend and executes it, writing the counts to stdout.
In this reproduction the script is executed by the in-process container
runtime rather than a Docker daemon, but the artefact matches what the QRIO
master server would build.
"""

from backend import backend  # noqa: F401  (vendor-provided device description)

QASM_FILE = "{qasm_file}"
SHOTS = {shots}


def main():
    with open(QASM_FILE) as handle:
        qasm = handle.read()
    # transpile(qasm, backend) and execute for SHOTS shots; the hosting node
    # performs these steps through the repro library when running in-process.
    print("Running", QASM_FILE, "for", SHOTS, "shots")


if __name__ == "__main__":
    main()
'''


@dataclass
class ContainerImage:
    """An immutable bundle of job artefacts, addressed by image name and tag."""

    name: str
    tag: str
    files: Dict[str, str]
    job_name: str

    @property
    def reference(self) -> str:
        """Full image reference, e.g. ``qrio/bv-job:latest``."""
        return f"{self.name}:{self.tag}"

    def file(self, filename: str) -> str:
        """Contents of one file in the image."""
        if filename not in self.files:
            raise ClusterError(f"Image '{self.reference}' has no file '{filename}'")
        return self.files[filename]


class ImageBuilder:
    """Builds container images for QRIO jobs (the master server's build step)."""

    def __init__(self, workspace: Optional[Path] = None) -> None:
        self._workspace = Path(workspace) if workspace is not None else None

    def build(
        self,
        job_name: str,
        image_name: str,
        circuit: QuantumCircuit,
        shots: int = 1024,
        tag: str = "latest",
    ) -> ContainerImage:
        """Assemble the job directory artefacts and produce an image.

        The image contains exactly the four artefacts the paper lists: the
        QASM circuit, the generated run script, ``requirements.txt`` and the
        ``Dockerfile``.
        """
        require_name(job_name, "job_name")
        require_name(image_name, "image_name")
        qasm_file = f"{job_name}.qasm"
        files = {
            qasm_file: dump_qasm(circuit),
            "run_job.py": _RUN_SCRIPT_TEMPLATE.format(qasm_file=qasm_file, shots=shots),
            "requirements.txt": "\n".join(CONTAINER_REQUIREMENTS) + "\n",
            "Dockerfile": self._dockerfile(qasm_file),
        }
        if self._workspace is not None:
            job_dir = self._workspace / job_name
            job_dir.mkdir(parents=True, exist_ok=True)
            for filename, content in files.items():
                (job_dir / filename).write_text(content, encoding="utf-8")
        return ContainerImage(name=image_name, tag=tag, files=files, job_name=job_name)

    @staticmethod
    def _dockerfile(qasm_file: str) -> str:
        return "\n".join(
            [
                "FROM python:3.11-slim",
                "WORKDIR /job",
                "COPY requirements.txt .",
                "RUN pip install -r requirements.txt",
                f"COPY {qasm_file} .",
                "COPY run_job.py .",
                'CMD ["python", "run_job.py"]',
                "",
            ]
        )


class ImageRegistry:
    """In-memory docker-hub stand-in: push images, pull them by reference."""

    def __init__(self) -> None:
        self._images: Dict[str, ContainerImage] = {}

    def push(self, image: ContainerImage) -> str:
        """Store ``image`` and return its reference."""
        self._images[image.reference] = image
        return image.reference

    def pull(self, reference: str) -> ContainerImage:
        """Retrieve an image by ``name:tag`` reference."""
        if reference not in self._images:
            raise ClusterError(f"Image '{reference}' not found in the registry")
        return self._images[reference]

    def exists(self, reference: str) -> bool:
        """``True`` when the registry holds ``reference``."""
        return reference in self._images

    def references(self) -> List[str]:
        """All stored image references."""
        return sorted(self._images)

    def __len__(self) -> int:
        return len(self._images)
