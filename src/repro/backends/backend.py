"""The executable :class:`Backend`: calibration data plus a ``run`` method.

A backend is what a QRIO worker node wraps: it can transpile-and-execute a
circuit under the device's noise profile.  It also knows how to render and
load the vendor ``backend.py`` file mandated by Section 3.1 of the paper
("all nodes are required to contain this file named backend.py, and the
Backend object is exposed in a variable called backend").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from repro.backends.properties import BackendProperties
from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noise import NoiseModel
from repro.simulators.noisy import execute_with_noise
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import BackendError
from repro.utils.rng import SeedLike

#: Default number of shots used when a job does not specify one.
DEFAULT_SHOTS = 1024


@dataclass
class Backend:
    """A simulated quantum device: properties plus an execution engine."""

    properties: BackendProperties

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Device name (unique within a cluster)."""
        return self.properties.name

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits on the device."""
        return self.properties.num_qubits

    def noise_model(self) -> NoiseModel:
        """The executable noise model derived from the calibration data."""
        return self.properties.to_noise_model()

    # ------------------------------------------------------------------ #
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = DEFAULT_SHOTS,
        seed: SeedLike = None,
        noisy: bool = True,
        precompiled=None,
    ) -> SimulationResult:
        """Execute ``circuit`` on this device.

        The circuit must already be transpiled to the device (its qubit
        indices are interpreted as physical qubits).  Set ``noisy=False`` for
        an ideal reference execution with the same qubit bookkeeping.
        ``precompiled`` replays a cached
        :class:`~repro.simulators.noisy.PrecompiledExecution` of the same
        circuit, skipping the per-gate dispatch analysis (the execution-plan
        path); shots are still sampled fresh under ``seed``.

        The execution reads its noise rates from the live calibration
        (:attr:`properties`); a full :class:`NoiseModel` is built only for
        circuits too wide for the exact density engine.
        """
        if circuit.num_qubits > self.num_qubits:
            raise BackendError(
                f"Circuit '{circuit.name}' uses {circuit.num_qubits} qubits but device "
                f"'{self.name}' only has {self.num_qubits}"
            )
        rates = self.properties if noisy else NoiseModel.ideal()
        return execute_with_noise(circuit, rates, shots=shots, seed=seed, precompiled=precompiled)

    # ------------------------------------------------------------------ #
    # Vendor backend.py files
    # ------------------------------------------------------------------ #
    def render_backend_py(self) -> str:
        """Render the vendor ``backend.py`` source for this device.

        The generated module exposes the calibration data in a variable named
        ``backend`` (a plain dictionary in this reproduction), matching the
        contract the paper places on worker nodes and the meta server.
        """
        payload = self.properties.to_json()
        lines = [
            '"""Vendor-provided backend file (auto-generated by repro.backends)."""',
            "",
            "import json",
            "",
            "BACKEND_JSON = '''",
            payload,
            "'''",
            "",
            "#: The backend object read by the job runner and the QRIO meta server.",
            "backend = json.loads(BACKEND_JSON)",
            "",
        ]
        return "\n".join(lines)

    def write_backend_py(self, directory: Path) -> Path:
        """Write ``backend.py`` into ``directory`` and return its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "backend.py"
        path.write_text(self.render_backend_py(), encoding="utf-8")
        return path

    @classmethod
    def from_backend_py(cls, path: Path) -> "Backend":
        """Load a backend from a vendor ``backend.py`` file.

        The file is parsed, not executed: the JSON payload between the
        ``BACKEND_JSON`` markers is extracted directly, so loading an
        untrusted vendor file cannot run arbitrary code.
        """
        text = Path(path).read_text(encoding="utf-8")
        marker = "BACKEND_JSON = '''"
        start = text.find(marker)
        if start < 0:
            raise BackendError(f"{path} does not look like a QRIO backend.py file")
        start += len(marker)
        end = text.find("'''", start)
        if end < 0:
            raise BackendError(f"{path} has an unterminated BACKEND_JSON block")
        payload = text[start:end]
        return cls(BackendProperties.from_json(payload))

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Aggregate metrics used as cluster node labels."""
        return self.properties.label_summary()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Backend(name={self.name!r}, qubits={self.num_qubits}, "
            f"avg_2q_error={self.properties.average_two_qubit_error():.3f})"
        )
