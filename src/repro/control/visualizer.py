"""The QRIO Visualizer, reproduced as a programmatic + text interface.

The paper's visualizer is a React web application; its functional role in
the system is (a) the three-step job submission form, (b) the topology
drawing canvas whose result is converted into a *topology circuit* (one CNOT
per drawn interaction), (c) producing the meta-server payload of Table 1
(the master server takes the form's requirements and circuit object
directly), and (d) showing job logs and the cluster view.  All four functions are reproduced here; rendering is
plain text instead of HTML.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.cluster.registry import ClusterState
from repro.control.requirements import UserRequirements
from repro.qasm.exporter import dump_qasm
from repro.qasm.parser import parse_qasm
from repro.utils.exceptions import VisualizerError
from repro.utils.validation import require_positive_int


class TopologyCanvas:
    """The drawing canvas: qubit nodes plus user-drawn interaction edges.

    The canvas mimics the react-flow widget of the paper: it is created with
    the requested number of qubits, the user draws undirected edges between
    them, and the result is converted into a *topology circuit* — "a quantum
    circuit of the specified number of qubits ... each interaction between
    two qubits is modeled as a 2-qubit CNOT gate" (Section 3.2).
    """

    def __init__(self, num_qubits: int) -> None:
        require_positive_int(num_qubits, "num_qubits")
        self.num_qubits = num_qubits
        self._edges: Set[Tuple[int, int]] = set()

    def draw_edge(self, qubit_a: int, qubit_b: int) -> "TopologyCanvas":
        """Draw an interaction between two qubits (idempotent, undirected)."""
        a, b = int(qubit_a), int(qubit_b)
        if a == b:
            raise VisualizerError("Cannot draw an edge from a qubit to itself")
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise VisualizerError(
                f"Edge ({a}, {b}) is outside the canvas of {self.num_qubits} qubits"
            )
        self._edges.add((min(a, b), max(a, b)))
        return self

    def erase_edge(self, qubit_a: int, qubit_b: int) -> "TopologyCanvas":
        """Remove a previously drawn interaction."""
        self._edges.discard((min(int(qubit_a), int(qubit_b)), max(int(qubit_a), int(qubit_b))))
        return self

    def load_edges(self, edges: Sequence[Tuple[int, int]]) -> "TopologyCanvas":
        """Draw many edges at once (used by the default-topology drop-down)."""
        for a, b in edges:
            self.draw_edge(a, b)
        return self

    def edges(self) -> List[Tuple[int, int]]:
        """The drawn edges, sorted."""
        return sorted(self._edges)

    def to_topology_circuit(self, name: str = "topology_circuit") -> QuantumCircuit:
        """Convert the drawing into the pseudo quantum circuit of Section 3.2."""
        if not self._edges:
            raise VisualizerError("Draw at least one interaction before submitting a topology")
        circuit = QuantumCircuit(self.num_qubits, self.num_qubits, name=name)
        for a, b in sorted(self._edges):
            circuit.cx(a, b)
        circuit.metadata["topology_edges"] = sorted(self._edges)
        return circuit

    def render(self) -> str:
        """ASCII rendering of the drawn topology (adjacency list)."""
        lines = [f"Topology canvas ({self.num_qubits} qubits)"]
        adjacency: Dict[int, List[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in sorted(self._edges):
            adjacency[a].append(b)
            adjacency[b].append(a)
        for qubit in range(self.num_qubits):
            neighbours = ", ".join(str(n) for n in sorted(adjacency[qubit])) or "(isolated)"
            lines.append(f"  q{qubit}: {neighbours}")
        return "\n".join(lines)


@dataclass
class MetaServerPayload:
    """What the visualizer uploads to the meta server (Table 1)."""

    job_name: str
    strategy: str
    fidelity_threshold: Optional[float] = None
    circuit_qasm: Optional[str] = None
    topology_qasm: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """Serialised form (what would go over the wire)."""
        payload: Dict[str, object] = {"job_name": self.job_name, "strategy": self.strategy}
        if self.strategy == "fidelity":
            payload["fidelity_threshold"] = self.fidelity_threshold
            payload["circuit_qasm"] = self.circuit_qasm
        else:
            payload["topology_qasm"] = self.topology_qasm
        return payload


class JobSubmissionForm:
    """The three-step submission form of the QRIO visualizer."""

    def __init__(self) -> None:
        self._circuit: Optional[QuantumCircuit] = None
        self._circuit_qasm: Optional[str] = None
        self._details: Dict[str, object] = {}
        self._constraints: Dict[str, Optional[float]] = {}
        self._fidelity: Optional[float] = None
        self._topology: Optional[TopologyCanvas] = None

    # -- step 0: choose a circuit --------------------------------------- #
    def choose_circuit(self, circuit_or_qasm) -> "JobSubmissionForm":
        """Upload the job circuit (a QASM string or a circuit object)."""
        if isinstance(circuit_or_qasm, QuantumCircuit):
            self._circuit = circuit_or_qasm
            self._circuit_qasm = dump_qasm(circuit_or_qasm)
        elif isinstance(circuit_or_qasm, str):
            self._circuit = parse_qasm(circuit_or_qasm)
            self._circuit_qasm = circuit_or_qasm
        else:
            raise VisualizerError("choose_circuit expects a QuantumCircuit or QASM text")
        return self

    # -- step 1: job details -------------------------------------------- #
    def set_job_details(
        self,
        job_name: str,
        image_name: str,
        num_qubits: int,
        cpu_millicores: int = 500,
        memory_mb: int = 512,
        shots: int = 1024,
    ) -> "JobSubmissionForm":
        """Fill in the first page of the form (Fig. 4a)."""
        self._details = {
            "job_name": job_name,
            "image_name": image_name,
            "num_qubits": num_qubits,
            "cpu_millicores": cpu_millicores,
            "memory_mb": memory_mb,
            "shots": shots,
        }
        return self

    # -- step 2: device characteristics --------------------------------- #
    def set_device_characteristics(
        self,
        max_avg_two_qubit_error: Optional[float] = None,
        max_avg_readout_error: Optional[float] = None,
        min_avg_t1: Optional[float] = None,
        min_avg_t2: Optional[float] = None,
    ) -> "JobSubmissionForm":
        """Fill in the second page of the form (Fig. 4b); all fields optional."""
        self._constraints = {
            "max_avg_two_qubit_error": max_avg_two_qubit_error,
            "max_avg_readout_error": max_avg_readout_error,
            "min_avg_t1": min_avg_t1,
            "min_avg_t2": min_avg_t2,
        }
        return self

    # -- step 3: fidelity or topology ------------------------------------ #
    def request_fidelity(self, fidelity_threshold: float) -> "JobSubmissionForm":
        """Choose the fidelity strategy (Fig. 4d)."""
        self._fidelity = fidelity_threshold
        self._topology = None
        return self

    def request_topology(self, canvas: TopologyCanvas) -> "JobSubmissionForm":
        """Choose the topology strategy with a drawn/preloaded canvas (Fig. 4e/4f)."""
        self._topology = canvas
        self._fidelity = None
        return self

    # -------------------------------------------------------------------- #
    @property
    def circuit(self) -> Optional[QuantumCircuit]:
        """The chosen job circuit (``None`` before step 0)."""
        return self._circuit

    def build_requirements(self) -> UserRequirements:
        """Validate the form and produce the structured requirements."""
        if self._circuit is None or self._circuit_qasm is None:
            raise VisualizerError("No circuit chosen; upload a QASM file first")
        if not self._details:
            raise VisualizerError("Job details (step 1) have not been filled in")
        return UserRequirements(
            job_name=str(self._details["job_name"]),
            image_name=str(self._details["image_name"]),
            num_qubits=int(self._details["num_qubits"]),
            cpu_millicores=int(self._details["cpu_millicores"]),
            memory_mb=int(self._details["memory_mb"]),
            shots=int(self._details["shots"]),
            max_avg_two_qubit_error=self._constraints.get("max_avg_two_qubit_error"),
            max_avg_readout_error=self._constraints.get("max_avg_readout_error"),
            min_avg_t1=self._constraints.get("min_avg_t1"),
            min_avg_t2=self._constraints.get("min_avg_t2"),
            fidelity_threshold=self._fidelity,
            topology_edges=self._topology.edges() if self._topology is not None else None,
        )

    def submit(self) -> MetaServerPayload:
        """Complete the workflow: produce the Table-1 meta-server payload."""
        requirements = self.build_requirements()
        if requirements.strategy == "fidelity":
            return MetaServerPayload(
                job_name=requirements.job_name,
                strategy="fidelity",
                fidelity_threshold=requirements.fidelity_threshold,
                circuit_qasm=self._circuit_qasm,
            )
        topology_circuit = self._topology.to_topology_circuit(name=f"{requirements.job_name}_topology")
        return MetaServerPayload(
            job_name=requirements.job_name,
            strategy="topology",
            topology_qasm=dump_qasm(topology_circuit),
        )


class QRIOVisualizer:
    """Front page + job views of the dashboard, rendered as text."""

    def __init__(self, cluster: ClusterState) -> None:
        self._cluster = cluster

    def new_form(self) -> JobSubmissionForm:
        """Start a fresh job submission workflow ("Choose a circuit")."""
        return JobSubmissionForm()

    def new_canvas(self, num_qubits: int) -> TopologyCanvas:
        """Open the topology drawing canvas for ``num_qubits`` qubits."""
        return TopologyCanvas(num_qubits)

    def render_front_page(self) -> str:
        """The landing view: cluster summary (the "view the current cluster" option)."""
        nodes = self._cluster.nodes()
        lines = [
            "=== QRIO ===",
            f"Cluster '{self._cluster.name}' with {len(nodes)} node(s)",
            "",
            f"{'NODE':<28s} {'QUBITS':>6s} {'AVG 2Q ERR':>11s} {'STATUS':>10s} {'JOBS':>5s}",
        ]
        for node in nodes:
            lines.append(
                f"{node.name:<28s} {node.backend.num_qubits:>6d} "
                f"{node.backend.properties.average_two_qubit_error():>11.4f} "
                f"{node.status.value:>10s} {len(node.bound_jobs):>5d}"
            )
        return "\n".join(lines)

    def render_job_view(self, job_name: str) -> str:
        """The post-submission view: chosen device and logs (Fig. 5)."""
        job = self._cluster.job(job_name)
        lines = [
            f"=== Job {job.name} ===",
            f"Phase:    {job.phase.value}",
            f"Device:   {job.node_name or '(not scheduled yet)'}",
            f"Strategy: {job.spec.strategy}",
        ]
        if job.score is not None:
            lines.append(f"Score:    {job.score:.4f}")
        lines.append("")
        lines.append("Logs:")
        if job.logs:
            lines.extend(f"  {line}" for line in job.logs)
        else:
            lines.append("  (logs are available once the job has finished execution)")
        if job.result is not None:
            top = sorted(job.result.counts.items(), key=lambda kv: -kv[1])[:5]
            lines.append("")
            lines.append("Top measurement outcomes:")
            lines.extend(f"  {bitstring}: {count}" for bitstring, count in top)
        return "\n".join(lines)
