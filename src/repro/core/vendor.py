"""Vendor-side operations: device onboarding, calibration updates, fleet reports.

The paper's discussion section (Section 5) lists two vendor-facing gaps in
the published prototype: vendors get no dashboard of their own (item 1) and
must describe devices as Qiskit ``Backend`` objects (item 2).  This module
closes both gaps for the reproduction:

* :class:`DeviceSpec` is a vendor-neutral device description — a name, a
  coupling map and aggregate error figures — that QRIO expands into the full
  per-qubit calibration record, so vendors who cannot (or will not) produce
  a Qiskit-style backend can still join the cluster;
* :class:`VendorConsole` is the programmatic dashboard: register and
  decommission devices, cordon/uncordon/drain nodes, push calibration
  updates (the temporal variability of Section 2.2) and render a fleet
  report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.backends.properties import DEFAULT_BASIS_GATES, BackendProperties
from repro.cluster.node import Node, NodeCapacity
from repro.utils.exceptions import BackendError, ClusterError
from repro.utils.validation import require_name, require_positive_int, require_probability


@dataclass
class DeviceSpec:
    """Vendor-neutral device description (future-work item 2).

    Only aggregate figures are mandatory; QRIO broadcasts them over every
    qubit and coupling edge to synthesise the full
    :class:`~repro.backends.BackendProperties` record the rest of the system
    expects.  Per-qubit or per-edge overrides may be supplied when the vendor
    has them.
    """

    name: str
    num_qubits: int
    coupling_map: Sequence[Tuple[int, int]]
    two_qubit_error: float = 0.02
    one_qubit_error: float = 0.002
    readout_error: float = 0.02
    t1: float = 100e3
    t2: float = 100e3
    readout_length: float = 30.0
    basis_gates: Tuple[str, ...] = DEFAULT_BASIS_GATES
    #: Optional per-edge override of the two-qubit error, keyed "a-b".
    edge_overrides: Dict[str, float] = field(default_factory=dict)
    #: Optional per-qubit override of the readout error.
    readout_overrides: Dict[int, float] = field(default_factory=dict)
    #: Free-form vendor extras (modality, pulse data, ...).
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_name(self.name, "name")
        require_positive_int(self.num_qubits, "num_qubits")
        require_probability(self.two_qubit_error, "two_qubit_error")
        require_probability(self.one_qubit_error, "one_qubit_error")
        require_probability(self.readout_error, "readout_error")
        if not self.coupling_map:
            raise BackendError(f"DeviceSpec '{self.name}' needs at least one coupling edge")

    # ------------------------------------------------------------------ #
    def to_backend(self) -> Backend:
        """Expand the aggregate description into a runnable :class:`Backend`."""
        edges = [tuple(sorted((int(a), int(b)))) for a, b in self.coupling_map]
        two_qubit = {}
        for edge in edges:
            key = f"{edge[0]}-{edge[1]}"
            two_qubit[edge] = float(self.edge_overrides.get(key, self.two_qubit_error))
        readout = {
            qubit: float(self.readout_overrides.get(qubit, self.readout_error))
            for qubit in range(self.num_qubits)
        }
        properties = BackendProperties(
            name=self.name,
            num_qubits=self.num_qubits,
            coupling_map=edges,
            basis_gates=tuple(self.basis_gates),
            two_qubit_error=two_qubit,
            one_qubit_error={qubit: self.one_qubit_error for qubit in range(self.num_qubits)},
            readout_error=readout,
            readout_length={qubit: self.readout_length for qubit in range(self.num_qubits)},
            t1={qubit: self.t1 for qubit in range(self.num_qubits)},
            t2={qubit: self.t2 for qubit in range(self.num_qubits)},
            extras=dict(self.extras),
        )
        return Backend(properties)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DeviceSpec":
        """Build a spec from a plain dictionary (what a vendor API would POST)."""
        try:
            return cls(
                name=str(payload["name"]),
                num_qubits=int(payload["num_qubits"]),
                coupling_map=[tuple(edge) for edge in payload["coupling_map"]],
                two_qubit_error=float(payload.get("two_qubit_error", 0.02)),
                one_qubit_error=float(payload.get("one_qubit_error", 0.002)),
                readout_error=float(payload.get("readout_error", 0.02)),
                t1=float(payload.get("t1", 100e3)),
                t2=float(payload.get("t2", 100e3)),
                readout_length=float(payload.get("readout_length", 30.0)),
                basis_gates=tuple(payload.get("basis_gates", DEFAULT_BASIS_GATES)),
                edge_overrides={str(k): float(v) for k, v in dict(payload.get("edge_overrides", {})).items()},
                readout_overrides={int(k): float(v) for k, v in dict(payload.get("readout_overrides", {})).items()},
                extras=dict(payload.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"Malformed device spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "DeviceSpec":
        """Build a spec from its JSON representation."""
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation of the spec."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "coupling_map": [list(edge) for edge in self.coupling_map],
            "two_qubit_error": self.two_qubit_error,
            "one_qubit_error": self.one_qubit_error,
            "readout_error": self.readout_error,
            "t1": self.t1,
            "t2": self.t2,
            "readout_length": self.readout_length,
            "basis_gates": list(self.basis_gates),
            "edge_overrides": dict(self.edge_overrides),
            "readout_overrides": {str(k): v for k, v in self.readout_overrides.items()},
            "extras": dict(self.extras),
        }


class VendorConsole:
    """Programmatic vendor dashboard over one QRIO deployment.

    All operations address devices by their *device* name (the backend name),
    not the node name, matching how a vendor thinks about their fleet.
    """

    def __init__(self, qrio) -> None:
        # ``qrio`` is a :class:`repro.core.orchestrator.QRIO`; typed loosely to
        # avoid an import cycle (the orchestrator constructs the console).
        self._qrio = qrio

    # ------------------------------------------------------------------ #
    # Onboarding
    # ------------------------------------------------------------------ #
    def register_backend(self, backend: Backend, capacity: Optional[NodeCapacity] = None) -> Node:
        """Register a fully described backend as a new cluster node."""
        return self._qrio.register_device(backend, capacity=capacity)

    def register_spec(self, spec: DeviceSpec, capacity: Optional[NodeCapacity] = None) -> Node:
        """Register a device described by a vendor-neutral :class:`DeviceSpec`."""
        return self.register_backend(spec.to_backend(), capacity=capacity)

    def register_payload(self, payload: Mapping[str, object], capacity: Optional[NodeCapacity] = None) -> Node:
        """Register a device from a plain dictionary payload."""
        return self.register_spec(DeviceSpec.from_dict(payload), capacity=capacity)

    def register_backend_file(self, path: Path, capacity: Optional[NodeCapacity] = None) -> Node:
        """Register a device from a vendor ``backend.py`` file (Section 3.1)."""
        return self.register_backend(Backend.from_backend_py(Path(path)), capacity=capacity)

    # ------------------------------------------------------------------ #
    # Node lifecycle
    # ------------------------------------------------------------------ #
    def _node_for_device(self, device_name: str) -> Node:
        node = self._qrio.cluster.node_for_device(device_name)
        if node is None:
            raise ClusterError(f"No cluster node hosts a device named '{device_name}'")
        return node

    def cordon(self, device_name: str) -> Node:
        """Stop scheduling new jobs onto ``device_name``."""
        node = self._node_for_device(device_name)
        node.cordon()
        self._qrio.cluster.events.record("NodeCordoned", node.name, "vendor cordoned the device")
        return node

    def uncordon(self, device_name: str) -> Node:
        """Make ``device_name`` schedulable again."""
        node = self._node_for_device(device_name)
        node.uncordon()
        self._qrio.cluster.events.record("NodeUncordoned", node.name, "vendor uncordoned the device")
        return node

    def drain(self, device_name: str) -> List[str]:
        """Cordon ``device_name`` and report the jobs still bound to it.

        Bound jobs are left to finish (QRIO jobs are short-lived batch pods);
        once the returned list is empty the device can be decommissioned.
        """
        node = self.cordon(device_name)
        return list(node.bound_jobs)

    def decommission(self, device_name: str) -> None:
        """Remove a drained device from the cluster and the meta server."""
        node = self._node_for_device(device_name)
        self._qrio.cluster.remove_node(node.name)
        self._qrio.meta_server.remove_backend(device_name)

    # ------------------------------------------------------------------ #
    # Calibration updates (temporal variability, Section 2.2)
    # ------------------------------------------------------------------ #
    def update_calibration(self, device_name: str, properties: BackendProperties) -> Node:
        """Replace a device's calibration record after a new calibration cycle.

        The node's labels and the meta server's stored copy are refreshed and
        any cached scores against the stale calibration are invalidated.
        """
        node = self._node_for_device(device_name)
        if properties.name != device_name:
            raise ClusterError(
                f"Calibration update for '{device_name}' carries properties named '{properties.name}'"
            )
        if properties.num_qubits != node.backend.num_qubits:
            raise ClusterError(
                "A calibration update cannot change the number of qubits "
                f"({node.backend.num_qubits} -> {properties.num_qubits})"
            )
        updated = Backend(properties)
        node.backend = updated
        node.labels = type(node.labels).from_backend(
            updated,
            cpu_millicores=node.capacity.cpu_millicores,
            memory_mb=node.capacity.memory_mb,
        )
        self._qrio.meta_server.refresh_backend(updated)
        self._qrio.cluster.events.record(
            "CalibrationUpdated",
            node.name,
            f"avg_2q_error={properties.average_two_qubit_error():.4f}",
        )
        return node

    # ------------------------------------------------------------------ #
    # Reporting (the vendor dashboard, future-work item 1)
    # ------------------------------------------------------------------ #
    def fleet_summary(self) -> List[Dict[str, object]]:
        """One structured row per device (the data behind the dashboard)."""
        rows: List[Dict[str, object]] = []
        for node in self._qrio.cluster.nodes():
            properties = node.backend.properties
            rows.append(
                {
                    "device": node.backend.name,
                    "node": node.name,
                    "status": node.status.value,
                    "qubits": properties.num_qubits,
                    "avg_two_qubit_error": properties.average_two_qubit_error(),
                    "avg_readout_error": properties.average_readout_error(),
                    "avg_t1": properties.average_t1(),
                    "avg_t2": properties.average_t2(),
                    "bound_jobs": list(node.bound_jobs),
                }
            )
        return sorted(rows, key=lambda row: str(row["device"]))

    def fleet_report(self) -> str:
        """Human-readable fleet table (what a vendor dashboard would render)."""
        rows = self.fleet_summary()
        if not rows:
            return "Vendor fleet report: no devices registered."
        header = f"{'device':<24} {'status':<10} {'qubits':>6} {'avg 2q err':>11} {'avg ro err':>11} {'jobs':>5}"
        lines = ["Vendor fleet report", header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['device']:<24} {row['status']:<10} {row['qubits']:>6} "
                f"{row['avg_two_qubit_error']:>11.4f} {row['avg_readout_error']:>11.4f} "
                f"{len(row['bound_jobs']):>5}"
            )
        return "\n".join(lines)
