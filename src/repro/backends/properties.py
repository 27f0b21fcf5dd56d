"""Backend calibration properties (the vendor's ``backend.py`` contents).

Section 3.1 of the paper requires every worker node's backend file to expose
at least: the coupling map, two-qubit error rates, single-qubit error rates,
readout error rates, readout length, T1/T2 times and the basis gates.
:class:`BackendProperties` is the structured form of exactly that contract,
plus the per-device averages the cluster uses as node labels (number of
qubits, average two-qubit error, average T1/T2, average readout error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import networkx as nx

from repro.backends.topologies import CouplingMap, coupling_to_graph, is_connected
from repro.simulators.noise import NoiseModel, gate_error_rate, measurement_error_rate
from repro.utils.exceptions import BackendError
from repro.utils.validation import require_name, require_positive_int, require_probability

#: The basis gate set of every device in the paper's fleet (Table 2).
DEFAULT_BASIS_GATES: Tuple[str, ...] = ("u1", "u2", "u3", "cx")


def _edge_key(edge: Sequence[int]) -> Tuple[int, int]:
    a, b = int(edge[0]), int(edge[1])
    return (a, b) if a < b else (b, a)


@dataclass
class BackendProperties:
    """Complete calibration description of one quantum device.

    Attributes map one-to-one onto the mandatory vendor-provided parameters
    of the paper (Section 3.1) and the controllable parameters of Table 2.
    """

    name: str
    num_qubits: int
    coupling_map: CouplingMap
    basis_gates: Tuple[str, ...] = DEFAULT_BASIS_GATES
    two_qubit_error: Dict[Tuple[int, int], float] = field(default_factory=dict)
    one_qubit_error: Dict[int, float] = field(default_factory=dict)
    readout_error: Dict[int, float] = field(default_factory=dict)
    readout_length: Dict[int, float] = field(default_factory=dict)
    t1: Dict[int, float] = field(default_factory=dict)
    t2: Dict[int, float] = field(default_factory=dict)
    #: Optional vendor-declared extras (pulse characteristics, ...).  The
    #: paper allows vendors to provide more than the mandatory parameters.
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        require_name(self.name, "name")
        require_positive_int(self.num_qubits, "num_qubits")
        self.coupling_map = sorted({_edge_key(edge) for edge in self.coupling_map})
        for a, b in self.coupling_map:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise BackendError(
                    f"Coupling edge ({a}, {b}) is out of range for {self.num_qubits} qubits"
                )
        self.basis_gates = tuple(gate.lower() for gate in self.basis_gates)
        self.two_qubit_error = {
            _edge_key(edge): require_probability(rate, f"two_qubit_error[{edge}]")
            for edge, rate in self.two_qubit_error.items()
        }
        for edge in self.two_qubit_error:
            if edge not in set(self.coupling_map):
                raise BackendError(
                    f"two_qubit_error given for edge {edge} that is not in the coupling map"
                )
        for qubit, rate in self.one_qubit_error.items():
            require_probability(rate, f"one_qubit_error[{qubit}]")
        for qubit, rate in self.readout_error.items():
            require_probability(rate, f"readout_error[{qubit}]")

    # ------------------------------------------------------------------ #
    # Aggregate (node label) metrics
    # ------------------------------------------------------------------ #
    def average_two_qubit_error(self) -> float:
        """Average two-qubit gate error over the device's coupled edges."""
        if not self.two_qubit_error:
            return 0.0
        return sum(self.two_qubit_error.values()) / len(self.two_qubit_error)

    def average_one_qubit_error(self) -> float:
        """Average single-qubit gate error over all qubits."""
        if not self.one_qubit_error:
            return 0.0
        return sum(self.one_qubit_error.values()) / len(self.one_qubit_error)

    def average_readout_error(self) -> float:
        """Average readout assignment error over all qubits."""
        if not self.readout_error:
            return 0.0
        return sum(self.readout_error.values()) / len(self.readout_error)

    def average_t1(self) -> float:
        """Average T1 relaxation time over all qubits (nanoseconds)."""
        if not self.t1:
            return 0.0
        return sum(self.t1.values()) / len(self.t1)

    def average_t2(self) -> float:
        """Average T2 dephasing time over all qubits (nanoseconds)."""
        if not self.t2:
            return 0.0
        return sum(self.t2.values()) / len(self.t2)

    def average_readout_length(self) -> float:
        """Average readout duration over all qubits (nanoseconds)."""
        if not self.readout_length:
            return 0.0
        return sum(self.readout_length.values()) / len(self.readout_length)

    def edge_error(self, qubit_a: int, qubit_b: int) -> float:
        """Two-qubit error of the edge ``(qubit_a, qubit_b)``.

        Uncoupled pairs return the device's worst edge error (the transpiler
        never emits a two-qubit gate on an uncoupled pair, but the topology
        scorer uses this as a penalty when no isomorphic layout exists).
        """
        edge = _edge_key((qubit_a, qubit_b))
        if edge in self.two_qubit_error:
            return self.two_qubit_error[edge]
        if self.two_qubit_error:
            return max(self.two_qubit_error.values())
        return 0.0

    # ------------------------------------------------------------------ #
    def graph(self):
        """The coupling map as a frozen :class:`networkx.Graph`, shared by every caller.

        Built once per coupling map: the same object comes back until
        ``num_qubits`` or ``coupling_map`` changes.  It is read-only.  Its
        structure is frozen, and by contract its node, edge and graph
        attribute dicts are not written either (the transpiler's routers
        pass edge weights as a function instead).  A caller that needs to
        edit it copies it first with ``nx.Graph(properties.graph())``.
        """
        key = (self.num_qubits, tuple(self.coupling_map))
        memo = self.__dict__.get("_graph_memo")
        if memo is None or memo[0] != key:
            memo = (key, nx.freeze(coupling_to_graph(self.num_qubits, self.coupling_map)))
            self._graph_memo = memo
        return memo[1]

    def is_connected(self) -> bool:
        """``True`` when every qubit is reachable from every other qubit."""
        return is_connected(self.num_qubits, self.coupling_map)

    def neighbours(self, qubit: int) -> List[int]:
        """Qubits directly coupled to ``qubit``."""
        neighbours = []
        for a, b in self.coupling_map:
            if a == qubit:
                neighbours.append(b)
            elif b == qubit:
                neighbours.append(a)
        return sorted(neighbours)

    def gate_error(self, qubits: Sequence[int]) -> float:
        """Pauli error probability of a gate on physical ``qubits``, as the noise model reads it.

        Reads the live calibration through the formula
        :meth:`NoiseModel.gate_error` uses, without building a noise model,
        so a ranking sees in-place calibration drift at no copy cost.
        """
        return gate_error_rate(qubits, self.one_qubit_error, self.two_qubit_error)

    def measurement_error(self, qubit: int) -> float:
        """Readout flip probability of ``qubit`` (assignment error plus T1 decay), as the noise model reads it."""
        return measurement_error_rate(qubit, self.readout_error, self.t1, self.readout_length)

    def to_noise_model(self) -> NoiseModel:
        """Convert calibration data into an executable :class:`NoiseModel`."""
        return NoiseModel(
            one_qubit_error=dict(self.one_qubit_error),
            two_qubit_error=dict(self.two_qubit_error),
            readout_error=dict(self.readout_error),
            t1=dict(self.t1),
            t2=dict(self.t2),
            readout_length=dict(self.readout_length),
        )

    # ------------------------------------------------------------------ #
    # Serialisation (vendor backend files / meta-server storage)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (meta-server storage format)."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "coupling_map": [list(edge) for edge in self.coupling_map],
            "basis_gates": list(self.basis_gates),
            "two_qubit_error": {f"{a}-{b}": rate for (a, b), rate in self.two_qubit_error.items()},
            "one_qubit_error": {str(q): rate for q, rate in self.one_qubit_error.items()},
            "readout_error": {str(q): rate for q, rate in self.readout_error.items()},
            "readout_length": {str(q): value for q, value in self.readout_length.items()},
            "t1": {str(q): value for q, value in self.t1.items()},
            "t2": {str(q): value for q, value in self.t2.items()},
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BackendProperties":
        """Rebuild properties from :meth:`to_dict` output."""
        try:
            two_qubit_error = {
                tuple(int(part) for part in key.split("-")): float(rate)
                for key, rate in dict(payload["two_qubit_error"]).items()
            }
            return cls(
                name=str(payload["name"]),
                num_qubits=int(payload["num_qubits"]),
                coupling_map=[tuple(edge) for edge in payload["coupling_map"]],
                basis_gates=tuple(payload.get("basis_gates", DEFAULT_BASIS_GATES)),
                two_qubit_error=two_qubit_error,
                one_qubit_error={int(q): float(r) for q, r in dict(payload["one_qubit_error"]).items()},
                readout_error={int(q): float(r) for q, r in dict(payload["readout_error"]).items()},
                readout_length={int(q): float(r) for q, r in dict(payload.get("readout_length", {})).items()},
                t1={int(q): float(r) for q, r in dict(payload.get("t1", {})).items()},
                t2={int(q): float(r) for q, r in dict(payload.get("t2", {})).items()},
                extras=dict(payload.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"Malformed backend payload: {exc}") from exc

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BackendProperties":
        """Parse properties from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def label_summary(self) -> Dict[str, float]:
        """The aggregate values QRIO attaches to the node as labels."""
        return {
            "qubits": float(self.num_qubits),
            "avg_two_qubit_error": self.average_two_qubit_error(),
            "avg_readout_error": self.average_readout_error(),
            "avg_t1": self.average_t1(),
            "avg_t2": self.average_t2(),
        }
