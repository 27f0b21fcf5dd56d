"""Synthetic device fleets: the paper's 100-backend testbed (Table 2).

Section 4.1: "The current testbed of quantum resources for evaluation
comprises 100 simulated quantum computers created with varying edge
connectivity and error rates" — ten qubit counts crossed with ten edge
connectivity probabilities, with error rates drawn between 0.01 and 0.7,
readout error 0.05/0.15, T1/T2 of 100e3/500e3, a 30 ns readout length and
basis gates {u1, u2, u3, cx}.

One documented refinement (see DESIGN.md): each device draws a *base* error
level uniformly from the 0.01–0.7 range and its per-edge/per-qubit rates
jitter around that base.  Per-device averages therefore span the full range,
which is required to reproduce the gradual filtering curve of Fig. 10; i.i.d.
per-edge draws would concentrate every device average near the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.backends.properties import DEFAULT_BASIS_GATES, BackendProperties
from repro.backends.topologies import (
    CouplingMap,
    line_topology,
    named_topology,
    random_coupling_map,
    ring_topology,
    tree_topology,
)
from repro.utils.exceptions import BackendError
from repro.utils.rng import DEFAULT_SEED, SeedLike, ensure_generator, spawn_generator
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class FleetSpec:
    """The controllable backend parameters of Table 2."""

    qubit_counts: Tuple[int, ...] = (5, 20, 27, 35, 50, 60, 78, 85, 95, 100)
    edge_probabilities: Tuple[float, ...] = (0.1, 0.15, 0.3, 0.45, 0.54, 0.67, 0.7, 0.78, 0.89, 0.98)
    two_qubit_error_range: Tuple[float, float] = (0.01, 0.7)
    one_qubit_error_range: Tuple[float, float] = (0.01, 0.7)
    readout_error_choices: Tuple[float, ...] = (0.05, 0.15)
    t1_choices: Tuple[float, ...] = (500e3, 100e3)
    t2_choices: Tuple[float, ...] = (500e3, 100e3)
    readout_length: float = 30.0
    basis_gates: Tuple[str, ...] = DEFAULT_BASIS_GATES

    def rows(self) -> List[Tuple[str, str]]:
        """Render the spec as (parameter, values) rows — i.e. Table 2 itself."""
        return [
            ("Number of qubits", ", ".join(str(n) for n in self.qubit_counts)),
            ("2-qubit gate error rate", f"{self.two_qubit_error_range[0]} - {self.two_qubit_error_range[1]}"),
            ("1-qubit gate error rate", f"{self.one_qubit_error_range[0]} - {self.one_qubit_error_range[1]}"),
            ("Readout rate", ", ".join(str(r) for r in self.readout_error_choices)),
            ("T1", ", ".join(f"{t:g}" for t in self.t1_choices)),
            ("T2", ", ".join(f"{t:g}" for t in self.t2_choices)),
            ("Readout Length", f"{self.readout_length:g} ns"),
            ("Edge connects probabilities", ", ".join(str(p) for p in self.edge_probabilities)),
            ("Basis gates", ", ".join(self.basis_gates)),
        ]

    def fleet_size(self) -> int:
        """Number of devices the spec generates (qubit counts x edge probabilities)."""
        return len(self.qubit_counts) * len(self.edge_probabilities)


def _device_name(num_qubits: int, edge_probability: float) -> str:
    return f"sim_q{num_qubits}_c{int(round(edge_probability * 100)):02d}"


def generate_device(
    num_qubits: int,
    edge_probability: float,
    spec: Optional[FleetSpec] = None,
    seed: SeedLike = None,
    name: Optional[str] = None,
) -> Backend:
    """Generate a single random device with the Table 2 parameter ranges."""
    require_positive_int(num_qubits, "num_qubits")
    spec = spec or FleetSpec()
    rng = ensure_generator(seed)
    coupling_map = random_coupling_map(num_qubits, edge_probability, seed=rng)

    low_2q, high_2q = spec.two_qubit_error_range
    low_1q, high_1q = spec.one_qubit_error_range
    # Device-level base error; individual rates jitter around it (DESIGN.md).
    base_error = float(rng.uniform(low_2q, high_2q))
    jitter = lambda low, high: float(rng.uniform(low, high))  # noqa: E731 - tiny local helper

    two_qubit_error: Dict[Tuple[int, int], float] = {}
    for edge in coupling_map:
        rate = base_error * jitter(0.8, 1.2)
        two_qubit_error[edge] = min(high_2q, max(low_2q, rate))
    one_qubit_error: Dict[int, float] = {}
    readout_error: Dict[int, float] = {}
    readout_length: Dict[int, float] = {}
    t1: Dict[int, float] = {}
    t2: Dict[int, float] = {}
    for qubit in range(num_qubits):
        rate = base_error * jitter(0.3, 0.7)
        one_qubit_error[qubit] = min(high_1q, max(low_1q, rate))
        readout_error[qubit] = float(spec.readout_error_choices[int(rng.integers(0, len(spec.readout_error_choices)))])
        readout_length[qubit] = spec.readout_length
        t1[qubit] = float(spec.t1_choices[int(rng.integers(0, len(spec.t1_choices)))])
        t2[qubit] = float(spec.t2_choices[int(rng.integers(0, len(spec.t2_choices)))])

    properties = BackendProperties(
        name=name or _device_name(num_qubits, edge_probability),
        num_qubits=num_qubits,
        coupling_map=coupling_map,
        basis_gates=spec.basis_gates,
        two_qubit_error=two_qubit_error,
        one_qubit_error=one_qubit_error,
        readout_error=readout_error,
        readout_length=readout_length,
        t1=t1,
        t2=t2,
        extras={"edge_probability": edge_probability, "base_error": base_error},
    )
    return Backend(properties)


def generate_fleet(
    spec: Optional[FleetSpec] = None,
    seed: SeedLike = DEFAULT_SEED,
    limit: Optional[int] = None,
) -> List[Backend]:
    """Generate the full cross-product fleet of Table 2.

    ``limit`` truncates the fleet (keeping the qubit-count/edge-probability
    interleaving) so quick tests and CI-sized benchmark runs can use a
    representative subset; the experiment drivers default to the full 100.
    """
    spec = spec or FleetSpec()
    rng = ensure_generator(seed)
    devices: List[Backend] = []
    for num_qubits in spec.qubit_counts:
        for probability in spec.edge_probabilities:
            device_rng = spawn_generator(rng)
            devices.append(
                generate_device(
                    num_qubits=num_qubits,
                    edge_probability=probability,
                    spec=spec,
                    seed=device_rng,
                )
            )
    if limit is not None:
        if limit <= 0:
            raise BackendError("limit must be positive when provided")
        # Interleave so a truncated fleet still spans qubit counts and
        # connectivities rather than only the small sparse devices.
        reordered: List[Backend] = []
        stride = len(spec.edge_probabilities)
        for offset in range(stride):
            reordered.extend(devices[offset::stride])
        devices = reordered[:limit]
    return devices


def uniform_error_device(
    name: str,
    coupling_map: CouplingMap,
    num_qubits: int,
    two_qubit_error: float = 0.05,
    one_qubit_error: float = 0.01,
    readout_error: float = 0.02,
    t1: float = 500e3,
    t2: float = 500e3,
    readout_length: float = 30.0,
    basis_gates: Sequence[str] = DEFAULT_BASIS_GATES,
) -> Backend:
    """Build a device whose qubits and edges all share the same error rates."""
    properties = BackendProperties(
        name=name,
        num_qubits=num_qubits,
        coupling_map=coupling_map,
        basis_gates=tuple(basis_gates),
        two_qubit_error={edge: two_qubit_error for edge in coupling_map},
        one_qubit_error={q: one_qubit_error for q in range(num_qubits)},
        readout_error={q: readout_error for q in range(num_qubits)},
        readout_length={q: readout_length for q in range(num_qubits)},
        t1={q: t1 for q in range(num_qubits)},
        t2={q: t2 for q in range(num_qubits)},
    )
    return Backend(properties)


def named_topology_device(
    topology: str,
    num_qubits: int,
    name: Optional[str] = None,
    **error_kwargs,
) -> Backend:
    """Build a uniform-error device with a named topology (line, ring, ...)."""
    coupling_map = named_topology(topology, num_qubits)
    return uniform_error_device(
        name=name or f"{topology}_{num_qubits}",
        coupling_map=coupling_map,
        num_qubits=num_qubits,
        **error_kwargs,
    )


def three_device_testbed(num_qubits: int = 10, two_qubit_error: float = 0.05) -> List[Backend]:
    """The Figs. 8/9 testbed: tree-like, ring and line devices of 10 qubits.

    The paper sets the per-qubit characteristics (gate errors, T1/T2) to be
    similar across the three devices so that the only discriminating factor
    is the topology; we make them identical.
    """
    shared = dict(
        num_qubits=num_qubits,
        two_qubit_error=two_qubit_error,
        one_qubit_error=0.01,
        readout_error=0.02,
    )
    tree = uniform_error_device("device_tree", tree_topology(num_qubits), **shared)
    ring = uniform_error_device("device_ring", ring_topology(num_qubits), **shared)
    line = uniform_error_device("device_line", line_topology(num_qubits), **shared)
    return [tree, ring, line]
