"""Named workload suites: weighted mixes of circuits for multi-job experiments.

The paper's evaluation schedules one job at a time; its future-work section
(item 4) calls for multi-job scheduling, which needs a *stream* of jobs with
a realistic mix of circuit families.  A :class:`WorkloadSuite` describes such
a mix: each entry is a circuit factory plus a relative arrival weight, the
ranking strategy the submitting user would pick (fidelity or topology) and a
default fidelity requirement.  The scenario layer's arrival processes
(:mod:`repro.workloads.arrivals`) sample from these suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.algorithms import (
    deutsch_jozsa,
    hardware_efficient_ansatz,
    phase_estimation,
    qaoa_maxcut,
    ripple_carry_adder,
    simon,
    w_state,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import bernstein_vazirani, ghz, grover_search, hidden_subgroup, qft, repetition_code_encoder
from repro.circuits.random_circuits import circ2_benchmark, circ_benchmark, grid_random_circuit
from repro.utils.exceptions import CircuitError
from repro.utils.rng import SeedLike, ensure_generator


@dataclass(frozen=True)
class SuiteEntry:
    """One circuit family within a workload suite."""

    key: str
    label: str
    factory: Callable[[], QuantumCircuit]
    #: Relative arrival weight within the suite (need not be normalised).
    weight: float = 1.0
    #: Which QRIO ranking strategy a user submitting this circuit would pick.
    strategy: str = "fidelity"
    #: Default fidelity requirement attached to fidelity-strategy submissions.
    fidelity_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise CircuitError(f"Suite entry '{self.key}' must have a positive weight")
        if self.strategy not in ("fidelity", "topology"):
            raise CircuitError(f"Suite entry '{self.key}' strategy must be 'fidelity' or 'topology'")
        if not 0.0 < self.fidelity_threshold <= 1.0:
            raise CircuitError(f"Suite entry '{self.key}' fidelity_threshold must lie in (0, 1]")

    def circuit(self) -> QuantumCircuit:
        """Build a fresh instance of the entry's circuit."""
        return self.factory()


@dataclass(frozen=True)
class WorkloadSuite:
    """A named, weighted collection of circuit families."""

    name: str
    entries: Tuple[SuiteEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise CircuitError(f"Workload suite '{self.name}' must contain at least one entry")
        keys = [entry.key for entry in self.entries]
        if len(keys) != len(set(keys)):
            raise CircuitError(f"Workload suite '{self.name}' has duplicate entry keys")

    # ------------------------------------------------------------------ #
    def keys(self) -> List[str]:
        """Entry keys in declaration order."""
        return [entry.key for entry in self.entries]

    def entry(self, key: str) -> SuiteEntry:
        """Look up one entry by key."""
        for entry in self.entries:
            if entry.key == key:
                return entry
        raise KeyError(f"Suite '{self.name}' has no entry '{key}'")

    def circuits(self) -> Dict[str, QuantumCircuit]:
        """One freshly built circuit per entry, keyed by entry key."""
        return {entry.key: entry.circuit() for entry in self.entries}

    def weights(self) -> List[float]:
        """Normalised sampling probabilities in entry order."""
        total = sum(entry.weight for entry in self.entries)
        return [entry.weight / total for entry in self.entries]

    def sample(self, rng: Optional[np.random.Generator] = None, seed: SeedLike = None) -> SuiteEntry:
        """Draw one entry according to the suite's weights."""
        rng = rng if rng is not None else ensure_generator(seed)
        index = int(rng.choice(len(self.entries), p=self.weights()))
        return self.entries[index]

    def sample_many(self, count: int, rng: Optional[np.random.Generator] = None, seed: SeedLike = None) -> List[SuiteEntry]:
        """Draw ``count`` entries with replacement."""
        rng = rng if rng is not None else ensure_generator(seed)
        return [self.sample(rng=rng) for _ in range(count)]


# --------------------------------------------------------------------------- #
# Built-in suites
# --------------------------------------------------------------------------- #
def paper_evaluation_suite() -> WorkloadSuite:
    """The six Fig. 7 workloads with equal weights (all fidelity-strategy)."""
    return WorkloadSuite(
        name="paper_eval",
        entries=(
            SuiteEntry("bv", "Bv", lambda: bernstein_vazirani("1" * 9)),
            SuiteEntry("hsp", "Hsp", lambda: hidden_subgroup(4)),
            SuiteEntry("rep", "Rep", lambda: repetition_code_encoder(5)),
            SuiteEntry("grover", "Grover", lambda: grover_search(3)),
            SuiteEntry("circ", "Circ", lambda: circ_benchmark()),
            SuiteEntry("circ_2", "Circ_2", lambda: circ2_benchmark()),
        ),
    )


def clifford_suite() -> WorkloadSuite:
    """Circuits that are entirely Clifford (canary == original circuit)."""
    return WorkloadSuite(
        name="clifford",
        entries=(
            SuiteEntry("bv", "Bernstein-Vazirani", lambda: bernstein_vazirani("10101")),
            SuiteEntry("ghz", "GHZ", lambda: ghz(6)),
            SuiteEntry("rep", "Repetition code", lambda: repetition_code_encoder(5)),
            SuiteEntry("hsp", "Hidden subgroup", lambda: hidden_subgroup(4)),
            SuiteEntry("simon", "Simon", lambda: simon("110")),
            SuiteEntry("dj", "Deutsch-Jozsa", lambda: deutsch_jozsa(4, "balanced")),
        ),
    )


def nisq_mix_suite() -> WorkloadSuite:
    """A heterogeneous near-term mix: variational, oracle and arithmetic jobs.

    Weights loosely follow the job-mix characterisation of quantum-cloud
    measurement studies: many small variational/oracle circuits, fewer wide
    structured circuits, occasional arithmetic workloads.  Variational
    workloads (QAOA, VQE) favour the topology strategy because their
    interaction structure is known in advance — the user persona the paper's
    topology-ranking use case targets.
    """
    ring_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    return WorkloadSuite(
        name="nisq_mix",
        entries=(
            SuiteEntry("qaoa_ring", "QAOA ring-5", lambda: qaoa_maxcut(ring_edges, layers=1), weight=3.0, strategy="topology"),
            SuiteEntry(
                "vqe_4",
                "VQE ansatz 4q",
                lambda: hardware_efficient_ansatz(4, layers=2, measure=True),
                weight=3.0,
                strategy="topology",
            ),
            SuiteEntry("bv_6", "Bernstein-Vazirani 6q", lambda: bernstein_vazirani("10111"), weight=2.0, fidelity_threshold=0.9),
            SuiteEntry("ghz_5", "GHZ 5q", lambda: ghz(5), weight=2.0, fidelity_threshold=0.8),
            SuiteEntry("qft_4", "QFT 4q", lambda: qft(4, measure=True), weight=1.5, fidelity_threshold=0.7),
            SuiteEntry("dj_4", "Deutsch-Jozsa 4q", lambda: deutsch_jozsa(4, "balanced"), weight=1.5, fidelity_threshold=0.9),
            SuiteEntry("qpe_3", "Phase estimation 3q", lambda: phase_estimation(3, 0.25), weight=1.0, fidelity_threshold=0.7),
            SuiteEntry("w_4", "W state 4q", lambda: w_state(4, measure=True), weight=1.0, fidelity_threshold=0.8),
            SuiteEntry("adder_2", "Adder 2-bit", lambda: ripple_carry_adder(2, 1, 2), weight=1.0, fidelity_threshold=0.6),
            SuiteEntry("grover_3", "Grover 3q", lambda: grover_search(3), weight=1.0, fidelity_threshold=0.8),
        ),
    )


def grid_random_suite() -> WorkloadSuite:
    """Supremacy-style grid random circuits at increasing widths.

    Every entry is a fixed-seed :func:`~repro.circuits.grid_random_circuit`
    instance, so a suite draw is fully deterministic.  The family stresses
    fidelity ranking rather than topology matching: a grid's mesh interaction
    graph embeds in none of the testbed's line/ring/tree devices, so all
    entries submit with the fidelity strategy and dense two-qubit layers that
    amplify calibration differences between devices.  Widths stay at or
    below 9 qubits so every job fits the 10-qubit testbed fleet.
    """
    return WorkloadSuite(
        name="grid_random",
        entries=(
            SuiteEntry(
                "grid_2x2", "Grid 2x2 random", lambda: grid_random_circuit(2, 2, depth=4, seed=21),
                weight=3.0, fidelity_threshold=0.8,
            ),
            SuiteEntry(
                "grid_2x3", "Grid 2x3 random", lambda: grid_random_circuit(2, 3, depth=4, seed=22),
                weight=3.0, fidelity_threshold=0.7,
            ),
            SuiteEntry(
                "grid_2x4", "Grid 2x4 random", lambda: grid_random_circuit(2, 4, depth=4, seed=23),
                weight=2.0, fidelity_threshold=0.6,
            ),
            SuiteEntry(
                "grid_3x3", "Grid 3x3 random", lambda: grid_random_circuit(3, 3, depth=4, seed=24),
                weight=1.0, fidelity_threshold=0.5,
            ),
        ),
    )


_BUILTIN_SUITES: Dict[str, Callable[[], WorkloadSuite]] = {
    "paper_eval": paper_evaluation_suite,
    "clifford": clifford_suite,
    "nisq_mix": nisq_mix_suite,
    "grid_random": grid_random_suite,
}


def available_suites() -> List[str]:
    """Names of the built-in workload suites."""
    return sorted(_BUILTIN_SUITES)


def workload_suite(name: str) -> WorkloadSuite:
    """Build one built-in suite by name."""
    try:
        return _BUILTIN_SUITES[name]()
    except KeyError:
        raise KeyError(f"Unknown workload suite '{name}'; available: {available_suites()}") from None
