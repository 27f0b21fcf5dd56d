"""Seed-driven, stratified job traffic for the end-to-end benchmark.

Every workload fixes how many jobs of each circuit kind one *round* holds;
a run is a whole number of rounds.  The workload seed only changes the order
of jobs inside a round, the job names and the rotation angles of the
variational families, never the per-kind counts, so two seeds put the same
work through the service.  The counts are chosen so that the median and the
tail percentile land inside one kind's latency band rather than on the gap
between two bands (see README.md, "Stratified traffic").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.circuits.algorithms import hardware_efficient_ansatz, qaoa_maxcut
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import grid_random_circuit
from repro.service import JobRequirements
from repro.tenancy import Tenant
from repro.workloads.suites import clifford_suite, nisq_mix_suite

#: The fleet is fixed for every workload and seed: a 16-device slice of the
#: Table 2 cross product under its own seed.
FLEET_SEED = 2024
FLEET_SIZE = 16
#: Base seed of the orchestrator engine (canary, transpile and execution
#: streams derive from it and from the job name).
ENGINE_SEED = 7
SHOTS = 1024

INTERACTIVE = Tenant("interactive", weight=2.0)
SWEEP = Tenant("sweep", weight=1.0)

#: warm_replay: jobs per round of each nisq_mix circuit.  Warm latencies on
#: the reference box sort as ghz_5 < w_4 < dj_4 ~ vqe_4 < grover_3 ~ bv_6 <
#: qaoa_ring < qpe_3 < qft_4 < adder_2; the counts put 35% of jobs below the
#: dj_4/vqe_4 band and 30% inside it (the median sits mid-band), and give
#: adder_2 the top 5%, which holds the p98/p99 tail rank.
WARM_REPLAY_COUNTS: Dict[str, int] = {
    "ghz_5": 4,
    "w_4": 3,
    "dj_4": 3,
    "vqe_4": 3,
    "grover_3": 2,
    "bv_6": 1,
    "qaoa_ring": 1,
    "qpe_3": 1,
    "qft_4": 1,
    "adder_2": 1,
}

#: param_sweep (and the sweep tenant of tenant_mix): fresh-angle jobs per
#: round of each variational family, sized so no family dominates the time.
SWEEP_COUNTS: Dict[str, int] = {"hea_4": 5, "grid_2x2": 2, "qaoa_ring5": 1}

#: tenant_mix: warm Clifford-suite replays per round for the interactive
#: tenant, paired one to one with a round of SWEEP_COUNTS for the sweep
#: tenant.  In each step the sweep job enters MATCHING first and the
#: interactive job queues behind it in the serialized funnel, so interactive
#: latencies fall into the bands of the sweep kinds' ranking times, and the
#: interactive p50 and p75 land inside the hea_4 and grid_2x2 bands.
INTERACTIVE_COUNTS: Dict[str, int] = {"bv": 1, "ghz": 2, "rep": 1, "hsp": 1, "simon": 1, "dj": 2}

#: Run-length unit: a run of ``--seconds S`` holds ``round(S / ROUND_SECONDS)``
#: rounds, so the job count of a run never depends on how fast the machine
#: is that day.  The values are round times measured on the reference box
#: (2 vCPUs, Intel Xeon), rounded up.
ROUND_SECONDS: Dict[str, float] = {"warm_replay": 0.8, "param_sweep": 4.2, "tenant_mix": 4.0}

WORKLOADS = tuple(ROUND_SECONDS)

_RING5 = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
#: Structure seed of the grid family: gate kinds and couplers are fixed, the
#: seed of a run redraws only the rotation angles.
_GRID_STRUCTURE_SEED = 21


@dataclass(frozen=True)
class Job:
    """One submission: what the benchmark client hands to ``QRIOService``."""

    name: str
    kind: str
    circuit: QuantumCircuit
    requirements: JobRequirements

    @property
    def tenant(self) -> str:
        return self.requirements.tenant_id


@dataclass(frozen=True)
class Traffic:
    """The jobs of one workload run, as closed-loop *steps*.

    A step is what the clients submit together: one job for the single-client
    workloads, a (sweep, interactive) pair for tenant_mix.  Each client sends
    its next job only after the result of its previous one.
    """

    workload: str
    seed: int
    rounds: int
    #: Warm-up submissions run during set-up (untimed).
    warmup: Tuple[Job, ...]
    #: Measured steps, in order; every round holds the same number.
    steps: Tuple[Tuple[Job, ...], ...]

    def jobs(self) -> List[Job]:
        return [job for step in self.steps for job in step]

    def round_steps(self, index: int) -> Tuple[Tuple[Job, ...], ...]:
        """The steps of round ``index``."""
        size = len(self.steps) // self.rounds
        return self.steps[index * size:(index + 1) * size]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.kind] = counts.get(job.kind, 0) + 1
        return dict(sorted(counts.items()))


def topology_edges(circuit: QuantumCircuit) -> Tuple[Tuple[int, int], ...]:
    """The circuit's two-qubit interaction pairs, as a topology request."""
    edges = set()
    for instruction in circuit.data:
        if instruction.is_two_qubit_gate:
            a, b = instruction.qubits
            edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def _requirements(circuit: QuantumCircuit, strategy: str, threshold: float, tenant=None) -> JobRequirements:
    if strategy == "topology":
        return JobRequirements(topology_edges=topology_edges(circuit), tenant=tenant)
    return JobRequirements(fidelity_threshold=threshold, tenant=tenant)


def _hea(rng: np.random.Generator) -> QuantumCircuit:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
    return hardware_efficient_ansatz(4, layers=2, parameters=angles, measure=True)


def _qaoa(rng: np.random.Generator) -> QuantumCircuit:
    gamma, beta = rng.uniform(0.0, math.pi, size=2)
    return qaoa_maxcut(_RING5, layers=1, gammas=[gamma], betas=[beta])


_GRID_BASE = grid_random_circuit(2, 2, depth=4, seed=_GRID_STRUCTURE_SEED)


def _grid(rng: np.random.Generator) -> QuantumCircuit:
    circuit = QuantumCircuit(_GRID_BASE.num_qubits, _GRID_BASE.num_clbits, name=_GRID_BASE.name)
    for instruction in _GRID_BASE.data:
        if instruction.params:
            angles = tuple(float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=len(instruction.params)))
            instruction = replace(instruction, params=angles)
        circuit.append(instruction)
    return circuit


#: kind -> (fresh-angle factory, strategy, fidelity threshold)
_SWEEP_FAMILIES: Dict[str, Tuple[Callable[[np.random.Generator], QuantumCircuit], str, float]] = {
    "hea_4": (_hea, "fidelity", 0.8),
    "grid_2x2": (_grid, "fidelity", 0.8),
    "qaoa_ring5": (_qaoa, "topology", 1.0),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of nominal length ``seconds``."""
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def _stratified(counts: Dict[str, int], rounds: int, rng: np.random.Generator) -> List[str]:
    """``rounds`` copies of the per-kind counts, each round shuffled."""
    one_round = [kind for kind, count in counts.items() for _ in range(count)]
    order: List[str] = []
    for _ in range(rounds):
        order.extend(one_round[i] for i in rng.permutation(len(one_round)))
    return order


class _Factory:
    """Builds named jobs for one phase of one run."""

    def __init__(self, seed: int, phase: str) -> None:
        self._rng = np.random.default_rng([seed & 0xFFFFFFFF, sum(map(ord, phase))])
        self._prefix = f"{phase}{seed}"
        self._next = 0
        self._warm = {entry.key: entry for entry in nisq_mix_suite().entries}
        self._clifford = {entry.key: entry for entry in clifford_suite().entries}

    def _name(self, kind: str) -> str:
        self._next += 1
        return f"{self._prefix}-{self._next:05d}-{kind}"

    def warm(self, kind: str) -> Job:
        entry = self._warm[kind]
        circuit = entry.circuit()
        return Job(self._name(kind), kind, circuit, _requirements(circuit, entry.strategy, entry.fidelity_threshold))

    def interactive(self, kind: str) -> Job:
        entry = self._clifford[kind]
        circuit = entry.circuit()
        requirements = _requirements(circuit, entry.strategy, entry.fidelity_threshold, INTERACTIVE)
        return Job(self._name(kind), kind, circuit, requirements)

    def sweep(self, kind: str, tenant=None) -> Job:
        factory, strategy, threshold = _SWEEP_FAMILIES[kind]
        circuit = factory(self._rng)
        return Job(self._name(kind), kind, circuit, _requirements(circuit, strategy, threshold, tenant))

    def order(self, counts: Dict[str, int], rounds: int) -> List[str]:
        return _stratified(counts, rounds, self._rng)


def build_traffic(workload: str, seed: int, seconds: float, phase: str = "m") -> Traffic:
    """The jobs of one run of ``workload``.

    ``phase`` separates job streams inside one process (the measured phase
    and the traced phase must not reuse job names or angles).
    """
    if workload not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rounds = rounds_for(workload, seconds)
    warm = _Factory(seed, "w" + phase)
    jobs = _Factory(seed, phase)
    if workload == "warm_replay":
        warmup = tuple(warm.warm(kind) for kind in WARM_REPLAY_COUNTS)
        steps = tuple((jobs.warm(kind),) for kind in jobs.order(WARM_REPLAY_COUNTS, rounds))
    elif workload == "param_sweep":
        warmup = tuple(warm.sweep(kind) for kind in SWEEP_COUNTS)
        steps = tuple((jobs.sweep(kind),) for kind in jobs.order(SWEEP_COUNTS, rounds))
    else:
        warmup = tuple(warm.interactive(kind) for kind in INTERACTIVE_COUNTS) + tuple(
            warm.sweep(kind, SWEEP) for kind in SWEEP_COUNTS
        )
        sweeps = jobs.order(SWEEP_COUNTS, rounds)
        interactive = jobs.order(INTERACTIVE_COUNTS, rounds)
        steps = tuple(
            (jobs.sweep(sweep_kind, SWEEP), jobs.interactive(interactive_kind))
            for sweep_kind, interactive_kind in zip(sweeps, interactive)
        )
    return Traffic(workload=workload, seed=seed, rounds=rounds, warmup=warmup, steps=steps)


def replay_expected(job: Job) -> bool:
    """Whether the job must replay a plan compiled during warm-up."""
    return job.kind in WARM_REPLAY_COUNTS or job.tenant == INTERACTIVE.id

