"""Exact noisy execution: one density-matrix pass gives a circuit's outcome law.

The executable noise channel (:mod:`repro.simulators.noise`) is a uniform
non-identity Pauli error after each gate plus a symmetric readout flip per
measured qubit.  On a gate's ``k`` error operands (its first two, as in the
Monte-Carlo engine) a Pauli error drawn with probability ``p`` is the
depolarizing channel

    rho -> (1 - lam) * rho + lam * (Tr_ops rho (x) I / 2**k),   lam = p * 4**k / (4**k - 1)

because averaging over all ``4**k`` Paulis, identity included, replaces the
operands' state by the maximally mixed one.  Evolving ``rho`` through the
circuit, taking ``diag(rho)``, marginalising it onto the classical bits and
folding in the readout confusion gives the exact law of one trajectory's
outcome.  A multinomial draw of ``shots`` from that law therefore has the
Monte-Carlo engine's per-shot law; only the random stream differs.

The law depends only on the circuit and the noise rates it read, so an
execution plan computes it once and every replay is a single draw
(:class:`OutcomeLaw`).  ``rho`` holds ``4**n`` amplitudes, so the dispatch
sends only circuits of at most :data:`DENSITY_LIMIT` active qubits here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noise import NoiseModel
from repro.simulators.result import SimulationResult
from repro.utils.exceptions import SimulationError
from repro.utils.rng import SeedLike, ensure_generator

#: Widest active register the dispatch sends to the density-matrix engine.
#: Measured on the transpiled 7-9 qubit circuits that Fig. 7 and the
#: grid-stress scenario execute (2-vCPU Xeon, one BLAS thread; table in
#: docs/benchmarks.md): at 8 qubits one law costs 1.0-1.2x a 128-shot
#: trajectory run (the fewest shots any caller uses) and 0.5-0.8x a 256-shot
#: one; at 9 qubits it costs 2.0-3.4x a 128-shot run and 1.0-1.5x a 256-shot
#: one, so 9-qubit executions stay on trajectories.
DENSITY_LIMIT = 8

#: ``(gate operand sites, readout sites)``: where a circuit reads its noise.
NoiseSites = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


def _readout_qubits(circuit: QuantumCircuit) -> Dict[int, int]:
    """Classical bit -> the qubit whose (flipped) outcome it finally holds.

    Follows the Monte-Carlo engine's rule: qubits are read in ascending order
    and a later qubit measured into the same classical bit overwrites an
    earlier one.  An unmeasured circuit reads every qubit into its own bit.
    """
    measurement_map = circuit.measurement_map() or {q: q for q in range(circuit.num_qubits)}
    winners: Dict[int, int] = {}
    for qubit in sorted(measurement_map):
        winners[measurement_map[qubit]] = qubit
    return dict(sorted(winners.items()))


def format_clbit_keys(keys: np.ndarray, clbits: Sequence[int], width: int) -> List[str]:
    """Bit-strings of dense keys whose bit ``i`` holds classical bit ``clbits[i]``."""
    chars = np.full((keys.size, width), ord("0"), dtype=np.uint8)
    for bit, clbit in enumerate(clbits):
        chars[:, width - 1 - clbit] = ord("0") + ((keys >> bit) & 1)
    return [label.decode("ascii") for label in chars.view(f"S{width}").ravel()]


def noise_sites(circuit: QuantumCircuit, qubit_mapping: Sequence[int] = ()) -> NoiseSites:
    """Physical operands of each gate and the physical readout qubits, in law order.

    ``qubit_mapping`` lists the physical qubit behind each compacted wire
    (empty: the wires are the physical qubits).
    """
    physical = (lambda q: qubit_mapping[q]) if qubit_mapping else (lambda q: q)
    gates = tuple(
        tuple(physical(q) for q in instruction.qubits)
        for instruction in circuit
        if not instruction.is_directive
    )
    readouts = tuple(physical(q) for q in _readout_qubits(circuit).values())
    return gates, readouts


def read_rates(sites: NoiseSites, noise_model: NoiseModel) -> Tuple[float, ...]:
    """The gate error rates, then the readout flip rates, ``noise_model`` gives ``sites``."""
    gates, readouts = sites
    return tuple(map(noise_model.gate_error, gates)) + tuple(map(noise_model.measurement_error, readouts))


@dataclass(frozen=True, eq=False)
class OutcomeLaw:
    """The exact outcome distribution of one circuit under one set of noise rates.

    Plain data (strings, floats and one float array), so it pickles with the
    plan that carries it.
    """

    #: Bit-strings with non-zero probability, in ascending key order.
    labels: Tuple[str, ...]
    #: Their probabilities; they sum to one.
    probabilities: np.ndarray
    #: The noise rates the law was computed from (see :func:`read_rates`).
    rates: Tuple[float, ...]

    def draw(self, shots: int, seed: SeedLike = None) -> SimulationResult:
        """Sample ``shots`` outcomes: one multinomial draw under ``seed``."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        tallies = ensure_generator(seed).multinomial(shots, self.probabilities).tolist()
        return SimulationResult(
            counts={label: count for label, count in zip(self.labels, tallies) if count},
            shots=shots,
            metadata={"simulator": "density_matrix", "ideal": False},
        )


def check_noisy_circuit(circuit: QuantumCircuit, max_qubits: int, engine: str) -> None:
    """Reject what the noisy engines do not execute: registers wider than
    ``max_qubits``, resets and mid-circuit measurement."""
    if circuit.num_qubits > max_qubits:
        raise SimulationError(
            f"Circuit has {circuit.num_qubits} qubits; the {engine} takes at most "
            f"{max_qubits} (compact it onto its active qubits first)"
        )
    measured: set = set()
    for instruction in circuit:
        if instruction.name == "reset":
            raise SimulationError(f"The {engine} does not support reset")
        if instruction.is_measurement:
            measured.add(instruction.qubits[0])
        elif not instruction.is_directive and measured.intersection(instruction.qubits):
            raise SimulationError("Mid-circuit measurement is not supported")


def _depolarizing(rate: float, num_operands: int) -> np.ndarray:
    """Superoperator of a uniform non-identity Pauli error of probability ``rate``.

    Acts on the vectorised operand block, index ``row << k | col``.
    """
    dim = 2**num_operands
    twirl = rate * dim * dim / (dim * dim - 1)
    identity_vector = np.eye(dim).reshape(-1)
    return (1.0 - twirl) * np.eye(dim * dim) + (twirl / dim) * np.outer(identity_vector, identity_vector)


def _conjugation(unitary: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> U rho U^dagger`` on the index ``row << k | col``."""
    dim = unitary.shape[0]
    return (unitary[:, None, :, None] * unitary.conj()[None, :, None, :]).reshape(dim * dim, dim * dim)


def _axis_order(qubits: Sequence[int], num_qubits: int) -> Tuple[List[int], List[int]]:
    """Transpose bringing wires ``qubits``' row then column axes first, and its inverse.

    ``rho`` is held as a ``(2,) * 2n`` tensor: axis ``n - 1 - q`` is wire
    ``q``'s row bit and axis ``2n - 1 - q`` its column bit.  The leading
    axis is the row bit of ``qubits[-1]``, matching a superoperator's most
    significant index bit.
    """
    rows = [num_qubits - 1 - q for q in reversed(qubits)]
    front = rows + [axis + num_qubits for axis in rows]
    order = front + [axis for axis in range(2 * num_qubits) if axis not in front]
    inverse = [0] * len(order)
    for position, axis in enumerate(order):
        inverse[axis] = position
    return order, inverse


def outcome_law(circuit: QuantumCircuit, rates: Sequence[float]) -> OutcomeLaw:
    """Evolve ``rho`` through ``circuit`` under ``rates`` and return its outcome law.

    ``rates`` is :func:`read_rates`' tuple for this circuit: one gate error
    per gate in circuit order, then one readout flip per classical bit.
    """
    check_noisy_circuit(circuit, DENSITY_LIMIT, "density-matrix engine")
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    rho = np.zeros((2,) * (2 * num_qubits), dtype=complex)
    rho[(0,) * (2 * num_qubits)] = 1.0
    channels: Dict[Tuple[float, int], np.ndarray] = {}
    orders: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

    def channel(rate: float, num_operands: int) -> np.ndarray:
        key = (rate, num_operands)
        if key not in channels:
            channels[key] = _depolarizing(rate, num_operands)
        return channels[key]

    def apply(superoperator: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
        if qubits not in orders:
            orders[qubits] = _axis_order(qubits, num_qubits)
        order, inverse = orders[qubits]
        moved = rho.transpose(order)
        evolved = superoperator @ moved.reshape(superoperator.shape[0], -1)
        return evolved.reshape(moved.shape).transpose(inverse)

    gate_rates = iter(rates)
    for instruction in circuit:
        if instruction.is_directive:
            continue
        qubits = instruction.qubits
        rate = next(gate_rates)
        superoperator = _conjugation(instruction.matrix())
        if rate > 0.0 and len(qubits) <= 2:
            superoperator = channel(rate, len(qubits)) @ superoperator
        rho = apply(superoperator, qubits)
        if rate > 0.0 and len(qubits) > 2:
            rho = apply(channel(rate, 2), qubits[:2])
    populations = np.clip(rho.reshape(dim, dim).diagonal().real, 0.0, None)

    # Marginalise onto the dense clbit key (bit ``slot`` holds the slot-th
    # classical bit), then flip each bit with its readout rate.
    winners = _readout_qubits(circuit)
    basis = np.arange(dim)
    keys = np.zeros(dim, dtype=np.int64)
    for slot, qubit in enumerate(winners.values()):
        keys |= ((basis >> qubit) & 1) << slot
    law = np.bincount(keys, weights=populations, minlength=2 ** len(winners))
    for slot, flip in enumerate(rates[len(rates) - len(winners):]):
        if flip > 0.0:
            law = (1.0 - flip) * law + flip * law[np.arange(law.size) ^ (1 << slot)]
    support = np.nonzero(law > 0.0)[0]
    labels = format_clbit_keys(support, list(winners), max(circuit.num_clbits, 1))
    return OutcomeLaw(
        labels=tuple(labels), probabilities=law[support] / law[support].sum(), rates=tuple(rates)
    )
