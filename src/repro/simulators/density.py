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

One circuit under many sets of rates (a fleet ranking's canary on every
device it lands on without SWAPs) is one pass: :func:`outcome_laws` stacks
the ``rho`` of every set along a leading axis, and :func:`outcome_law` is
its one-set case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noise import ErrorRates
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

#: Most complex entries the density matrices of one :func:`outcome_laws` batch
#: hold together (64 KB): the rate rows are cut into chunks of
#: ``max(1, BATCH_ENTRIES // 4**n)``, so a 4-qubit canary ranks 16 devices
#: per pass and a 6-qubit one runs alone.  Measured on perfbench's
#: ``tenant_mix`` (2-vCPU Xeon, one BLAS thread; numbers in
#: docs/benchmarks.md): against ``4**7`` this bound keeps the throughput
#: and lowers the peak RSS by 0.7 MB, to within 0.3 MB of the unbatched
#: engine's; ``4**5`` reaches that peak RSS but loses throughput.
BATCH_ENTRIES = 4**6

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


def read_rates(sites: NoiseSites, noise_model: ErrorRates) -> Tuple[float, ...]:
    """The gate error rates, then the readout flip rates, ``noise_model`` gives ``sites``.

    ``noise_model`` is a :class:`~repro.simulators.noise.NoiseModel` or
    anything else that reads rates through its two formulas, such as a
    device's live calibration.
    """
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


def _depolarizing(rate, num_operands: int) -> np.ndarray:
    """Superoperator of a uniform non-identity Pauli error of probability ``rate``.

    Acts on the vectorised operand block, index ``row << k | col``.  An
    array of rates shaped ``(R, 1, 1)`` gives the ``R`` superoperators
    stacked, each computed as its scalar rate's.
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
    """Transpose bringing wires ``qubits``' row then column axes after the row axis, and its inverse.

    ``rho`` is held as a ``(rows,) + (2,) * 2n`` tensor: axis 0 indexes the
    rate rows, axis ``n - q`` is wire ``q``'s row bit and axis ``2n - q``
    its column bit.  The first operand axis is the row bit of
    ``qubits[-1]``, matching a superoperator's most significant index bit.
    """
    rows = [num_qubits - q for q in reversed(qubits)]
    front = rows + [axis + num_qubits for axis in rows]
    order = [0] + front + [axis for axis in range(1, 2 * num_qubits + 1) if axis not in front]
    inverse = [0] * len(order)
    for position, axis in enumerate(order):
        inverse[axis] = position
    return order, inverse


def outcome_laws(circuit: QuantumCircuit, rate_rows: Sequence[Sequence[float]]) -> List[OutcomeLaw]:
    """The outcome law of ``circuit`` under each row of ``rate_rows``, from one batched pass.

    Each row is :func:`read_rates`' tuple for this circuit: one gate error
    per gate in circuit order, then one readout flip per classical bit (a
    fleet ranking passes one row per device).  ``rho`` carries a leading
    row axis.  Per gate, each row's superoperator is ``channel(rate) @
    conj(U)``, or ``conj(U)`` alone at rate 0, and one stacked matrix
    product evolves every row; a row's arithmetic does not depend on the
    other rows, so each law equals :func:`outcome_law` of its row bit for
    bit.  The rows are cut into chunks whose ``rho`` holds at most
    :data:`BATCH_ENTRIES` complex entries.

    A rate that is not finite or lies outside ``[0, 1]`` raises
    :class:`SimulationError` instead of evolving through a non-physical
    channel.  (:func:`read_rates` already refuses such a calibration entry
    before its formula combines it; this check covers rows built by hand.)
    """
    check_noisy_circuit(circuit, DENSITY_LIMIT, "density-matrix engine")
    rows = [tuple(row) for row in rate_rows]
    chunk = max(1, BATCH_ENTRIES // 4**circuit.num_qubits)
    laws: List[OutcomeLaw] = []
    for start in range(0, len(rows), chunk):
        laws.extend(_evolve(circuit, rows[start:start + chunk]))
    return laws


def outcome_law(circuit: QuantumCircuit, rates: Sequence[float]) -> OutcomeLaw:
    """Evolve ``rho`` through ``circuit`` under ``rates`` and return its outcome law.

    The one-row case of :func:`outcome_laws`.
    """
    return outcome_laws(circuit, [rates])[0]


def _evolve(circuit: QuantumCircuit, rows: List[Tuple[float, ...]]) -> List[OutcomeLaw]:
    """:func:`outcome_laws` of one chunk of rate rows."""
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    winners = _readout_qubits(circuit)
    num_gates = sum(1 for instruction in circuit if not instruction.is_directive)
    rates = np.array(rows, dtype=float).reshape(len(rows), -1)
    if rates.shape[1] != num_gates + len(winners):
        raise SimulationError(
            f"Circuit '{circuit.name}' reads {num_gates + len(winners)} noise rates, got {rates.shape[1]}"
        )
    invalid = ~((rates >= 0.0) & (rates <= 1.0))  # NaN fails both comparisons
    if invalid.any():
        row, column = np.argwhere(invalid)[0].tolist()
        raise SimulationError(
            f"Circuit '{circuit.name}' read noise rate {float(rates[row, column])!r} (rate {column} of its "
            "row); an error probability must be finite and within [0, 1]"
        )
    rho = np.zeros((len(rows),) + (2,) * (2 * num_qubits), dtype=complex)
    rho[(slice(None),) + (0,) * (2 * num_qubits)] = 1.0
    orders: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

    def per_row(column: np.ndarray, num_operands: int, gate: Optional[np.ndarray] = None) -> np.ndarray:
        """Each row's superoperator: ``channel(rate) @ gate``, or ``gate`` alone at rate 0.

        Without ``gate`` (every rate then positive) it is the channel alone.
        """
        channels = _depolarizing(column[:, None, None], num_operands)
        if gate is None:
            return channels
        superoperators = np.matmul(channels, gate)
        superoperators[column <= 0.0] = gate
        return superoperators

    def apply(superoperators: np.ndarray, qubits: Tuple[int, ...], hit: Optional[np.ndarray] = None) -> None:
        """Evolve ``rho`` (only its rows ``hit``, when given) by ``superoperators`` on ``qubits``.

        The whole ``rho`` is released once its moved copy exists, so a step
        holds two copies of the batch at a time, not three.
        """
        nonlocal rho
        if qubits not in orders:
            orders[qubits] = _axis_order(qubits, num_qubits)
        order, inverse = orders[qubits]
        moved = (rho if hit is None else rho[hit]).transpose(order)
        shape = moved.shape
        flat = moved.reshape(shape[0], superoperators.shape[-1], -1)
        del moved
        if hit is None:
            rho = None
        evolved = np.matmul(superoperators, flat).reshape(shape).transpose(inverse)
        if hit is None:
            rho = evolved
        else:
            rho[hit] = evolved

    gates = (instruction for instruction in circuit if not instruction.is_directive)
    for instruction, column in zip(gates, rates.T):
        qubits = instruction.qubits
        superoperator = _conjugation(instruction.matrix())
        if len(qubits) <= 2:
            apply(per_row(column, len(qubits), superoperator), qubits)
            continue
        # A wider gate takes its error on its first two operands, after the gate.
        apply(superoperator, qubits)
        hit = column > 0.0
        if hit.all():
            apply(per_row(column, 2), qubits[:2])
        elif hit.any():
            apply(per_row(column[hit], 2), qubits[:2], hit)
    populations = np.clip(rho.reshape(len(rows), dim, dim).diagonal(axis1=1, axis2=2).real, 0.0, None)

    # Marginalise onto the dense clbit key (bit ``slot`` holds the slot-th
    # classical bit), then flip each bit with its readout rate.
    basis = np.arange(dim)
    keys = np.zeros(dim, dtype=np.int64)
    for slot, qubit in enumerate(winners.values()):
        keys |= ((basis >> qubit) & 1) << slot
    width = 2 ** len(winners)
    offsets = width * np.arange(len(rows))[:, None]
    law = np.bincount(
        (keys + offsets).ravel(), weights=populations.ravel(), minlength=len(rows) * width
    ).reshape(len(rows), width)
    for slot, flip in enumerate(rates[:, num_gates:].T):
        flip = flip[:, None]
        mixed = (1.0 - flip) * law + flip * law[:, np.arange(width) ^ (1 << slot)]
        law = np.where(flip > 0.0, mixed, law)
    labels = format_clbit_keys(np.arange(width), list(winners), max(circuit.num_clbits, 1))
    laws = []
    for row, row_law in zip(rows, law):
        support = np.nonzero(row_law > 0.0)[0]
        laws.append(
            OutcomeLaw(
                labels=tuple(labels[key] for key in support.tolist()),
                probabilities=row_law[support] / row_law[support].sum(),
                rates=row,
            )
        )
    return laws
