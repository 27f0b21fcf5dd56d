"""Noisy execution engines and the dispatch that picks one per circuit.

Every engine realises the same error channel — a random Pauli on the
operands of each gate with the probability given by the device's
calibration data, plus classical readout flips — so a circuit's outcome
statistics do not depend on which engine runs it:

* the exact density-matrix engine (:mod:`repro.simulators.density`) computes
  a narrow circuit's outcome law once and draws every execution's shots from
  it in one multinomial draw;
* the Monte-Carlo statevector engine evolves one trajectory per shot, for
  circuits too wide for a density matrix but within a statevector batch;
* the stabilizer engine
  (:class:`~repro.simulators.batched_stabilizer.StabilizerSimulator`, run
  with the noise model) scales to the fleet's 100-qubit devices for
  Clifford circuits (Pauli errors are Clifford operations).

:func:`precompile_execution` picks the engine by active width alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.density import (
    DENSITY_LIMIT,
    NoiseSites,
    OutcomeLaw,
    check_noisy_circuit,
    format_clbit_keys,
    noise_sites,
    outcome_law,
    read_rates,
)
from repro.simulators.batched_stabilizer import StabilizerSimulator
from repro.simulators.noise import _PAULI_LABELS, _TWO_QUBIT_PAULIS, ErrorRates, NoiseModel
from repro.simulators.result import SimulationResult
from repro.simulators.stabilizer import (
    TableauStep,
    circuit_is_stabilizer_compatible,
    compile_tableau_program,
)
from repro.simulators.statevector import MAX_STATEVECTOR_QUBITS, apply_matrix, compact_circuit
from repro.utils.exceptions import SimulationError
from repro.utils.rng import SeedLike, ensure_generator

#: (x bit, z bit) of each single-qubit Pauli factor, with Y = i X Z.
_PAULI_XZ = {None: (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}


def _label_tables(
    labels: Sequence[Tuple[Optional[str], ...]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-indexed ``(x bits, z bits, Y count)`` tables for the error gather.

    ``x bits``/``z bits`` have one row per operand and one column per label;
    the Y count is the power of ``i`` in the label's phase.
    """
    x_bits = np.array([[_PAULI_XZ[factor][0] for factor in label] for label in labels]).T
    z_bits = np.array([[_PAULI_XZ[factor][1] for factor in label] for label in labels]).T
    y_counts = np.array([sum(factor == "y" for factor in label) for label in labels])
    return x_bits, z_bits, y_counts


#: Error tables by operand count, in the label order of the RNG draw.
_PAULI_TABLES = {
    1: _label_tables([(label,) for label in _PAULI_LABELS]),
    2: _label_tables(_TWO_QUBIT_PAULIS),
}
#: ``i^k`` for ``k`` = 0..3.
_PHASES = np.array([1, 1j, -1, -1j])


@functools.lru_cache(maxsize=None)
def _parity_table(num_qubits: int) -> np.ndarray:
    """Parity of the popcount of every basis index of ``num_qubits`` qubits.

    One byte per basis state, cached per register width (widths are capped
    by ``MAX_STATEVECTOR_QUBITS``).
    """
    indices = np.arange(2**num_qubits)
    parity = np.zeros_like(indices)
    for bit in range(num_qubits):
        parity ^= (indices >> bit) & 1
    parity = parity.astype(np.uint8)
    parity.flags.writeable = False
    return parity


def _apply_paulis(
    states: np.ndarray,
    rows: np.ndarray,
    operands: Tuple[int, ...],
    choices: np.ndarray,
    num_qubits: int,
) -> None:
    """Apply Pauli label ``choices[k]`` on ``operands`` to ``states[rows[k]]``.

    One gather for all rows: the Pauli ``i^y X^x Z^z`` maps amplitude
    ``psi[i ^ x]`` to index ``i`` with phase ``i^y (-1)^popcount((i ^ x) & z)``.
    Sources and phases are tabulated once per label, then indexed by row.
    Pauli entries are 0, +-1 and +-i, so the result equals the explicit
    matrix product exactly (up to the sign of zeros).
    """
    dim = states.shape[1]
    x_bits, z_bits, y_counts = _PAULI_TABLES[len(operands)]
    weights = np.left_shift(1, np.asarray(operands, dtype=np.intp))
    x_masks = (weights @ x_bits)[:, None]
    z_masks = (weights @ z_bits)[:, None]
    sources = np.arange(dim) ^ x_masks
    phases = _PHASES[(y_counts[:, None] + 2 * _parity_table(num_qubits)[sources & z_masks]) & 3]
    # Flat source positions of every selected row, gathered in one take.
    flat_sources = sources[choices]
    flat_sources += (rows * dim)[:, None]
    gathered = np.take(states.reshape(-1), flat_sources)
    gathered *= phases[choices]
    states[rows] = gathered


class NoisyStatevectorSimulator:
    """Monte-Carlo trajectory simulator with all shots evolved as one batch."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    def run(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        shots: int = 1024,
    ) -> SimulationResult:
        """Execute ``circuit`` under ``noise_model`` and return sampled counts."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        noise_model = noise_model or NoiseModel.ideal()
        check_noisy_circuit(circuit, MAX_STATEVECTOR_QUBITS, "Monte-Carlo statevector engine")
        num_qubits = circuit.num_qubits
        dim = 2**num_qubits
        states = np.zeros((shots, dim), dtype=complex)
        states[:, 0] = 1.0
        for instruction in circuit:
            if instruction.name in ("barrier", "measure"):
                continue
            matrix = instruction.matrix()
            states = apply_matrix(states, matrix, instruction.qubits, num_qubits)
            error_rate = noise_model.gate_error(instruction.qubits)
            if error_rate > 0.0:
                states = self._inject_pauli_errors(states, instruction.qubits, error_rate, num_qubits)
        counts = self._sample_counts(states, circuit, noise_model, shots)
        return SimulationResult(
            counts=counts,
            shots=shots,
            metadata={"simulator": "noisy_statevector", "ideal": False},
        )

    # ------------------------------------------------------------------ #
    def _inject_pauli_errors(
        self,
        states: np.ndarray,
        qubits: Sequence[int],
        error_rate: float,
        num_qubits: int,
    ) -> np.ndarray:
        """Apply a sampled Pauli error to the shots selected by ``error_rate``."""
        shots = states.shape[0]
        error_mask = self._rng.random(shots) < error_rate
        error_indices = np.nonzero(error_mask)[0]
        if error_indices.size == 0:
            return states
        # Gates wider than two qubits take a two-qubit error on their first
        # two operands.
        operands = tuple(qubits[:2])
        num_labels = len(_PAULI_LABELS) if len(operands) == 1 else len(_TWO_QUBIT_PAULIS)
        choices = self._rng.integers(0, num_labels, size=error_indices.size)
        _apply_paulis(states, error_indices, operands, choices, num_qubits)
        return states

    def _sample_counts(
        self,
        states: np.ndarray,
        circuit: QuantumCircuit,
        noise_model: NoiseModel,
        shots: int,
    ) -> Dict[str, int]:
        """Sample one outcome per trajectory and apply readout errors."""
        probabilities = np.abs(states) ** 2
        row_sums = probabilities.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        probabilities /= row_sums
        cumulative = np.cumsum(probabilities, axis=1)
        draws = self._rng.random(shots)
        outcome_indices = (cumulative < draws[:, None]).sum(axis=1)
        outcome_indices = np.clip(outcome_indices, 0, probabilities.shape[1] - 1)

        measurement_map = circuit.measurement_map()
        if not measurement_map:
            measurement_map = {q: q for q in range(circuit.num_qubits)}
        width = max(circuit.num_clbits, 1)
        # One integer key per shot with one bit per distinct classical bit
        # (dense, so registers wider than 64 bits fit).  Readout flips are
        # drawn per measured qubit in ascending order; a later qubit sent to
        # the same classical bit overwrites an earlier one.
        clbits = sorted(set(measurement_map.values()))
        slot = {clbit: position for position, clbit in enumerate(clbits)}
        keys = np.zeros(shots, dtype=np.int64)
        for qubit in sorted(measurement_map):
            bit = slot[measurement_map[qubit]]
            values = (outcome_indices >> qubit) & 1
            flip_probability = noise_model.measurement_error(qubit)
            if flip_probability > 0.0:
                values = values ^ (self._rng.random(shots) < flip_probability)
            keys = (keys & ~(1 << bit)) | (values << bit)
        # Tally, then format each distinct key once.  First-seen order is the
        # insertion order a per-shot tally gives, so callers iterating the
        # counts (and summing floats over them) see the same sequence.
        unique_keys, first_seen, tallies = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first_seen)
        labels = format_clbit_keys(unique_keys[order], clbits, width)
        return dict(zip(labels, tallies[order].tolist()))


#: Widest circuit the batched Monte-Carlo statevector engine will accept when
#: dispatching automatically (keeps the shot batch within ~100 MB).
BATCHED_STATEVECTOR_LIMIT = 13


@dataclass(frozen=True)
class PrecompiledExecution:
    """The frozen outcome of :func:`execute_with_noise`'s per-circuit analysis.

    Everything :func:`execute_with_noise` derives by walking the gate list —
    the compacted circuit, the active-qubit mapping that restricts the noise
    model, the engine choice, the density engine's noise sites and outcome
    law, and the stabilizer engine's compiled tableau program — captured once
    so a repeat execution skips straight to sampling.  Built by
    :func:`precompile_execution` and carried inside
    :class:`~repro.plans.ExecutionPlan`.
    """

    #: The engine the dispatch chose by active width: ``"density"`` (at most
    #: ``DENSITY_LIMIT`` active qubits: exact law, one multinomial draw per
    #: execution), ``"statevector"`` (Monte-Carlo trajectories, up to
    #: ``BATCHED_STATEVECTOR_LIMIT``) or ``"stabilizer"`` (wider, Clifford).
    engine: str
    #: The circuit actually executed (compacted onto its active qubits).
    circuit: QuantumCircuit
    #: Physical qubits backing the compacted wires, in wire order; empty when
    #: the circuit was not compacted (noise model applies verbatim).
    qubit_mapping: Tuple[int, ...]
    #: Width of the original (un-compacted) circuit, for cheap validation.
    source_num_qubits: int
    #: Precompiled tableau program (stabilizer engine only).
    program: Optional[Tuple[TableauStep, ...]] = None
    #: Physical gate operands and readout qubits the law reads (density only).
    noise_sites: Optional[NoiseSites] = None
    #: Outcome law under the noise model given at precompile time (density
    #: only; ``None`` when none was given).
    law: Optional[OutcomeLaw] = None

    def law_for(self, noise_model: ErrorRates) -> OutcomeLaw:
        """The density engine's outcome law under ``noise_model``.

        The stored law is returned only while the rates it was computed from
        equal the ones ``noise_model`` gives now; otherwise a fresh law is
        computed (and not stored: the execution is frozen).
        """
        rates = read_rates(self.noise_sites, noise_model)
        if self.law is not None and self.law.rates == rates:
            return self.law
        return outcome_law(self.circuit, rates)


def precompile_execution(
    circuit: QuantumCircuit,
    compact: bool = True,
    noise_model: Optional[ErrorRates] = None,
) -> PrecompiledExecution:
    """Run :func:`execute_with_noise`'s analysis stages once, without shots.

    The returned bundle replays through ``execute_with_noise(...,
    precompiled=...)`` with bit-identical results to a fresh call under the
    same seed: the compaction is deterministic and the chosen engine consumes
    its RNG stream identically either way.  With ``noise_model``, a circuit
    the density engine takes also carries its outcome law under that model,
    so a replay under the same rates is one draw.
    """
    target_circuit = circuit
    mapping_order: Tuple[int, ...] = ()
    if compact:
        compacted, mapping = compact_circuit(circuit)
        if mapping:
            mapping_order = tuple(
                physical for physical, _ in sorted(mapping.items(), key=lambda kv: kv[1])
            )
            target_circuit = compacted
    if target_circuit.num_qubits <= DENSITY_LIMIT:
        sites = noise_sites(target_circuit, mapping_order)
        return PrecompiledExecution(
            engine="density",
            circuit=target_circuit,
            qubit_mapping=mapping_order,
            source_num_qubits=circuit.num_qubits,
            noise_sites=sites,
            law=(
                outcome_law(target_circuit, read_rates(sites, noise_model))
                if noise_model is not None
                else None
            ),
        )
    if target_circuit.num_qubits <= BATCHED_STATEVECTOR_LIMIT:
        return PrecompiledExecution(
            engine="statevector",
            circuit=target_circuit,
            qubit_mapping=mapping_order,
            source_num_qubits=circuit.num_qubits,
        )
    if circuit_is_stabilizer_compatible(target_circuit):
        return PrecompiledExecution(
            engine="stabilizer",
            circuit=target_circuit,
            qubit_mapping=mapping_order,
            source_num_qubits=circuit.num_qubits,
            program=tuple(compile_tableau_program(target_circuit)),
        )
    raise SimulationError(
        f"Circuit '{circuit.name}' is too wide ({target_circuit.num_qubits} active "
        "qubits) for statevector simulation and contains non-Clifford gates"
    )


def execute_with_noise(
    circuit: QuantumCircuit,
    noise_model: Optional[ErrorRates] = None,
    shots: int = 1024,
    seed: SeedLike = None,
    compact: bool = True,
    precompiled: Optional[PrecompiledExecution] = None,
) -> SimulationResult:
    """Execute ``circuit`` under ``noise_model`` with the best available engine.

    The circuit is first compacted onto its active qubits (transpiled circuits
    are as wide as their device).  Circuits of at most ``DENSITY_LIMIT``
    active qubits then take their shots in one multinomial draw from their
    exact outcome law; wider ones up to ``BATCHED_STATEVECTOR_LIMIT`` run on
    the batched Monte-Carlo statevector engine, and wider still must be
    Clifford and run on the stabilizer engine, which scales
    polynomially in width.  This is the execution path the cluster nodes use
    when a QRIO job lands on them.

    ``precompiled`` replays a previous :func:`precompile_execution` analysis
    of the *same* circuit, skipping compaction, engine dispatch, tableau
    compilation and — while the noise rates it recorded are the live ones —
    the outcome law; the noise model and seed still apply per call, so
    repeat executions sample fresh shots.

    ``noise_model`` is any :class:`~repro.simulators.noise.ErrorRates`, such
    as a device's live calibration.  The density engine reads only the
    rates its circuit needs from it; the trajectory and stabilizer engines
    run on its :meth:`~repro.simulators.noise.ErrorRates.to_noise_model`.
    """
    noise_model = noise_model or NoiseModel.ideal()
    if precompiled is None:
        precompiled = precompile_execution(circuit, compact)
    elif precompiled.source_num_qubits != circuit.num_qubits:
        raise SimulationError(
            f"Precompiled execution was built for a {precompiled.source_num_qubits}-qubit "
            f"circuit, got {circuit.num_qubits} qubits"
        )
    if precompiled.engine == "density":
        return precompiled.law_for(noise_model).draw(shots, seed)
    noise_model = noise_model.to_noise_model()
    target_noise = (
        noise_model.restricted_to(list(precompiled.qubit_mapping))
        if precompiled.qubit_mapping
        else noise_model
    )
    if precompiled.engine == "statevector":
        return NoisyStatevectorSimulator(seed=seed).run(precompiled.circuit, target_noise, shots=shots)
    return StabilizerSimulator(seed=seed).run(
        precompiled.circuit, shots=shots, noise_model=target_noise, program=precompiled.program
    )


def execute_many_with_noise(requests):
    """Stub for ``perfbench/tracer.py`` ``LAYER_CALLS`` (``simulators.execute_many``); no caller."""
    raise NotImplementedError("cross-job merging was removed")
