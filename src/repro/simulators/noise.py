"""Noise models mirroring the error parameters of the paper's backends.

Table 2 of the paper lists the controllable backend parameters of its
simulated fleet: one- and two-qubit gate error rates, readout error rate,
readout length and T1/T2 times.  A :class:`NoiseModel` holds those parameters
per physical qubit / edge so the noisy simulators can inject errors exactly
where the device's calibration data says they occur.

The executable error channel is a Pauli (depolarizing-style) channel applied
after each gate plus classical readout bit-flips, which is the standard
NISQ-era abstraction and what the error-rate numbers in Table 2 parameterise.
Thermal relaxation during readout is folded into an additional flip
probability derived from the readout length and T1, so the T1/T2 columns of
Table 2 stay observable as readout flips rather than as an amplitude-damping
channel.  Because every error is a Pauli or a classical flip, the
density-matrix engine (:mod:`repro.simulators.density`) computes a narrow
circuit's outcome law under this model exactly, and the Monte-Carlo and
stabilizer engines sample the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.utils.exceptions import SimulationError
from repro.utils.validation import require_probability

#: The gate-error channel's Pauli labels, in the order every sampling engine
#: draws them (a one-qubit error picks one of three uniformly).
_PAULI_LABELS = ("x", "y", "z")
#: The 15 non-identity two-qubit Pauli labels (first acts on operand 0).
_TWO_QUBIT_PAULIS: Tuple[Tuple[Optional[str], Optional[str]], ...] = tuple(
    (a, b)
    for a in (None, "x", "y", "z")
    for b in (None, "x", "y", "z")
    if not (a is None and b is None)
)


def _normalise_edge(edge: Sequence[int]) -> Tuple[int, int]:
    a, b = int(edge[0]), int(edge[1])
    return (a, b) if a <= b else (b, a)


class ErrorRates(Protocol):
    """What the noisy engines read of a device: one rate per gate site and readout qubit.

    :class:`NoiseModel` is one; so is
    :class:`~repro.backends.properties.BackendProperties`, which reads its
    live calibration through the same two formulas below.  The density
    engine reads the rates it needs directly; the trajectory and stabilizer
    engines run on :meth:`to_noise_model`'s copy.  So the density engine
    refuses only a corrupt entry its circuit reads, while a
    :class:`NoiseModel` refuses one anywhere in its tables when it is built.
    """

    def gate_error(self, qubits: Sequence[int]) -> float:
        ...

    def measurement_error(self, qubit: int) -> float:
        ...

    def to_noise_model(self) -> "NoiseModel":
        ...


def _calibrated(rate: float, table: str, site: object) -> float:
    """``rate``, read from ``table[site]``, if it is a probability; else :class:`SimulationError`.

    The formulas below check each calibrated rate before combining it, so a
    non-finite or out-of-range entry fails the execution that reads it
    rather than being clipped or dropped into a valid-looking rate.
    """
    if not 0.0 <= rate <= 1.0:  # NaN fails both comparisons
        raise SimulationError(
            f"{table}[{site}] is noise rate {rate!r}; an error probability must be finite and within [0, 1]"
        )
    return rate


def gate_error_rate(
    qubits: Sequence[int],
    one_qubit_error: Mapping[int, float],
    two_qubit_error: Mapping[Tuple[int, int], float],
    default_one_qubit_error: float = 0.0,
    default_two_qubit_error: float = 0.0,
) -> float:
    """Error probability for a gate acting on ``qubits``.

    ``two_qubit_error`` is keyed by ascending edges.  Multi-qubit gates are
    charged the worst pairwise error among their operands; the preset
    transpiler decomposes them before execution, so this only matters for
    un-transpiled circuits.
    """
    if len(qubits) == 1:
        qubit = int(qubits[0])
        return _calibrated(one_qubit_error.get(qubit, default_one_qubit_error), "one_qubit_error", qubit)
    if len(qubits) == 2:
        edge = _normalise_edge(qubits)
        return _calibrated(two_qubit_error.get(edge, default_two_qubit_error), "two_qubit_error", edge)
    worst = 0.0
    operands = [int(q) for q in qubits]
    for i, qubit_a in enumerate(operands):
        for qubit_b in operands[i + 1:]:
            edge = _normalise_edge((qubit_a, qubit_b))
            worst = max(worst, _calibrated(two_qubit_error.get(edge, default_two_qubit_error), "two_qubit_error", edge))
    return worst


def measurement_error_rate(
    qubit: int,
    readout_error: Mapping[int, float],
    t1: Mapping[int, float],
    readout_length: Mapping[int, float],
    default_readout_error: float = 0.0,
) -> float:
    """Total readout flip probability for ``qubit``.

    Combines the calibrated readout assignment error with the probability
    of T1 decay during the readout window (``1 - exp(-t_read / T1)``),
    which is how the T1 and readout-length columns of Table 2 influence
    execution fidelity.
    """
    qubit = int(qubit)
    assignment = _calibrated(readout_error.get(qubit, default_readout_error), "readout_error", qubit)
    relaxation = t1.get(qubit)
    duration = readout_length.get(qubit)
    decay = 0.0
    if relaxation and duration and relaxation > 0:
        decay = 1.0 - math.exp(-float(duration) / float(relaxation))
        # Decay only corrupts the |1> outcome; average over outcomes.
        decay *= 0.5
    combined = assignment + decay - assignment * decay
    return min(1.0, combined)


@dataclass
class NoiseModel:
    """Per-qubit / per-edge error parameters used by the noisy simulators.

    Attributes
    ----------
    one_qubit_error:
        Probability of a random Pauli error after a single-qubit gate, keyed
        by physical qubit.
    two_qubit_error:
        Probability of a random two-qubit Pauli error after a two-qubit gate,
        keyed by (undirected) edge.
    readout_error:
        Probability of flipping the measured classical bit, keyed by qubit.
    t1, t2:
        Relaxation/dephasing times in nanoseconds, keyed by qubit.
    readout_length:
        Duration of the readout operation in nanoseconds, keyed by qubit.
    default_one_qubit_error / default_two_qubit_error / default_readout_error:
        Fallbacks used for qubits or edges without explicit entries.
    """

    one_qubit_error: Dict[int, float] = field(default_factory=dict)
    two_qubit_error: Dict[Tuple[int, int], float] = field(default_factory=dict)
    readout_error: Dict[int, float] = field(default_factory=dict)
    t1: Dict[int, float] = field(default_factory=dict)
    t2: Dict[int, float] = field(default_factory=dict)
    readout_length: Dict[int, float] = field(default_factory=dict)
    default_one_qubit_error: float = 0.0
    default_two_qubit_error: float = 0.0
    default_readout_error: float = 0.0

    def __post_init__(self) -> None:
        for qubit, value in self.one_qubit_error.items():
            require_probability(value, f"one_qubit_error[{qubit}]")
        for edge, value in list(self.two_qubit_error.items()):
            require_probability(value, f"two_qubit_error[{edge}]")
        for qubit, value in self.readout_error.items():
            require_probability(value, f"readout_error[{qubit}]")
        self.two_qubit_error = {
            _normalise_edge(edge): value for edge, value in self.two_qubit_error.items()
        }

    # ------------------------------------------------------------------ #
    @classmethod
    def ideal(cls) -> "NoiseModel":
        """A noise model with zero error everywhere (useful in tests)."""
        return cls()

    @classmethod
    def uniform(
        cls,
        num_qubits: int,
        one_qubit_error: float = 0.0,
        two_qubit_error: float = 0.0,
        readout_error: float = 0.0,
    ) -> "NoiseModel":
        """A noise model applying the same error rates to every qubit/edge."""
        model = cls(
            one_qubit_error={q: one_qubit_error for q in range(num_qubits)},
            readout_error={q: readout_error for q in range(num_qubits)},
            default_one_qubit_error=one_qubit_error,
            default_two_qubit_error=two_qubit_error,
            default_readout_error=readout_error,
        )
        return model

    # ------------------------------------------------------------------ #
    def gate_error(self, qubits: Sequence[int]) -> float:
        """Error probability for a gate acting on ``qubits``."""
        return gate_error_rate(
            qubits,
            self.one_qubit_error,
            self.two_qubit_error,
            self.default_one_qubit_error,
            self.default_two_qubit_error,
        )

    def measurement_error(self, qubit: int) -> float:
        """Total readout flip probability for ``qubit`` (see :func:`measurement_error_rate`)."""
        return measurement_error_rate(
            qubit, self.readout_error, self.t1, self.readout_length, self.default_readout_error
        )

    def to_noise_model(self) -> "NoiseModel":
        """This model itself (the :class:`ErrorRates` conversion)."""
        return self

    # ------------------------------------------------------------------ #
    def restricted_to(self, qubits: Sequence[int]) -> "NoiseModel":
        """Return a noise model relabelled onto the given physical ``qubits``.

        ``qubits`` lists physical qubit indices in the order they become the
        compacted indices ``0..k-1`` (the output of
        :func:`repro.simulators.statevector.compact_circuit`).
        """
        index_of = {int(physical): logical for logical, physical in enumerate(qubits)}
        one_qubit = {
            index_of[q]: rate for q, rate in self.one_qubit_error.items() if q in index_of
        }
        readout = {
            index_of[q]: rate for q, rate in self.readout_error.items() if q in index_of
        }
        t1 = {index_of[q]: value for q, value in self.t1.items() if q in index_of}
        t2 = {index_of[q]: value for q, value in self.t2.items() if q in index_of}
        readout_length = {
            index_of[q]: value for q, value in self.readout_length.items() if q in index_of
        }
        two_qubit: Dict[Tuple[int, int], float] = {}
        for (a, b), rate in self.two_qubit_error.items():
            if a in index_of and b in index_of:
                two_qubit[_normalise_edge((index_of[a], index_of[b]))] = rate
        return NoiseModel(
            one_qubit_error=one_qubit,
            two_qubit_error=two_qubit,
            readout_error=readout,
            t1=t1,
            t2=t2,
            readout_length=readout_length,
            default_one_qubit_error=self.default_one_qubit_error,
            default_two_qubit_error=self.default_two_qubit_error,
            default_readout_error=self.default_readout_error,
        )

    # ------------------------------------------------------------------ #
    def expected_success_probability(self, circuit: QuantumCircuit) -> float:
        """Analytic estimated success probability (ESP) of ``circuit``.

        The classic product formula ``prod (1 - e_gate) * prod (1 - e_meas)``.
        The paper describes this style of "simplistic analytical" estimate as
        the thing Clifford canaries outperform; it is exposed here so the
        ablation benchmark can compare the two.
        """
        probability = 1.0
        for instruction in circuit:
            if instruction.name == "barrier":
                continue
            if instruction.is_measurement:
                probability *= 1.0 - self.measurement_error(instruction.qubits[0])
            elif instruction.name == "reset":
                continue
            else:
                probability *= 1.0 - self.gate_error(instruction.qubits)
        return max(0.0, min(1.0, probability))

    def average_two_qubit_error(self) -> float:
        """Mean two-qubit error over all calibrated edges."""
        if not self.two_qubit_error:
            return self.default_two_qubit_error
        return sum(self.two_qubit_error.values()) / len(self.two_qubit_error)

    def summary(self) -> Dict[str, float]:
        """Compact summary used in logs and experiment reports."""
        one_qubit = list(self.one_qubit_error.values()) or [self.default_one_qubit_error]
        readout = list(self.readout_error.values()) or [self.default_readout_error]
        return {
            "avg_1q_error": sum(one_qubit) / len(one_qubit),
            "avg_2q_error": self.average_two_qubit_error(),
            "avg_readout_error": sum(readout) / len(readout),
        }
