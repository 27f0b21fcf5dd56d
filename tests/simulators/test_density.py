"""The exact density-matrix engine against brute force, the trajectory engine and its own one-row case."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulators.density as density_module
import repro.simulators.noisy as noisy_module
from repro.backends.properties import BackendProperties
from repro.backends.topologies import line_topology
from repro.circuits import QuantumCircuit, ghz
from repro.circuits.instruction import Instruction
from repro.simulators import (
    NoiseModel,
    NoisyStatevectorSimulator,
    apply_matrix,
    execute_with_noise,
    precompile_execution,
)
from repro.simulators.density import noise_sites, outcome_law, outcome_laws, read_rates
from repro.utils.exceptions import SimulationError

_PAULI = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]]),
}


def brute_force_law(circuit, noise_model):
    """Sum every Pauli-error configuration and readout flip, following one shot's rules.

    Each gate leaves its branch unchanged with probability ``1 - p`` or
    applies one of the ``4**k - 1`` non-identity Paulis on its first two
    operands with probability ``p / (4**k - 1)``.  Each measured qubit, read
    in ascending order, writes its (possibly flipped) outcome into its
    classical bit; a later qubit overwrites an earlier one.
    """
    n = circuit.num_qubits
    states = np.zeros((1, 2**n), dtype=complex)
    states[0, 0] = 1.0
    weights = np.ones(1)
    for instruction in circuit:
        if instruction.is_directive:
            continue
        states = apply_matrix(states, instruction.matrix(), instruction.qubits, n)
        rate = noise_model.gate_error(instruction.qubits)
        if rate == 0.0:
            continue
        operands = instruction.qubits[:2]
        labels = list(itertools.product("ixyz", repeat=len(operands)))
        branch_states, branch_weights = [], []
        for label in labels:
            operator = np.array([[1.0]])
            for factor in reversed(label):  # operand 0 is the least significant bit
                operator = np.kron(operator, _PAULI[factor])
            identity = all(factor == "i" for factor in label)
            branch_states.append(apply_matrix(states, operator, operands, n))
            branch_weights.append(weights * ((1.0 - rate) if identity else rate / (len(labels) - 1)))
        states = np.concatenate(branch_states)
        weights = np.concatenate(branch_weights)
    populations = weights @ (np.abs(states) ** 2)

    measurement_map = circuit.measurement_map() or {q: q for q in range(n)}
    measured = sorted(measurement_map)
    width = max(circuit.num_clbits, 1)
    law = {}
    for index, probability in enumerate(populations):
        for flips in itertools.product((0, 1), repeat=len(measured)):
            weight = probability
            bits = ["0"] * width
            for qubit, flip in zip(measured, flips):
                rate = noise_model.measurement_error(qubit)
                weight *= rate if flip else 1.0 - rate
                bits[width - 1 - measurement_map[qubit]] = str(((index >> qubit) & 1) ^ flip)
            label = "".join(bits)
            law[label] = law.get(label, 0.0) + weight
    return law


def exact_law(circuit, noise_model):
    law = precompile_execution(circuit, compact=False, noise_model=noise_model).law
    return dict(zip(law.labels, law.probabilities.tolist()))


def max_difference(left, right):
    return max(abs(left.get(key, 0.0) - right.get(key, 0.0)) for key in set(left) | set(right))


_ONE_QUBIT = ("h", "x", "sx", "t", "s", "id", "rx", "ry", "u")
_TWO_QUBIT = ("cx", "cz", "swap", "crz", "rzz")
_ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@st.composite
def noisy_circuits(draw):
    """A circuit of at most 3 qubits, 5 gates (at most 2 multi-qubit) and its noise."""
    n = draw(st.integers(1, 3))
    num_clbits = draw(st.integers(1, n))
    circuit = QuantumCircuit(n, num_clbits)
    wide = 0
    for _ in range(draw(st.integers(0, 5))):
        arity = draw(st.sampled_from([1, 2, 3][: n]))
        if arity > 1 and wide >= 2:
            arity = 1
        wide += arity > 1
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        name = {1: draw(st.sampled_from(_ONE_QUBIT)), 2: draw(st.sampled_from(_TWO_QUBIT)), 3: "ccx"}[arity]
        count = {"rx": 1, "ry": 1, "u": 3, "crz": 1, "rzz": 1}.get(name, 0)
        params = tuple(draw(_ANGLES) for _ in range(count))
        circuit.append(Instruction(name, qubits, (), params))
    for qubit in range(n):
        if draw(st.booleans()) or qubit == 0:
            circuit.measure(qubit, draw(st.integers(0, num_clbits - 1)))
    rate = st.floats(min_value=0.0, max_value=0.4)
    model = NoiseModel(
        one_qubit_error={q: draw(rate) for q in range(n)},
        two_qubit_error={edge: draw(rate) for edge in itertools.combinations(range(n), 2)},
        readout_error={q: draw(rate) for q in range(n)},
    )
    return circuit, model


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(noisy_circuits())
    def test_law_equals_the_brute_force_sum(self, case):
        circuit, model = case
        assert max_difference(exact_law(circuit, model), brute_force_law(circuit, model)) < 1e-12

    def test_the_later_qubit_overwrites_a_shared_clbit(self):
        circuit = QuantumCircuit(2, 1)
        circuit.x(1).measure(0, 0).measure(1, 0)
        model = NoiseModel(readout_error={0: 0.3, 1: 0.1})
        law = exact_law(circuit, model)
        assert law == pytest.approx({"1": 0.9, "0": 0.1}, abs=1e-12)
        assert max_difference(law, brute_force_law(circuit, model)) < 1e-12

    def test_three_qubit_gates_take_their_error_on_the_first_two_operands(self):
        circuit = QuantumCircuit(3, 3)
        circuit.x(0).x(1).ccx(0, 1, 2).measure(0, 0).measure(1, 1).measure(2, 2)
        model = NoiseModel(two_qubit_error={(0, 1): 0.3, (0, 2): 0.0, (1, 2): 0.0})
        law = exact_law(circuit, model)
        assert max_difference(law, brute_force_law(circuit, model)) < 1e-12
        # Qubit 2 is never disturbed by the error.
        assert sum(p for label, p in law.items() if label[0] == "1") == pytest.approx(1.0, abs=1e-12)

    def test_a_wrong_twirl_weight_fails_the_comparison(self, monkeypatch):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).cx(0, 1).rx(0.4, 1).measure(0, 0).measure(1, 1)
        model = NoiseModel(one_qubit_error={0: 0.1, 1: 0.2}, two_qubit_error={(0, 1): 0.3})
        reference = brute_force_law(circuit, model)
        assert max_difference(exact_law(circuit, model), reference) < 1e-12

        def untwirled(rate, num_operands):
            dim = 2**num_operands
            identity_vector = np.eye(dim).reshape(-1)
            return (1.0 - rate) * np.eye(dim * dim) + (rate / dim) * np.outer(identity_vector, identity_vector)

        monkeypatch.setattr(density_module, "_depolarizing", untwirled)
        assert max_difference(exact_law(circuit, model), reference) > 1e-3


_RATE = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.4))


@st.composite
def rate_batches(draw):
    """A circuit of at most 6 qubits and 1-20 rows of the rates it reads.

    Gates up to three qubits wide; qubits may share a classical bit; every
    rate may be exactly zero.
    """
    n = draw(st.integers(1, 6))
    num_clbits = draw(st.integers(1, n))
    circuit = QuantumCircuit(n, num_clbits)
    for _ in range(draw(st.integers(0, 10))):
        arity = draw(st.sampled_from([1, 2, 3][: n]))
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        name = {1: draw(st.sampled_from(_ONE_QUBIT)), 2: draw(st.sampled_from(_TWO_QUBIT)), 3: "ccx"}[arity]
        count = {"rx": 1, "ry": 1, "u": 3, "crz": 1, "rzz": 1}.get(name, 0)
        circuit.append(Instruction(name, qubits, (), tuple(draw(_ANGLES) for _ in range(count))))
    for qubit in range(n):
        if draw(st.booleans()) or qubit == 0:
            circuit.measure(qubit, draw(st.integers(0, num_clbits - 1)))
    gates, readouts = noise_sites(circuit)
    width = len(gates) + len(readouts)
    row = st.lists(_RATE, min_size=width, max_size=width).map(tuple)
    return circuit, draw(st.lists(row, min_size=1, max_size=20))


def assert_rows_match(kernel, circuit, rows):
    """Each law ``kernel`` batches equals the one-row :func:`outcome_law` of its row, bit for bit."""
    batched = kernel(circuit, rows)
    assert len(batched) == len(rows)
    for row, law in zip(rows, batched):
        alone = outcome_law(circuit, row)
        assert law.labels == alone.labels
        assert np.array_equal(law.probabilities, alone.probabilities)
        assert law.rates == alone.rates == tuple(row)


def _mixed_circuit():
    """Three-qubit gate, qubits 1 and 2 measured into one classical bit."""
    circuit = QuantumCircuit(4, 3)
    circuit.h(0).ry(0.7, 1).cx(0, 2).ccx(0, 1, 3).rzz(0.5, 2, 3).h(3)
    circuit.measure(0, 0).measure(1, 1).measure(2, 1).measure(3, 2)
    return circuit


class TestBatchedLaws:
    @settings(max_examples=40, deadline=None)
    @given(rate_batches())
    def test_each_row_equals_its_one_row_pass(self, case):
        circuit, rows = case
        assert_rows_match(outcome_laws, circuit, rows)

    def test_zero_rates_wide_gates_and_a_shared_clbit(self):
        circuit = _mixed_circuit()
        gates, readouts = noise_sites(circuit)
        width = len(gates) + len(readouts)
        rng = np.random.default_rng(3)
        rows = [(0.0,) * width] + [
            tuple(float(rate) if keep else 0.0 for rate, keep in zip(rng.uniform(0, 0.3, width), rng.random(width) < 0.6))
            for _ in range(11)
        ]
        assert_rows_match(outcome_laws, circuit, rows)

    def test_swapped_rate_rows_fail_the_comparison(self):
        circuit = _mixed_circuit()
        gates, readouts = noise_sites(circuit)
        rows = [(0.05,) * (len(gates) + len(readouts)), (0.2,) * (len(gates) + len(readouts))]

        def swapped(circuit, rows):
            return outcome_laws(circuit, [rows[1], rows[0], *rows[2:]])

        with pytest.raises(AssertionError):
            assert_rows_match(swapped, circuit, rows)

    def test_rows_beyond_the_chunk_bound_are_evolved_in_chunks(self, monkeypatch):
        circuit = _mixed_circuit()
        gates, readouts = noise_sites(circuit)
        rows = [(0.01 * (i + 1),) * (len(gates) + len(readouts)) for i in range(7)]
        chunks = []
        evolve = density_module._evolve
        monkeypatch.setattr(density_module, "_evolve", lambda c, chunk: chunks.append(len(chunk)) or evolve(c, chunk))
        monkeypatch.setattr(density_module, "BATCH_ENTRIES", 3 * 4**circuit.num_qubits)
        assert_rows_match(outcome_laws, circuit, rows)
        # The batch runs as 3 + 3 + 1 rows, then each one-row reference alone.
        assert chunks == [3, 3, 1] + [1] * len(rows)

    def test_a_row_of_the_wrong_length_is_rejected(self):
        with pytest.raises(SimulationError):
            outcome_laws(_mixed_circuit(), [(0.1, 0.2)])

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", ["gate", "readout"])
    def test_a_non_physical_rate_is_rejected(self, rate, position):
        circuit = ghz(3)
        valid = read_rates(noise_sites(circuit), NoiseModel.uniform(3, 0.01, 0.05, 0.02))
        column = 0 if position == "gate" else len(valid) - 1
        invalid = valid[:column] + (rate,) + valid[column + 1:]
        with pytest.raises(SimulationError, match="noise rate"):
            outcome_laws(circuit, [valid, invalid])
        with pytest.raises(SimulationError, match="noise rate"):
            outcome_law(circuit, invalid)

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("table", ["one_qubit_error", "two_qubit_error", "readout_error"])
    def test_a_non_physical_calibration_entry_is_refused_where_it_is_read(self, rate, table):
        # The readout formula clips at 1 and the multi-qubit one takes a
        # pairwise max, so the entry is checked before either combines it.
        properties = BackendProperties(
            name="line3",
            num_qubits=3,
            coupling_map=line_topology(3),
            two_qubit_error={(0, 1): 0.02, (1, 2): 0.03},
            one_qubit_error={q: 0.001 for q in range(3)},
            readout_error={q: 0.01 for q in range(3)},
            readout_length={q: 30.0 for q in range(3)},
            t1={q: 100e3 for q in range(3)},
        )
        entries = getattr(properties, table)
        for site in entries:
            entries[site] = rate
        circuit = QuantumCircuit(3, 3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).measure(2, 2)
        sites = noise_sites(circuit)
        with pytest.raises(SimulationError, match=f"noise rate {rate!r}"):
            read_rates(sites, properties)
        if table == "two_qubit_error":
            with pytest.raises(SimulationError, match=f"noise rate {rate!r}"):
                properties.gate_error((0, 1, 2))

    def test_the_bounds_themselves_are_physical(self):
        circuit = ghz(2)
        sites = noise_sites(circuit)
        for rate in (0.0, 1.0):
            law = outcome_law(circuit, (rate,) * (len(sites[0]) + len(sites[1])))
            assert math.isclose(float(law.probabilities.sum()), 1.0)


class TestAgainstTheTrajectoryEngine:
    SHOTS = 40_000

    def test_trajectory_counts_lie_within_binomial_tolerance_of_the_law(self):
        circuit = QuantumCircuit(5, 5)
        circuit.h(0).ry(0.7, 1).cx(0, 2).t(2).cx(1, 3).rzz(0.5, 3, 4).ccx(0, 1, 4).h(3)
        for qubit in range(5):
            circuit.measure(qubit, qubit)
        model = NoiseModel.uniform(5, one_qubit_error=0.02, two_qubit_error=0.08, readout_error=0.04)
        law = exact_law(circuit, model)
        counts = NoisyStatevectorSimulator(seed=11).run(circuit, model, shots=self.SHOTS).counts
        observed = {label: count / self.SHOTS for label, count in counts.items()}
        tvd = 0.5 * sum(abs(observed.get(label, 0.0) - law.get(label, 0.0)) for label in set(law) | set(observed))
        # Each label's frequency is binomial(SHOTS, p)/SHOTS; allow four standard
        # deviations on every label: TVD <= 1/2 * sum_i 4 * sqrt(p_i (1 - p_i) / SHOTS).
        tolerance = 0.5 * sum(4.0 * math.sqrt(p * (1.0 - p) / self.SHOTS) for p in law.values())
        assert tvd <= tolerance
        assert set(observed) <= set(law)


class TestErrors:
    @pytest.fixture(params=["density", "trajectory"])
    def run(self, request):
        if request.param == "density":
            return lambda circuit, shots: execute_with_noise(circuit, NoiseModel.ideal(), shots=shots, compact=False)
        return lambda circuit, shots: NoisyStatevectorSimulator().run(circuit, shots=shots)

    def test_reset_is_rejected(self, run):
        circuit = QuantumCircuit(1, 1)
        circuit.reset(0)
        circuit.measure(0, 0)
        with pytest.raises(SimulationError):
            run(circuit, 10)

    def test_mid_circuit_measurement_is_rejected(self, run):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        circuit.h(0)
        with pytest.raises(SimulationError):
            run(circuit, 10)

    @pytest.mark.parametrize("shots", [0, -3])
    def test_non_positive_shots_are_rejected(self, run, shots):
        with pytest.raises(SimulationError):
            run(ghz(2), shots)


class TestLawOwnership:
    def test_a_replay_draws_from_the_stored_law(self, monkeypatch):
        model = NoiseModel.uniform(3, 0.01, 0.05, 0.02)
        execution = precompile_execution(ghz(3), noise_model=model)
        calls = []
        monkeypatch.setattr(noisy_module, "outcome_law", lambda *args: calls.append(args))
        result = execute_with_noise(ghz(3), model, shots=256, seed=4, precompiled=execution)
        assert calls == []
        assert result.counts == execution.law.draw(256, seed=4).counts

    def test_other_noise_rates_get_a_fresh_law(self):
        model = NoiseModel.uniform(3, 0.01, 0.05, 0.02)
        other = NoiseModel.uniform(3, 0.01, 0.3, 0.02)
        execution = precompile_execution(ghz(3), noise_model=model)
        fresh = execution.law_for(other)
        assert fresh is not execution.law
        assert fresh.rates == read_rates(execution.noise_sites, other)
        replay = execute_with_noise(ghz(3), other, shots=512, seed=4, precompiled=execution)
        assert replay.counts == fresh.draw(512, seed=4).counts
        assert replay.counts != execution.law.draw(512, seed=4).counts

    def test_rates_are_read_at_the_physical_qubits(self):
        circuit = QuantumCircuit(9, 2)
        circuit.h(6).cx(6, 8).measure(6, 0).measure(8, 1)
        model = NoiseModel(one_qubit_error={6: 0.1}, two_qubit_error={(6, 8): 0.2}, readout_error={8: 0.05})
        execution = precompile_execution(circuit, noise_model=model)
        assert execution.qubit_mapping == (6, 8)
        assert execution.noise_sites == (((6,), (6, 8)), (6, 8))
        assert execution.law.rates == (0.1, 0.2, 0.0, 0.05)
        compacted = outcome_law(execution.circuit, read_rates(noise_sites(execution.circuit), model.restricted_to([6, 8])))
        assert compacted.rates == execution.law.rates
        assert compacted.labels == execution.law.labels
        np.testing.assert_array_equal(compacted.probabilities, execution.law.probabilities)

    def test_the_law_pickles(self):
        law = precompile_execution(ghz(4), noise_model=NoiseModel.uniform(4, 0.01, 0.05, 0.02)).law
        clone = pickle.loads(pickle.dumps(law))
        assert clone.rates == law.rates
        assert clone.draw(300, seed=2).counts == law.draw(300, seed=2).counts
