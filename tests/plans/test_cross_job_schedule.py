"""Cross-job merged schedules: bit-identity with solo runs, caching, pickling.

The tentpole contract of the cross-job batching layer: executing N
structurally different Clifford jobs as one merged sign-matrix evolution
produces, per job, *bit-identical* counts to N solo runs under the same
seeds and noise models — and the merged artifact is frozen plain data
(QRIO-S001) that survives pickling into spawned shard processes.
"""

import pickle
import subprocess
import sys

import pytest

from repro.circuits.random_circuits import random_clifford_circuit
from repro.core.cache import all_cache_stats, clear_all_caches
from repro.plans import (
    MergedExecutionProgram,
    compile_lane,
    execute_merged_program,
    merge_programs,
    program_digest,
)
from repro.simulators.noise import NoiseModel
from repro.simulators.noisy import (
    ExecutionRequest,
    execute_many_with_noise,
    execute_with_noise,
    precompile_execution,
)
from repro.utils.exceptions import StabilizerError


#: Widths above the batched-statevector limit so precompilation picks the
#: stabilizer engine; mixed depths so lanes need identity padding.
SHAPES = [(14, 6), (15, 8), (16, 10), (14, 12)]


def _stabilizer_batch(seed_base):
    """Distinct Clifford circuits + precompiled stabilizer dispatches."""
    circuits = [
        random_clifford_circuit(n, depth, seed=seed_base + i, measure=True, name=f"m{i}")
        for i, (n, depth) in enumerate(SHAPES)
    ]
    precompiled = [precompile_execution(circuit) for circuit in circuits]
    assert all(p.engine == "stabilizer" for p in precompiled)
    return circuits, precompiled


def _noise_for(circuit, index):
    return NoiseModel.uniform(
        circuit.num_qubits,
        one_qubit_error=0.02 + 0.01 * index,
        two_qubit_error=0.05 + 0.02 * index,
        readout_error=0.01 * index,
    )


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()
    yield
    clear_all_caches()


class TestMergedSoloBitIdentity:
    @pytest.mark.parametrize("seed_base", [0, 100, 2000])
    @pytest.mark.parametrize("shots", [64, 256])
    def test_merged_counts_equal_solo_counts(self, seed_base, shots):
        circuits, precompiled = _stabilizer_batch(seed_base)
        requests = [
            ExecutionRequest(
                circuit=circuit,
                noise_model=_noise_for(circuit, index),
                shots=shots,
                seed=seed_base + 17 * index,
                precompiled=bundle,
            )
            for index, (circuit, bundle) in enumerate(zip(circuits, precompiled))
        ]
        merged_results = execute_many_with_noise(requests)
        for request, result in zip(requests, merged_results):
            solo = execute_with_noise(
                request.circuit,
                request.noise_model,
                shots=request.shots,
                seed=request.seed,
                precompiled=request.precompiled,
            )
            assert result.counts == solo.counts
            assert result.shots == solo.shots
            assert result.metadata["method"] == "batched"
            assert result.metadata["merged_jobs"] == len(requests)

    def test_mixed_batch_runs_statevector_requests_solo(self):
        circuits, precompiled = _stabilizer_batch(7)
        small = random_clifford_circuit(4, 5, seed=9, measure=True, name="small")
        requests = [
            ExecutionRequest(
                circuit=circuit,
                noise_model=_noise_for(circuit, index),
                shots=128,
                seed=31 * index,
                precompiled=bundle,
            )
            for index, (circuit, bundle) in enumerate(zip(circuits, precompiled))
        ]
        requests.insert(1, ExecutionRequest(circuit=small, noise_model=None, shots=128, seed=5))
        results = execute_many_with_noise(requests)
        assert results[1].metadata["simulator"].startswith("noisy")
        assert "merged_jobs" not in results[1].metadata
        solo = execute_with_noise(small, None, shots=128, seed=5)
        assert results[1].counts == solo.counts
        assert all(r.metadata.get("method") == "batched" for i, r in enumerate(results) if i != 1)

    def test_group_of_one_falls_back_to_solo_path(self):
        circuits, precompiled = _stabilizer_batch(3)
        request = ExecutionRequest(
            circuit=circuits[0],
            noise_model=_noise_for(circuits[0], 0),
            shots=64,
            seed=1,
            precompiled=precompiled[0],
        )
        (result,) = execute_many_with_noise([request])
        assert "merged_jobs" not in result.metadata

    def test_different_shot_counts_never_merge(self):
        circuits, precompiled = _stabilizer_batch(5)
        requests = [
            ExecutionRequest(
                circuit=circuit,
                noise_model=None,
                shots=64 if index % 2 else 128,
                seed=index,
                precompiled=bundle,
            )
            for index, (circuit, bundle) in enumerate(zip(circuits, precompiled))
        ]
        results = execute_many_with_noise(requests)
        for result in results:
            assert result.metadata.get("merged_jobs", 2) == 2

    def test_second_call_hits_the_merged_program_cache(self):
        circuits, precompiled = _stabilizer_batch(11)
        requests = [
            ExecutionRequest(
                circuit=circuit, noise_model=None, shots=64, seed=index, precompiled=bundle
            )
            for index, (circuit, bundle) in enumerate(zip(circuits, precompiled))
        ]
        execute_many_with_noise(requests)
        before = all_cache_stats()["batch"]
        execute_many_with_noise(requests)
        after = all_cache_stats()["batch"]
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]

    def test_arrival_order_never_splits_the_merged_program_cache(self):
        circuits, precompiled = _stabilizer_batch(17)
        requests = [
            ExecutionRequest(
                circuit=circuit,
                noise_model=None,
                shots=64,
                seed=index,
                precompiled=bundle,
                device=f"dev_{index % 2}",
                calibration=f"fp_{index % 2}",
            )
            for index, (circuit, bundle) in enumerate(zip(circuits, precompiled))
        ]
        forward = execute_many_with_noise(requests)
        before = all_cache_stats()["batch"]
        backward = execute_many_with_noise(list(reversed(requests)))
        after = all_cache_stats()["batch"]
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert [result.counts for result in reversed(backward)] == [result.counts for result in forward]


class TestMergedArtifact:
    def _merged(self, seed_base=21):
        _, precompiled = _stabilizer_batch(seed_base)
        return merge_programs(
            [(p.program, p.circuit.num_qubits, p.circuit.num_clbits) for p in precompiled]
        )

    def test_merge_key_is_a_multiset_identity(self):
        _, precompiled = _stabilizer_batch(13)
        members = [(p.program, p.circuit.num_qubits, p.circuit.num_clbits) for p in precompiled]
        forward = merge_programs(members)
        backward = merge_programs(list(reversed(members)))
        assert forward == backward
        assert forward.merge_key == backward.merge_key

    def test_lanes_sorted_by_digest_and_padded_dimensions(self):
        merged = self._merged()
        digests = [lane.digest for lane in merged.lanes]
        assert digests == sorted(digests)
        assert merged.num_qubits == max(lane.num_qubits for lane in merged.lanes)
        assert merged.num_positions == max(len(lane.ops) for lane in merged.lanes)

    def test_program_digest_separates_structurally_different_programs(self):
        _, precompiled = _stabilizer_batch(17)
        digests = {
            program_digest(p.program, p.circuit.num_qubits, p.circuit.num_clbits)
            for p in precompiled
        }
        assert len(digests) == len(precompiled)

    def test_compile_lane_rejects_empty_register(self):
        with pytest.raises(StabilizerError):
            compile_lane([], 0, 0)

    def test_merge_programs_rejects_empty_membership(self):
        with pytest.raises(StabilizerError):
            merge_programs([])

    def test_execute_merged_program_validates_alignment(self):
        merged = self._merged()
        seeds = list(range(len(merged.lanes)))
        models = [None] * len(merged.lanes)
        with pytest.raises(StabilizerError):
            execute_merged_program(merged, models, seeds, shots=0)
        with pytest.raises(StabilizerError):
            execute_merged_program(merged, models[:-1], seeds, shots=16)
        with pytest.raises(StabilizerError):
            execute_merged_program(merged, models, seeds[:-1], shots=16)

    def test_artifact_is_frozen(self):
        merged = self._merged()
        with pytest.raises(Exception):
            merged.merge_key = "tampered"

    def test_pickle_round_trip_preserves_artifact_and_execution(self):
        merged = self._merged()
        clone = pickle.loads(pickle.dumps(merged))
        assert clone == merged
        assert isinstance(clone, MergedExecutionProgram)
        models = [NoiseModel.uniform(lane.num_qubits, one_qubit_error=0.05) for lane in merged.lanes]
        seeds = [7 * i for i in range(len(merged.lanes))]
        original = execute_merged_program(merged, models, seeds, shots=64)
        replayed = execute_merged_program(clone, models, seeds, shots=64)
        assert original == replayed

    def test_spawned_subprocess_pickle_round_trip(self, tmp_path):
        # QRIO-S001 end to end: the artifact crosses a real process boundary
        # (the sharded-dispatch spawn path) and comes back intact.
        merged = self._merged()
        outbound = tmp_path / "merged.pkl"
        inbound = tmp_path / "merged.back.pkl"
        outbound.write_bytes(pickle.dumps(merged))
        script = (
            "import pickle, sys\n"
            "artifact = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert artifact.lanes, 'lanes lost in transit'\n"
            "open(sys.argv[2], 'wb').write(pickle.dumps(artifact))\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(outbound), str(inbound)],
            check=True,
            timeout=60,
        )
        assert pickle.loads(inbound.read_bytes()) == merged
