"""Trace serialization: JSONL round trips, versioning, live recording."""

from __future__ import annotations

import json

import pytest

from repro.circuits import ghz
from repro.scenarios import (
    PoissonProcess,
    Trace,
    TraceRecorder,
    TRACE_FORMAT,
    TRACE_VERSION,
    generate_requests,
    load_trace,
    record,
)
from repro.service import JobRequirements, OrchestratorEngine, QRIOService
from repro.utils.cache import structural_circuit_hash
from repro.utils.exceptions import ScenarioError
from repro.workloads import clifford_suite


@pytest.fixture
def small_trace():
    requests = generate_requests(
        PoissonProcess(rate_per_hour=600.0), num_jobs=8, suite=clifford_suite(), seed=21, shots=64
    )
    return Trace.from_requests("roundtrip", requests, purpose="test")


class TestTraceRoundTrip:
    def test_save_load_preserves_every_job_field(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert loaded.name == small_trace.name
        assert loaded.metadata == small_trace.metadata
        assert len(loaded) == len(small_trace)
        for original, reloaded in zip(small_trace, loaded):
            assert reloaded.index == original.index
            assert reloaded.arrival_time == original.arrival_time
            assert reloaded.workload_key == original.workload_key
            assert reloaded.strategy == original.strategy
            assert reloaded.fidelity_threshold == original.fidelity_threshold
            assert reloaded.shots == original.shots
            assert reloaded.user == original.user
            # Structural identity is what routing depends on.
            assert structural_circuit_hash(reloaded.circuit) == structural_circuit_hash(original.circuit)

    def test_second_generation_is_byte_identical(self, small_trace, tmp_path):
        """save → load → save must be a fixed point (normalisation works)."""
        first = small_trace.save(tmp_path / "gen1.jsonl")
        second = load_trace(first).save(tmp_path / "gen2.jsonl")
        assert first.read_text() == second.read_text()

    def test_record_function_alias(self, small_trace, tmp_path):
        path = record(small_trace, tmp_path / "alias.jsonl")
        assert load_trace(path).name == "roundtrip"

    def test_header_carries_format_version_and_metadata(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["num_jobs"] == len(small_trace)
        assert header["metadata"]["purpose"] == "test"


class TestTraceValidation:
    def test_rejects_unknown_version(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = TRACE_VERSION + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]))
        with pytest.raises(ScenarioError, match="version"):
            load_trace(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ScenarioError, match="not a qrio-trace"):
            load_trace(path)
        path.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            load_trace(path)

    def test_rejects_malformed_job_lines(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = '{"index": 0}'
        path.write_text("\n".join(lines))
        with pytest.raises(ScenarioError, match="line 2"):
            load_trace(path)

    def test_rejects_job_count_mismatch(self, small_trace, tmp_path):
        path = small_trace.save(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]))
        with pytest.raises(ScenarioError, match="declares"):
            load_trace(path)

    def test_rejects_unsorted_arrivals(self, small_trace):
        jobs = list(small_trace.jobs)
        with pytest.raises(ScenarioError, match="non-decreasing"):
            Trace(name="bad", jobs=tuple(reversed(jobs)))


class TestTraceRecorder:
    def test_captures_service_submissions_in_order(self, testbed_devices):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        with TraceRecorder(service, name="captured") as recorder:
            service.submit(ghz(3), 0.9, shots=32, name="first")
            service.submit(ghz(4), JobRequirements(fidelity_threshold=0.8), shots=64, name="second")
            service.process()
        trace = recorder.trace()
        assert [job.workload_key for job in trace] == ["first", "second"]
        assert [job.arrival_time for job in trace] == [0.0, 1.0]
        assert [job.shots for job in trace] == [32, 64]
        assert [job.fidelity_threshold for job in trace] == [0.9, 0.8]
        assert trace.metadata["source"] == "TraceRecorder"

    def test_detach_stops_recording(self, testbed_devices):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        recorder = TraceRecorder(service)
        service.submit(ghz(3), 0.9, shots=32)
        recorder.detach()
        service.submit(ghz(3), 0.9, shots=32)
        assert len(recorder) == 1

    def test_recorded_trace_round_trips(self, testbed_devices, tmp_path):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        with TraceRecorder(service) as recorder:
            service.submit_batch([ghz(3), ghz(4), ghz(3)], 0.9, shots=32)
        path = recorder.trace().save(tmp_path / "recorded.jsonl")
        loaded = load_trace(path)
        assert len(loaded) == 3
        assert [structural_circuit_hash(job.circuit) for job in loaded] == [
            structural_circuit_hash(job.circuit) for job in recorder.trace()
        ]

    def test_respects_explicit_arrival_times(self, testbed_devices):
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        with TraceRecorder(service) as recorder:
            service.submit(ghz(3), JobRequirements(fidelity_threshold=0.9, arrival_time_s=4.5), shots=32)
        assert [job.arrival_time for job in recorder.trace()] == [4.5]

    def test_mixed_explicit_and_logical_arrivals_stay_monotonic(self, testbed_devices):
        """An explicit arrival_time_s followed by default submissions must not
        produce a non-decreasing-order violation in the recorded trace."""
        service = QRIOService(testbed_devices, OrchestratorEngine(seed=3, canary_shots=64))
        with TraceRecorder(service) as recorder:
            service.submit(ghz(3), JobRequirements(fidelity_threshold=0.9, arrival_time_s=4.5), shots=32)
            service.submit(ghz(3), 0.9, shots=48)  # logical clock would say 1.0
        trace = recorder.trace()
        times = [job.arrival_time for job in trace]
        assert times == [4.5, 4.5]
        assert all(later >= earlier for earlier, later in zip(times, times[1:]))
