"""The workload seed changes order, names and angles, never the job mix."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import traffic as tr  # noqa: E402


def _names(traffic):
    return [job.name for job in traffic.jobs()]


@pytest.mark.parametrize("workload", tr.WORKLOADS)
def test_two_seeds_yield_identical_per_kind_counts(workload):
    first = tr.build_traffic(workload, seed=11, seconds=20)
    second = tr.build_traffic(workload, seed=12, seconds=20)
    assert first.kind_counts() == second.kind_counts()
    for index in range(first.rounds):
        kinds = lambda t: sorted(job.kind for step in t.round_steps(index) for job in step)  # noqa: E731
        assert kinds(first) == kinds(second)
    assert [job.kind for job in first.warmup] == [job.kind for job in second.warmup]
    assert _names(first) != _names(second)


@pytest.mark.parametrize("workload", tr.WORKLOADS)
def test_same_seed_yields_identical_jobs(workload):
    first = tr.build_traffic(workload, seed=5, seconds=20)
    second = tr.build_traffic(workload, seed=5, seconds=20)
    assert _names(first) == _names(second)
    assert [job.circuit for job in first.jobs()] == [job.circuit for job in second.jobs()]


def test_fresh_angle_jobs_never_repeat_a_circuit():
    traffic = tr.build_traffic("param_sweep", seed=3, seconds=20)
    circuits = [job.circuit for job in traffic.jobs() + list(traffic.warmup)]
    assert all(a != b for i, a in enumerate(circuits) for b in circuits[i + 1:])


def test_run_length_sets_whole_rounds():
    for workload in tr.WORKLOADS:
        traffic = tr.build_traffic(workload, seed=1, seconds=20)
        assert traffic.rounds == tr.rounds_for(workload, 20)
        assert all(count % traffic.rounds == 0 for count in traffic.kind_counts().values())
        assert len(traffic.steps) % traffic.rounds == 0


def test_tenant_mix_pairs_a_sweep_job_with_an_interactive_job():
    traffic = tr.build_traffic("tenant_mix", seed=2, seconds=20)
    assert all([job.tenant for job in step] == [tr.SWEEP.id, tr.INTERACTIVE.id] for step in traffic.steps)
