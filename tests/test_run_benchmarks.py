"""The perf-regression harness: every bench runs, every failure is reported.

``benchmarks/run_benchmarks.py`` is a script, not a package module, so the
tests load it from its file with every bench replaced by a fast fake; no
measurement runs here.
"""

from __future__ import annotations

import importlib.util
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: The harness's bench functions, in the order ``run_all`` calls them.
_BENCHES = (
    "preflight_analyze",
    "bench_stabilizer",
    "bench_matching",
    "bench_scheduler",
    "bench_service",
    "bench_concurrency",
    "bench_scenarios",
    "bench_plans",
    "bench_shards",
)
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench_conftest(monkeypatch):
    """``benchmarks/conftest.py``, importable as ``conftest`` like the script expects."""
    module = _load("benchmarks_conftest", _BENCHMARKS / "conftest.py")
    monkeypatch.setitem(sys.modules, "conftest", module)
    # The script puts src/ and benchmarks/ on sys.path; keep that local to the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


@pytest.fixture()
def harness(bench_conftest, monkeypatch, tmp_path):
    monkeypatch.setenv("QRIO_BENCH_DIR", str(tmp_path))
    return _load("run_benchmarks_under_test", _BENCHMARKS / "run_benchmarks.py")


def _fake_benches(harness, monkeypatch, failing=()):
    """Replace every bench with a fake; return the list of ``(name, args)`` calls."""
    calls = []
    for name in _BENCHES:
        def fake(*args, _name=name):
            calls.append((_name, args))
            if _name in failing:
                raise harness.BenchFailure(f"{_name} missed its floor")
            return {"bench": _name}

        monkeypatch.setattr(harness, name, fake)
    return calls


def test_a_failed_bench_does_not_stop_the_run(harness, monkeypatch):
    calls = _fake_benches(harness, monkeypatch, failing={"preflight_analyze", "bench_service"})
    _, failures = harness.run_all("smoke")
    assert [name for name, _ in calls] == list(_BENCHES)
    assert failures == [
        "preflight: preflight_analyze missed its floor",
        "service: bench_service missed its floor",
    ]


def test_only_artefacts_whose_benches_passed_are_written(harness, monkeypatch, tmp_path):
    _fake_benches(harness, monkeypatch, failing={"bench_shards"})
    paths, failures = harness.run_all("smoke")
    assert failures == ["sharded: bench_shards missed its floor"]
    assert set(paths) == {"stabilizer", "matching", "service", "scenarios", "plans"}
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {
        "BENCH_stabilizer.json",
        "BENCH_matching.json",
        "BENCH_service.json",
        "BENCH_scenarios.json",
        "BENCH_plans.json",
    }
    assert json.loads((tmp_path / "BENCH_matching.json").read_text()) == {
        "scale": "smoke",
        "matching": {"bench": "bench_matching"},
        "scheduler": {"bench": "bench_scheduler"},
    }


def test_main_reports_every_failure_and_exits_one(harness, monkeypatch, tmp_path, capsys):
    _fake_benches(harness, monkeypatch, failing=set(_BENCHES))
    assert harness.main(["--scale", "smoke"]) == 1
    lines = capsys.readouterr().err.splitlines()
    reported = [line for line in lines if line.startswith("PERF REGRESSION: ")]
    assert len(reported) == len(_BENCHES)
    assert reported[-1] == "PERF REGRESSION: sharded: bench_shards missed its floor"
    assert list(tmp_path.iterdir()) == []


def test_every_floor_flag_reaches_its_bench(harness, monkeypatch):
    calls = _fake_benches(harness, monkeypatch, failing=set(_BENCHES))
    harness.main([
        "--scale", "default", "--stabilizer-floor", "11", "--scheduler-floor", "2.5",
        "--service-floor", "6", "--concurrency-floor", "2.2", "--replay-floor", "400",
        "--replay-ceiling", "9", "--plans-floor", "4", "--fault-replay-ceiling", "1.4",
        "--shard-floor", "3",
    ])
    assert dict(calls) == {
        "preflight_analyze": (),
        "bench_stabilizer": ("default", 11.0),
        "bench_matching": ("default",),
        "bench_scheduler": ("default", 2.5),
        "bench_service": ("default", 6.0),
        "bench_concurrency": ("default", 2.2),
        "bench_scenarios": ("default", 400.0, 9.0, 1.4),
        "bench_plans": ("default", 4.0),
        "bench_shards": ("default", 3.0),
    }


def test_time_callable_collects_garbage_before_each_call(bench_conftest, monkeypatch):
    events = []
    monkeypatch.setattr(bench_conftest.gc, "collect", lambda: events.append("collect"))

    def work():
        events.append("call")
        return len(events)

    seconds, result = bench_conftest.time_callable(work, repeats=3)
    assert events == ["collect", "call"] * 3
    assert result == 6
    assert seconds >= 0.0


def test_time_callable_runs_at_least_once(bench_conftest):
    calls = []
    _, result = bench_conftest.time_callable(lambda: calls.append(1) or "done", repeats=0)
    assert calls == [1]
    assert result == "done"


def test_running_as_a_script_pins_blas_to_one_thread(bench_conftest, monkeypatch):
    for variable in _BLAS_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setattr(sys, "argv", ["run_benchmarks.py", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(_BENCHMARKS / "run_benchmarks.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert {variable: os.environ.get(variable) for variable in _BLAS_VARIABLES} == dict.fromkeys(
        _BLAS_VARIABLES, "1"
    )
