"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through the
``repro.experiments`` drivers and reports the same rows/series the paper
plots, alongside pytest-benchmark timing of the regeneration itself.

Scale control
-------------
The paper's evaluation uses a 100-device fleet; a full-scale regeneration of
the fidelity experiment (Fig. 7) takes tens of minutes in pure Python, so the
benchmarks default to a reduced but representative configuration (24 devices
spanning all qubit counts and connectivities, 256 shots).  Set the
environment variable ``QRIO_BENCH_SCALE=paper`` to run at the published scale
or ``QRIO_BENCH_SCALE=quick`` for a smoke-test run.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.experiments import ExperimentConfig, default_config, paper_scale_config, quick_config

# --------------------------------------------------------------------------- #
# Shared timing helpers (used by bench_perf_regression.py and by the
# standalone benchmarks/run_benchmarks.py entry point)
# --------------------------------------------------------------------------- #


def time_callable(fn: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock seconds of ``fn`` plus its last result.

    Best-of is the standard perf-regression statistic: it filters scheduler
    noise while staying cheap enough for smoke runs.  Each call starts after
    a full garbage collection, so a collection the setup made due does not
    land inside a millisecond-scale timing.
    """
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def bench_output_dir() -> Path:
    """Directory the ``BENCH_*.json`` artefacts are written to.

    Defaults to the repository root (next to ``ROADMAP.md``) so successive
    PRs overwrite the same files and the numbers form a trajectory; override
    with ``QRIO_BENCH_DIR``.
    """
    override = os.environ.get("QRIO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent


def write_bench_json(filename: str, payload: Dict[str, object]) -> Path:
    """Write one benchmark artefact and return its path."""
    path = bench_output_dir() / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _select_config() -> ExperimentConfig:
    scale = os.environ.get("QRIO_BENCH_SCALE", "default").lower()
    if scale == "paper":
        return paper_scale_config()
    if scale == "quick":
        return quick_config()
    return default_config()


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration used by every benchmark."""
    return _select_config()


@pytest.fixture(scope="session")
def bench_fleet(bench_config):
    """The (possibly truncated) Table 2 device fleet, generated once."""
    return bench_config.build_fleet()
