"""The examples print the same numbers on every run of the same code."""

import os
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[2]


def _run_example(name: str, salt: int) -> str:
    # A fresh interpreter per run, so no process-wide cache carries a result
    # from one run into the next; distinct hash salts vary set iteration too.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(salt)
    completed = subprocess.run(
        [sys.executable, str(_REPO / "examples" / name)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return completed.stdout


def test_topology_ranking_is_identical_across_runs():
    rankings = []
    for salt in (0, 1):
        output = _run_example("topology_scheduling.py", salt)
        rankings.append(output[output.index("Topology match ranking"):])
    assert rankings[0] == rankings[1]
    assert rankings[0].count("exact=") == 3
