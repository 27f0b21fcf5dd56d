"""End-to-end QRIO benchmark: one command, three workloads, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload warm_replay --seed 1 --seconds 20 --trace 0

The launcher pins BLAS/OpenMP to one thread and starts a fresh Python
process (``perfbench/worker.py``) for the run, so no state leaks between
runs; it relays the worker's output and exit code.  The last line printed is
the JSON result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm_replay", "param_sweep", "tenant_mix")
#: Upper bound on one run; a worker still running then is killed.
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end QRIO benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the QRIO sources (src/repro) are missing under {ROOT}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        {
            # Two BLAS threads doubled CPU per warm job with no wall-time gain.
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        }
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A terminated launcher must not leave the worker running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
