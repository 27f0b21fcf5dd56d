"""Static invariant analysis + runtime race sanitizer for the QRIO repo.

``repro.analysis`` machine-checks the conventions the fleet's guarantees
rest on (deterministic replay, process-stable cache keys, lock discipline,
picklable shard-crossing dataclasses).  Two halves:

* **Static rules** (``repro-qrio analyze``): AST passes over ``src/repro``
  — see :mod:`repro.analysis.determinism` (QRIO-D001..D003),
  :mod:`repro.analysis.concurrency` (QRIO-C001..C002),
  :mod:`repro.analysis.serialization` (QRIO-S001) and
  :mod:`repro.analysis.layers` (QRIO-L001, over the declared package
  :data:`LAYERS`).  Intentional violations
  carry inline ``# qrio: allow[RULE-ID] reason`` pragmas; historical ones
  live in the committed ``analysis-baseline.json``.
* **Runtime sanitizer** (:mod:`repro.analysis.racetrace`): traced lock /
  condition drop-ins that detect lock-order inversions and unreleased holds
  while the real :class:`~repro.service.ServiceRuntime` suite runs
  (``QRIO_RACETRACE=1`` in CI).

The rule catalog, a worked "write a new rule in ≤40 lines" recipe and the
triage workflow are documented in ``docs/analysis.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import BareSharedWriteRule, LockOrderRule
from repro.analysis.core import (
    Analyzer,
    Baseline,
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    load_baseline,
)
from repro.analysis.determinism import ProcessSaltedKeyRule, UnseededRandomRule, WallClockRule
from repro.analysis.layers import LAYERS, LayerRule, render_layer_diagram
from repro.analysis.racetrace import (
    LockOrderViolation,
    RaceMonitor,
    RaceTraceError,
    TracedCondition,
    TracedLock,
    traced_threading,
)
from repro.analysis.serialization import DEFAULT_PICKLE_CONTRACT, FrozenPicklableRule

__all__ = [
    "Analyzer",
    "Baseline",
    "BareSharedWriteRule",
    "DEFAULT_PICKLE_CONTRACT",
    "Finding",
    "FrozenPicklableRule",
    "LAYERS",
    "LayerRule",
    "LockOrderRule",
    "LockOrderViolation",
    "ModuleInfo",
    "ProcessSaltedKeyRule",
    "RaceMonitor",
    "RaceTraceError",
    "Rule",
    "TracedCondition",
    "TracedLock",
    "UnseededRandomRule",
    "WallClockRule",
    "analysis_root",
    "analyze_tree",
    "default_baseline_path",
    "default_rules",
    "dotted_name",
    "load_baseline",
    "render_layer_diagram",
    "traced_threading",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every built-in rule (stateful rules require this)."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        ProcessSaltedKeyRule(),
        BareSharedWriteRule(),
        LockOrderRule(),
        FrozenPicklableRule(),
        LayerRule(),
    ]


def analysis_root() -> Path:
    """The package directory ``analyze`` scans by default (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def default_baseline_path() -> Path:
    """``analysis-baseline.json`` at the repo root (may not exist when installed)."""
    return analysis_root().parent.parent / "analysis-baseline.json"


def analyze_tree(
    root: Optional[Path] = None,
    *,
    baseline_path: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Dict[str, object]:
    """Run the full analysis and apply the baseline.

    Returns a dict with ``new`` (non-baselined findings — the CI-failing
    set), ``baselined`` (absorbed by ``analysis-baseline.json``) and
    ``baseline_path``/``root`` provenance.  This is the one entry point the
    CLI, the benchmark preflight and the tests share.
    """
    scan_root = Path(root) if root is not None else analysis_root()
    chosen_baseline = Path(baseline_path) if baseline_path is not None else default_baseline_path()
    analyzer = Analyzer(list(rules) if rules is not None else default_rules())
    findings = analyzer.run(scan_root)
    new, baselined = load_baseline(chosen_baseline).subtract(findings)
    return {
        "root": str(scan_root),
        "baseline_path": str(chosen_baseline),
        "new": new,
        "baselined": baselined,
    }
