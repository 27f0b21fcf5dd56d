"""Serialization lint pass: QRIO-S001.

The process-shard roadmap (ROADMAP item 1) ships :class:`repro.plans.ExecutionPlan`
and :class:`repro.scenarios.Trace` objects across process boundaries, and the
service dedups batches on frozen :class:`repro.service.JobSpec` keys.  That
only works while those dataclasses stay

* **frozen** (hashable, safe to share across threads without copying), and
* **picklable by construction** (no lock, lambda, generator, thread or
  module-valued fields).

QRIO-S001 pins both properties structurally: the configured classes must be
``@dataclass(frozen=True)`` and no field annotation or default may reference
a threading primitive, ``Callable``/``lambda``, or an ``Iterator``/
``Generator`` type.  The executable twin of this rule is the spawned-
subprocess pickle round-trip test in ``tests/analysis/``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.core import Finding, ModuleInfo, dotted_name

__all__ = ["FrozenPicklableRule", "DEFAULT_PICKLE_CONTRACT"]

#: relpath -> class names that must stay frozen + picklable there.
DEFAULT_PICKLE_CONTRACT: Dict[str, Tuple[str, ...]] = {
    "plans/plan.py": ("ExecutionPlan",),
    "scenarios/trace.py": ("Trace",),
    "workloads/arrivals.py": ("JobRequest",),
    "service/api.py": ("JobRequirements", "JobSpec", "JobEvent", "JobStatus", "ServiceResult"),
    "tenancy/api.py": ("Tenant",),
    "service/sharding.py": ("EngineSpec", "ShardRequest", "ShardJob", "ShardOutcome"),
}

#: Type names that make a field unpicklable (or mutable shared state).
_FORBIDDEN_TYPE_NAMES = (
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "Thread",
    "Callable",
    "Iterator",
    "Generator",
    "Coroutine",
)


class FrozenPicklableRule:
    """QRIO-S001: shard-crossing dataclasses stay frozen and picklable."""

    rule_id = "QRIO-S001"
    severity = "error"
    description = (
        "Shard-crossing dataclasses (ExecutionPlan, Trace, JobSpec and friends) "
        "must be @dataclass(frozen=True) with no lock/lambda/generator-valued "
        "fields — the picklability precondition for process shards"
    )

    def __init__(self, contract: Optional[Dict[str, Tuple[str, ...]]] = None) -> None:
        self.contract = dict(DEFAULT_PICKLE_CONTRACT if contract is None else contract)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        expected = self.contract.get(module.relpath)
        if not expected:
            return []
        findings: List[Finding] = []
        found: Dict[str, ast.ClassDef] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in expected:
                found[node.name] = node
        for name in expected:
            node = found.get(name)
            if node is None:
                finding = module.finding(
                    self,
                    _loc(1),
                    f"contracted class '{name}' is missing from {module.relpath}; "
                    "update the QRIO-S001 contract if it moved",
                )
                if finding is not None:
                    findings.append(finding)
                continue
            findings.extend(self._check_class(module, node))
        return findings

    # ------------------------------------------------------------------ #
    def _check_class(self, module: ModuleInfo, node: ast.ClassDef) -> Iterable[Finding]:
        findings: List[Finding] = []
        if not self._is_frozen_dataclass(node):
            finding = module.finding(
                self, node, f"'{node.name}' must be declared @dataclass(frozen=True)"
            )
            if finding is not None:
                findings.append(finding)
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            field_name = stmt.target.id
            bad_type = self._forbidden_annotation(stmt.annotation)
            if bad_type is not None:
                finding = module.finding(
                    self,
                    stmt,
                    f"field '{node.name}.{field_name}' is annotated with unpicklable "
                    f"type '{bad_type}'",
                )
                if finding is not None:
                    findings.append(finding)
            bad_default = self._forbidden_default(stmt.value)
            if bad_default is not None:
                finding = module.finding(
                    self,
                    stmt,
                    f"field '{node.name}.{field_name}' has unpicklable default {bad_default}",
                )
                if finding is not None:
                    findings.append(finding)
        return findings

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = dotted_name(decorator.func)
                if name is not None and name.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if keyword.arg == "frozen":
                            value = keyword.value
                            return isinstance(value, ast.Constant) and value.value is True
                    return False  # dataclass(...) without frozen=True
            else:
                name = dotted_name(decorator)
                if name is not None and name.split(".")[-1] == "dataclass":
                    return False  # bare @dataclass defaults to frozen=False
        return False

    @classmethod
    def _forbidden_annotation(cls, annotation: ast.AST) -> Optional[str]:
        for node in ast.walk(annotation):
            name = None
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = dotted_name(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value  # string annotation
            if name is None:
                continue
            tail = name.split(".")[-1].split("[")[0]
            if tail in _FORBIDDEN_TYPE_NAMES:
                return name
        return None

    @classmethod
    def _forbidden_default(cls, value: Optional[ast.AST]) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Lambda):
            return "a lambda (unpicklable when stored on the instance)"
        # ``field(default=lambda ...)`` stores the lambda itself; a
        # ``default_factory`` only *runs* at init time, so its result decides
        # picklability, not the factory — lambdas there are fine.
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None and callee.split(".")[-1] == "field":
                for keyword in value.keywords:
                    if keyword.arg == "default" and isinstance(keyword.value, ast.Lambda):
                        return "a lambda (unpicklable when stored on the instance)"
        return None


def _loc(lineno: int):
    class _Node:
        pass

    node = _Node()
    node.lineno = lineno
    return node
