"""Concurrency lint passes: QRIO-C001 / QRIO-C002.

* **QRIO-C001** — an instance attribute written both *under* a lock
  (``with self._lock: self.x = ...``) and *bare* in the same class is a data
  race waiting for a scheduler to expose it: the guarded sites prove the
  author considered the attribute shared, so every unguarded write (outside
  ``__init__``/``__post_init__``, which happen before publication) is
  flagged.
* **QRIO-C002** — a static lock-order graph over the concurrency-bearing
  modules (``service/runtime.py``, ``service/handle.py``, ``utils/cache.py``,
  ``cloud/simulation.py`` by default).  Each lexically nested acquisition
  ``with self._a: ... with self._b:`` adds the edge ``A -> B``; calling a
  *same-class* method while holding a lock adds edges to every lock that
  method acquires.  A cycle in the accumulated graph is a potential
  deadlock: two threads can acquire the participating locks in opposite
  orders.  The runtime twin of this rule is
  :mod:`repro.analysis.racetrace`, which checks the orders threads actually
  take.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, dotted_name

__all__ = ["BareSharedWriteRule", "LockOrderRule"]

#: Attribute-name fragments that identify a lock-like guard object.
_LOCKISH = ("lock", "mutex", "cv", "cond", "guard", "sem")


def _is_lock_attr(name: str) -> bool:
    lowered = name.lower().lstrip("_")
    return any(lowered == frag or lowered.startswith(frag) or lowered.endswith(frag) for frag in _LOCKISH)


def _with_lock_names(node: ast.With) -> List[str]:
    """Names of ``self.<lock>`` context managers acquired by a ``with``."""
    names = []
    for item in node.items:
        expr = item.context_expr
        # ``with self._lock:`` and ``with self._cv:`` both acquire; a call
        # form like ``with self._lock.acquire_timeout(...)`` is ignored.
        name = dotted_name(expr)
        if name is not None and name.startswith("self.") and _is_lock_attr(name.split(".", 1)[1]):
            names.append(name.split(".", 1)[1])
    return names


class _ClassScan:
    """Per-class write/acquisition facts the two rules share."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        #: attr -> list of (method, lineno, guarded-by locks or ()).
        self.writes: Dict[str, List[Tuple[str, int, Tuple[str, ...]]]] = defaultdict(list)
        #: (outer lock, inner lock) -> first site observed.
        self.nested: Dict[Tuple[str, str], Tuple[int, str]] = {}
        #: lock -> same-class methods called while holding it (with sites).
        self.calls_under_lock: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
        #: method -> locks it acquires anywhere in its body.
        self.method_acquires: Dict[str, Set[str]] = defaultdict(set)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(item.name, item.body, held=())

    # ------------------------------------------------------------------ #
    def _scan_function(self, method: str, body: Sequence[ast.stmt], held: Tuple[str, ...]) -> None:
        for stmt in body:
            self._scan_stmt(method, stmt, held)

    def _scan_stmt(self, method: str, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, ast.With):
            acquired = _with_lock_names(stmt)
            for lock in acquired:
                self.method_acquires[method].add(lock)
                for outer in held:
                    if outer != lock:
                        self.nested.setdefault((outer, lock), (stmt.lineno, f"{self.name}.{method}"))
            self._scan_function(method, stmt.body, held + tuple(acquired))
            return
        # Record self-attribute writes with the current guard set.
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for attr in self._self_attr_targets(target):
                    self.writes[attr].append((method, stmt.lineno, held))
        # Same-class method calls made while holding a lock.
        if held:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    callee = dotted_name(node.func)
                    if callee is not None and callee.startswith("self."):
                        callee_method = callee.split(".", 1)[1]
                        if "." not in callee_method:
                            for lock in held:
                                self.calls_under_lock[lock].append((callee_method, node.lineno))
        for child_body in self._nested_bodies(stmt):
            self._scan_function(method, child_body, held)

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> Iterable[Sequence[ast.stmt]]:
        for field_name in ("body", "orelse", "finalbody"):
            body = getattr(stmt, field_name, None)
            if body and not isinstance(stmt, ast.With):
                yield body
        for handler in getattr(stmt, "handlers", ()):
            yield handler.body

    @staticmethod
    def _self_attr_targets(target: ast.AST) -> Iterable[str]:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                yield from _ClassScan._self_attr_targets(element)
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr


def _scan_classes(module: ModuleInfo) -> Iterable[_ClassScan]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            yield _ClassScan(module, node)


class BareSharedWriteRule:
    """QRIO-C001: attribute written both under ``self.<lock>`` and bare."""

    rule_id = "QRIO-C001"
    severity = "error"
    description = (
        "Instance attribute written both under a lock and without one in the "
        "same class — every write to a lock-guarded attribute must hold the lock"
    )

    #: Methods that run before the object is visible to other threads.
    construction_methods = ("__init__", "__post_init__", "__new__")

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for scan in _scan_classes(module):
            for attr, sites in scan.writes.items():
                if _is_lock_attr(attr):
                    continue  # assigning the lock object itself
                guarded = [site for site in sites if site[2]]
                if not guarded:
                    continue
                for method, lineno, held in sites:
                    if held or method in self.construction_methods:
                        continue
                    locks = sorted({lock for _, _, held_locks in guarded for lock in held_locks})
                    finding = module.finding(
                        self,
                        _Loc(lineno),
                        f"'{scan.name}.{attr}' is written under lock(s) {locks} elsewhere "
                        f"but bare in '{method}'",
                    )
                    if finding is not None:
                        findings.append(finding)
        return findings


class _Loc:
    """Minimal node stand-in carrying just a line number."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno


class LockOrderRule:
    """QRIO-C002: acquisition-order cycles in the static lock graph."""

    rule_id = "QRIO-C002"
    severity = "error"
    description = (
        "Lock-order cycle: these locks are acquired in opposite orders on "
        "different code paths, which can deadlock under concurrent dispatch"
    )

    #: Modules whose lock graphs are stitched together.  ``None`` scans every
    #: module the analyzer feeds in (the unit-test configuration).
    default_modules = (
        "service/runtime.py",
        "service/handle.py",
        "service/service.py",
        "service/engines.py",
        "utils/cache.py",
        "cloud/simulation.py",
        "scenarios/trace.py",
    )

    def __init__(self, modules: Optional[Sequence[str]] = None) -> None:
        self.modules = tuple(modules) if modules is not None else self.default_modules
        self._edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        self._suppressed: Set[Tuple[str, str]] = set()

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if self.modules and module.relpath not in self.modules:
            return []
        for scan in _scan_classes(module):
            for (outer, inner), (lineno, where) in scan.nested.items():
                self._add_edge(module, scan, outer, inner, lineno, where)
            # One level of intra-class flow: holding L and calling a method
            # that acquires M orders L before M.
            for lock, calls in scan.calls_under_lock.items():
                for callee, lineno in calls:
                    for inner in scan.method_acquires.get(callee, ()):
                        if inner != lock:
                            self._add_edge(
                                module, scan, lock, inner, lineno, f"{scan.name}.{callee}()"
                            )
        return []

    def _add_edge(
        self, module: ModuleInfo, scan: _ClassScan, outer: str, inner: str, lineno: int, where: str
    ) -> None:
        qualified = (f"{scan.name}.{outer}", f"{scan.name}.{inner}")
        if module.allows(self.rule_id, lineno):
            self._suppressed.add(qualified)
            return
        self._edges.setdefault(qualified, (module.relpath, lineno, where))

    def finalize(self) -> Iterable[Finding]:
        graph: Dict[str, Set[str]] = defaultdict(set)
        for outer, inner in self._edges:
            graph[outer].add(inner)
        findings: List[Finding] = []
        reported: Set[Tuple[str, str]] = set()
        for (outer, inner), (path, lineno, where) in sorted(self._edges.items()):
            if (outer, inner) in reported or (inner, outer) in reported:
                continue
            if self._reaches(graph, inner, outer):
                reported.add((outer, inner))
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        severity=self.severity,
                        path=path,
                        line=lineno,
                        message=(
                            f"acquisition-order cycle: '{outer}' is taken before '{inner}' at "
                            f"{where}, but '{inner}' also precedes '{outer}' on another path"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _reaches(graph: Dict[str, Set[str]], start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        return False
