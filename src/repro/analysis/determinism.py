"""Determinism lint passes: QRIO-D001 / QRIO-D002 / QRIO-D003.

These three rules enforce the reproducibility contract documented in
``docs/analysis.md``:

* **QRIO-D001** — all randomness flows through
  :func:`repro.utils.rng.ensure_generator`.  Module-level ``random.*`` and
  ``np.random.*`` calls draw from hidden global state (invisible to seed
  threading), and a stray ``default_rng()`` outside ``utils/rng`` creates an
  unseeded stream, so both break bit-identical scenario replay.
* **QRIO-D002** — deterministic layers never read wall clocks.  Simulated
  time lives on logical clocks (``JobRequest.arrival_time``, the cloud
  session's discrete-event clock); a ``time.time()``/``time.monotonic()``
  read inside the simulators, cloud, scenarios, plans, service or
  experiments packages makes replay depend on host speed.  Intentional
  sites (the trace recorder's capture clock, perf-timing harnesses) carry
  ``# qrio: allow[QRIO-D002]`` pragmas.
* **QRIO-D003** — cache/dedup keys and persisted values never use the
  builtin ``hash()`` (salted per process via ``PYTHONHASHSEED``) or ``id()``
  (an address, unstable across processes and allocations).  PR 6 fixed a
  real scenario-replay regression caused by exactly this in
  ``service/engines.py``; use :func:`repro.utils.cache.structural_circuit_hash`
  or a blake2/CRC digest instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["UnseededRandomRule", "WallClockRule", "ProcessSaltedKeyRule"]


def _walk_with_parents(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that also records ``node.parent`` links on the way."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
        yield node


def _numpy_aliases(tree: ast.AST) -> Tuple[Set[str], Set[str], Set[str]]:
    """(numpy aliases, numpy.random aliases, names bound to default_rng)."""
    numpy_names: Set[str] = set()
    np_random_names: Set[str] = set()
    default_rng_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or alias.name)
                elif alias.name == "numpy.random":
                    np_random_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        np_random_names.add(alias.asname or alias.name)
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "default_rng":
                        default_rng_names.add(alias.asname or alias.name)
    return numpy_names, np_random_names, default_rng_names


def _imports_stdlib_random(tree: ast.AST) -> Set[str]:
    """Names the module binds to the stdlib ``random`` module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    names.add(alias.asname or alias.name)
    return names


class UnseededRandomRule:
    """QRIO-D001: RNG draws outside the seeded-generator funnel."""

    rule_id = "QRIO-D001"
    severity = "error"
    description = (
        "Global/unseeded RNG: random.* and np.random.* module-level calls, or "
        "default_rng() outside utils/rng — thread a seeded Generator through "
        "repro.utils.rng.ensure_generator instead"
    )

    #: The funnel module is the one legitimate home of ``default_rng``.
    exempt_paths = ("utils/rng.py",)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if module.relpath in self.exempt_paths:
            return []
        stdlib_random = _imports_stdlib_random(module.tree)
        numpy_names, np_random_names, default_rng_names = _numpy_aliases(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            finding = self._classify(
                module, node, name, stdlib_random, numpy_names, np_random_names, default_rng_names
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def _classify(
        self,
        module: ModuleInfo,
        node: ast.Call,
        name: str,
        stdlib_random: Iterable[str],
        numpy_names: Iterable[str],
        np_random_names: Iterable[str],
        default_rng_names: Iterable[str],
    ) -> Optional[Finding]:
        head, _, rest = name.partition(".")
        if head in stdlib_random and rest and "." not in rest:
            return module.finding(
                self, node, f"call to global-state '{name}()'; draw from a seeded np.random.Generator"
            )
        if name in default_rng_names or (not rest and head in default_rng_names):
            return module.finding(
                self, node, "direct default_rng() call; route seeds through utils.rng.ensure_generator"
            )
        if rest:
            tail = rest.split(".")
            if head in numpy_names and len(tail) == 2 and tail[0] == "random":
                if tail[1] == "default_rng":
                    return module.finding(
                        self,
                        node,
                        "direct np.random.default_rng() call; route seeds through utils.rng.ensure_generator",
                    )
                return module.finding(
                    self, node, f"call to numpy global-state '{name}()'; use a seeded Generator"
                )
            if head in np_random_names and len(tail) == 1:
                if tail[0] == "default_rng":
                    return module.finding(
                        self,
                        node,
                        "direct default_rng() call; route seeds through utils.rng.ensure_generator",
                    )
                return module.finding(
                    self, node, f"call to numpy global-state '{name}()'; use a seeded Generator"
                )
        return None


class WallClockRule:
    """QRIO-D002: wall-clock reads inside deterministic packages."""

    rule_id = "QRIO-D002"
    severity = "error"
    description = (
        "Wall-clock read inside a deterministic layer; simulated time must come "
        "from logical clocks (arrival_time, session clock), never the host clock"
    )

    #: Packages (and the trace modules of ``workloads/``) whose behaviour
    #: must be a pure function of seeds + inputs; matched as path prefixes.
    scoped_packages = (
        "simulators/",
        "cloud/",
        "scenarios/",
        "plans/",
        "service/",
        "experiments/",
        "workloads/arrivals.py",
        "workloads/metrics.py",
    )
    #: Dotted suffixes that read the host clock.  Matched on both calls and
    #: bare references (``field(default_factory=time.monotonic)`` counts).
    clock_names = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.relpath.startswith(self.scoped_packages):
            return []
        from_time_names = self._from_time_imports(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            name: Optional[str] = None
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
            elif isinstance(node, ast.Name) and node.id in from_time_names:
                name = from_time_names[node.id]
            if name is None:
                continue
            if any(name == clock or name.endswith("." + clock) for clock in self.clock_names):
                finding = module.finding(
                    self, node, f"wall-clock read '{name}' in deterministic package"
                )
                if finding is not None:
                    findings.append(finding)
        return findings

    @staticmethod
    def _from_time_imports(tree: ast.AST) -> dict:
        """Local names bound by ``from time import monotonic`` style imports."""
        bound = {}
        clock_attrs = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in clock_attrs:
                        bound[alias.asname or alias.name] = f"time.{alias.name}"
        return bound


class ProcessSaltedKeyRule:
    """QRIO-D003: builtin ``hash()``/``id()`` feeding keys or persisted state.

    The heuristic flags a ``hash(...)``/``id(...)`` call when the value
    observably flows toward persistence or keying:

    * assigned to a name matching ``key|digest|fingerprint|memo|probe|token|seed``;
    * passed (at any nesting depth) to ``get``/``put``/``setdefault``/``store``
      on a receiver whose name contains ``cache``/``memo``/``store``/``seen``/
      ``dedup``, or used as a subscript index of such a receiver;
    * passed to ``pickle.dumps``/``pickle.dump``/``json.dump``/``json.dumps``;
    * returned from a function whose name matches the key pattern above.

    ``hash(self)`` inside ``__hash__`` and identity *comparisons*
    (``id(a) == id(b)``) are idiomatic and stay silent.
    """

    rule_id = "QRIO-D003"
    severity = "error"
    description = (
        "builtin hash()/id() feeding a cache key, dedup key or persisted value; "
        "hash() is salted per process and id() is an address — use "
        "structural_circuit_hash / calibration_fingerprint / a digest instead"
    )

    _KEYISH = ("key", "digest", "fingerprint", "memo", "probe", "token", "seed")
    _STOREISH = ("cache", "memo", "store", "seen", "dedup", "index", "registry")
    _STORE_METHODS = {"get", "put", "setdefault", "store", "add", "insert", "register"}
    _PICKLERS = {"pickle.dumps", "pickle.dump", "json.dump", "json.dumps", "marshal.dumps"}

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in _walk_with_parents(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Name) or node.func.id not in ("hash", "id"):
                continue
            builtin = node.func.id
            if self._inside_dunder_hash(node):
                continue
            sink = self._persistence_sink(node)
            if sink is None:
                continue
            finding = module.finding(
                self, node, f"builtin {builtin}() flows into {sink}; use a process-stable digest"
            )
            if finding is not None:
                findings.append(finding)
        return findings

    # ------------------------------------------------------------------ #
    @classmethod
    def _inside_dunder_hash(cls, node: ast.AST) -> bool:
        current = getattr(node, "parent", None)
        while current is not None:
            if isinstance(current, ast.FunctionDef) and current.name == "__hash__":
                return True
            current = getattr(current, "parent", None)
        return False

    @classmethod
    def _persistence_sink(cls, node: ast.AST) -> Optional[str]:
        """Name of the key/persistence sink this call flows into, if any."""
        current = node
        parent = getattr(node, "parent", None)
        while parent is not None:
            if isinstance(parent, ast.Compare):
                return None  # identity comparison, not a key
            if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = parent.targets if isinstance(parent, ast.Assign) else [parent.target]
                for target in targets:
                    label = cls._target_label(target)
                    if label is not None:
                        return f"assignment to '{label}'"
                return None
            if isinstance(parent, ast.Subscript) and parent.slice is current:
                receiver = dotted_name(parent.value) or ""
                if cls._matches(receiver, cls._STOREISH):
                    return f"subscript key of '{receiver}'"
            if isinstance(parent, ast.Call) and current in parent.args:
                callee = dotted_name(parent.func)
                if callee is not None:
                    if callee in cls._PICKLERS:
                        return f"'{callee}' argument"
                    head, _, method = callee.rpartition(".")
                    if method in cls._STORE_METHODS and cls._matches(head, cls._STOREISH):
                        return f"'{callee}()' argument"
                    if cls._matches(callee, cls._KEYISH):
                        return f"'{callee}()' argument"
            if isinstance(parent, ast.Return):
                function = cls._enclosing_function(parent)
                if function is not None and cls._matches(function.name, cls._KEYISH):
                    return f"return value of '{function.name}'"
                return None
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)):
                return None
            current, parent = parent, getattr(parent, "parent", None)
        return None

    @classmethod
    def _target_label(cls, target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                label = cls._target_label(element)
                if label is not None:
                    return label
            return None
        name = dotted_name(target)
        if isinstance(target, ast.Subscript):
            name = dotted_name(target.value)
            if name is not None and cls._matches(name, cls._STOREISH):
                return name
            return None
        if name is not None and cls._matches(name, cls._KEYISH):
            return name
        return None

    @staticmethod
    def _matches(name: str, needles: Tuple[str, ...]) -> bool:
        lowered = name.lower()
        return any(needle in lowered for needle in needles)

    @staticmethod
    def _enclosing_function(node: ast.AST) -> Optional[ast.FunctionDef]:
        current = getattr(node, "parent", None)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = getattr(current, "parent", None)
        return None
