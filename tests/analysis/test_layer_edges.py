"""The layer map: one declared order, enforced by QRIO-L001 over every import.

:data:`repro.analysis.LAYERS` stacks the packages of ``src/repro``; a package
may import only packages of strictly lower layers.  These tests pin that the
declaration covers every package, that the live tree keeps it (module-level
and function-level imports alike), that the package import graph has no
cycle, and that every edge the hand-kept per-package forbidden lists pinned
before the declaration is still rejected.  No function imports ``repro``
code: a lazy import is how a module cycle hides from QRIO-L001, which only
sees edges between packages, so the module graph inside ``repro.simulators``
is checked for cycles too.  ``repro.simulators`` also keeps no thread-local
state, and no package reaches into another's private names: an
``_``-prefixed name is importable only inside its own package.
"""

import ast
import textwrap
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.analysis import LAYERS, Analyzer, LayerRule, analyze_tree, render_layer_diagram

SOURCE = Path(repro.__file__).parent
SIMULATORS = SOURCE / "simulators"
ARCHITECTURE = SOURCE.parent.parent / "docs" / "architecture.md"

#: Every ``(package, forbidden import)`` pair of the five per-package lists
#: this file kept before the layers were declared, verbatim.
OLD_FORBIDDEN_PAIRS = (
    # The simulators are substrate.
    ("simulators", "repro.plans"),
    ("simulators", "repro.core"),
    ("simulators", "repro.service"),
    # The transpiler reaches none of placement, fidelity, plans or serving.
    ("transpiler", "repro.core"),
    ("transpiler", "repro.plans"),
    ("transpiler", "repro.service"),
    ("transpiler", "repro.fidelity"),
    ("transpiler", "repro.matching"),
    # The one ranking implementation reaches none of its callers.
    ("policies", "repro.core"),
    ("policies", "repro.plans"),
    ("policies", "repro.service"),
    ("policies", "repro.cloud"),
    ("policies", "repro.scenarios"),
    ("policies", "repro.tenancy"),
    ("policies", "repro.experiments"),
    # The k8s substrate imports no placement, core, plan or service code.
    ("cluster", "repro.policies"),
    ("cluster", "repro.core"),
    ("cluster", "repro.plans"),
    ("cluster", "repro.service"),
    # The service is a layer below the QRIO facade.
    ("service", "repro.core.orchestrator"),
    ("service", "repro.core.QRIO"),
    ("service", "repro.core.JobOutcome"),
)

#: Where the code an old forbidden name covered lives now: ``repro.core``'s
#: control plane moved to ``repro.control`` and the scenario trace types to
#: ``repro.workloads``.
MOVED_TARGETS = {
    "repro.core": ("repro.core", "repro.control"),
    "repro.scenarios": ("repro.scenarios", "repro.workloads.arrivals", "repro.workloads.metrics"),
}

def _modules(root=SOURCE):
    return sorted(path for path in root.rglob("*.py") if "__pycache__" not in path.parts)


def _imported_names(source, package):
    """Absolute names of every module ``source`` imports, at any nesting depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _layer_findings(source, relpath):
    return Analyzer([LayerRule()]).run_source(textwrap.dedent(source), relpath)


def _thread_locals(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "local"
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            if any(alias.name == "local" for alias in node.names):
                yield node.lineno


# --------------------------------------------------------------------------- #
# The declaration and the live tree
# --------------------------------------------------------------------------- #
def test_every_package_is_declared_in_exactly_one_layer():
    declared = [package for layer in LAYERS for package in layer]
    packages = {path.name for path in SOURCE.iterdir() if (path / "__init__.py").exists()}
    top_level = {path.stem for path in SOURCE.glob("*.py") if path.stem != "__init__"}
    assert len(declared) == len(set(declared))
    assert set(declared) == packages | top_level | {"repro"}


def test_the_live_tree_keeps_the_layer_order():
    report = analyze_tree(rules=[LayerRule()])
    assert report["new"] == [] and report["baselined"] == []


def test_the_package_import_graph_has_no_cycle():
    # An independent check of what L001 implies: edges between subpackages,
    # from every import at any depth, form a graph without a cycle.
    graph = nx.DiGraph()
    for path in _modules():
        relative = path.relative_to(SOURCE)
        own = relative.parts[0].removesuffix(".py")
        for _, name in _imported_names(path.read_text(), ["repro"] + list(relative.parent.parts)):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] != own and (SOURCE / parts[1]).is_dir():
                graph.add_edge(own, parts[1])
    assert graph.number_of_edges() > 50
    assert max(len(component) for component in nx.strongly_connected_components(graph)) == 1


def _function_level_imports(source):
    """Lines of every ``repro`` or relative import inside a function of ``source``."""
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            relative_or_repro = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "repro"
            )
            absolute = isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "repro" for alias in node.names
            )
            if relative_or_repro or absolute:
                found.add(node.lineno)
    return sorted(found)


def test_no_function_imports_repro_code():
    found = [
        f"{path.relative_to(SOURCE)}:{line}"
        for path in _modules()
        for line in _function_level_imports(path.read_text())
    ]
    assert found == []


def test_the_function_level_import_scan_sees_every_spelling():
    source = (
        "import numpy\n"
        "from repro.utils import rng\n"
        "def run():\n"
        "    import numpy.linalg\n"
        "    from repro.simulators.noisy import execute_with_noise\n"
        "    class Inner:\n"
        "        def method(self):\n"
        "            from . import batched_stabilizer\n"
        "            import repro.plans\n"
    )
    assert _function_level_imports(source) == [5, 8, 9]


def _module_graph(package_dir, package):
    """Import edges between the modules of one package, from imports at any depth.

    A module is named by its stem; importing the package itself (or a name it
    re-exports) is an edge to ``__init__``.
    """
    stems = {path.stem for path in package_dir.glob("*.py")}
    graph = nx.DiGraph()
    for path in sorted(package_dir.glob("*.py")):
        graph.add_node(path.stem)
        for _, name in _imported_names(path.read_text(), package.split(".")):
            parts = name.split(".")
            if parts[: len(package.split("."))] != package.split("."):
                continue
            rest = parts[len(package.split(".")):]
            target = rest[0] if rest and rest[0] in stems else "__init__"
            if target != path.stem:
                graph.add_edge(path.stem, target)
    return graph


def test_the_simulators_module_graph_has_no_cycle():
    graph = _module_graph(SIMULATORS, "repro.simulators")
    assert graph.has_edge("batched_stabilizer", "stabilizer")
    assert graph.has_edge("noisy", "batched_stabilizer")
    assert nx.is_directed_acyclic_graph(graph), list(nx.simple_cycles(graph))


def test_the_module_graph_sees_a_lazy_cycle(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "eager.py").write_text("from repro.sims.lazy import helper\n")
    (tmp_path / "lazy.py").write_text("def helper():\n    from .eager import run\n")
    graph = _module_graph(tmp_path, "repro.sims")
    assert sorted(graph.edges) == [("eager", "lazy"), ("lazy", "eager")]
    assert not nx.is_directed_acyclic_graph(graph)


def test_the_architecture_diagram_is_generated_from_the_layers():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    begin, end = "<!-- layers:begin -->\n```\n", "```\n<!-- layers:end -->"
    assert begin in text and end in text
    block = text[text.index(begin) + len(begin): text.index(end)]
    assert block == render_layer_diagram(), (
        "docs/architecture.md's layer diagram differs from repro.analysis.LAYERS; "
        "paste the output of `python -m repro.analysis.layers` between the markers"
    )


# --------------------------------------------------------------------------- #
# QRIO-L001 rejects every edge the old per-package lists forbade
# --------------------------------------------------------------------------- #
def _expanded_pairs():
    for package, forbidden in OLD_FORBIDDEN_PAIRS:
        for target in MOVED_TARGETS.get(forbidden, (forbidden,)):
            yield package, target


@pytest.mark.parametrize("package, target", list(_expanded_pairs()), ids=lambda value: value)
def test_the_layers_reject_every_old_forbidden_edge(package, target):
    parent, _, last = target.rpartition(".")
    sources = (f"import {target}\n", f"from {parent} import {last}\n", f"def run():\n    import {target}\n")
    for source in sources:
        findings = _layer_findings(source, f"{package}/probe.py")
        assert [finding.rule_id for finding in findings] == ["QRIO-L001"], source


def test_a_planted_upward_import_is_reported(tmp_path):
    root = tmp_path / "repro"
    (root / "utils").mkdir(parents=True)
    (root / "simulators").mkdir()
    (root / "utils" / "leak.py").write_text("def run():\n    from repro.service import QRIOService\n")
    (root / "simulators" / "relative.py").write_text("from ..plans import plan\n")
    (root / "simulators" / "fine.py").write_text("from repro.utils.rng import derive_seed\n")
    report = analyze_tree(root, baseline_path=tmp_path / "baseline.json", rules=[LayerRule()])
    assert [(f.rule_id, f.path, f.line) for f in report["new"]] == [
        ("QRIO-L001", "simulators/relative.py", 1),
        ("QRIO-L001", "utils/leak.py", 2),
    ]
    assert "'utils' (layer 0) imports 'repro.service'" in report["new"][1].message


def test_a_same_layer_import_is_reported():
    findings = _layer_findings("from repro.matching import rank_devices\n", "fidelity/probe.py")
    assert [f.rule_id for f in findings] == ["QRIO-L001"]
    assert "from the same layer" in findings[0].message


def test_downward_and_own_package_imports_pass():
    source = """
        from repro.utils.cache import embedding_cache
        from repro.backends import subgraph
        from . import interaction
        from repro.matching.scoring import embedding_cost
    """
    assert _layer_findings(source, "matching/probe.py") == []


def test_importing_the_root_package_is_upward():
    assert [f.rule_id for f in _layer_findings("import repro\n", "service/probe.py")] == ["QRIO-L001"]
    assert [f.rule_id for f in _layer_findings("from repro import QRIO\n", "core/probe.py")] == ["QRIO-L001"]
    assert _layer_findings("from repro import utils\n", "core/probe.py") == []


def test_a_pragma_allows_one_edge():
    source = "from repro.service import QRIOService  # qrio: allow[QRIO-L001] demo\n"
    assert _layer_findings(source, "utils/probe.py") == []


def test_an_undeclared_package_is_not_checked():
    assert _layer_findings("from repro.service import QRIOService\n", "newpkg/probe.py") == []


# --------------------------------------------------------------------------- #
# Conventions the layer order does not express
# --------------------------------------------------------------------------- #
def test_scan_sees_the_simulator_modules():
    names = {path.name for path in _modules(SIMULATORS)}
    assert {"noisy.py", "batched_stabilizer.py", "statevector.py"} <= names


@pytest.mark.parametrize("path", _modules(SIMULATORS), ids=lambda path: path.name)
def test_simulators_keep_no_thread_local_state(path):
    assert list(_thread_locals(path)) == []


def test_function_level_and_relative_imports_are_seen():
    source = "def run():\n    from ..core import cache\n    import repro.plans.schedule\n"
    names = {name for _, name in _imported_names(source, ["repro", "simulators"])}
    assert {"repro.core", "repro.core.cache", "repro.plans.schedule"} <= names


def _private_imports(source, relative):
    """Every ``_``-prefixed name ``source`` imports from another ``repro`` package.

    ``relative`` is the module's path below ``repro/``; its first part names
    its package (a top-level module such as ``cli.py`` is its own package).
    """
    own = relative.parts[0].removesuffix(".py")
    for line, name in _imported_names(source, ["repro"] + list(relative.parent.parts)):
        parts = name.split(".")
        private = parts[-1].startswith("_") and not parts[-1].startswith("__")
        if parts[0] == "repro" and len(parts) > 2 and parts[1] != own and private:
            yield line, name


def test_private_import_scan_sees_function_level_and_relative_imports():
    source = (
        "def run():\n"
        "    from repro.service.service import _helper, Public\n"
        "    from ..tenancy.api import _own\n"
        "    from ..service import _relative\n"
    )
    found = [name for _, name in _private_imports(source, Path("tenancy/admission.py"))]
    assert found == ["repro.service.service._helper", "repro.service._relative"]


@pytest.mark.parametrize("path", _modules(SOURCE), ids=lambda path: str(path.relative_to(SOURCE)))
def test_no_package_imports_another_packages_private_names(path):
    relative = path.relative_to(SOURCE)
    found = _private_imports(path.read_text(), relative)
    offending = [f"{relative}:{line} imports {name}" for line, name in found]
    assert offending == []
