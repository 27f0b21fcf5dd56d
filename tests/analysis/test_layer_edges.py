"""Pinned edges of the layer map: the simulators and the transpiler sit low.

``repro.simulators`` is substrate.  It must import neither the plan layer,
the orchestration core nor the service, and it must keep no thread-local
state to hand results past its own call signatures.  ``repro.transpiler``
compiles circuits for devices and must not reach up into the layers that
decide placement, estimate fidelity or serve jobs.  ``repro.policies`` is
the one ranking implementation the meta server, the engines and the figure
drivers share; it must reach none of its callers' layers, so the meta
server's edge into it can never close a cycle.  ``repro.cluster`` is the
k8s substrate: nodes, jobs and the filter stage.  The scheduling cycle that
ranks and binds lives above it, so it imports no placement, core, plan or
service code.  ``repro.service`` is a layer below the ``QRIO`` facade, which
is a client of its cluster engine: no service module imports the facade.
No package reaches into another's private names: an
``_``-prefixed name is importable only inside its own package.  The scan is
an AST walk over every module, so imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import repro

SIMULATORS = Path(repro.__file__).parent / "simulators"
FORBIDDEN = ("repro.plans", "repro.core", "repro.service")

TRANSPILER = Path(repro.__file__).parent / "transpiler"
TRANSPILER_FORBIDDEN = ("repro.core", "repro.plans", "repro.service", "repro.fidelity", "repro.matching")
#: The one upward edge left, allowed by module and name: the VF2 layout pass
#: shares the matchers' memoized embedding enumeration.  Whether that
#: enumeration moves below the transpiler is ROADMAP item 8's call.
TRANSPILER_ALLOWED = {
    ("layout_selection.py", "repro.matching.subgraph"),
    ("layout_selection.py", "repro.matching.subgraph.find_exact_embeddings"),
}


POLICIES = Path(repro.__file__).parent / "policies"
POLICIES_FORBIDDEN = (
    "repro.core",
    "repro.plans",
    "repro.service",
    "repro.cloud",
    "repro.scenarios",
    "repro.tenancy",
    "repro.experiments",
)


CLUSTER = Path(repro.__file__).parent / "cluster"
CLUSTER_FORBIDDEN = ("repro.policies", "repro.core", "repro.plans", "repro.service")

SERVICE = Path(repro.__file__).parent / "service"
#: The facade module and the names ``repro.core`` re-exports from it.
FACADE = ("repro.core.orchestrator", "repro.core.QRIO", "repro.core.JobOutcome")


def _modules(root=SIMULATORS):
    return sorted(root.rglob("*.py"))


def _package_of(path, root=SIMULATORS):
    return ["repro", root.name] + list(path.relative_to(root).parent.parts)


def _in_layers(name, layers):
    return any(name == layer or name.startswith(layer + ".") for layer in layers)


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


def test_scan_sees_the_simulator_modules():
    names = {path.name for path in _modules()}
    assert {"noisy.py", "batched_stabilizer.py", "statevector.py"} <= names


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.name)
def test_simulators_import_no_higher_layer(path):
    offending = [
        f"{path.name}:{line} imports {name}"
        for line, name in _imported_names(path.read_text(), _package_of(path))
        if _in_layers(name, FORBIDDEN)
    ]
    assert offending == []


def test_scan_sees_the_transpiler_modules():
    names = {path.name for path in _modules(TRANSPILER)}
    assert {"preset.py", "routing.py", "layout_selection.py"} <= names


@pytest.mark.parametrize("path", _modules(TRANSPILER), ids=lambda path: str(path.relative_to(TRANSPILER)))
def test_transpiler_imports_no_higher_layer(path):
    offending = [
        f"{path.name}:{line} imports {name}"
        for line, name in _imported_names(path.read_text(), _package_of(path, TRANSPILER))
        if _in_layers(name, TRANSPILER_FORBIDDEN) and (path.name, name) not in TRANSPILER_ALLOWED
    ]
    assert offending == []


def test_transpiler_allowance_names_a_live_edge():
    """The allowance is spent: drop it once the layout pass stops importing the matcher."""
    path = TRANSPILER / "passes" / "layout_selection.py"
    names = {name for _, name in _imported_names(path.read_text(), _package_of(path, TRANSPILER))}
    assert {name for _, name in TRANSPILER_ALLOWED} <= names


def test_scan_sees_the_policy_modules():
    names = {path.name for path in _modules(POLICIES)}
    assert {"api.py", "builtin.py", "registry.py"} <= names


@pytest.mark.parametrize("path", _modules(POLICIES), ids=lambda path: path.name)
def test_policies_import_none_of_their_callers(path):
    offending = [
        f"{path.name}:{line} imports {name}"
        for line, name in _imported_names(path.read_text(), _package_of(path, POLICIES))
        if _in_layers(name, POLICIES_FORBIDDEN)
    ]
    assert offending == []


def test_scan_sees_the_cluster_modules():
    names = {path.name for path in _modules(CLUSTER)}
    assert {"framework.py", "registry.py", "node.py", "job.py"} <= names


@pytest.mark.parametrize("path", _modules(CLUSTER), ids=lambda path: path.name)
def test_cluster_imports_no_placement_layer(path):
    offending = [
        f"{path.name}:{line} imports {name}"
        for line, name in _imported_names(path.read_text(), _package_of(path, CLUSTER))
        if _in_layers(name, CLUSTER_FORBIDDEN)
    ]
    assert offending == []


def test_scan_sees_the_service_modules():
    names = {path.name for path in _modules(SERVICE)}
    assert {"engines.py", "service.py", "runtime.py"} <= names


@pytest.mark.parametrize("path", _modules(SERVICE), ids=lambda path: path.name)
def test_service_does_not_import_the_facade(path):
    offending = [
        f"{path.name}:{line} imports {name}"
        for line, name in _imported_names(path.read_text(), _package_of(path, SERVICE))
        if _in_layers(name, FACADE)
    ]
    assert offending == []


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.name)
def test_simulators_keep_no_thread_local_state(path):
    assert list(_thread_locals(path)) == []


def test_function_level_and_relative_imports_are_seen():
    source = "def run():\n    from ..core import cache\n    import repro.plans.schedule\n"
    names = {name for _, name in _imported_names(source, ["repro", "simulators"])}
    assert {"repro.core", "repro.core.cache", "repro.plans.schedule"} <= names



SOURCE = Path(repro.__file__).parent


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
    found = [name for _, name in _private_imports(source, Path("tenancy/sharding.py"))]
    assert found == ["repro.service.service._helper", "repro.service._relative"]


@pytest.mark.parametrize("path", _modules(SOURCE), ids=lambda path: str(path.relative_to(SOURCE)))
def test_no_package_imports_another_packages_private_names(path):
    relative = path.relative_to(SOURCE)
    found = _private_imports(path.read_text(), relative)
    offending = [f"{relative}:{line} imports {name}" for line, name in found]
    assert offending == []
