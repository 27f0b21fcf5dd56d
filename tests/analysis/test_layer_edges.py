"""Pinned edges of the layer map: the simulators sit below every other layer.

``repro.simulators`` is substrate.  It must import neither the plan layer,
the orchestration core nor the service, and it must keep no thread-local
state to hand results past its own call signatures.  The scan is an AST walk
over every module, so imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import repro

SIMULATORS = Path(repro.__file__).parent / "simulators"
FORBIDDEN = ("repro.plans", "repro.core", "repro.service")


def _modules():
    return sorted(SIMULATORS.rglob("*.py"))


def _package_of(path):
    return ["repro", "simulators"] + list(path.relative_to(SIMULATORS).parent.parts)


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
        if any(name == layer or name.startswith(layer + ".") for layer in FORBIDDEN)
    ]
    assert offending == []


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.name)
def test_simulators_keep_no_thread_local_state(path):
    assert list(_thread_locals(path)) == []


def test_function_level_and_relative_imports_are_seen():
    source = "def run():\n    from ..core import cache\n    import repro.plans.schedule\n"
    names = {name for _, name in _imported_names(source, ["repro", "simulators"])}
    assert {"repro.core", "repro.core.cache", "repro.plans.schedule"} <= names
