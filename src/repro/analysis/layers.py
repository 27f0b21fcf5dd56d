"""Layer lint pass: QRIO-L001, and the declared package layers it enforces.

:data:`LAYERS` is the one declaration of how ``src/repro`` is stacked: an
ordered tuple of package groups, lowest first.  A package may import another
package only when the other's layer is strictly lower, so packages of one
layer never import each other and the package import graph has no cycle.
The top-level modules count as packages of their own: ``cli`` for
``cli.py`` and ``repro`` for the root ``__init__.py``.

**QRIO-L001** reports every import, at any nesting depth (a function-level
import counts as much as a module-level one), that reaches a package of the
same or a higher layer.  Packages missing from :data:`LAYERS` are not
checked; ``tests/analysis/test_layer_edges.py`` requires every package to be
declared.  ``docs/architecture.md``'s layer diagram is
:func:`render_layer_diagram`'s output (``python -m repro.analysis.layers``
prints it).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.analysis.core import Finding, ModuleInfo

__all__ = ["LAYERS", "LayerRule", "render_layer_diagram"]

#: The package name the root ``repro/__init__.py`` counts as.
ROOT_PACKAGE = "repro"

#: The packages of ``src/repro``, grouped by layer, lowest layer first.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("utils",),
    ("circuits",),
    ("qasm", "simulators"),
    ("backends",),
    ("cluster", "transpiler"),
    ("fidelity", "matching"),
    ("plans", "policies"),
    ("control",),
    ("workloads",),
    ("cloud", "tenancy"),
    ("service",),
    ("core", "scenarios"),
    ("analysis", "experiments"),
    ("cli", ROOT_PACKAGE),
)


#: Package -> its layer's index in :data:`LAYERS`.
_LEVEL: Dict[str, int] = {package: level for level, group in enumerate(LAYERS) for package in group}


def _package_of(relpath: str) -> str:
    """The package a module path below ``repro/`` belongs to."""
    parts = relpath.split("/")
    if len(parts) > 1:
        return parts[0]
    stem = parts[0].removesuffix(".py")
    return ROOT_PACKAGE if stem == "__init__" else stem


def _imports(module: ModuleInfo) -> Iterator[Tuple[ast.AST, str, str]]:
    """``(node, imported name, target package)`` for every ``repro`` import."""
    here = ["repro"] + module.relpath.split("/")[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    yield node, alias.name, parts[1] if len(parts) > 1 else ROOT_PACKAGE
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            name = ".".join(base + ([node.module] if node.module else []))
            parts = name.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield node, name, parts[1]
                continue
            # ``from repro import x``: a subpackage, or a name of the root.
            for alias in node.names:
                target = alias.name if alias.name in _LEVEL else ROOT_PACKAGE
                yield node, f"repro.{alias.name}", target


class LayerRule:
    """QRIO-L001: imports that reach the importer's own or a higher layer."""

    rule_id = "QRIO-L001"
    severity = "error"
    description = (
        "Layer violation: a package may import only packages of strictly lower "
        "layers (repro.analysis.layers.LAYERS), so the import graph stays acyclic"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        own = _package_of(module.relpath)
        level = _LEVEL.get(own)
        if level is None:
            return []
        findings: List[Finding] = []
        for node, name, target in _imports(module):
            target_level = _LEVEL.get(target)
            if target == own or target_level is None or target_level < level:
                continue
            where = "the same layer" if target_level == level else f"layer {target_level}"
            finding = module.finding(
                self,
                node,
                f"'{own}' (layer {level}) imports '{name}' from {where}; "
                "a package may import only from lower layers",
            )
            if finding is not None:
                findings.append(finding)
        return findings


def render_layer_diagram() -> str:
    """The layer diagram of ``docs/architecture.md``, highest layer first."""
    width = len(str(len(LAYERS) - 1))
    lines = []
    for level in reversed(range(len(LAYERS))):
        names = ("repro" if package == ROOT_PACKAGE else f"repro.{package}" for package in LAYERS[level])
        lines.append(f"{level:>{width}} │ " + " · ".join(names))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(render_layer_diagram(), end="")
