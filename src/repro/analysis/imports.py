"""QRIO-I001: module-level imports that nothing reads (``docs/analysis.md``)."""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.analysis.core import Finding, ModuleInfo

__all__ = ["UnusedImportRule"]


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name ``tree`` reads, its string annotations and ``__all__`` included."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names.update(_read_names(ast.parse(part.value, mode="eval")))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(str(item.value) for item in getattr(node.value, "elts", ()))
    return names


class UnusedImportRule:
    """QRIO-I001: a module-level import whose name the module never reads."""

    rule_id = "QRIO-I001"
    severity = "error"
    description = "Unused import: a module-level import that nothing in the module reads"

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if module.relpath.rsplit("/", 1)[-1] == "__init__.py":
            return []
        read = _read_names(module.tree)
        findings = []
        for node in module.tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                marked = {module.lines[node.lineno - 1], module.lines[alias.lineno - 1]}
                if bound in read or bound == "*" or any("noqa: F401" in line for line in marked):
                    continue
                finding = module.finding(self, alias, f"'{bound}' is imported but never read")
                if finding is not None:
                    findings.append(finding)
        return findings
