"""``pyproject.toml``: the package manifest agrees with the code and with CI.

The manifest is read, not installed: the console script must name the CLI's
entry point, the version must come from ``repro.__version__``, and the
runtime dependencies plus the ``test`` extra must be exactly what the
tier-1 CI job installs.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.cli

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

_REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def manifest():
    with open(_REPO / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def _bare(requirement):
    """The distribution name of a requirement string (``numpy>=1.22`` -> ``numpy``)."""
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def test_the_script_runs_the_cli_main(manifest):
    module, _, attribute = manifest["project"]["scripts"]["repro-qrio"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is repro.cli.main


def test_the_packages_are_found_under_src(manifest):
    assert manifest["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert (_REPO / "src" / "repro" / "__init__.py").is_file()


def test_the_version_is_the_packages(manifest):
    assert "version" in manifest["project"]["dynamic"]
    assert manifest["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert repro.__version__


def test_the_dependencies_match_the_ci_install_line(manifest):
    project = manifest["project"]
    runtime = {_bare(requirement) for requirement in project["dependencies"]}
    test_extra = {_bare(requirement) for requirement in project["optional-dependencies"]["test"]}
    assert runtime == {"numpy", "networkx"}
    assert test_extra == {"pytest", "hypothesis"}
    workflow = (_REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    # The first install line is the tier-1 test job's.
    installed = re.search(r"pip install ([^\n]+)", workflow).group(1).split()
    assert set(installed) == runtime | test_extra
