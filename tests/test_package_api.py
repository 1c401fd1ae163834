"""Tests for the package layout: one import path per name.

Every name is imported from the module that defines it.  Package
``__init__`` files re-export nothing (``repro.api``, the task-API front
door, is the one exception), so importing a module loads only what it uses.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import pathlib
import subprocess
import sys

import repro
from repro.errors import (
    GeometryError,
    GraphStructureError,
    MemoryBudgetExceeded,
    ReproError,
    RoutingError,
)

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_subpackages_import_cleanly():
    for module in (
        "repro.graphs",
        "repro.geometry",
        "repro.expander",
        "repro.walks",
        "repro.core",
        "repro.network",
        "repro.baselines",
        "repro.analysis",
    ):
        assert importlib.import_module(module) is not None


def test_exceptions_form_a_hierarchy():
    assert issubclass(GraphStructureError, ReproError)
    assert issubclass(RoutingError, ReproError)
    assert issubclass(GeometryError, ReproError)
    assert issubclass(MemoryBudgetExceeded, RoutingError)


def test_docstring_quickstart_snippet_works():
    outcome = doctest.testmod(repro, verbose=False)
    assert outcome.attempted >= 5
    assert outcome.failed == 0


def test_importing_the_engine_loads_only_what_it_uses():
    script = (
        "import sys\n"
        "import repro.core.engine\n"
        "print('\\n'.join(name for name in sys.modules if name.startswith('repro')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=PACKAGE.parent,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = set(completed.stdout.split())
    assert "repro.core.engine" in loaded
    forbidden_packages = (
        "repro.api",
        "repro.server",
        "repro.analysis",
        "repro.baselines",
        "repro.scenarios",
        "repro.provenance",
        "repro.expander",
    )
    forbidden_modules = ("repro.core.reliable_broadcast", "repro.core.hybrid")
    unexpected = sorted(
        name
        for name in loaded
        if name in forbidden_modules
        or any(name == pkg or name.startswith(pkg + ".") for pkg in forbidden_packages)
    )
    assert unexpected == []


def _assigned_names(node: ast.stmt) -> list:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _defined_and_exported(tree: ast.Module):
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        names = _assigned_names(node)
        defined.update(names)
        if "__all__" in names:
            exported = list(ast.literal_eval(node.value))
    return defined, exported


def test_package_inits_export_only_what_they_define():
    inits = sorted(PACKAGE.rglob("__init__.py"))
    assert len(inits) > 10
    re_exported = {}
    for path in inits:
        relative = path.relative_to(PACKAGE).as_posix()
        if relative == "api/__init__.py":
            continue
        defined, exported = _defined_and_exported(ast.parse(path.read_text(encoding="utf-8")))
        foreign = [name for name in exported if name not in defined]
        if foreign:
            re_exported[relative] = foreign
    assert re_exported == {}
