#!/usr/bin/env python3
"""Reachability audit of ``src/repro`` — the CI "no unreachable code" step.

Every top-level ``def`` and ``class`` of every module under ``src/repro`` is
read with ``ast``.  A definition is *used* when its name appears as a word
somewhere that is itself live:

* in its own module, outside the definition itself;
* in any other ``src/`` module that imports the defining module, or a
  package that contains it (``from repro.api import Session`` reaches
  ``repro/api/session.py``);
* in any Python file of ``benchmarks/``, ``examples/``, ``perfbench/`` or
  ``tools/`` (this file excepted) that imports the defining module or a
  package that contains it;
* anywhere in ``docs/paper_map.md``.

In ``src/`` modules, the ``__all__`` assignment, import statements and
backticked mentions in docstrings are masked first, so a package re-export
or a cross-reference in prose does not keep a name alive.

Tests do not count: code that only its own unit tests call is an orphan.
A use inside an orphan does not count either, and the audit repeats until
nothing changes, so a helper that only orphans call is reported too.

Keep list
---------
Only code that is kept on purpose may be listed in ``KEEP`` below, each
entry with its reason: a declared executable specification, reproduction
content named by ``docs/paper_map.md``, or an oracle or fixture builder that
tests of *other* code use.  Kept definitions count as live, so what only
they use is not reported; they are listed in the report themselves without
failing it.

Packages re-export nothing (``repro.api`` is the one front door), so a
file can only reach a definition through an import of the module that
defines it.  Within such a file the rule is still textual and errs towards
"used"; but a file that never imports the module does not count, so the
stdlib's ``statistics.geometric_mean`` cannot keep a ``repro`` function of
that name alive.

Run from anywhere::

    python tools/reach.py

Exit status 0 when every orphan is kept, 1 with one line per orphan
otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Directories (besides ``src/``) whose Python files count as a use when they
#: import the defining module.
USER_DIRS = ("benchmarks", "examples", "perfbench", "tools")

#: Single documents that count as a use.
USER_FILES = ("docs/paper_map.md",)

#: What may stay although nothing runs it.  Keys are paths relative to
#: ``src/repro`` — a module (``"a/b.py"``), a directory (``"a/"``) or one
#: definition (``"a/b.py:name"``); values say why it stays.
KEEP: Dict[str, str] = {
    "analysis/experiments.py:reference_run_parameter_sweep": (
        "the declared executable spec of sweep aggregation"
    ),
    "expander/": "the Reingold machinery, a docs/paper_map.md row",
    "core/adversary.py": "the adversarial sequence search, a docs/paper_map.md row",
    "graphs/properties.py:is_simple": "oracle of tests/test_generators.py",
    "graphs/properties.py:degree_histogram": "oracle of tests/test_generators.py",
    "geometry/deployment.py:grid_deployment": (
        "builds the fixtures of tests/conftest.py and the planar and baseline tests"
    ),
}

_BACKTICKED = re.compile(r"`+[^`]*`+")


class Definition(NamedTuple):
    """One top-level ``def``/``class`` of a ``src/repro`` module."""

    module: str  # path relative to src/repro, "/"-separated
    name: str
    first_line: int
    last_line: int

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1

    @property
    def label(self) -> str:
        return f"{self.module}:{self.name}"


class Finding(NamedTuple):
    """An unreachable definition, with the reason it is kept (``None``: delete it)."""

    definition: Definition
    kept_because: Optional[str]


def _rewrite(lines: List[str], node: ast.AST, edit: Callable[[str], str]) -> None:
    """Apply ``edit`` to the source text of ``node``, line by line, in place.

    ``edit`` must keep the length of the text it is given.
    """
    l0, c0 = node.lineno, node.col_offset  # type: ignore[attr-defined]
    l1, c1 = node.end_lineno, node.end_col_offset  # type: ignore[attr-defined]
    for number in range(l0, l1 + 1):
        text = lines[number - 1]
        lo = c0 if number == l0 else 0
        hi = c1 if number == l1 else len(text)
        lines[number - 1] = text[:lo] + edit(text[lo:hi]) + text[hi:]


def _blank(text: str) -> str:
    return " " * len(text)


def _docstring_nodes(tree: ast.Module) -> Iterable[ast.Constant]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                yield body[0].value


def _is_all_assignment(node: ast.stmt) -> bool:
    targets: Sequence[ast.expr] = ()
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = (node.target,)
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _dotted_name(module: str) -> str:
    """The import name of a module path relative to ``src/repro``."""
    parts = ["repro"] + module[: -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(tree: ast.AST) -> Set[str]:
    """Every module name an import in ``tree`` may load, at any depth.

    ``from a import b`` yields ``a`` and ``a.b`` (``b`` may be a submodule).
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _reaches(imports: Set[str], defining: str) -> bool:
    return any(name == defining or defining.startswith(name + ".") for name in imports)


def scan_module(
    module: str, source: str
) -> Tuple[List[Definition], List[Tuple[Optional[str], str]], Set[str]]:
    """Definitions of one module, its masked text split by owner, its imports.

    The text comes back as ``(owner, text)`` chunks: ``owner`` is the name of
    the top-level definition the chunk lies in, or ``None`` for module-level
    code.  Imports, the ``__all__`` assignment and backticked docstring
    mentions are already blanked out.
    """
    tree = ast.parse(source)
    imports = _imported_modules(tree)
    lines = source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _rewrite(lines, node, _blank)
    for node in tree.body:
        if _is_all_assignment(node):
            _rewrite(lines, node, _blank)
    for doc in _docstring_nodes(tree):
        _rewrite(lines, doc, lambda text: _BACKTICKED.sub(lambda m: _blank(m.group()), text))

    definitions: List[Definition] = []
    owner_of_line: List[Optional[str]] = [None] * len(lines)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            definition = Definition(module, node.name, first, node.end_lineno)  # type: ignore[arg-type]
            definitions.append(definition)
            for number in range(first, definition.last_line + 1):
                owner_of_line[number - 1] = node.name

    chunks: List[Tuple[Optional[str], str]] = []
    for owner, text in zip(owner_of_line, lines):
        if chunks and chunks[-1][0] == owner:
            chunks[-1] = (owner, chunks[-1][1] + "\n" + text)
        else:
            chunks.append((owner, text))
    return definitions, chunks, imports


def _keep_reason(definition: Definition, keep: Dict[str, str]) -> Optional[str]:
    for key, reason in keep.items():
        if key == definition.label or key == definition.module:
            return reason
        if key.endswith("/") and definition.module.startswith(key):
            return reason
    return None


def _user_files(root: Path) -> Tuple[Set[str], List[Tuple[Set[str], Set[str]]]]:
    """Words of the documents that always count, and ``(imports, words)`` of
    every Python file of the user directories."""
    documents: Set[str] = set()
    for name in USER_FILES:
        path = root / name
        if path.is_file():
            documents |= _words(path.read_text(encoding="utf-8"))
    this_file = Path(__file__).resolve()
    files: List[Tuple[Set[str], Set[str]]] = []
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.resolve() == this_file or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8")
            files.append((_imported_modules(ast.parse(text)), _words(text)))
    return documents, files


def _words(text: str) -> Set[str]:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def audit(root: Path = ROOT, keep: Optional[Dict[str, str]] = None) -> List[Finding]:
    """Every unreachable definition under ``root/src/repro``, in file order.

    Kept definitions are live roots: what only they use is not reported.
    They are reported themselves, with their reason, when nothing else uses
    them.
    """
    keep = KEEP if keep is None else keep
    package = root / "src" / "repro"
    definitions: List[Definition] = []
    #: (module, owning definition or None) -> the words of that text
    src_words: Dict[Tuple[str, Optional[str]], Set[str]] = {}
    src_imports: Dict[str, Set[str]] = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        found, chunks, src_imports[module] = scan_module(
            module, path.read_text(encoding="utf-8")
        )
        definitions.extend(found)
        for owner, text in chunks:
            src_words.setdefault((module, owner), set()).update(_words(text))
    documents, user_files = _user_files(root)

    dead: Set[Tuple[str, Optional[str]]] = set()

    def used(definition: Definition) -> bool:
        own = (definition.module, definition.name)
        defining = _dotted_name(definition.module)
        if definition.name in documents or any(
            definition.name in words and _reaches(imports, defining)
            for imports, words in user_files
        ):
            return True
        return any(
            definition.name in words
            for key, words in src_words.items()
            if key != own
            and key not in dead
            and (key[0] == definition.module or _reaches(src_imports[key[0]], defining))
        )

    changed = True
    while changed:
        changed = False
        for definition in definitions:
            key = (definition.module, definition.name)
            if key in dead or _keep_reason(definition, keep) is not None:
                continue
            if not used(definition):
                dead.add(key)
                changed = True

    findings: List[Finding] = []
    for definition in definitions:
        reason = _keep_reason(definition, keep)
        if (definition.module, definition.name) in dead:
            findings.append(Finding(definition, None))
        elif reason is not None and not used(definition):
            findings.append(Finding(definition, reason))
    return findings


def main() -> int:
    findings = audit()
    orphans = [f for f in findings if f.kept_because is None]
    for finding in findings:
        d = finding.definition
        tag = f"kept: {finding.kept_because}" if finding.kept_because else "ORPHAN"
        print(f"src/repro/{d.label}  ({d.lines} lines)  {tag}")
    kept = len(findings) - len(orphans)
    lines = sum(f.definition.lines for f in findings)
    print(
        f"{len(findings)} unreachable definitions ({lines} lines): "
        f"{len(orphans)} orphans, {kept} kept"
    )
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
