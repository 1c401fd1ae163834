#!/usr/bin/env python3
"""Reachability audit of ``src/repro`` — the CI "no unreachable code" step.

Every top-level ``def`` and ``class`` of every module under ``src/repro`` is
read with ``ast``.  A definition is *used* when its name appears as a word
somewhere that is itself live:

* in any ``src/`` module, outside the definition itself, outside the
  ``__all__`` assignment, outside import statements and outside backticked
  mentions in docstrings (so a package re-export or a cross-reference in
  prose does not keep a name alive, while the body of an ``__init__.py``
  that is not a re-export does);
* anywhere in ``benchmarks/``, ``examples/``, ``perfbench/`` or ``tools/``
  (this file excepted), or in ``docs/paper_map.md``.

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

The rule is textual, so it errs towards "used": a name that another module
happens to spell the same way (``statistics.geometric_mean`` in
``perfbench/``) keeps a definition alive.

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

#: Directories (besides ``src/``) whose every text file counts as a use.
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


def scan_module(module: str, source: str) -> Tuple[List[Definition], List[Tuple[Optional[str], str]]]:
    """Definitions of one module and its masked text, split by owner.

    The text comes back as ``(owner, text)`` chunks: ``owner`` is the name of
    the top-level definition the chunk lies in, or ``None`` for module-level
    code.  Imports, the ``__all__`` assignment and backticked docstring
    mentions are already blanked out.
    """
    tree = ast.parse(source)
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
    return definitions, chunks


def _keep_reason(definition: Definition, keep: Dict[str, str]) -> Optional[str]:
    for key, reason in keep.items():
        if key == definition.label or key == definition.module:
            return reason
        if key.endswith("/") and definition.module.startswith(key):
            return reason
    return None


def _user_texts(root: Path) -> List[str]:
    texts: List[str] = []
    paths: List[Path] = [root / name for name in USER_FILES]
    for directory in USER_DIRS:
        paths.extend(p for p in sorted((root / directory).rglob("*")) if p.is_file())
    this_file = Path(__file__).resolve()
    for path in paths:
        if not path.is_file() or path.resolve() == this_file or "__pycache__" in path.parts:
            continue
        try:
            texts.append(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError:  # a binary file names nothing
            continue
    return texts


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
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        found, chunks = scan_module(module, path.read_text(encoding="utf-8"))
        definitions.extend(found)
        for owner, text in chunks:
            src_words.setdefault((module, owner), set()).update(_words(text))
    outside: Set[str] = set()
    for text in _user_texts(root):
        outside |= _words(text)

    dead: Set[Tuple[str, Optional[str]]] = set()

    def used(definition: Definition) -> bool:
        own = (definition.module, definition.name)
        return definition.name in outside or any(
            definition.name in words
            for key, words in src_words.items()
            if key != own and key not in dead
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
