"""The reachability audit (``tools/reach.py``): the checkout is clean, and
the analysis finds planted orphans in a synthetic source tree."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: pathlib.Path, relative: str, text: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")


def test_the_checkout_has_no_unkept_orphans():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 orphans" in completed.stdout


def test_planted_orphans_are_found_and_so_are_helpers_only_they_use(tmp_path):
    _write(
        tmp_path,
        "src/repro/__init__.py",
        '''
        """Package."""
        from repro.lib import orphan, served, spec_only

        __all__ = ["orphan", "served", "spec_only"]
        ''',
    )
    _write(
        tmp_path,
        "src/repro/lib.py",
        '''
        """Library.  See ``orphan`` and `_helper`."""

        __all__ = ["orphan", "served", "by_example", "spec_only"]


        def _leaf(x):
            return x


        def _helper(x):
            return _leaf(x) + 1


        def orphan(x):
            """Calls ``_helper``; nothing calls it but its own tests."""
            if x < 0:
                raise ValueError("orphan needs x >= 0")
            return _helper(orphan(x - 1)) if x else 0


        def served(x):
            return _shared(x)


        def _shared(x):
            return x


        def by_example():
            return 1


        def spec_only():
            return 2
        ''',
    )
    _write(
        tmp_path,
        "src/repro/cli.py",
        '''
        """CLI."""
        from repro.lib import served

        def main():
            return served(1)
        ''',
    )
    _write(
        tmp_path,
        "src/repro/__main__.py",
        '"""Entry point."""\nfrom repro.cli import main\n\nmain()\n',
    )
    _write(tmp_path, "examples/demo.py", "from repro.lib import by_example\nby_example()\n")
    _write(tmp_path, "tests/test_lib.py", "from repro.lib import orphan\norphan(1)\n")

    reach = _load_reach()
    findings = reach.audit(tmp_path, keep={"lib.py:spec_only": "the declared spec"})
    reported = {f.definition.label: f.kept_because for f in findings}
    assert reported == {
        "lib.py:_leaf": None,
        "lib.py:_helper": None,
        "lib.py:orphan": None,
        "lib.py:spec_only": "the declared spec",
    }
    orphan = next(f.definition for f in findings if f.definition.name == "orphan")
    assert orphan.lines == 5


def test_a_kept_definition_keeps_what_it_uses(tmp_path):
    _write(
        tmp_path,
        "src/repro/spec.py",
        '''
        """Spec."""


        def reference():
            return _step()


        def _step():
            return 0
        ''',
    )
    reach = _load_reach()
    assert [f.definition.label for f in reach.audit(tmp_path, keep={})] == [
        "spec.py:reference",
        "spec.py:_step",
    ]
    kept = reach.audit(tmp_path, keep={"spec.py": "a paper-map row"})
    assert [(f.definition.label, f.kept_because) for f in kept] == [
        ("spec.py:reference", "a paper-map row")
    ]
