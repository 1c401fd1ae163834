"""The end-to-end benchmark's wrap points must resolve against ``src/``.

``perfbench/spans.py`` wraps library functions and methods by name
(``BatchedWalk.run``, ``evaluate_shards``, ``RandomSequenceProvider._cache``
and so on).  A rename in ``src/`` would otherwise surface only when the
benchmark runs.  This installs both tracers in a fresh interpreter and
routes one pair through the traced layers.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import spans
from repro.core.engine import prepare
from repro.graphs import generators

tracer = spans.Tracer()
spans.install(tracer)
spans.install_server(tracer)
prepare(generators.grid_graph(3, 3)).route(0, 8)
assert tracer.counts["engine.scalar_pairs"] == 1, tracer.counts
"""


def test_perfbench_spans_install_against_the_sources():
    script = _SCRIPT.format(
        perfbench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src")
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
