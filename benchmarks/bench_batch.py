"""E-BATCH: the lockstep batched walk kernel vs the scalar reference loop.

Every batch workload (sweeps, conformance, ``route-many``, the ProcessPool
chunk path) routes a *set* of pairs over one prepared graph.
:meth:`repro.core.engine.PreparedNetwork.route_many` used to loop the scalar
walk per pair; the lockstep kernel (:mod:`repro.core.batch_kernel`) advances
all walks one synchronous step at a time over the compiled flat arrays, with
one fused NumPy gather per step for the whole batch and per-pair accounting
recovered from the recorded trajectory.

This benchmark routes one 512-pair batch over a 16x16 grid twice:

* **reference** — :meth:`PreparedNetwork.reference_route_many`, the scalar
  per-pair loop (the executable specification);
* **lockstep** — the engine's lockstep realisation
  (``repro.core.engine._route_lockstep``: one :class:`BatchedWalk` run per
  size bound), which ``route_many`` takes for a batch this large; it is
  called directly so smoke mode, whose batch is below the thresholds, times
  the kernel too.

It always asserts bitwise :class:`~repro.core.routing.RouteResult`-list
equality between the two, and outside smoke mode that the batched path is at
least 3x faster.

Run standalone (CI smoke mode) with::

    PYTHONPATH=src BATCH_BENCH_SMOKE=1 python benchmarks/bench_batch.py
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import List, Tuple

from bench_utils import PROVIDER, emit_bench_json, emit_table, prepared
from repro.core.batch_kernel import HAVE_NUMPY
from repro.core.engine import _route_lockstep
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph

#: Smoke mode: small instance, no timing assertion (set ``BATCH_BENCH_SMOKE=1``).
SMOKE = os.environ.get("BATCH_BENCH_SMOKE", "") not in ("", "0")

#: Full mode: the ISSUE's reference workload — 512 pairs over a 16x16 grid.
GRID_SIDE = 6 if SMOKE else 16
NUM_PAIRS = 64 if SMOKE else 512
MIN_SPEEDUP = 3.0


def _workload() -> Tuple[LabeledGraph, List[Tuple[int, int]]]:
    graph = generators.grid_graph(GRID_SIDE, GRID_SIDE)
    rng = random.Random(0)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(NUM_PAIRS)]
    return graph, pairs


def _lockstep(engine, pairs):
    [results] = _route_lockstep([(engine, pairs, None)], provider=PROVIDER)
    return results


def run_batch_benchmark() -> dict:
    """Route the batch both ways; verify bitwise equality, report timings."""
    graph, pairs = _workload()
    engine = prepared(graph)

    # Warm the shared caches (sequence materialisation, NumPy views of the
    # kernel) so both sides are measured in steady state.
    _lockstep(engine, pairs)
    engine.reference_route_many(pairs[:1], provider=PROVIDER)

    started = time.perf_counter()
    reference_results = engine.reference_route_many(pairs, provider=PROVIDER)
    reference_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    batched_results = _lockstep(engine, pairs)
    batched_elapsed = time.perf_counter() - started

    mismatches = [
        (pair, reference, batched)
        for pair, reference, batched in zip(pairs, reference_results, batched_results)
        if reference != batched
    ]
    speedup = (
        reference_elapsed / batched_elapsed if batched_elapsed > 0 else float("inf")
    )
    return {
        "graph": graph,
        "pairs": pairs,
        "reference_elapsed": reference_elapsed,
        "batched_elapsed": batched_elapsed,
        "speedup": speedup,
        "mismatches": mismatches,
        "delivered": sum(1 for result in batched_results if result.delivered),
    }


def _emit(report: dict) -> None:
    pairs = report["pairs"]
    rows = [
        [
            "reference_route_many (scalar loop)",
            len(pairs),
            f"{report['reference_elapsed'] * 1000:.1f}",
            f"{report['reference_elapsed'] * 1000 / len(pairs):.3f}",
            "1.0",
        ],
        [
            "lockstep realisation (BatchedWalk)",
            len(pairs),
            f"{report['batched_elapsed'] * 1000:.1f}",
            f"{report['batched_elapsed'] * 1000 / len(pairs):.3f}",
            f"{report['speedup']:.1f}",
        ],
    ]
    emit_table(
        "E_batch_lockstep_routing",
        f"E-BATCH — {len(pairs)}-pair batch on a {GRID_SIDE}x{GRID_SIDE} grid "
        f"({'smoke' if SMOKE else 'full'} mode)",
        ["pipeline", "pairs", "total ms", "ms/pair", "speedup"],
        rows,
        notes=(
            "Bitwise-identical RouteResult lists on every pair; the lockstep "
            "kernel advances all walks one synchronous step at a time over "
            "the compiled arrays (one fused gather per step) and recovers "
            "per-pair forward/backward accounting from the recorded "
            "trajectory."
        ),
    )
    emit_bench_json(
        "batch",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "grid_side": GRID_SIDE,
                "num_pairs": len(pairs),
                "min_speedup": MIN_SPEEDUP,
            },
            "reference_seconds": report["reference_elapsed"],
            "batched_seconds": report["batched_elapsed"],
            "speedup": report["speedup"],
            "mismatches": len(report["mismatches"]),
            "delivered": report["delivered"],
        },
    )


def test_batch_lockstep_speedup(benchmark):
    if not HAVE_NUMPY:  # pragma: no cover - exercised by the no-NumPy CI job
        import pytest

        pytest.skip("NumPy unavailable: the lockstep kernel cannot run")
    report = run_batch_benchmark()
    _emit(report)
    assert not report["mismatches"], report["mismatches"][:3]
    assert report["delivered"] >= 1
    if not SMOKE:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x, measured {report['speedup']:.1f}x"
        )
    graph, pairs = report["graph"], report["pairs"]
    engine = prepared(graph)
    benchmark.pedantic(
        lambda: _lockstep(engine, pairs),
        rounds=5,
        iterations=1,
    )


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    if not HAVE_NUMPY:  # pragma: no cover - exercised by the no-NumPy CI job
        print("skip: NumPy unavailable, route_many falls back to the scalar loop")
        return 0
    report = run_batch_benchmark()
    _emit(report)
    if report["mismatches"]:
        print(f"FAIL: {len(report['mismatches'])} result mismatches", file=sys.stderr)
        return 1
    if not SMOKE and report["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {report['speedup']:.1f}x below {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"ok: speedup {report['speedup']:.1f}x, no mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
