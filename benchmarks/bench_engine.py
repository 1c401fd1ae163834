"""E-ENGINE: the prepared routing engine vs the seed per-call pipeline.

Repeated-route workloads — many messages over one static network, the paper's
whole setting — used to pay for the degree reduction, the component-size
derivation and a dict-of-tuples walk on *every* ``route()`` call.  The
prepared engine (:mod:`repro.core.engine`) computes all topology-derived
state once per graph and steps the walk over flat integer arrays.

This benchmark routes the same pairs twice on one grid network:

* **seed-style** — the exact seed pipeline, reconstructed from the public
  primitives it used (``reduce_to_three_regular`` + ``connected_component``
  + ``step_forward``/``step_backward`` per call);
* **engine** — one :class:`~repro.core.engine.PreparedNetwork` serving the
  whole batch through :meth:`~repro.core.engine.PreparedNetwork.route_many`.

It asserts that both produce identical walk results (outcome, step counts,
physical hops, size bound) and, outside smoke mode, that the engine is at
least 10x faster on the batch.

Run standalone (CI smoke mode) with::

    PYTHONPATH=src ENGINE_BENCH_SMOKE=1 python benchmarks/bench_engine.py
"""

from __future__ import annotations

import random
import sys
import time
from typing import List, Tuple

from bench_utils import PROVIDER, SMOKE, emit_bench_json, emit_table, prepared
from repro.core.exploration import WalkState, step_backward, step_forward
from repro.core.routing import RouteOutcome
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.graphs.degree_reduction import reduce_to_three_regular
from repro.graphs.labeled_graph import LabeledGraph

#: Full mode: the ISSUE's reference workload — 20 routes on a 12x12 grid.
GRID_SIDE = 6 if SMOKE else 12
NUM_PAIRS = 5 if SMOKE else 20
MIN_SPEEDUP = 10.0

SeedResult = Tuple[str, int, int, int, int]


def _seed_style_route(
    graph: LabeledGraph, source: int, target: int
) -> SeedResult:
    """The seed ``route()`` pipeline, byte-for-byte in behaviour.

    Re-reduces the graph, re-derives the component bound and walks the
    dict-backed rotation map — exactly what every pre-engine call did.
    Returns ``(outcome, forward, backward, physical_hops, bound)``.
    """
    reduction = reduce_to_three_regular(graph)
    reduced = reduction.graph
    gateway = reduction.gateway(source)
    bound = len(connected_component(reduced, gateway))
    sequence = PROVIDER.sequence_for(bound)
    length = len(sequence)

    state = WalkState(vertex=gateway, entry_port=0)
    index = forward = hops = 0
    while True:
        if reduction.to_original(state.vertex) == target:
            outcome = RouteOutcome.SUCCESS
            break
        if index >= length:
            outcome = RouteOutcome.FAILURE
            break
        next_state = step_forward(reduced, state, sequence[index])
        index += 1
        forward += 1
        if reduction.to_original(next_state.vertex) != reduction.to_original(state.vertex):
            hops += 1
        state = next_state
    backward = 0
    while reduction.to_original(state.vertex) != source and index > 0:
        previous = step_backward(reduced, state, sequence[index - 1])
        index -= 1
        backward += 1
        if reduction.to_original(previous.vertex) != reduction.to_original(state.vertex):
            hops += 1
        state = previous
    return (outcome.value, forward, backward, hops, bound)


def _workload() -> Tuple[LabeledGraph, List[Tuple[int, int]]]:
    graph = generators.grid_graph(GRID_SIDE, GRID_SIDE)
    rng = random.Random(0)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(NUM_PAIRS)]
    return graph, pairs


def run_engine_benchmark() -> dict:
    """Route the workload both ways; verify parity and report the timings."""
    graph, pairs = _workload()
    engine = prepared(graph)

    # Warm the shared sequence cache so both sides are measured in steady
    # state (the one-off sequence generation is identical for both and would
    # otherwise drown the comparison).
    engine.route_many(pairs, provider=PROVIDER)

    started = time.perf_counter()
    seed_results = [_seed_style_route(graph, s, t) for s, t in pairs]
    seed_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    engine_results = engine.route_many(pairs, provider=PROVIDER)
    engine_elapsed = time.perf_counter() - started

    mismatches = [
        (pair, seed, engine_result)
        for pair, seed, engine_result in zip(pairs, seed_results, engine_results)
        if seed
        != (
            engine_result.outcome.value,
            engine_result.forward_virtual_steps,
            engine_result.backward_virtual_steps,
            engine_result.physical_hops,
            engine_result.size_bound,
        )
    ]
    speedup = seed_elapsed / engine_elapsed if engine_elapsed > 0 else float("inf")
    return {
        "graph": graph,
        "pairs": pairs,
        "seed_elapsed": seed_elapsed,
        "engine_elapsed": engine_elapsed,
        "speedup": speedup,
        "mismatches": mismatches,
        "delivered": sum(1 for result in engine_results if result.delivered),
    }


def _emit(report: dict) -> None:
    pairs = report["pairs"]
    rows = [
        [
            "seed-style (re-reduce + dict walk)",
            len(pairs),
            f"{report['seed_elapsed'] * 1000:.1f}",
            f"{report['seed_elapsed'] * 1000 / len(pairs):.2f}",
            "1.0",
        ],
        [
            "PreparedNetwork.route_many",
            len(pairs),
            f"{report['engine_elapsed'] * 1000:.1f}",
            f"{report['engine_elapsed'] * 1000 / len(pairs):.2f}",
            f"{report['speedup']:.1f}",
        ],
    ]
    emit_table(
        "E_engine_prepared_routing",
        f"E-ENGINE — {len(pairs)} routes on a {GRID_SIDE}x{GRID_SIDE} grid "
        f"({'smoke' if SMOKE else 'full'} mode)",
        ["pipeline", "routes", "total ms", "ms/route", "speedup"],
        rows,
        notes=(
            "Identical walk results on every pair (outcome, forward/backward "
            "steps, physical hops, size bound); the prepared engine only "
            "amortises topology-derived state and flattens the rotation map "
            "into arrays."
        ),
    )
    emit_bench_json(
        "engine",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "grid_side": GRID_SIDE,
                "num_pairs": len(pairs),
                "min_speedup": MIN_SPEEDUP,
            },
            "seed_seconds": report["seed_elapsed"],
            "engine_seconds": report["engine_elapsed"],
            "speedup": report["speedup"],
            "mismatches": len(report["mismatches"]),
            "delivered": report["delivered"],
        },
    )


def test_engine_batch_speedup(benchmark):
    report = run_engine_benchmark()
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
        lambda: engine.route_many(pairs, provider=PROVIDER), rounds=5, iterations=1
    )


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    report = run_engine_benchmark()
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
