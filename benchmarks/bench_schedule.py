"""E-SCHEDULE: the schedule-aware engine vs the per-call schedule walker.

Repeated routes over one *dynamic* topology schedule (the extension of
:mod:`repro.network.dynamics`) used to pay, on every call, for a
connected-component scan of snapshot 0's reduced graph, a linear scan of the
switch times at every walk step, and a dict-of-tuples walk with a state
object allocated per step.  The schedule-aware engine
(:class:`repro.core.engine.PreparedSchedule`) compiles every snapshot into a
flat-array kernel once and resumes the walk across switch-overs.

This benchmark routes the same pairs twice over one 4-snapshot schedule:

* **pre-PR** — the exact pre-engine ``route_over_schedule`` pipeline,
  reconstructed from the public primitives it used (shared prepared
  reductions + per-call ``connected_component`` + ``step_forward`` /
  ``step_backward`` over the dict rotation map);
* **engine** — one :class:`~repro.core.engine.PreparedSchedule` serving the
  whole batch through :meth:`~repro.core.engine.PreparedSchedule.route_many`.

It asserts that both produce identical results (outcome, steps, switches,
soundness) and, outside smoke mode, that the engine is at least 5x faster on
the batch — the ISSUE 2 acceptance bar.

Run standalone (CI smoke mode) with::

    PYTHONPATH=src SCHEDULE_BENCH_SMOKE=1 python benchmarks/bench_schedule.py
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import List, Tuple

from bench_utils import PROVIDER, emit_bench_json, emit_table, prepared
from repro.core.exploration import WalkState, step_backward, step_forward
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.graphs.degree_reduction import DegreeReducedGraph
from repro.graphs.labeled_graph import LabeledGraph
from repro.core.engine import prepare_schedule
from repro.network.dynamics import (
    DynamicOutcome,
    DynamicRouteResult,
    TopologySchedule,
)

SMOKE = os.environ.get("SCHEDULE_BENCH_SMOKE", "") not in ("", "0") or os.environ.get(
    "ENGINE_BENCH_SMOKE", ""
) not in ("", "0")

#: Full mode: the ISSUE's reference workload — 20 routes over a 4-snapshot
#: schedule (relabel mutations keep the walk alive across every switch).
GRID_SIDE = 4 if SMOKE else 6
NUM_PAIRS = 5 if SMOKE else 20
NUM_SNAPSHOTS = 4
SWITCH_EVERY = 7
MIN_SPEEDUP = 5.0


def _pre_pr_route_over_schedule(
    schedule: TopologySchedule, source: int, target: int
) -> DynamicRouteResult:
    """The pre-PR ``route_over_schedule`` pipeline, byte-for-byte in behaviour.

    Reductions come from the shared prepared-engine cache exactly as before;
    the per-call costs being measured are the ``connected_component`` scan,
    the per-step ``reduction_at`` switch-time scan and the dict-backed walk.
    """
    reductions: List[DegreeReducedGraph] = [
        prepared(graph).reduction for graph in schedule.snapshots
    ]
    size_bound = len(
        connected_component(reductions[0].graph, reductions[0].gateway(source))
    )
    sequence = PROVIDER.sequence_for(size_bound)

    def reduction_at(time: int) -> DegreeReducedGraph:
        active_index = 0
        for index, start in enumerate(schedule.switch_times):
            if time >= start:
                active_index = index
        return reductions[active_index]

    reduction = reduction_at(0)
    state = WalkState(vertex=reduction.gateway(source), entry_port=0)
    current_original = source
    switches_survived = 0
    steps = 0
    direction_forward = True
    status_failure = False

    for time in range(2 * len(sequence) + 2):
        new_reduction = reduction_at(time)
        if new_reduction is not reduction:
            switches_survived += 1
            cluster = new_reduction.cluster(current_original)
            old_cluster = reduction.cluster(current_original)
            if len(cluster) != len(old_cluster):
                return DynamicRouteResult(
                    outcome=DynamicOutcome.STRANDED,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=False,
                    detail=f"degree of node {current_original} changed under the message",
                )
            offset = old_cluster.index(state.vertex)
            state = WalkState(vertex=cluster[offset], entry_port=state.entry_port)
            reduction = new_reduction

        if direction_forward:
            if current_original == target:
                return DynamicRouteResult(
                    outcome=DynamicOutcome.DELIVERED,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=True,
                )
            if steps >= len(sequence):
                direction_forward = False
                status_failure = True
                continue
            state = step_forward(reduction.graph, state, sequence[steps])
            steps += 1
        else:
            if current_original == source or steps == 0:
                sound = not schedule.always_connected(source, target) if status_failure else True
                return DynamicRouteResult(
                    outcome=DynamicOutcome.REPORTED_FAILURE,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=sound,
                    detail="" if sound else "failure reported although a path existed throughout",
                )
            state = step_backward(reduction.graph, state, sequence[steps - 1])
            steps -= 1
        current_original = reduction.to_original(state.vertex)

    return DynamicRouteResult(
        outcome=DynamicOutcome.STRANDED,
        steps_taken=steps,
        switches_survived=switches_survived,
        sound=False,
        detail="walk did not terminate within its budget",
    )


def _workload() -> Tuple[TopologySchedule, List[Tuple[int, int]]]:
    base = generators.grid_graph(GRID_SIDE, GRID_SIDE)
    rng = random.Random(11)
    snapshots: List[LabeledGraph] = [base]
    for _ in range(NUM_SNAPSHOTS - 1):
        snapshots.append(snapshots[-1].with_relabeled_ports(rng))
    schedule = TopologySchedule(
        snapshots=tuple(snapshots),
        switch_times=tuple(index * SWITCH_EVERY for index in range(NUM_SNAPSHOTS)),
    )
    n = base.num_vertices
    pair_rng = random.Random(0)
    pairs = [
        (pair_rng.randrange(n), pair_rng.randrange(n)) for _ in range(NUM_PAIRS)
    ]
    return schedule, pairs


def run_schedule_benchmark() -> dict:
    """Route the workload both ways; verify parity and report the timings."""
    schedule, pairs = _workload()
    engine = prepare_schedule(schedule)

    # Warm the shared sequence/reduction caches so both sides are measured in
    # steady state (the one-off sequence generation is identical for both and
    # would otherwise drown the comparison).
    engine.route_many(pairs, provider=PROVIDER)
    _pre_pr_route_over_schedule(schedule, *pairs[0])

    started = time.perf_counter()
    legacy_results = [_pre_pr_route_over_schedule(schedule, s, t) for s, t in pairs]
    legacy_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    engine_results = engine.route_many(pairs, provider=PROVIDER)
    engine_elapsed = time.perf_counter() - started

    mismatches = [
        (pair, legacy, engine_result)
        for pair, legacy, engine_result in zip(pairs, legacy_results, engine_results)
        if legacy != engine_result
    ]
    speedup = legacy_elapsed / engine_elapsed if engine_elapsed > 0 else float("inf")
    return {
        "schedule": schedule,
        "pairs": pairs,
        "legacy_elapsed": legacy_elapsed,
        "engine_elapsed": engine_elapsed,
        "speedup": speedup,
        "mismatches": mismatches,
        "delivered": sum(
            1 for result in engine_results if result.outcome is DynamicOutcome.DELIVERED
        ),
    }


def _emit(report: dict) -> None:
    pairs = report["pairs"]
    rows = [
        [
            "pre-PR (per-call component scan + dict walk)",
            len(pairs),
            f"{report['legacy_elapsed'] * 1000:.1f}",
            f"{report['legacy_elapsed'] * 1000 / len(pairs):.2f}",
            "1.0",
        ],
        [
            "PreparedSchedule.route_many",
            len(pairs),
            f"{report['engine_elapsed'] * 1000:.1f}",
            f"{report['engine_elapsed'] * 1000 / len(pairs):.2f}",
            f"{report['speedup']:.1f}",
        ],
    ]
    emit_table(
        "E_schedule_prepared_routing",
        f"E-SCHEDULE — {len(pairs)} routes over a {NUM_SNAPSHOTS}-snapshot "
        f"{GRID_SIDE}x{GRID_SIDE}-grid schedule ({'smoke' if SMOKE else 'full'} mode)",
        ["pipeline", "routes", "total ms", "ms/route", "speedup"],
        rows,
        notes=(
            "Identical results on every pair (outcome, steps taken, switches "
            "survived, soundness); the schedule-aware engine only amortises "
            "per-snapshot compilation and resumes the flat-array walk across "
            "switch-overs, stepping each forward stretch on fused state tables."
        ),
    )
    emit_bench_json(
        "schedule",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "grid_side": GRID_SIDE,
                "num_pairs": len(pairs),
                "num_snapshots": NUM_SNAPSHOTS,
                "switch_every": SWITCH_EVERY,
                "min_speedup": MIN_SPEEDUP,
            },
            "reference_seconds": report["legacy_elapsed"],
            "engine_seconds": report["engine_elapsed"],
            "speedup": report["speedup"],
            "mismatches": len(report["mismatches"]),
            "delivered": report["delivered"],
        },
    )


def test_schedule_batch_speedup(benchmark):
    report = run_schedule_benchmark()
    _emit(report)
    assert not report["mismatches"], report["mismatches"][:3]
    assert report["delivered"] >= 1
    if not SMOKE:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x, measured {report['speedup']:.1f}x"
        )
    schedule, pairs = report["schedule"], report["pairs"]
    engine = prepare_schedule(schedule)
    benchmark.pedantic(
        lambda: engine.route_many(pairs, provider=PROVIDER), rounds=5, iterations=1
    )


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    report = run_schedule_benchmark()
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
