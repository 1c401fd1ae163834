"""E-MULTI: the stacked multi-graph lockstep kernel vs the per-scenario path.

A sweep group routes small per-scenario batches over *many different*
graphs.  Routed one shard at a time, each shard's pairs go through
``route_many`` alone, and a batch of 8–28 pairs is below the lockstep
dispatch threshold, so every scenario runs the scalar reference loop.  The
multi-graph kernel (:class:`repro.core.batch_kernel.MultiGraphWalk`) stacks
all compiled transition tables into one block table with per-walk graph
offsets, so an entire sweep group advances three global steps per gather —
:func:`repro.analysis.runner.evaluate_shards` turns a whole shard group into
a handful of NumPy calls.

This benchmark runs one sweep plan (grid + ring scenarios, small per-shard
batches) twice:

* **per-scenario** — ``[evaluate_shard(s) for s in plan.shards]``: one
  shard at a time;
* **multi-graph** — all engine shards stacked into one call of the engine's
  lockstep realisation (``repro.core.engine._route_lockstep``), which
  ``evaluate_shards`` takes for a group this large; it is called directly
  so smoke mode, whose 24 pairs are below the thresholds, runs the stacked
  kernel too.

It always asserts bitwise equality of the per-shard rows, and of the
aggregated :class:`~repro.analysis.experiments.ExperimentResult` table of
``run_sweep``, and outside smoke mode that the stacked path is at least 3x
faster.  It also exercises
the kernel store's disk tier: a cold sweep with ``REPRO_KERNEL_CACHE_DIR``
set persists every compiled kernel, and a warm rerun after clearing the
in-process caches must perform **zero recompilations** (asserted via the
``kernel_compiles`` / ``disk_hits`` counters) while producing the identical
table.

Run standalone (CI smoke mode) with::

    PYTHONPATH=src MULTIGRAPH_BENCH_SMOKE=1 python benchmarks/bench_multigraph.py
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

from bench_utils import emit_bench_json, emit_table
from repro.analysis import runner
from repro.analysis.experiments import pick_source_target_pairs, structured_scenarios
from repro.analysis.runner import evaluate_shard, plan_sweep, run_sweep
from repro.core.batch_kernel import HAVE_NUMPY
from repro.core.engine import (
    _route_lockstep,
    clear_prepared_caches,
    prepare,
    prepared_cache_info,
)
from repro.core.kernel_store import ENV_KERNEL_CACHE_DIR, configure_kernel_store

SMOKE = os.environ.get("MULTIGRAPH_BENCH_SMOKE", "") not in ("", "0") or os.environ.get(
    "ENGINE_BENCH_SMOKE", ""
) not in ("", "0")

#: Full mode: 24 scenarios x 28 pairs — every per-scenario batch is below the
#: lockstep dispatch threshold, so the per-scenario side really is the
#: scalar path, while the stacked kernel sees all 672 walks.
SIZES = (16, 25) if SMOKE else (64, 100)
SEEDS = (0,) if SMOKE else (0, 1, 2, 3, 4, 5)
PAIRS = 6 if SMOKE else 28
REPEATS = 1 if SMOKE else 3
MIN_SPEEDUP = 3.0


def _plan():
    scenarios = list(structured_scenarios("grid", SIZES, seeds=SEEDS))
    scenarios += list(structured_scenarios("ring", SIZES, seeds=SEEDS))
    return plan_sweep(
        scenarios,
        routers=("ues-engine",),
        pairs=PAIRS,
        master_seed=2008,
        experiment="bench-multigraph",
    )


def _per_scenario_rows(plan):
    return [evaluate_shard(shard) for shard in plan.shards]


def _stacked_rows(plan):
    """Every (engine) shard of the plan through one stacked lockstep run."""
    tasks = []
    for shard in plan.shards:
        network = runner._SCENARIOS.network(shard.spec)
        pairs = pick_source_target_pairs(network, shard.pairs, seed=shard.seed)
        tasks.append((prepare(network.graph), pairs, network.namespace_size))
    results = _route_lockstep(tasks)
    return [
        runner._engine_rows(shard.spec, shard.router, pairs, shard_results)
        for shard, (_engine, pairs, _namespace), shard_results in zip(
            plan.shards, tasks, results
        )
    ]


def _time_shards(plan, evaluate) -> float:
    """Best-of-``REPEATS`` wall time of one full shard-group evaluation."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        evaluate(plan)
        best = min(best, time.perf_counter() - started)
    return best


def run_multigraph_benchmark() -> dict:
    """Route the plan both ways; verify table equality, report timings."""
    plan = _plan()

    # Both sides are timed in steady state: scenarios materialised, engines
    # prepared, sequences cached.  One untimed pass each warms everything.
    scalar_rows = _per_scenario_rows(plan)
    stacked_rows = _stacked_rows(plan)

    scalar_elapsed = _time_shards(plan, _per_scenario_rows)
    stacked_elapsed = _time_shards(plan, _stacked_rows)

    stacked_table = run_sweep(plan).table
    identical = scalar_rows == stacked_rows and stacked_table.rows == [
        row for rows in scalar_rows for row in rows
    ]
    speedup = scalar_elapsed / stacked_elapsed if stacked_elapsed > 0 else float("inf")
    return {
        "plan": plan,
        "scalar_elapsed": scalar_elapsed,
        "stacked_elapsed": stacked_elapsed,
        "speedup": speedup,
        "identical": identical,
        "rows": len(stacked_table.rows),
        "table": stacked_table,
    }


def run_warm_start_check(plan) -> dict:
    """Cold-persist then warm-start the kernel store; assert zero recompiles.

    Enables a throwaway disk tier, runs the sweep cold (every kernel is
    compiled once and persisted), drops the in-process caches, and reruns:
    the warm run must load every kernel from disk (``kernel_compiles == 0``)
    and reproduce the identical table.
    """
    previous = os.environ.get(ENV_KERNEL_CACHE_DIR)
    cache_dir = tempfile.mkdtemp(prefix="repro-kernels-")
    try:
        configure_kernel_store(cache_dir=cache_dir)
        clear_prepared_caches()
        cold_table = run_sweep(plan).table
        cold = prepared_cache_info()

        clear_prepared_caches()
        warm_table = run_sweep(plan).table
        warm = prepared_cache_info()
        return {
            "cold_compiles": cold["kernel_compiles"],
            "cold_saves": cold["disk_saves"],
            "warm_compiles": warm["kernel_compiles"],
            "warm_disk_hits": warm["disk_hits"],
            "identical": (
                cold_table.headers == warm_table.headers
                and cold_table.rows == warm_table.rows
            ),
        }
    finally:
        configure_kernel_store(cache_dir=previous if previous else "")
        clear_prepared_caches()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _emit(report: dict, warm: dict) -> None:
    plan = report["plan"]
    shards = len(plan.shards)
    pairs = shards * PAIRS
    rows = [
        [
            "per-scenario (scalar path)",
            shards,
            pairs,
            f"{report['scalar_elapsed'] * 1000:.1f}",
            "1.0",
        ],
        [
            "multi-graph lockstep (stacked block table)",
            shards,
            pairs,
            f"{report['stacked_elapsed'] * 1000:.1f}",
            f"{report['speedup']:.1f}",
        ],
    ]
    emit_table(
        "E_multigraph_lockstep_sweep",
        f"E-MULTI — {shards} scenarios x {PAIRS} pairs "
        f"({'smoke' if SMOKE else 'full'} mode)",
        ["pipeline", "shards", "walks", "total ms", "speedup"],
        rows,
        notes=(
            "Bitwise-identical aggregated tables; the stacked kernel "
            "concatenates every scenario's compiled transition tables into "
            "one block table with per-walk graph offsets, so all scenarios' "
            "walks advance three global steps per gather.  Warm start: "
            f"{warm['warm_compiles']} recompilations after reloading "
            f"{warm['warm_disk_hits']} kernels from the disk tier."
        ),
    )
    emit_bench_json(
        "multigraph",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "sizes": list(SIZES),
                "seeds": list(SEEDS),
                "pairs": PAIRS,
                "shards": shards,
                "repeats": REPEATS,
                "min_speedup": MIN_SPEEDUP,
            },
            "scalar_seconds": report["scalar_elapsed"],
            "stacked_seconds": report["stacked_elapsed"],
            "speedup": report["speedup"],
            "identical": report["identical"],
            "rows": report["rows"],
            "warm_start": warm,
        },
    )


def _check(report: dict, warm: dict) -> str:
    """Return an error message, or '' when the reports meet the bar."""
    if not report["identical"]:
        return "rows differ between per-scenario and multi-graph runs"
    if not warm["identical"]:
        return "warm-start table differs from the cold run"
    if warm["cold_compiles"] < 1 or warm["cold_saves"] < 1:
        return "cold run compiled/persisted nothing: the disk tier never engaged"
    if warm["warm_compiles"] != 0:
        return (
            f"warm start recompiled {warm['warm_compiles']} kernels; "
            "expected zero (all from the disk tier)"
        )
    if warm["warm_disk_hits"] < 1:
        return "warm start loaded nothing from the disk tier"
    if not SMOKE and report["speedup"] < MIN_SPEEDUP:
        return (
            f"speedup {report['speedup']:.1f}x below the {MIN_SPEEDUP}x bar"
        )
    return ""


def test_multigraph_lockstep_speedup(benchmark):
    if not HAVE_NUMPY:  # pragma: no cover - exercised by the no-NumPy CI job
        import pytest

        pytest.skip("NumPy unavailable: the multi-graph kernel cannot run")
    report = run_multigraph_benchmark()
    warm = run_warm_start_check(report["plan"])
    _emit(report, warm)
    error = _check(report, warm)
    assert not error, error
    plan = report["plan"]
    benchmark.pedantic(
        lambda: _stacked_rows(plan),
        rounds=5,
        iterations=1,
    )


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    if not HAVE_NUMPY:  # pragma: no cover - exercised by the no-NumPy CI job
        print("skip: NumPy unavailable, the multi-graph kernel cannot run")
        return 0
    report = run_multigraph_benchmark()
    warm = run_warm_start_check(report["plan"])
    _emit(report, warm)
    error = _check(report, warm)
    if error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"ok: {report['speedup']:.1f}x stacked over per-scenario, tables "
        f"bitwise identical ({report['rows']} rows), warm start recompiled 0"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
