"""E-SCALE: planet-scale streamed workloads route with flat resident memory.

The streaming subsystem (:mod:`repro.scenarios.streaming`) describes a
10^3–10^5-node graph as a lazy stream of equal-shaped shards, so the cost of
*holding* the workload must not grow with its size — only the number of
shards does.  This benchmark drives that claim end to end:

* **scaling ladder** — route a fixed batch of pairs on streamed unit-disk
  families from 10^3 up to 10^5 nodes (10^4 in smoke mode), recording wall
  time and shard counts: per-pair cost is governed by the shard size, never
  the total size;
* **flat memory** — stream *every* shard (edge census) and route the batch on
  the smallest and largest ladder sizes under :mod:`tracemalloc`, with all
  engine and shard caches cleared in between; the peak traced allocation of
  the largest run must stay within ``MEM_RATIO_BOUND`` of the smallest even
  though the workload is 10–100x bigger;
* **parity** — on small families (where the union is materialisable),
  shard-local routing must be bit-identical to routing the fully
  materialised union, including a cross-shard (disconnected) pair;
* **generator ladder** — build heterogeneous churn schedules at increasing
  sizes, re-checking every snapshot against its class degree budgets.

Run standalone (CI smoke mode) with::

    PYTHONPATH=src SCALE_BENCH_SMOKE=1 python benchmarks/bench_scale.py
"""

from __future__ import annotations

import gc
import os
import sys
import time
import tracemalloc

from bench_utils import PROVIDER, emit_bench_json, emit_table
from repro.analysis.experiments import build_schedule
from repro.core.engine import clear_prepared_caches, prepare
from repro.scenarios import churn_scenarios
from repro.scenarios.capabilities import assignment_for_spec, degree_budget_violations
from repro.scenarios.streaming import (
    StreamingGraphFamily,
    _structured_prototype,
    _unit_disk_shard,
    materialise_union,
    pick_streamed_pairs,
    route_streamed_pairs,
)

SMOKE = os.environ.get("SCALE_BENCH_SMOKE", "") not in ("", "0") or os.environ.get(
    "ENGINE_BENCH_SMOKE", ""
) not in ("", "0")

#: Total-vertex ladder for the streamed family (requested sizes; the family
#: rounds up to whole shards).  Full mode tops out at the ISSUE's 10^5 bar.
SIZES = (1_000, 10_000) if SMOKE else (1_000, 10_000, 100_000)

#: Shard shape: 32 nodes at radius 0.2 gives average degree ~4, so a shard's
#: degree-reduced component stays near ~130 virtual vertices and the UES for
#: it is generated in well under a second.  Density is the walk's real cost
#: driver — sequence length grows ~quadratically in the reduced component —
#: so the ladder scales the *number* of shards, never their shape.
SHARD_SIZE = 32
RADIUS = 0.2
PAIRS = 4

#: The largest ladder run may allocate at most this multiple of the smallest
#: run's peak.  The workload grows 10x (smoke) / 100x (full); a leak of even
#: one extra resident shard per decade would blow through the bound.
MEM_RATIO_BOUND = 3.0

#: Heterogeneous churn generator ladder (edge generation is O(n^2), so this
#: ladder is intentionally far below the streamed one).
GENERATOR_SIZES = (250, 500) if SMOKE else (1_000, 2_000)
GENERATOR_SNAPSHOTS = 4


def _family(size: int) -> StreamingGraphFamily:
    return StreamingGraphFamily(
        kind="unit-disk", size=size, shard_size=SHARD_SIZE, seed=2008, radius=RADIUS
    )


def _reset_caches() -> None:
    """Drop every compiled kernel and cached shard before a measured run."""
    clear_prepared_caches()
    _unit_disk_shard.cache_clear()
    _structured_prototype.cache_clear()
    gc.collect()


def _drive(family: StreamingGraphFamily) -> dict:
    """One end-to-end pass: census every shard, then route the pair batch."""
    edges = 0
    for _, _, local in family.iter_shards():
        edges += sum(1 for _ in local.edges())
    pairs = pick_streamed_pairs(family, PAIRS, seed=7)
    results = route_streamed_pairs(family, pairs, provider=PROVIDER)
    return {
        "edges": edges,
        "delivered": sum(1 for result in results if result.delivered),
        "pairs": len(pairs),
    }


def run_streaming_ladder() -> dict:
    """Time the end-to-end pass at every ladder size; meter the extremes."""
    per_size = []
    for size in SIZES:
        family = _family(size)
        _reset_caches()
        started = time.perf_counter()
        outcome = _drive(family)
        elapsed = time.perf_counter() - started
        per_size.append(
            {
                "size": size,
                "total_vertices": family.total_vertices,
                "shards": family.shard_count,
                "edges": outcome["edges"],
                "pairs": outcome["pairs"],
                "delivered": outcome["delivered"],
                "seconds": elapsed,
            }
        )

    def metered_peak(size: int) -> int:
        # The ladder pass above already drove this exact family and pair
        # batch, so the provider's per-size sequence cache is warm: the
        # metered pass measures the streaming machinery (shard graphs,
        # throwaway kernels, walk state), not one-off shared sequence
        # generation.
        family = _family(size)
        _reset_caches()
        tracemalloc.start()
        _drive(family)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_small = metered_peak(SIZES[0])
    peak_large = metered_peak(SIZES[-1])
    ratio = peak_large / peak_small if peak_small else float("inf")
    return {
        "per_size": per_size,
        "peak_small_bytes": peak_small,
        "peak_large_bytes": peak_large,
        "peak_ratio": ratio,
        "flat_memory": ratio <= MEM_RATIO_BOUND,
    }


def run_parity_check() -> bool:
    """Streamed == union on families small enough to materialise."""
    families = (
        StreamingGraphFamily(kind="grid", size=36, shard_size=9, seed=1),
        StreamingGraphFamily(kind="unit-disk", size=24, shard_size=8, seed=1, radius=0.45),
    )
    for family in families:
        pairs = pick_streamed_pairs(family, 4, seed=3)
        # A cross-shard pair is disconnected on the union; the shard-local
        # absent-target sentinel must fail identically.
        pairs.append((0, family.shard_offset(family.shard_count - 1)))
        streamed = route_streamed_pairs(family, pairs, provider=PROVIDER)
        union = prepare(materialise_union(family)).route_many(
            pairs, provider=PROVIDER, namespace_size=family.total_vertices
        )
        if streamed != union:
            return False
    return True


def run_generator_ladder() -> dict:
    """Compile churn schedules at increasing sizes; re-check degree budgets."""
    per_size = []
    budgets_ok = True
    for size in GENERATOR_SIZES:
        spec = churn_scenarios(
            [size], radius=0.12, snapshot_count=GENERATOR_SNAPSHOTS, switch_every=8
        )[0]
        started = time.perf_counter()
        schedule = build_schedule(spec)
        elapsed = time.perf_counter() - started
        assignment = assignment_for_spec(spec)
        for snapshot in schedule.snapshots:
            if degree_budget_violations(snapshot, assignment):
                budgets_ok = False
        per_size.append(
            {
                "size": size,
                "snapshots": len(schedule.snapshots),
                "seconds": elapsed,
            }
        )
    return {"per_size": per_size, "budgets_ok": budgets_ok}


def _emit(streaming: dict, parity_ok: bool, generators: dict) -> None:
    rows = [
        [
            entry["size"],
            entry["total_vertices"],
            entry["shards"],
            entry["edges"],
            f"{entry['delivered']}/{entry['pairs']}",
            f"{entry['seconds'] * 1000:.0f}",
        ]
        for entry in streaming["per_size"]
    ]
    emit_table(
        "E_scale_streamed_families",
        f"E-SCALE — streamed unit-disk ladder, shard size {SHARD_SIZE} "
        f"({'smoke' if SMOKE else 'full'} mode)",
        ["requested n", "realised n", "shards", "edges", "delivered", "total ms"],
        rows,
        notes=(
            f"Peak traced memory: {streaming['peak_small_bytes'] / 1024:.0f} KiB at "
            f"n={SIZES[0]} vs {streaming['peak_large_bytes'] / 1024:.0f} KiB at "
            f"n={SIZES[-1]} (ratio {streaming['peak_ratio']:.2f}, bound "
            f"{MEM_RATIO_BOUND}): resident memory is governed by the shard "
            "size, not the graph size."
        ),
    )
    emit_bench_json(
        "scale",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "sizes": list(SIZES),
                "shard_size": SHARD_SIZE,
                "radius": RADIUS,
                "pairs": PAIRS,
                "mem_ratio_bound": MEM_RATIO_BOUND,
                "generator_sizes": list(GENERATOR_SIZES),
            },
            "streaming": streaming,
            "parity_ok": parity_ok,
            "generators": generators,
        },
    )


def _check(streaming: dict, parity_ok: bool, generators: dict) -> str:
    """Return an error message, or '' when the report meets the bar."""
    if not parity_ok:
        return "streamed routing diverged from the materialised union"
    if not generators["budgets_ok"]:
        return "a churn snapshot exceeded a capability-class degree budget"
    if not streaming["flat_memory"]:
        return (
            f"peak memory ratio {streaming['peak_ratio']:.2f} exceeds "
            f"{MEM_RATIO_BOUND} — resident memory grew with the graph size"
        )
    return ""


def test_streamed_scale_flat_memory(benchmark):
    streaming = run_streaming_ladder()
    parity_ok = run_parity_check()
    generators = run_generator_ladder()
    _emit(streaming, parity_ok, generators)
    error = _check(streaming, parity_ok, generators)
    assert not error, error
    family = _family(SIZES[0])
    benchmark.pedantic(lambda: _drive(family), rounds=1, iterations=1)


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    streaming = run_streaming_ladder()
    parity_ok = run_parity_check()
    generators = run_generator_ladder()
    _emit(streaming, parity_ok, generators)
    error = _check(streaming, parity_ok, generators)
    if error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    largest = streaming["per_size"][-1]
    print(
        f"ok: {largest['total_vertices']} vertices across {largest['shards']} "
        f"shards in {largest['seconds']:.2f}s; peak memory ratio "
        f"{streaming['peak_ratio']:.2f} (bound {MEM_RATIO_BOUND}); streamed "
        "== union"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
