"""``sweep-pool``: one ``SweepRequest(workers=2)`` at a time on cold pool workers.

Closed loop, one client: each operation submits a sweep over 12 scenarios
(grid, torus and ring at 25 and 36 nodes, two scenario seeds each) x 64
pairs with the ``ues-engine`` router to the ``process-pool`` backend.  Every
sweep starts a fresh two-worker pool whose workers clear their caches, so
each sweep pays worker start, shard grouping, scenario builds, kernel
compiles and sequence materialisation.  The seed picks the sweep's master
seed, hence every pair; the networks are fixed.

Checks: every row is delivered exactly when its endpoints share a
component, and every repetition of the sweep in a run yields the same row
digest (same seed, same rows).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List

from common import (
    SETUP_REPEATS,
    Outcome,
    ReferenceClock,
    components,
    derived_seed,
    import_seconds,
    median,
    note,
    note_scale,
    peak_rss_mb,
    timed_setups,
)

PAIRS = 64
WORKERS = 2


def _request(seed: int):
    from repro.analysis.experiments import ScenarioSpec
    from repro.api import SweepRequest

    scenarios = tuple(
        ScenarioSpec(name=f"pool-{family}-{size}-s{copy}", family=family, size=size, seed=copy)
        for family in ("grid", "torus", "ring")
        for size in (25, 36)
        for copy in range(2)
    )
    return SweepRequest(scenarios=scenarios, pairs=PAIRS,
                        master_seed=derived_seed(seed, "pool-master"), workers=WORKERS)


def _labels(request) -> Dict[str, Dict[int, int]]:
    from repro.analysis.experiments import build_scenario

    return {spec.name: components(build_scenario(spec).graph) for spec in request.scenarios}


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _check(result, labels, digests: List[str], problems: List[str]) -> bool:
    rows = result.payload["rows"]
    if len(rows) != len(labels) * PAIRS:
        problems.append(f"sweep returned {len(rows)} rows, expected {len(labels) * PAIRS}")
        return False
    for row in rows:
        name, source, target, delivered = row[0], row[4], row[5], row[6]
        if delivered is not (labels[name][source] == labels[name][target]):
            problems.append(f"sweep row {row}: delivered disagrees with connectivity")
            return False
    digests.append(_digest(rows))
    if digests[-1] != digests[0]:
        problems.append("sweep row digest changed between repetitions of the same seed")
        return False
    return True


def _setup(root: str, seed: int, repeats: int):
    from repro.api import Session

    def once():
        import_seconds(root)
        return Session(), _request(seed)

    setup_s, (session, request) = timed_setups(repeats, once)
    return setup_s, session, request


def run(root: str, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    clock = ReferenceClock()
    setup_s, session, request = _setup(root, seed, 1 if trace else SETUP_REPEATS)
    labels = _labels(request)
    if trace:
        return _traced(session, request, labels, scratch)

    problems: List[str] = []
    digests: List[str] = []
    durations: List[float] = []
    failed = 0
    started = time.perf_counter()
    while not durations or time.perf_counter() - started < seconds:
        clock.probe()
        began = time.perf_counter()
        result = session.submit(request)
        durations.append(time.perf_counter() - began)
        failed += not _check(result, labels, digests, problems)

    sweep_s = median(durations)
    pairs = len(request.scenarios) * PAIRS
    # Throughput over the whole run, so a slow sweep counts in full here
    # while the median sweep time ignores it.
    pairs_per_s = pairs * len(durations) / sum(durations)
    scale = clock.scale
    outcome = Outcome(
        attempted=len(durations),
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "op_p50_ms": sweep_s * 1000.0 * scale,
            "work_per_s": pairs_per_s / scale,
            "peak_rss_mb": peak_rss_mb(),
        },
        problems=problems,
    )
    report = outcome.report
    note(report, "setup_s", setup_s, "s",
         f"median of {SETUP_REPEATS}, alternating cores: import + plan inputs")
    note(report, "sweep_s", sweep_s, "s",
         f"median of {len(durations)} sweeps, {WORKERS} cold workers, {pairs} pairs each")
    note(report, "sweep_pairs_per_s", pairs_per_s, "1/s",
         f"{pairs * len(durations)} pairs over the summed sweep time")
    note(report, "peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB", "largest process")
    note_scale(report, clock)
    return outcome


#: Sweeps in each half of a traced run.
TRACE_SWEEPS = 2


def _traced(session, request, labels, scratch: str) -> Outcome:
    """``TRACE_SWEEPS`` sweeps untraced, then as many traced."""
    import spans

    problems: List[str] = []
    digests: List[str] = []
    failed = 0
    untraced = 0.0
    for _ in range(TRACE_SWEEPS):
        began = time.perf_counter()
        result = session.submit(request)
        untraced += time.perf_counter() - began
        failed += not _check(result, labels, digests, problems)

    # Installed before the pool forks, so the workers inherit the wrappers
    # and write their spans out per process.
    tracer = spans.Tracer(out_dir=scratch)
    spans.install(tracer)
    traced = 0.0
    pool_overhead = 0.0
    recorded: list = []
    # The spans on each sweep's timeline: the slowest worker's.
    critical: list = []
    counts: Dict[str, float] = {}
    for _ in range(TRACE_SWEEPS):
        tracer.new_request()
        began = time.perf_counter()
        with tracer.span(spans.ROOT):
            result = session.submit(request)
        wall = time.perf_counter() - began
        traced += wall
        mine, my_counts = tracer.take()
        recorded += mine
        spans.merge_counts(counts, my_counts)
        by_worker: Dict[str, list] = {}
        for name in sorted(os.listdir(scratch)):
            if name.startswith("spans-"):
                path = os.path.join(scratch, name)
                worker_spans, worker_counts = spans.read_dump(path)
                os.remove(path)
                recorded += worker_spans
                spans.merge_counts(counts, worker_counts)
                # Written as spans-<pid>-<flush>.jsonl, one per shard group.
                by_worker.setdefault(name.split("-")[1], []).extend(worker_spans)
        busy = {pid: sum(span[3] - span[2] for span in worker_spans
                         if span[1] == "runner.worker_group")
                for pid, worker_spans in by_worker.items()}
        slowest = max(busy, key=busy.get) if busy else None
        if slowest is not None:
            critical += by_worker[slowest]
        pool_overhead += wall - busy.get(slowest, 0.0)
        failed += not _check(result, labels, digests, problems)

    metrics, report, trace_problems = spans.summarise(
        recorded, counts, untraced, traced,
        extra={"runner.pool_overhead_s": pool_overhead},
        residual="runner.pool_overhead_s", critical=critical,
    )
    return Outcome(attempted=2 * TRACE_SWEEPS, failed=failed, metrics=metrics,
                   report=report, problems=problems + trace_problems)
