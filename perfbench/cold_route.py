"""``cold-route``: the first route on a never-seen network, one client, closed loop.

Each operation clears the process-wide prepared caches, opens a fresh
in-process ``Session`` and submits one ``RouteRequest``, so the scenario
build, the kernel compile and the exploration-sequence materialisation are
all paid inside the timed call.  The catalogue is fixed (grid, torus, ring,
prism and unit-disk networks of 24-44 nodes whose reduced size bounds are
all distinct); the seed picks the source/target pair of every route.

Checks: a route is delivered exactly when source and target share a
component, and every cold result equals a warm re-route of the same request
(timing stripped).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import List, Tuple

from common import (
    SETUP_REPEATS,
    CoreAlternation,
    Outcome,
    ReferenceClock,
    components,
    import_seconds,
    median,
    note,
    note_scale,
    peak_rss_mb,
    percentile,
    rng_for,
    stripped_wire,
    timed_setups,
)

#: (family, size, radius, layout seed) — reduced bounds 48, 60, 72, 80, 88,
#: 100 and 110: no two routes share an exploration sequence.  Small enough
#: for a run to make ~15 passes, so every network gets a steady median.
CATALOGUE = (
    ("ring", 24, None, 0),
    ("ring", 30, None, 0),
    ("prism", 24, None, 0),
    ("grid", 25, None, 0),
    ("ring", 44, None, 0),
    ("torus", 25, None, 0),
    ("unit-disk", 24, 0.33, 1),
)


def _prepare_inputs():
    """Scenario specs with their vertex lists and component labels."""
    from repro.analysis.experiments import ScenarioSpec, build_scenario

    inputs = []
    for family, size, radius, layout in CATALOGUE:
        spec = ScenarioSpec(name=f"cold-{family}-{size}", family=family, size=size,
                            seed=layout, radius=radius)
        graph = build_scenario(spec).graph
        inputs.append((spec, sorted(graph.vertices), components(graph)))
    return inputs


def _pass_requests(inputs, seed: int, index: int):
    from repro.api import RouteRequest

    rng = rng_for(seed, "cold-route", index)
    requests = []
    for spec, vertices, labels in inputs:
        source, target = rng.sample(vertices, 2)
        requests.append((RouteRequest(scenario=spec, source=source, target=target),
                         labels[source] == labels[target]))
    return requests


def _cold(request, around=contextlib.nullcontext):
    """One cold route: empty caches, fresh session; returns (seconds, result, session).

    Only the submit is timed, inside the context ``around()`` gives.
    """
    from repro.api import Session
    from repro.core.engine import clear_prepared_caches

    clear_prepared_caches()
    session = Session()
    with around():
        started = time.perf_counter()
        result = session.submit(request)
        elapsed = time.perf_counter() - started
    return elapsed, result, session


def _check(request, connected: bool, result, session, problems: List[str]) -> bool:
    ok = True
    if result.payload.get("delivered") is not connected:
        problems.append(f"{request.scenario.name} {request.source}->{request.target}: "
                        f"delivered={result.payload.get('delivered')} but connected={connected}")
        ok = False
    if stripped_wire(session.submit(request)) != stripped_wire(result):
        problems.append(f"{request.scenario.name}: cold result differs from a warm re-route")
        ok = False
    return ok


def _setup(root: str, repeats: int) -> Tuple[float, list]:
    def once():
        import_seconds(root)
        return _prepare_inputs()

    return timed_setups(repeats, once)


def run(root: str, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    clock = ReferenceClock()
    setup_s, inputs = _setup(root, 1 if trace else SETUP_REPEATS)
    if trace:
        return _traced(inputs, seed)

    problems: List[str] = []
    per_network: List[List[float]] = [[] for _ in CATALOGUE]
    failed = 0
    started = time.perf_counter()
    index = 0
    with CoreAlternation() as cores:
        while index == 0 or time.perf_counter() - started < seconds:
            for position, (request, connected) in enumerate(_pass_requests(inputs, seed, index)):
                cores.next()
                clock.probe()
                elapsed, result, session = _cold(request)
                per_network[position].append(elapsed)
                if not _check(request, connected, result, session, problems):
                    failed += 1
            index += 1

    # Per-network medians first: a plain median over all routes would jump
    # between networks as the number of whole passes in a run changes.  Then
    # their geometric mean: the median of the seven picks one network, and
    # which one it picked changed from seed to seed.
    typical = [median(times) for times in per_network]
    p50 = statistics.geometric_mean(typical)
    total = sum(typical)
    durations = [elapsed for times in per_network for elapsed in times]
    scale = clock.scale
    outcome = Outcome(
        attempted=len(durations),
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "op_p50_ms": p50 * 1000.0 * scale,
            "work_per_s": len(CATALOGUE) / total / scale,
            "peak_rss_mb": peak_rss_mb(),
        },
        problems=problems,
    )
    report = outcome.report
    note(report, "setup_s", setup_s, "s",
         f"median of {SETUP_REPEATS}, alternating cores: import + scenario build")
    note(report, "cold_route_p50_s", p50, "s",
         f"geometric mean of the networks' medians, {index} passes of "
         f"{len(CATALOGUE)} networks")
    note(report, "cold_route_p90_s", percentile(durations, 90), "s",
         f"over all {len(durations)} cold routes")
    note(report, "cold_route_total_s", total, "s", "sum of the per-network medians")
    note(report, "peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB")
    note_scale(report, clock)
    return outcome


def _traced(inputs, seed: int) -> Outcome:
    """One pass untraced, then the same pass traced."""
    import spans

    requests = _pass_requests(inputs, seed, 0)
    problems: List[str] = []
    untraced = 0.0
    failed = 0
    for request, connected in requests:
        elapsed, result, session = _cold(request)
        untraced += elapsed
        failed += not _check(request, connected, result, session, problems)

    tracer = spans.Tracer()
    spans.install(tracer)
    results = []
    traced = 0.0
    for request, connected in requests:
        tracer.new_request()
        elapsed, result, session = _cold(request, lambda: tracer.span(spans.ROOT))
        traced += elapsed
        results.append((request, connected, result, session))
    recorded, counts = tracer.take()
    for request, connected, result, session in results:
        failed += not _check(request, connected, result, session, problems)
    tracer.take()

    metrics, report, trace_problems = spans.summarise(recorded, counts, untraced, traced)
    return Outcome(attempted=2 * len(requests), failed=failed, metrics=metrics,
                   report=report, problems=problems + trace_problems)
