"""``batch-warm``: large warm batches through the lockstep steppers, closed loop.

One in-process client submits rounds of a fixed four-request mix to one
``Session`` whose caches were filled during set-up:

* ``RouteBatchRequest`` of 512 pairs on a 49-node grid (``BatchedWalk``),
* ``RouteBatchRequest`` of 512 pairs on a 36-node torus (``BatchedWalk``),
* an inline ``SweepRequest(workers=1)`` over 8 warm scenarios x 32 pairs
  (``MultiGraphWalk``),
* a ``ScheduleRouteRequest`` of 256 pairs on a 49-node grid whose 4
  snapshots each drop an edge (``ScheduleBatchedWalk``).

Every scenario reduces to one of two size bounds (168 and 144), so set-up
materialises exactly two exploration sequences and the timed rounds
materialise none.  The seed picks every request's pairs.

Checks: a seeded sample of each request's pairs is routed again through the
scalar specification (``reference_route_many``) and must match.
"""

from __future__ import annotations

import time
from typing import List

from common import (
    SETUP_REPEATS,
    CoreAlternation,
    Outcome,
    ReferenceClock,
    derived_seed,
    import_seconds,
    median,
    note,
    note_scale,
    peak_rss_mb,
    percentile,
    rng_for,
    timed_setups,
)

BATCH_PAIRS = 512
SWEEP_PAIRS = 32
#: The smallest multiple of 64 above the schedule lockstep threshold.
SCHEDULE_PAIRS = 256
#: Pairs per request re-routed through the scalar specification.
SAMPLE = 6


def _specs():
    # The networks are fixed: the dropped edges of the schedule decide how
    # long its walks run, so a seeded schedule would change the work done.
    from repro.analysis.experiments import ScenarioSpec

    grid = ScenarioSpec(name="warm-grid-49", family="grid", size=49)
    torus = ScenarioSpec(name="warm-torus-36", family="torus", size=36)
    sweep = tuple(
        ScenarioSpec(name=f"warm-{family}-{size}-s{copy}", family=family, size=size, seed=copy)
        for copy in range(2)
        for family, size in (("grid", 49), ("torus", 36), ("ring", 84), ("ring", 72))
    )
    schedule = ScenarioSpec(
        name="warm-grid-49-drop", family="grid", size=49,
        extra=(("snapshots", 4), ("mutation", "drop-edge")),
    )
    return grid, torus, sweep, schedule


def _round(specs, seed: int, index: int):
    from repro.api import RouteBatchRequest, ScheduleRouteRequest, SweepRequest

    grid, torus, sweep, schedule = specs
    return [
        RouteBatchRequest(scenario=grid, num_pairs=BATCH_PAIRS,
                          pair_seed=derived_seed(seed, index, "grid")),
        RouteBatchRequest(scenario=torus, num_pairs=BATCH_PAIRS,
                          pair_seed=derived_seed(seed, index, "torus")),
        SweepRequest(scenarios=sweep, pairs=SWEEP_PAIRS,
                     master_seed=derived_seed(seed, index, "sweep"), workers=1),
        ScheduleRouteRequest(scenario=schedule, num_pairs=SCHEDULE_PAIRS,
                             pair_seed=derived_seed(seed, index, "schedule")),
    ]


def _pairs_routed(request) -> int:
    if hasattr(request, "scenarios"):
        return len(request.scenarios) * request.pairs
    return request.num_pairs


def _setup(root: str, seed: int, repeats: int):
    """Import, then fill every cache the timed rounds use (median of repeats)."""
    from repro.api import Session
    from repro.core.engine import clear_prepared_caches

    def once():
        import_seconds(root)
        clear_prepared_caches()
        session = Session()
        specs = _specs()
        for request in _round(specs, seed, -1):
            session.submit(request)
        return session, specs

    setup_s, (session, specs) = timed_setups(repeats, once)
    return setup_s, session, specs


def _check(request, result, seed: int, index: int, problems: List[str]) -> bool:
    """Compare a seeded sample of the result against the scalar specification."""
    from repro.analysis.experiments import build_scenario, build_schedule
    from repro.api.executors import dynamic_result_payload, route_result_payload
    from repro.core.engine import prepare, prepare_schedule

    rng = rng_for(seed, "sample", index, request.task)
    payload = result.payload
    if request.task == "sweep":
        rows = rng.sample(payload["rows"], SAMPLE)
        by_name = {spec.name: spec for spec in request.scenarios}
        for row in rows:
            name, _family, _size, _router, source, target, delivered, detected, hops, steps = row
            network = build_scenario(by_name[name])
            [expected] = prepare(network.graph).reference_route_many(
                [(source, target)], namespace_size=network.namespace_size)
            if [delivered, detected, hops, steps] != [
                expected.delivered, not expected.delivered,
                expected.physical_hops, expected.total_virtual_steps,
            ]:
                problems.append(f"sweep row {row} differs from reference_route_many")
                return False
        return True
    picks = rng.sample(range(len(payload["pairs"])), SAMPLE)
    pairs = [tuple(payload["pairs"][i]) for i in picks]
    if request.task == "route-schedule":
        engine = prepare_schedule(build_schedule(request.scenario))
        expected = [dynamic_result_payload(r) for r in engine.reference_route_many(pairs)]
    else:
        network = build_scenario(request.scenario)
        expected = [
            route_result_payload(r) for r in prepare(network.graph).reference_route_many(
                pairs, namespace_size=network.namespace_size)
        ]
    if [payload["results"][i] for i in picks] != expected:
        problems.append(f"{request.task} on {request.scenario.name}: sampled pairs differ "
                        "from reference_route_many")
        return False
    return True


def run(root: str, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    clock = ReferenceClock()
    setup_s, session, specs = _setup(root, seed, 1 if trace else SETUP_REPEATS)
    if trace:
        return _traced(session, specs, seed)

    problems: List[str] = []
    round_times: List[float] = []
    pairs = 0
    attempted = failed = 0
    started = time.perf_counter()
    index = 0
    with CoreAlternation() as cores:
        while index == 0 or time.perf_counter() - started < seconds:
            elapsed = 0.0
            cores.next()
            clock.probe()
            for request in _round(specs, seed, index):
                began = time.perf_counter()
                result = session.submit(request)
                elapsed += time.perf_counter() - began
                pairs += _pairs_routed(request)
                attempted += 1
                failed += not _check(request, result, seed, index, problems)
            round_times.append(elapsed)
            index += 1

    routes_per_s = pairs / sum(round_times)
    round_p50 = median(round_times)
    scale = clock.scale
    outcome = Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "op_p50_ms": round_p50 * 1000.0 * scale,
            "work_per_s": routes_per_s / scale,
            "peak_rss_mb": peak_rss_mb(),
        },
        problems=problems,
    )
    report = outcome.report
    note(report, "setup_s", setup_s, "s",
         f"median of {SETUP_REPEATS}, alternating cores: import + cache fill (sequence generation)")
    note(report, "batch_routes_per_s", routes_per_s, "1/s",
         f"{pairs} pairs in {len(round_times)} rounds of 4 requests")
    note(report, "round_p50_ms", round_p50 * 1000.0, "ms")
    note(report, "round_p90_ms", percentile(round_times, 90) * 1000.0, "ms")
    note(report, "peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB")
    note_scale(report, clock)
    return outcome


#: Rounds in each half of a traced run.
TRACE_ROUNDS = 8


def _traced(session, specs, seed: int) -> Outcome:
    """``TRACE_ROUNDS`` rounds untraced, then the same rounds traced."""
    import spans

    rounds = [_round(specs, seed, index) for index in range(TRACE_ROUNDS)]
    problems: List[str] = []
    failed = 0
    untraced = 0.0
    for index, requests in enumerate(rounds):
        for request in requests:
            began = time.perf_counter()
            result = session.submit(request)
            untraced += time.perf_counter() - began
            failed += not _check(request, result, seed, index, problems)

    tracer = spans.Tracer()
    spans.install(tracer)
    traced = 0.0
    results = []
    for index, requests in enumerate(rounds):
        for request in requests:
            tracer.new_request()
            began = time.perf_counter()
            with tracer.span(spans.ROOT):
                result = session.submit(request)
            traced += time.perf_counter() - began
            results.append((index, request, result))
    recorded, counts = tracer.take()
    for index, request, result in results:
        failed += not _check(request, result, seed, index, problems)
    tracer.take()

    metrics, report, trace_problems = spans.summarise(recorded, counts, untraced, traced)
    return Outcome(attempted=2 * len(results), failed=failed, metrics=metrics,
                   report=report, problems=problems + trace_problems)
