"""Session facade and backend behaviour of the unified task API."""

from __future__ import annotations

import pytest

from repro.analysis.conformance import conformance_pass
from repro.analysis.experiments import (
    ScenarioSpec,
    build_scenario,
    build_schedule,
    pick_source_target_pairs,
    structured_scenarios,
)
from repro.analysis.runner import plan_sweep, run_sweep
from repro.api import (
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    Session,
    SweepRequest,
)
from repro.api.envelope import from_wire, to_wire
from repro.api.executors import dynamic_result_payload, route_result_payload
from repro.core.broadcast import broadcast
from repro.core.counting import count_nodes
from repro.core.engine import prepare
from repro.core.stconnectivity import exploration_connectivity
from repro.errors import ExperimentError, RoutingError, TaskError
from repro.network.dynamics import reference_route_over_schedule

GRID = ScenarioSpec(name="api-grid-16", family="grid", size=16, seed=0)
RINGS = ScenarioSpec(name="api-two-rings-10", family="two-rings", size=10, seed=0)
DYN = ScenarioSpec(
    name="api-dyn-grid-12",
    family="grid",
    size=12,
    seed=0,
    extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 5)),
)


@pytest.fixture()
def session():
    return Session()


def test_route_submission_matches_engine(session):
    network = build_scenario(GRID)
    expected = prepare(network.graph).route(0, 15, namespace_size=network.namespace_size)
    result = session.submit(RouteRequest(scenario=GRID, source=0, target=15))
    assert result.task == "route"
    assert result.backend == "inline"
    assert result.status == expected.outcome.value == "success"
    assert result.payload == route_result_payload(expected)
    assert result.physical_steps == expected.physical_hops
    assert result.virtual_steps == expected.total_virtual_steps
    assert result.seed == GRID.seed
    assert result.ok


def test_route_failure_is_a_result_not_an_error(session):
    result = session.submit(RouteRequest(scenario=RINGS, source=0, target=9))
    # two-rings is deliberately disconnected for far-apart vertices; whatever
    # the verdict, the envelope reports it as a status, never an exception.
    assert result.status in ("success", "failure")
    assert result.payload["delivered"] == (result.status == "success")


def test_batch_inline_matches_engine_route_many(session):
    network = build_scenario(GRID)
    pairs = pick_source_target_pairs(network, 6, seed=3)
    expected = prepare(network.graph).route_many(
        pairs, namespace_size=network.namespace_size
    )
    result = session.submit(
        RouteBatchRequest(scenario=GRID, num_pairs=6, pair_seed=3)
    )
    assert result.payload["pairs"] == [[s, t] for s, t in pairs]
    assert result.payload["results"] == [route_result_payload(r) for r in expected]
    assert result.payload["delivered"] == sum(1 for r in expected if r.delivered)
    assert result.seed == 3


def test_batch_with_a_target_that_is_no_vertex_is_a_failure_result(session):
    # Enough pairs for the lockstep path, which used to raise OverflowError
    # out of the session for a target beyond int32.
    spec = ScenarioSpec(name="api-grid-144", family="grid", size=144, seed=0)
    pairs = ((0, 2**40),) * 64
    result = session.submit(RouteBatchRequest(scenario=spec, pairs=pairs, size_bound=8))
    network = build_scenario(spec)
    expected = prepare(network.graph).reference_route_many(
        pairs, size_bound=8, namespace_size=network.namespace_size
    )
    assert result.payload["results"] == [route_result_payload(r) for r in expected]
    assert result.payload["delivered"] == 0


def test_batch_process_pool_matches_inline(session):
    request = RouteBatchRequest(scenario=GRID, num_pairs=8, pair_seed=1)
    inline = session.submit(request, backend="inline")
    pooled = session.submit(request, backend="process-pool")
    assert pooled.backend == "process-pool"
    assert pooled.status == inline.status
    assert pooled.payload == inline.payload
    assert pooled.physical_steps == inline.physical_steps
    assert pooled.virtual_steps == inline.virtual_steps


def test_explicit_pairs_override_random_selection(session):
    result = session.submit(
        RouteBatchRequest(scenario=GRID, pairs=((0, 15), (2, 7)))
    )
    assert result.payload["pairs"] == [[0, 15], [2, 7]]
    assert len(result.payload["results"]) == 2


def test_schedule_submission_matches_reference(session):
    schedule = build_schedule(DYN)
    result = session.submit(
        ScheduleRouteRequest(scenario=DYN, pairs=((0, 11), (3, 8)))
    )
    assert result.backend == "inline"
    for (source, target), payload in zip(
        [(0, 11), (3, 8)], result.payload["results"]
    ):
        reference = reference_route_over_schedule(schedule, source, target)
        assert payload == dynamic_result_payload(reference)
    assert result.payload["num_snapshots"] == 3


def test_legacy_schedule_backend_id_runs_inline(session):
    request = ScheduleRouteRequest(scenario=DYN, pairs=((0, 11), (3, 8)))
    legacy = session.submit(request, backend="schedule")
    assert legacy.backend == "inline"
    assert legacy.replace_timing(0.0) == session.submit(request).replace_timing(0.0)


def test_schedule_request_rejects_static_scenario():
    with pytest.raises(TaskError):
        ScheduleRouteRequest(scenario=GRID, num_pairs=2)


def test_broadcast_submission_matches_legacy(session):
    network = build_scenario(GRID)
    expected = broadcast(network.graph, 0, namespace_size=network.namespace_size)
    result = session.submit(BroadcastRequest(scenario=GRID, source=0))
    assert result.status == "covered"
    assert result.payload["reached"] == sorted(expected.reached)
    assert result.payload["component_size"] == expected.component_size
    assert result.payload["physical_hops"] == expected.physical_hops
    assert result.payload["header_bits"] == expected.header_bits


def test_count_submission_matches_legacy(session):
    network = build_scenario(GRID)
    expected = count_nodes(network.graph, 0)
    result = session.submit(CountRequest(scenario=GRID, source=0))
    assert result.payload["original_count"] == expected.original_count
    assert result.payload["virtual_count"] == expected.virtual_count
    assert result.payload["rounds"] == expected.rounds
    assert result.virtual_steps == expected.walk_steps


def test_connectivity_submission_matches_legacy(session):
    network = build_scenario(RINGS)
    expected = exploration_connectivity(network.graph, 0, 2)
    result = session.submit(ConnectivityRequest(scenario=RINGS, source=0, target=2))
    assert result.status == ("connected" if expected.connected else "disconnected")
    assert result.payload["walk_steps"] == expected.walk_steps
    assert result.payload["size_bound"] == expected.size_bound


def test_compare_submission_reports_all_applicable_routers(session):
    result = session.submit(CompareRequest(scenario=GRID, num_pairs=2, pair_seed=4))
    names = [row[0] for row in result.payload["rows"]]
    assert names[0] == "ues-route"
    assert "flooding" in names and "dfs-token" in names
    assert "greedy" not in names  # no deployment on a structured family


def test_sweep_inline_matches_legacy_run_sweep(session):
    scenarios = structured_scenarios("grid", [9], seeds=(0, 1))
    request = SweepRequest(
        scenarios=tuple(scenarios),
        routers=("ues-engine", "flooding"),
        pairs=2,
        master_seed=5,
    )
    legacy = run_sweep(
        plan_sweep(
            scenarios, routers=("ues-engine", "flooding"), pairs=2, master_seed=5,
            experiment="api-sweep",
        ),
        workers=1,
    )
    result = session.submit(request, backend="inline")
    assert result.backend == "inline"
    assert result.payload["rows"] == [list(row) for row in legacy.table.rows]
    assert result.payload["shards_total"] == legacy.shards_total


def test_sweep_process_pool_matches_inline(session):
    scenarios = tuple(structured_scenarios("ring", [8], seeds=(0, 1)))
    inline = session.submit(
        SweepRequest(scenarios=scenarios, pairs=2, master_seed=2, workers=1)
    )
    pooled = session.submit(
        SweepRequest(scenarios=scenarios, pairs=2, master_seed=2, workers=2)
    )
    assert pooled.backend == "process-pool"
    # workers is part of the request, so strip it for the comparison: the
    # rows, shard accounting and status must be identical.
    assert pooled.payload["rows"] == inline.payload["rows"]
    assert pooled.payload["shards_total"] == inline.payload["shards_total"]
    assert pooled.status == inline.status == "ok"


def test_conformance_submission_matches_legacy(session):
    scenarios = (GRID, RINGS)
    legacy = conformance_pass(scenarios=list(scenarios), pairs_per_scenario=2, seed=0)
    result = session.submit(
        ConformanceRequest(scenarios=scenarios, pairs_per_scenario=2, seed=0)
    )
    assert result.status == "ok"
    assert result.payload["ok"] is True
    assert result.payload["rows"] == [list(row) for row in legacy.rows]
    assert result.payload["checks"] == legacy.checks


def test_submit_many_shares_session_state(session):
    requests = [
        RouteRequest(scenario=GRID, source=0, target=15),
        CountRequest(scenario=GRID, source=0),
        BroadcastRequest(scenario=GRID, source=0),
    ]
    results = session.submit_many(requests)
    assert [r.task for r in results] == ["route", "count", "broadcast"]
    info = session.cache_info()
    # One scenario build, two hits: the session reused its materialised network.
    assert info["session_misses"] == 1
    assert info["session_hits"] == 2
    assert info["session_tasks"] == 3


def test_list_scenario_extra_is_refused_at_the_wire():
    # ``extra`` values are JSON scalars, so the wire cannot deliver a spec
    # that is unhashable and so cannot key the session's scenario cache.
    wire = to_wire(RouteRequest(scenario=GRID, source=0, target=15))
    wire["fields"]["scenario"]["extra"] = [["tags", [1, 2]]]
    with pytest.raises(TaskError, match="'extra' must be"):
        from_wire(wire)


def test_cache_info_reports_session_and_process_counters(session):
    session.submit(RouteRequest(scenario=GRID, source=0, target=15))
    info = session.cache_info()
    for key in (
        "engines",
        "engine_hits",
        "engine_misses",
        "offset_entries",
        "session_networks",
        "session_hits",
        "session_misses",
        "session_tasks",
    ):
        assert key in info, key


def test_unknown_backend_raises(session):
    with pytest.raises(TaskError):
        session.submit(RouteRequest(scenario=GRID, source=0, target=1), backend="gpu")


def test_backend_rejects_unsupported_request_type(session):
    with pytest.raises(TaskError):
        session.submit(
            RouteRequest(scenario=GRID, source=0, target=1), backend="process-pool"
        )
    with pytest.raises(TaskError):
        session.submit(
            BroadcastRequest(scenario=GRID, source=0), backend="schedule"
        )


def test_default_backend_routing(session):
    assert session.backend_for(RouteRequest(scenario=GRID, source=0, target=1)) == "inline"
    assert session.backend_for(ScheduleRouteRequest(scenario=DYN)) == "inline"
    assert (
        session.backend_for(SweepRequest(scenarios=(GRID,))) == "process-pool"
    )
    assert session.backend_for(ConformanceRequest()) == "process-pool"


# --------------------------------------------------------------------------- #
# Degenerate batches through the pooled chunking path
# --------------------------------------------------------------------------- #


def test_pooled_batch_with_explicit_empty_pairs_is_valid_and_empty():
    # pairs=() is a legal request (explicit pairs override num_pairs); the
    # chunker must degenerate to zero chunks, not divide by zero or hang.
    request = RouteBatchRequest(scenario=GRID, pairs=())
    session = Session()
    inline = session.submit(request, backend="inline")
    pooled = session.submit(request, backend="process-pool")
    assert inline.payload["results"] == [] == pooled.payload["results"]
    assert inline.payload == pooled.payload
    assert pooled.payload["delivered"] == 0


@pytest.mark.parametrize("num_pairs", [1, 2, 3])
def test_pooled_batch_with_fewer_pairs_than_workers_matches_inline(num_pairs):
    # Worker count must clamp to len(pairs): with the default pool width
    # larger than the batch, every chunk still holds >= 1 pair and the
    # reassembled order is the inline order.
    from repro.api.backends import ProcessPoolBackend

    session = Session(
        backends={
            "inline": Session().backends["inline"],
            "process-pool": ProcessPoolBackend(workers=4),
        }
    )
    request = RouteBatchRequest(scenario=GRID, num_pairs=num_pairs, pair_seed=5)
    inline = session.submit(request, backend="inline")
    pooled = session.submit(request, backend="process-pool")
    assert len(inline.payload["results"]) == num_pairs
    assert inline.payload == pooled.payload


@pytest.mark.parametrize("bad", [True, 2.5, "7"])
def test_hostile_optional_numeric_fields_are_structured_errors(session, bad):
    # A size bound of 2.5 used to raise AttributeError in the sequence
    # provider and "7" a TypeError; ``True`` silently routed with bound 1.
    # The same for namespace sizes and radii that are not numbers.
    grid = ScenarioSpec(name="hostile", family="grid", size=9)
    dynamic = ScenarioSpec(
        name="hostile-drop", family="grid", size=9,
        extra=(("snapshots", 2), ("mutation", "drop-edge")),
    )
    requests = [
        RouteRequest(scenario=grid, source=0, target=8, size_bound=bad),
        RouteBatchRequest(scenario=grid, num_pairs=40, pair_seed=1, size_bound=bad),
        ScheduleRouteRequest(scenario=dynamic, num_pairs=3, size_bound=bad),
    ]
    for request in requests:
        with pytest.raises(RoutingError, match="size_bound must be an integer"):
            session.submit(request)
    spec = ScenarioSpec(name="hostile-ns", family="grid", size=9, namespace_size=bad)
    with pytest.raises(ExperimentError, match="namespace_size must be an integer"):
        session.submit(RouteRequest(scenario=spec, source=0, target=8))
    if not isinstance(bad, float):
        spec = ScenarioSpec(name="hostile-r", family="unit-disk", size=9, radius=bad)
        with pytest.raises(ExperimentError, match="radius must be a real number"):
            session.submit(RouteRequest(scenario=spec, source=0, target=8))


@pytest.mark.parametrize("size", [0, -4])
def test_scenario_size_below_one_is_rejected(session, size):
    # size -4 used to reach the grid builder and raise TypeError (a complex
    # square root); size 0 silently routed on a default-size grid.
    spec = ScenarioSpec(name="bad-size", family="grid", size=size)
    with pytest.raises(ExperimentError, match="size must be >= 1"):
        build_scenario(spec)
    with pytest.raises(ExperimentError, match="size must be >= 1"):
        session.submit(RouteRequest(scenario=spec, source=0, target=1))
