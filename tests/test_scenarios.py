"""Tests for the heterogeneous/churn/streaming workload generator (``repro.scenarios``).

The subsystem's contract is replayability and boundedness, checked here with
hypothesis over random sizes/seeds/profiles:

* the same seed yields a bit-identical capability assignment, churn trace and
  streamed shard sequence — the properties a published run replays from;
* every schedule the generators compile passes ``validate_schedule`` and
  every snapshot respects every node's class degree budget;
* shard-local streamed routing is bit-identical to routing the materialised
  union, including pairs whose endpoints live in different shards;
* the namespace guard on mutated schedules names the offending snapshot.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.experiments as experiments
from repro.analysis.experiments import (
    ScenarioSpec,
    build_scenario,
    build_schedule,
    dynamic_schedule_scenarios,
    is_dynamic_scenario,
    is_streamed_scenario,
)
from repro.analysis.runner import SCHEDULE_ROUTER, plan_sweep, run_sweep
from repro.api import RouteRequest, ScheduleRouteRequest, Session
from repro.errors import ExperimentError, GraphStructureError
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import validate_schedule
from repro.scenarios import (
    CAPABILITY_CLASSES,
    ChurnTrace,
    StreamingGraphFamily,
    TopologyScheduleBuilder,
    assign_capabilities,
    assignment_for_spec,
    build_hetero_network,
    churn_scenarios,
    churn_trace,
    degree_budget_violations,
    family_from_spec,
    hetero_unit_disk_scenarios,
    materialise_union,
    mobility_scenarios,
    pick_streamed_pairs,
    profile_named,
    route_streamed_pairs,
    streamed_scenarios,
    waypoint_deployments,
)
from repro.scenarios.capabilities import _spec_deployment

_RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PROFILE_NAMES = st.sampled_from(sorted(CAPABILITY_CLASSES) + ["mixed"])


def _hetero_spec(family="hetero-unit-disk", size=18, seed=0, profile="mixed", **extra):
    extras = (("profile", profile),) + tuple(extra.items())
    return ScenarioSpec(
        name=f"t-{family}-{size}-{seed}-{profile}",
        family=family,
        size=size,
        seed=seed,
        radius=0.4,
        extra=extras,
    )


# --------------------------------------------------------------------------- #
# Seeded determinism: assignment, churn trace, shard stream
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    profile_name=_PROFILE_NAMES,
)
def test_capability_assignment_is_deterministic_and_total(n, seed, profile_name):
    profile = profile_named(profile_name)
    first = assign_capabilities(range(n), profile, seed=seed)
    second = assign_capabilities(range(n), profile, seed=seed)
    assert first == second
    assert sorted(first) == list(range(n))
    allowed = {name for name, _ in profile.mix}
    assert {capability.name for capability in first.values()} <= allowed


@_RELAXED
@given(
    n=st.integers(min_value=1, max_value=30),
    snapshots=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    profile_name=_PROFILE_NAMES,
)
def test_churn_trace_is_deterministic_and_starts_all_up(n, snapshots, seed, profile_name):
    assignment = assign_capabilities(range(n), profile_named(profile_name), seed=seed)
    first = churn_trace(assignment, snapshots, seed=seed)
    assert first == churn_trace(assignment, snapshots, seed=seed)
    assert first.snapshot_count == snapshots
    assert first.down_sets[0] == ()
    for down in first.down_sets:
        assert list(down) == sorted(down)
        assert set(down) <= set(range(n))


@_RELAXED
@given(
    size=st.integers(min_value=4, max_value=60),
    shard_size=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_streamed_shard_sequence_is_deterministic(size, shard_size, seed):
    def shards(family):
        return [graph for _, _, graph in family.iter_shards()]

    kwargs = dict(size=size, shard_size=shard_size, seed=seed, radius=0.4)
    assert shards(StreamingGraphFamily(kind="unit-disk", **kwargs)) == shards(
        StreamingGraphFamily(kind="unit-disk", **kwargs)
    )
    grid = StreamingGraphFamily(kind="grid", size=size, shard_size=shard_size, seed=seed)
    prototypes = shards(grid)
    # Structured kinds share one prototype object — the single-kernel cache key.
    assert all(graph is prototypes[0] for graph in prototypes)


def test_streamed_unit_disk_shards_vary_with_seed_and_index():
    family = StreamingGraphFamily(kind="unit-disk", size=40, shard_size=10, seed=0, radius=0.4)
    other_seed = StreamingGraphFamily(kind="unit-disk", size=40, shard_size=10, seed=1, radius=0.4)
    assert family.shard_count == 4
    assert family.shard_graph(0) != family.shard_graph(1)
    assert family.shard_graph(0) != other_seed.shard_graph(0)


# --------------------------------------------------------------------------- #
# Degree budgets and schedule validity
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    size=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    radius=st.floats(min_value=0.1, max_value=0.9),
    profile_name=_PROFILE_NAMES,
)
def test_hetero_graph_never_exceeds_degree_budgets(size, seed, radius, profile_name):
    spec = ScenarioSpec(
        name="t-hetero-prop",
        family="hetero-unit-disk",
        size=size,
        seed=seed,
        radius=radius,
        extra=(("profile", profile_name),),
    )
    network = build_hetero_network(spec)
    assignment = assignment_for_spec(spec)
    assert degree_budget_violations(network.graph, assignment) == []
    assert set(network.graph.vertices) == set(range(size))


@_RELAXED
@given(
    family=st.sampled_from(["churn", "mobility"]),
    size=st.integers(min_value=3, max_value=18),
    seed=st.integers(min_value=0, max_value=1_000),
    snapshots=st.integers(min_value=1, max_value=5),
)
def test_generated_schedules_validate_and_respect_budgets(family, size, seed, snapshots):
    spec = _hetero_spec(family=family, size=size, seed=seed, snapshots=snapshots, switch_every=4)
    assert is_dynamic_scenario(spec)
    schedule = build_schedule(spec)
    validate_schedule(schedule)
    assert build_schedule(spec) == schedule  # replayable
    assignment = assignment_for_spec(spec)
    base_vertices = set(schedule.snapshots[0].vertices)
    for snapshot in schedule.snapshots:
        assert set(snapshot.vertices) == base_vertices
        assert degree_budget_violations(snapshot, assignment) == []


def test_churn_snapshot_zero_is_the_static_base():
    spec = _hetero_spec(family="churn", size=20, seed=3, snapshots=4, switch_every=5)
    schedule = build_schedule(spec)
    assert schedule.snapshots[0] == build_scenario(spec).graph
    # Down nodes lose every link but keep their identity (link churn).  The
    # compiled schedule is delta-deduped, so look up the graph active at each
    # trace snapshot's switch time rather than zipping the snapshot tuples.
    trace = churn_trace(assignment_for_spec(spec), 4, seed=spec.seed)
    for index, down in enumerate(trace.down_sets):
        graph = schedule.active_at(index * 5)
        for node in down:
            assert graph.has_vertex(node)
            assert graph.degree(node) == 0


def test_pure_datacenter_mobility_compiles_to_a_static_schedule():
    spec = _hetero_spec(
        family="mobility", size=12, seed=1, profile="datacenter", snapshots=5, switch_every=4
    )
    schedule = build_schedule(spec)
    assert schedule.is_static


def test_waypoint_deployments_pin_zero_speed_nodes():
    spec = _hetero_spec(size=10, seed=2)
    deployment = _spec_deployment(spec)
    assignment = assignment_for_spec(spec)
    moved = waypoint_deployments(deployment, assignment, 4, seed=2)
    assert len(moved) == 4
    assert moved[0] is deployment
    for node, capability in assignment.items():
        if capability.speed == 0:
            assert all(step.position(node) == deployment.position(node) for step in moved)


# --------------------------------------------------------------------------- #
# The delta-only schedule builder
# --------------------------------------------------------------------------- #


def _path(vertices, edges):
    return LabeledGraph.from_edges(edges, vertices=vertices)


def test_builder_skips_no_delta_snapshots_and_canonicalises_repeats():
    a = _path(range(3), [(0, 1), (1, 2)])
    a_again = _path(range(3), [(0, 1), (1, 2)])
    b = _path(range(3), [(0, 1)])
    builder = TopologyScheduleBuilder(range(3))
    builder.add_graph(a, at_time=0)
    builder.add_graph(a_again, at_time=4)  # equal to the active one: dropped
    assert builder.materialised_count == 1
    builder.add_graph(b, at_time=8)
    builder.add_graph(a_again, at_time=12)  # equal to an *earlier* one: same object
    schedule = builder.build()
    assert schedule.switch_times == (0, 8, 12)
    assert schedule.snapshots[2] is schedule.snapshots[0]


def test_builder_rejects_bad_snapshots_and_times():
    a = _path(range(3), [(0, 1), (1, 2)])
    with pytest.raises(ExperimentError):
        TopologyScheduleBuilder([])
    builder = TopologyScheduleBuilder(range(3))
    with pytest.raises(GraphStructureError):
        builder.add_graph(_path(range(4), [(0, 1)]), at_time=0)
    with pytest.raises(ExperimentError):
        builder.add_graph(a, at_time=3)  # first snapshot must start at 0
    with pytest.raises(ExperimentError):
        builder.build()
    builder.add_graph(a, at_time=0)
    with pytest.raises(ExperimentError):
        builder.add_graph(_path(range(3), [(0, 1)]), at_time=0)


def test_churn_trace_validates_its_shape():
    with pytest.raises(ExperimentError):
        ChurnTrace(snapshot_count=2, down_sets=((),))
    with pytest.raises(ExperimentError):
        ChurnTrace(snapshot_count=1, down_sets=((3,),))
    with pytest.raises(ExperimentError):
        churn_trace({0: CAPABILITY_CLASSES["mobile"]}, 0)


# --------------------------------------------------------------------------- #
# Streamed routing parity with the materialised union
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "family",
    [
        StreamingGraphFamily(kind="grid", size=40, shard_size=9, seed=0),
        StreamingGraphFamily(kind="ring", size=24, shard_size=6, seed=0),
        StreamingGraphFamily(kind="unit-disk", size=24, shard_size=8, seed=2, radius=0.45),
    ],
)
def test_streamed_routing_matches_the_materialised_union(family):
    from repro.core.engine import prepare

    pairs = pick_streamed_pairs(family, 4, seed=7)
    assert pairs == pick_streamed_pairs(family, 4, seed=7)
    # Add a cross-shard pair: disconnected on the union, absent-target locally.
    pairs.append((0, family.shard_offset(family.shard_count - 1)))
    streamed = route_streamed_pairs(family, pairs)
    union = prepare(materialise_union(family)).route_many(
        pairs, namespace_size=family.total_vertices
    )
    assert streamed == union
    assert not streamed[-1].delivered


def test_pick_streamed_pairs_stay_inside_one_shard():
    family = StreamingGraphFamily(kind="grid", size=60, shard_size=9, seed=0)
    for source, target in pick_streamed_pairs(family, 20, seed=3):
        assert family.shard_of(source) == family.shard_of(target)
        assert source != target


def test_streamed_spec_round_trip_and_grid_helpers():
    specs = streamed_scenarios("streamed-torus", [30], shard_size=9, seeds=(0, 1))
    assert [spec.name for spec in specs] == [
        "streamed-torus-n30-s0",
        "streamed-torus-n30-s1",
    ]
    assert all(is_streamed_scenario(spec) for spec in specs)
    family = family_from_spec(specs[0])
    assert family.kind == "torus" and family.shard_size == 9
    with pytest.raises(ExperimentError):
        streamed_scenarios("streamed-hypercube", [30])
    with pytest.raises(ExperimentError):
        hetero_unit_disk_scenarios([10], radius=0.4, profile="no-such-profile")


# --------------------------------------------------------------------------- #
# Wiring: build_schedule guard, snapshot_count, sweep, API
# --------------------------------------------------------------------------- #


def test_mutated_schedule_namespace_guard_names_the_snapshot(monkeypatch):
    def drop_a_vertex(graph, mutation, rng):
        survivors = set(graph.vertices) - {0}
        return graph.induced_subgraph(survivors)

    monkeypatch.setattr(experiments, "_mutate_snapshot", drop_a_vertex)
    spec = ScenarioSpec(
        name="t-broken-mutation",
        family="grid",
        size=9,
        extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 4)),
    )
    with pytest.raises(GraphStructureError, match="snapshot 1"):
        build_schedule(spec)


def test_dynamic_schedule_scenarios_snapshot_count_and_legacy_alias():
    modern = dynamic_schedule_scenarios(families=("grid",), sizes=(9,), snapshot_count=5)
    assert dict(modern[0].extra)["snapshots"] == 5
    with pytest.raises(ExperimentError):
        dynamic_schedule_scenarios(families=("grid",), sizes=(9,), snapshot_count=0)


def test_churn_sweep_parallel_matches_inline():
    specs = churn_scenarios([14], radius=0.45, snapshot_count=3, switch_every=4)
    plan = plan_sweep(specs, pairs=2, master_seed=11)
    assert [shard.router for shard in plan.shards] == [SCHEDULE_ROUTER]
    serial = run_sweep(plan, workers=1)
    parallel = run_sweep(plan, workers=2)
    assert parallel.table.rows == serial.table.rows


def test_streamed_sweep_runs_engine_router_only():
    specs = streamed_scenarios("streamed-grid", [20], shard_size=9)
    plan = plan_sweep(specs, routers=("ues-engine", "flooding", "greedy"), pairs=2)
    assert [shard.router for shard in plan.shards] == ["ues-engine"]
    outcome = run_sweep(plan, workers=1)
    assert len(outcome.table.rows) == 2


def test_schedule_request_accepts_churn_and_session_routes_hetero():
    churn_spec = churn_scenarios([12], radius=0.45, snapshot_count=3, switch_every=4)[0]
    request = ScheduleRouteRequest(scenario=churn_spec, pairs=((0, 5),))
    session = Session()
    result = session.submit(request)
    assert result.backend == "inline"
    assert result.payload["num_snapshots"] == len(build_schedule(churn_spec).snapshots)

    hetero_spec = hetero_unit_disk_scenarios([12], radius=0.45)[0]
    route = session.submit(RouteRequest(scenario=hetero_spec, source=0, target=5))
    assert route.status in ("success", "failure")

    mobility_spec = mobility_scenarios([10], radius=0.45, snapshot_count=2)[0]
    assert is_dynamic_scenario(mobility_spec)
    ScheduleRouteRequest(scenario=mobility_spec, num_pairs=1)  # no TaskError
