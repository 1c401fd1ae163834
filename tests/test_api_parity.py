"""Differential parity: the task API reproduces every legacy entry point.

The acceptance contract of the unified API: for every task type,
``Session.submit`` through each applicable backend produces results identical
— status, payload, step accounting — to the corresponding legacy entry point,
evaluated over the conformance :class:`~repro.analysis.experiments.ScenarioSpec`
matrix (the same scenario families the differential conformance harness
checks the routers against).
"""

from __future__ import annotations

import pytest

from repro.analysis.conformance import conformance_pass, default_conformance_matrix
from repro.analysis.experiments import (
    build_scenario,
    build_schedule,
    is_dynamic_scenario,
    pick_source_target_pairs,
)
from repro.analysis.runner import plan_sweep, run_sweep
from repro.api import (
    BroadcastRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    Session,
    SweepRequest,
)
from repro.api.executors import dynamic_result_payload, route_result_payload
from repro.core.broadcast import broadcast
from repro.core.counting import count_nodes
from repro.core.engine import prepare
from repro.core.stconnectivity import exploration_connectivity
from repro.network.dynamics import reference_route_over_schedule

_MATRIX = default_conformance_matrix()
_STATIC = [spec for spec in _MATRIX if not is_dynamic_scenario(spec)]
_DYNAMIC = [spec for spec in _MATRIX if is_dynamic_scenario(spec)]
_PAIRS_PER_SCENARIO = 2


@pytest.fixture(scope="module")
def session():
    # One session across the matrix: also exercises cross-scenario cache reuse.
    return Session()


@pytest.mark.parametrize("spec", _STATIC, ids=lambda spec: spec.name)
def test_route_task_parity(spec, session):
    network = build_scenario(spec)
    engine = prepare(network.graph)
    for source, target in pick_source_target_pairs(network, _PAIRS_PER_SCENARIO, seed=0):
        expected = engine.route(source, target, namespace_size=network.namespace_size)
        result = session.submit(RouteRequest(scenario=spec, source=source, target=target))
        assert result.status == expected.outcome.value
        assert result.payload == route_result_payload(expected)
        assert result.physical_steps == expected.physical_hops
        assert result.virtual_steps == expected.total_virtual_steps


@pytest.mark.parametrize("spec", _STATIC, ids=lambda spec: spec.name)
def test_route_batch_task_parity_on_both_backends(spec, session):
    network = build_scenario(spec)
    pairs = pick_source_target_pairs(network, _PAIRS_PER_SCENARIO, seed=1)
    expected = prepare(network.graph).route_many(
        pairs, namespace_size=network.namespace_size
    )
    request = RouteBatchRequest(scenario=spec, num_pairs=_PAIRS_PER_SCENARIO, pair_seed=1)
    for backend in ("inline", "process-pool"):
        result = session.submit(request, backend=backend)
        assert result.backend == backend
        assert result.status == "ok"
        assert result.payload["results"] == [route_result_payload(r) for r in expected]
        assert result.payload["pairs"] == [[s, t] for s, t in pairs]


@pytest.mark.parametrize("spec", _STATIC, ids=lambda spec: spec.name)
def test_broadcast_count_connectivity_task_parity(spec, session):
    network = build_scenario(spec)
    graph = network.graph
    source = list(graph.vertices)[0]
    target = list(graph.vertices)[-1]

    expected_broadcast = broadcast(graph, source, namespace_size=network.namespace_size)
    broadcast_result = session.submit(BroadcastRequest(scenario=spec, source=source))
    assert broadcast_result.payload["reached"] == sorted(expected_broadcast.reached)
    assert broadcast_result.payload["covered_component"] == expected_broadcast.covered_component
    assert broadcast_result.physical_steps == expected_broadcast.physical_hops

    expected_count = count_nodes(graph, source)
    count_result = session.submit(CountRequest(scenario=spec, source=source))
    assert count_result.payload["virtual_count"] == expected_count.virtual_count
    assert count_result.payload["original_count"] == expected_count.original_count
    assert count_result.virtual_steps == expected_count.walk_steps

    expected_answer = exploration_connectivity(graph, source, target)
    connectivity_result = session.submit(
        ConnectivityRequest(scenario=spec, source=source, target=target)
    )
    assert connectivity_result.status == (
        "connected" if expected_answer.connected else "disconnected"
    )
    assert connectivity_result.payload["walk_steps"] == expected_answer.walk_steps
    assert connectivity_result.payload["connected"] == expected_answer.connected


@pytest.mark.parametrize("spec", _DYNAMIC, ids=lambda spec: spec.name)
def test_schedule_task_parity(spec, session):
    schedule = build_schedule(spec)
    vertices = list(schedule.snapshots[0].vertices)
    pairs = ((vertices[0], vertices[-1]), (vertices[1], vertices[0]))
    result = session.submit(ScheduleRouteRequest(scenario=spec, pairs=pairs))
    assert result.backend == "inline"
    for (source, target), payload in zip(pairs, result.payload["results"]):
        reference = reference_route_over_schedule(schedule, source, target)
        assert payload == dynamic_result_payload(reference)


def test_sweep_task_parity_across_backends(session):
    # The full matrix (static + dynamic: the planner routes dynamic specs to
    # the schedule walker) against the legacy orchestrator, then pooled
    # against inline.
    request = SweepRequest(
        scenarios=tuple(_MATRIX),
        routers=("ues-engine", "flooding"),
        pairs=_PAIRS_PER_SCENARIO,
        master_seed=9,
        workers=2,
    )
    legacy = run_sweep(
        plan_sweep(
            list(_MATRIX),
            routers=("ues-engine", "flooding"),
            pairs=_PAIRS_PER_SCENARIO,
            master_seed=9,
            experiment="api-sweep",
        ),
        workers=1,
    )
    inline = session.submit(request, backend="inline")
    pooled = session.submit(request, backend="process-pool")
    assert inline.payload["rows"] == [list(row) for row in legacy.table.rows]
    assert pooled.payload["rows"] == inline.payload["rows"]
    assert pooled.payload["shards_total"] == legacy.shards_total


def test_conformance_task_parity_across_backends(session):
    scenarios = tuple(_STATIC[:3]) + tuple(_DYNAMIC[:1])
    legacy = conformance_pass(
        scenarios=list(scenarios), pairs_per_scenario=_PAIRS_PER_SCENARIO, seed=0
    )
    request = ConformanceRequest(
        scenarios=scenarios, pairs_per_scenario=_PAIRS_PER_SCENARIO, seed=0, workers=2
    )
    inline = session.submit(request, backend="inline")
    pooled = session.submit(request, backend="process-pool")
    for result in (inline, pooled):
        assert result.status == ("ok" if legacy.ok else "violations")
        assert result.payload["rows"] == [list(row) for row in legacy.rows]
        assert result.payload["checks"] == legacy.checks
    assert inline.payload["violations"] == pooled.payload["violations"] == []
