"""Tests for the prepared routing engine and its array walk kernel.

The engine must be a pure representation change: every result it produces has
to agree step-for-step with the seed pipeline (re-reduce per call + dict-based
rotation walk).  That pipeline is the executable specification
:func:`repro.network.dynamics.reference_route`, so these tests pin the engine
to the original walk semantics rather than to its own output.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.engine import PreparedNetwork, prepare, route_many_multi
from repro.core.routing import RouteOutcome, route
from repro.errors import RoutingError
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_graph_network
from repro.network.dynamics import (
    DynamicOutcome,
    TopologySchedule,
    reference_route,
    reference_route_over_schedule,
)


def _assert_matches_reference(graph, source, target, provider, start_port=0):
    expected, _states = reference_route(
        graph, source, target, provider=provider, start_port=start_port
    )
    result = prepare(graph).route(source, target, provider=provider, start_port=start_port)
    assert result == expected


@pytest.mark.parametrize("target", [0, 3, 7, 15])
def test_engine_matches_seed_walk_on_grid(provider, grid_4x4, target):
    _assert_matches_reference(grid_4x4, 0, target, provider)


def test_engine_matches_seed_walk_on_lollipop(provider):
    graph = generators.lollipop_graph(4, 3)
    for target in graph.vertices:
        _assert_matches_reference(graph, 0, target, provider)


def test_engine_matches_seed_walk_on_disconnected(provider, two_components):
    _assert_matches_reference(two_components, 0, 8, provider)
    _assert_matches_reference(two_components, 5, 0, provider)


def test_engine_matches_seed_walk_for_nonexistent_target(provider, grid_4x4):
    _assert_matches_reference(grid_4x4, 0, 999, provider)


@pytest.mark.parametrize("start_port", [0, 1, 2])
def test_engine_matches_seed_walk_for_start_ports(provider, petersen, start_port):
    _assert_matches_reference(petersen, 0, 7, provider, start_port=start_port)


def test_route_wrapper_equals_engine_route(provider, grid_4x4):
    wrapped = route(grid_4x4, 0, 15, provider=provider)
    direct = prepare(grid_4x4).route(0, 15, provider=provider)
    assert wrapped == direct


def test_route_many_equals_individual_routes(provider, grid_4x4):
    pairs = [(0, 15), (3, 12), (5, 5), (0, 999)]
    engine = prepare(grid_4x4)
    batch = engine.route_many(pairs, provider=provider)
    singles = [engine.route(s, t, provider=provider) for s, t in pairs]
    assert batch == singles


def test_route_many_module_function(provider, grid_4x4):
    pairs = [(0, 15), (15, 0)]
    results = prepare(grid_4x4).route_many(pairs, provider=provider)
    assert [r.outcome for r in results] == [RouteOutcome.SUCCESS, RouteOutcome.SUCCESS]
    assert all(r.delivered for r in results)


def test_prepare_returns_shared_engine_per_graph(grid_4x4):
    assert prepare(grid_4x4) is prepare(grid_4x4)
    other = generators.grid_graph(4, 4)
    assert prepare(other) is not prepare(grid_4x4)


def test_prepare_accepts_network_wrapper(grid_network):
    assert prepare(grid_network) is prepare(grid_network.graph)


def test_prepare_rejects_non_graph():
    with pytest.raises(RoutingError):
        prepare(42)


def test_engine_route_validates_inputs(provider, grid_4x4):
    engine = prepare(grid_4x4)
    for route_call in (engine.route, partial(reference_route, grid_4x4)):
        with pytest.raises(RoutingError):
            route_call(999, 0, provider=provider)
        with pytest.raises(RoutingError):
            route_call(0, 1, provider=provider, size_bound=0)


def test_size_bound_below_the_component_fails_without_confirmation():
    """A bound below the source's reduced component is not Theorem 1's bound.

    The 10x10 grid's reduced component has 360 virtual nodes; ``T_4`` is far
    too short to explore it, so the connected pair ``0 -> 99`` comes back as
    FAILURE.  The spec agrees, and the schedule spec labels that verdict
    unsound: such a FAILURE confirms nothing.
    """
    grid = generators.grid_graph(10, 10)
    result = prepare(grid).route(0, 99, size_bound=4)
    spec, _states = reference_route(grid, 0, 99, size_bound=4)
    assert result == spec
    assert result.outcome is RouteOutcome.FAILURE
    assert (result.forward_virtual_steps, result.backward_virtual_steps) == (288, 246)
    verdict = reference_route_over_schedule(TopologySchedule.static(grid), 0, 99, size_bound=4)
    assert verdict.outcome is DynamicOutcome.REPORTED_FAILURE
    assert not verdict.sound


@pytest.mark.parametrize("start_port", [3, 7, -1, True, 1.5])
def test_start_port_outside_0_to_2_is_rejected_by_every_entry_point(provider, start_port):
    # The lockstep path seeds the walk state ``3 * gateway + start_port``, so
    # 64 pairs with start port 3 walked from another vertex than the scalar
    # loop does; every entry point that takes a start port now refuses it.
    engine = prepare(generators.grid_graph(12, 12))
    pairs = [(0, 143)] * 64
    calls = [
        lambda: engine.route(0, 143, provider=provider, start_port=start_port),
        lambda: reference_route(
            engine.graph, 0, 143, provider=provider, start_port=start_port
        ),
        lambda: engine.route_many(pairs, provider=provider, start_port=start_port),
        lambda: engine.reference_route_many(pairs, provider=provider, start_port=start_port),
        lambda: route_many_multi([(engine, pairs, None)], start_port=start_port),
        lambda: engine.broadcast_walk(0, provider=provider, start_port=start_port),
        lambda: engine.connectivity_walk(0, 143, provider=provider, start_port=start_port),
    ]
    for call in calls:
        with pytest.raises(RoutingError, match="start_port"):
            call()


def test_engine_resolve_size_bound_matches_component(grid_4x4, two_components):
    for graph in (grid_4x4, two_components):
        engine = prepare(graph)
        reduction = engine.reduction
        for vertex in graph.vertices:
            expected = len(connected_component(reduction.graph, reduction.gateway(vertex)))
            assert engine.resolve_size_bound(vertex) == expected
        assert engine.resolve_size_bound(graph.vertices[0], 17) == 17


def test_kernel_arrays_agree_with_reduction(grid_4x4, two_components):
    for graph in (grid_4x4, two_components, generators.star_graph(5)):
        engine = prepare(graph)
        kernel = engine.kernel
        reduction = engine.reduction
        reduced = reduction.graph
        for vertex in reduced.vertices:
            assert kernel.owner[vertex] == reduction.to_original(vertex)
            cluster = reduction.cluster(kernel.owner[vertex])
            assert kernel.physical_port[vertex] == cluster.index(vertex)
            for port in range(3):
                assert (
                    kernel.next_vertex[3 * vertex + port],
                    kernel.next_port[3 * vertex + port],
                ) == reduced.rotation(vertex, port)
        for original in graph.vertices:
            assert kernel.gateway(original) == reduction.gateway(original)


def test_kernel_steps_agree_with_exploration(provider, petersen):
    """Each spec step over the rotation map is one step over the kernel arrays.

    A failure walk with a short bound exhausts ``T_8`` and backtracks to the
    source, so every offset is stepped both ways.
    """
    engine = prepare(petersen)
    kernel = engine.kernel
    result, states = reference_route(petersen, 0, 999, provider=provider, size_bound=8)
    offsets = engine.offsets_for(8, provider)
    forward = result.forward_virtual_steps
    assert forward == len(offsets) and result.backward_virtual_steps > 0
    for index in range(forward):
        vertex, entry = states[index]
        edge = 3 * vertex + (entry + offsets[index]) % 3
        assert states[index + 1] == (kernel.next_vertex[edge], kernel.next_port[edge])
    for step in range(result.backward_virtual_steps):
        vertex, entry = states[forward + step]
        edge = 3 * vertex + entry
        previous_entry = (kernel.next_port[edge] - offsets[forward - step - 1]) % 3
        assert states[forward + step + 1] == (kernel.next_vertex[edge], previous_entry)
    assert kernel.owner[states[-1][0]] == 0


def test_engine_offsets_cached_per_provider(provider, grid_4x4):
    engine = prepare(grid_4x4)
    assert engine.offsets_for(16, provider) is engine.offsets_for(16, provider)
    assert tuple(engine.offsets_for(16, provider)) == tuple(
        provider.sequence_for(16)[i] for i in range(len(provider.sequence_for(16)))
    )


def test_cold_16x16_route_generates_only_a_short_prefix():
    """A cold route on a 16x16 grid reads ~3k of its 55,296,000 offsets.

    The pinned result is what the engine returned when it materialised the
    whole sequence up front as a tuple.  Counting generated offsets instead
    of timing the route keeps the check deterministic.
    """
    from repro.core.engine import clear_prepared_caches
    from repro.core.routing import RouteResult, default_provider

    clear_prepared_caches()
    result = prepare(generators.grid_graph(16, 16)).route(0, 255)
    assert result == RouteResult(
        outcome=RouteOutcome.SUCCESS,
        delivered=True,
        source=0,
        target=255,
        size_bound=960,
        sequence_length=55_296_000,
        forward_virtual_steps=2996,
        backward_virtual_steps=2723,
        physical_hops=1930,
        target_found_at_step=2996,
        header_bits=71,
    )
    stream = default_provider().sequence_for(960)
    assert len(stream) == 55_296_000
    assert len(stream.prefix) < 65_536


#: A fresh interpreter that imports the module set of perfbench's import probe
#: (``perfbench/common.py``: the API, the sweep runner, the lockstep kernels,
#: the result log and the daemon), then serves a cold route and an 8-pair
#: batch, neither of which is large enough for the lockstep kernels.
_COLD_ROUTE_IMPORT_PROBE = """
import json, sys
import repro.api, repro.analysis.runner, repro.core.batch_kernel
import repro.provenance.log, repro.server.app
from repro.analysis.experiments import ScenarioSpec
from repro.api import RouteBatchRequest, RouteRequest, Session

grid = ScenarioSpec(name="grid-16x16", family="grid", size=256)
session = Session()
route = session.submit(RouteRequest(scenario=grid, source=0, target=255))
batch = session.submit(RouteBatchRequest(scenario=grid, num_pairs=8))
print(json.dumps({
    "statuses": [route.status, batch.status],
    "numpy": sorted(name for name in sys.modules if name.split(".")[0] == "numpy"),
}))
"""


def test_cold_scalar_route_imports_no_numpy_module():
    """Importing the package and serving scalar routes loads no NumPy at all.

    NumPy loads on the first lockstep batch, not at import (~12 MB resident
    and ~0.1 s of start-up).  A fresh interpreter, so modules loaded by
    earlier tests cannot hide an import.
    """
    import json
    import os
    import pathlib
    import subprocess
    import sys

    source = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _COLD_ROUTE_IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    assert probe["statuses"] == ["success", "ok"]
    assert probe["numpy"] == []


def test_engine_original_component(two_components):
    engine = prepare(two_components)
    assert engine.original_component(0) == frozenset(connected_component(two_components, 0))
    assert engine.original_component(7) == frozenset(connected_component(two_components, 7))
    assert engine.original_component(0).isdisjoint(engine.original_component(7))


def test_explicit_engine_passed_to_protocol(provider, grid_network):
    from repro.core.routing import route_on_network

    engine = PreparedNetwork(grid_network.graph)
    result = route_on_network(grid_network, 0, 15, provider=provider, engine=engine)
    assert result.outcome is RouteOutcome.SUCCESS


def test_protocol_rejects_engine_for_other_graph(provider, grid_network):
    from repro.core.routing import route_on_network

    wrong_engine = PreparedNetwork(generators.path_graph(4))
    with pytest.raises(RoutingError):
        route_on_network(grid_network, 0, 15, provider=provider, engine=wrong_engine)
    with pytest.raises(RoutingError):
        route_on_network(grid_network, 0, 15, provider=provider, engine="not-an-engine")


def test_single_and_isolated_vertices(provider):
    graph = generators.path_graph(1)
    result = prepare(graph).route(0, 0, provider=provider)
    assert result.outcome is RouteOutcome.SUCCESS
    assert result.total_virtual_steps == 0

    lonely = generators.disjoint_union([generators.path_graph(2), generators.path_graph(1)])
    _assert_matches_reference(lonely, 2, 0, provider)
