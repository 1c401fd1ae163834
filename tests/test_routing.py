"""Tests for Algorithm ``Route`` — the centralised walker (Theorem 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import RouteOutcome, route
from repro.core.universal import RandomSequenceProvider
from repro.errors import RoutingError
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_unit_disk_network


TOPOLOGIES = {
    "grid": generators.grid_graph(4, 4),
    "ring": generators.cycle_graph(11),
    "prism": generators.prism_graph(6),
    "tree": generators.binary_tree(3),
    "star": generators.star_graph(8),
    "lollipop": generators.lollipop_graph(5, 4),
    "petersen": generators.petersen_graph(),
}


@pytest.mark.parametrize("name,graph", TOPOLOGIES.items(), ids=list(TOPOLOGIES))
def test_route_delivers_on_connected_topologies(name, graph, provider):
    source = graph.vertices[0]
    target = graph.vertices[-1]
    result = route(graph, source, target, provider=provider)
    assert result.outcome is RouteOutcome.SUCCESS
    assert result.delivered
    assert result.target_found_at_step is not None
    assert result.physical_hops >= 1
    assert result.confirmed


def test_route_to_self_costs_nothing(provider, grid_4x4):
    result = route(grid_4x4, 5, 5, provider=provider)
    assert result.outcome is RouteOutcome.SUCCESS
    assert result.physical_hops == 0
    assert result.forward_virtual_steps == 0
    assert result.target_found_at_step == 0


def test_route_reports_failure_across_components(provider, two_components):
    result = route(two_components, 0, 8, provider=provider)
    assert result.outcome is RouteOutcome.FAILURE
    assert not result.delivered
    # The failure is only announced after the whole sequence was exhausted and
    # the walk backtracked: the cost is on the order of twice the sequence.
    assert result.forward_virtual_steps == result.sequence_length


def test_route_to_nonexistent_target_fails_cleanly(provider, grid_4x4):
    result = route(grid_4x4, 0, 10_000, provider=provider)
    assert result.outcome is RouteOutcome.FAILURE
    assert not result.delivered


def test_route_unknown_source_raises(provider, grid_4x4):
    with pytest.raises(RoutingError):
        route(grid_4x4, 999, 0, provider=provider)


def test_route_size_bound_validation(provider, grid_4x4):
    with pytest.raises(RoutingError):
        route(grid_4x4, 0, 5, provider=provider, size_bound=0)


def test_route_uses_component_size_as_default_bound(provider, two_components):
    result = route(two_components, 0, 3, provider=provider)
    # Component of vertex 0 is a 5-cycle: reduced size is 10 virtual nodes.
    assert result.size_bound == 10
    assert result.outcome is RouteOutcome.SUCCESS


def test_route_respects_explicit_size_bound(provider, grid_4x4):
    generous = route(grid_4x4, 0, 15, provider=provider, size_bound=128)
    assert generous.outcome is RouteOutcome.SUCCESS
    assert generous.size_bound == 128
    assert generous.sequence_length == provider.length_for(128)


def test_route_with_insufficient_bound_still_returns_confirmation(grid_4x4):
    # A deliberately tiny bound gives a sequence too short to cover the grid;
    # the algorithm must still terminate and report failure at the source
    # (this models choosing n too small before CountNodes is run).
    short_provider = RandomSequenceProvider(seed=1, length_fn=lambda n: 4)
    result = route(grid_4x4, 0, 15, provider=short_provider, size_bound=2)
    assert result.outcome in (RouteOutcome.SUCCESS, RouteOutcome.FAILURE)
    assert result.forward_virtual_steps <= 4


def test_route_backtrack_cost_bounded_by_forward_cost(provider, grid_4x4):
    result = route(grid_4x4, 0, 12, provider=provider)
    assert result.backward_virtual_steps <= result.forward_virtual_steps
    assert result.total_virtual_steps == (
        result.forward_virtual_steps + result.backward_virtual_steps
    )


def test_route_header_bits_logarithmic_in_namespace(provider, grid_4x4):
    small = route(grid_4x4, 0, 15, provider=provider, namespace_size=2 ** 8)
    large = route(grid_4x4, 0, 15, provider=provider, namespace_size=2 ** 32)
    assert large.header_bits > small.header_bits
    # Doubling the name width adds exactly 2 * 24 bits (two name fields).
    assert large.header_bits - small.header_bits == 2 * (32 - 8)


def test_route_deterministic_for_fixed_provider(provider, grid_4x4):
    a = route(grid_4x4, 1, 14, provider=provider)
    b = route(grid_4x4, 1, 14, provider=provider)
    assert a == b


def test_route_start_port_changes_walk_but_not_outcome(provider, prism_6):
    a = route(prism_6, 0, 7, provider=provider, start_port=0)
    b = route(prism_6, 0, 7, provider=provider, start_port=2)
    assert a.outcome is RouteOutcome.SUCCESS and b.outcome is RouteOutcome.SUCCESS


def test_route_on_unit_disk_network(provider):
    network = build_unit_disk_network(30, radius=0.3, seed=2)
    source = network.graph.vertices[0]
    component = connected_component(network.graph, source)
    inside = [v for v in component if v != source]
    outside = [v for v in network.graph.vertices if v not in component]
    if inside:
        ok = route(network.graph, source, inside[-1], provider=provider)
        assert ok.outcome is RouteOutcome.SUCCESS
    if outside:
        fail = route(network.graph, source, outside[0], provider=provider)
        assert fail.outcome is RouteOutcome.FAILURE


def test_route_success_on_every_target_in_component(provider):
    graph = generators.grid_graph(3, 3)
    for target in graph.vertices:
        result = route(graph, 0, target, provider=provider)
        assert result.outcome is RouteOutcome.SUCCESS, f"target {target}"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200))
def test_property_route_outcome_matches_reachability(seed, provider):
    graph = generators.erdos_renyi_graph(12, 0.18, seed=seed)
    source, target = 0, 11
    result = route(graph, source, target, provider=provider)
    reachable = target in connected_component(graph, source)
    assert result.delivered == reachable
    assert (result.outcome is RouteOutcome.SUCCESS) == reachable


def test_route_result_init_is_its_fields_in_order_and_stays_frozen():
    # RouteResult writes its __init__ out for speed; it must still take
    # exactly the dataclass fields, in order, with their defaults.
    import dataclasses
    import inspect
    import pickle

    from repro.core.routing import RouteResult

    parameters = list(inspect.signature(RouteResult).parameters.values())
    fields = dataclasses.fields(RouteResult)
    assert [p.name for p in parameters] == [f.name for f in fields]
    assert [p.default for p in parameters] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields
    ]
    result = RouteResult(RouteOutcome.SUCCESS, True, 0, 3, 8, 96, 5, 2, 4, 5, 21)
    assert result.node_memory_high_water_bits == 0 and result.simulation is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.physical_hops = 0
    assert dataclasses.replace(result, physical_hops=0).physical_hops == 0
    assert pickle.loads(pickle.dumps(result)) == result
    assert hash(result) == hash(RouteResult(**dataclasses.asdict(result)))
