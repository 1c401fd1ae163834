"""Tests for broadcasting along the exploration sequence."""

from __future__ import annotations

import pytest

from repro.core.broadcast import broadcast, broadcast_on_network
from repro.core.routing import RouteOutcome
from repro.errors import RoutingError
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_graph_network


def test_broadcast_covers_connected_graph(provider, grid_4x4):
    result = broadcast(grid_4x4, 0, provider=provider)
    assert result.covered_component
    assert result.reached == frozenset(grid_4x4.vertices)
    assert result.reach_count == 16
    assert result.component_size == 16


def test_broadcast_limited_to_source_component(provider, two_components):
    result = broadcast(two_components, 0, provider=provider)
    assert result.covered_component
    assert result.reached == frozenset({0, 1, 2, 3, 4})
    assert result.component_size == 5


def test_broadcast_single_vertex(provider):
    graph = generators.path_graph(1)
    result = broadcast(graph, 0, provider=provider)
    assert result.covered_component
    assert result.reach_count == 1
    assert result.physical_hops == 0


def test_broadcast_unknown_source_raises(provider, grid_4x4):
    with pytest.raises(RoutingError):
        broadcast(grid_4x4, 999, provider=provider)


def test_broadcast_cost_equals_sequence_length(provider, prism_6):
    result = broadcast(prism_6, 0, provider=provider)
    assert result.virtual_steps == result.sequence_length
    assert result.physical_hops <= result.sequence_length


def test_broadcast_on_various_topologies(provider):
    for graph in (
        generators.star_graph(7),
        generators.binary_tree(3),
        generators.lollipop_graph(4, 4),
        generators.cycle_graph(9),
    ):
        result = broadcast(graph, graph.vertices[0], provider=provider)
        assert result.covered_component, graph


def test_distributed_broadcast_delivers_everywhere(provider, grid_network):
    result = broadcast_on_network(grid_network, 0, provider=provider, payload="news")
    assert result.covered_component
    assert result.reached == frozenset(grid_network.graph.vertices)
    deliveries = result.simulation.deliveries
    delivered_nodes = {record.node for record in deliveries}
    assert delivered_nodes == set(grid_network.graph.vertices)
    # Each node hands the payload to its application exactly once.
    assert len(deliveries) == grid_network.num_nodes


def test_distributed_broadcast_source_learns_completion(provider, grid_network):
    result = broadcast_on_network(grid_network, 5, provider=provider)
    assert result.simulation.result_at(5) is RouteOutcome.SUCCESS


def test_distributed_broadcast_disconnected(provider, two_components):
    network = build_graph_network(two_components)
    result = broadcast_on_network(network, 5, provider=provider)
    assert result.covered_component
    assert result.reached == frozenset({5, 6, 7, 8})


def test_distributed_broadcast_memory_is_one_bit(provider, grid_network):
    from repro.core.broadcast import BroadcastProtocol

    protocol = BroadcastProtocol(grid_network, source=0, provider=provider)
    simulator = grid_network.simulator(node_memory_bits=8)
    simulator.run(protocol, initiators=[0], max_events=4 * len(protocol._sequence) + 64)
    # The only per-node state is the single "already delivered" bit.
    assert simulator.memory_high_water_bits() == 1


def test_the_two_broadcasts_count_header_bits_and_hops_differently(provider):
    # Pinned, not a defect: ``broadcast`` results are served and replayed,
    # so its accounting must not move (see the ``BroadcastResult`` docstring).
    graph = generators.grid_graph(3, 3)
    central = broadcast(graph, 0, provider=provider)
    distributed = broadcast_on_network(build_graph_network(graph), 0, provider=provider)
    assert central.reached == distributed.reached == frozenset(graph.vertices)
    assert central.sequence_length == distributed.sequence_length == 17280
    name_bits, index_bits = 4, (17280).bit_length()
    # ``broadcast`` reports the route header: source, target, dir, status,
    # index, size bound.  The protocol's messages carry the broadcast
    # header: source, dir, index, size bound.
    assert central.header_bits == 2 * name_bits + 1 + 2 + 2 * index_bits == 41
    assert distributed.header_bits == name_bits + 1 + 2 * index_bits == 35
    # ``broadcast`` counts the forward walk's hops; the protocol also counts
    # the transmissions of the backtrack to the source.
    assert central.physical_hops == 5783
    assert distributed.physical_hops == 5804
