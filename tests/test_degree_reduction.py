"""Tests for the Fig. 1 degree reduction (arbitrary graph -> 3-regular)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.connectivity import are_connected, connected_component, is_connected
from repro.graphs.degree_reduction import (
    CYCLE_NEXT_PORT,
    CYCLE_PREV_PORT,
    EXTERNAL_PORT,
    reduce_to_three_regular,
)
from repro.graphs.labeled_graph import LabeledGraph


TOPOLOGIES = [
    generators.path_graph(6),
    generators.cycle_graph(7),
    generators.star_graph(5),
    generators.grid_graph(3, 4),
    generators.complete_graph(5),
    generators.binary_tree(3),
    generators.petersen_graph(),
    generators.lollipop_graph(4, 3),
]


@pytest.mark.parametrize("graph", TOPOLOGIES, ids=lambda g: f"n{g.num_vertices}m{g.num_edges}")
def test_reduction_is_three_regular(graph):
    reduced = reduce_to_three_regular(graph)
    assert reduced.graph.is_regular(3)


@pytest.mark.parametrize("graph", TOPOLOGIES, ids=lambda g: f"n{g.num_vertices}m{g.num_edges}")
def test_reduction_preserves_connectivity_pattern(graph):
    reduction = reduce_to_three_regular(graph)
    for u in graph.vertices:
        for v in graph.vertices:
            same_component = are_connected(graph, u, v)
            reduced_same = are_connected(
                reduction.graph, reduction.gateway(u), reduction.gateway(v)
            )
            assert same_component == reduced_same


def test_cluster_sizes_follow_fig1():
    graph = generators.star_graph(4)  # centre degree 4, leaves degree 1
    reduction = reduce_to_three_regular(graph)
    assert reduction.cluster_size(0) == 4
    for leaf in range(1, 5):
        assert reduction.cluster_size(leaf) == 1
    assert reduction.virtual_vertex_count() == 4 + 4


def test_cluster_of_degree_two_vertex_has_two_members():
    graph = generators.cycle_graph(5)
    reduction = reduce_to_three_regular(graph)
    for v in graph.vertices:
        assert reduction.cluster_size(v) == 2


def test_blowup_is_at_most_max_degree():
    graph = generators.complete_graph(6)
    reduction = reduce_to_three_regular(graph)
    assert reduction.blowup_factor <= graph.max_degree()
    assert reduction.graph.num_vertices == 6 * 5


def test_blowup_never_exceeds_squaring():
    for graph in TOPOLOGIES:
        reduction = reduce_to_three_regular(graph)
        assert reduction.graph.num_vertices <= max(1, graph.num_vertices ** 2)


def test_external_edges_match_original_edges():
    graph = generators.grid_graph(3, 3)
    reduction = reduce_to_three_regular(graph)
    assert reduction.external_edge_count() == graph.num_edges


def test_round_trip_original_lookup():
    graph = generators.grid_graph(2, 3)
    reduction = reduce_to_three_regular(graph)
    for v in graph.vertices:
        for virtual in reduction.cluster(v):
            assert reduction.to_original(virtual) == v
            assert reduction.simulates(virtual, v)
    assert not reduction.simulates(reduction.cluster(0)[0], 1)


def test_gateway_is_first_cluster_member():
    graph = generators.path_graph(4)
    reduction = reduce_to_three_regular(graph)
    for v in graph.vertices:
        assert reduction.gateway(v) == reduction.cluster(v)[0]


def test_carrier_maps_ports_to_virtual_nodes():
    graph = generators.star_graph(4)
    reduction = reduce_to_three_regular(graph)
    centre_cluster = reduction.cluster(0)
    for port in range(graph.degree(0)):
        carrier = reduction.carrier(0, port)
        assert carrier == centre_cluster[port]
        # The carrier's external port must lead to the cluster of the
        # neighbour that original port pointed to.
        neighbor = graph.neighbor(0, port)
        other, other_port = reduction.graph.rotation(carrier, EXTERNAL_PORT)
        assert other_port == EXTERNAL_PORT
        assert reduction.to_original(other) == neighbor


def test_carrier_rejects_bad_port():
    graph = generators.star_graph(4)
    reduction = reduce_to_three_regular(graph)
    with pytest.raises(GraphStructureError):
        reduction.carrier(0, 99)


def test_isolated_vertex_becomes_loop_cluster():
    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    reduction = reduce_to_three_regular(graph)
    assert reduction.graph.is_regular(3)
    assert reduction.cluster_size(2) == 1
    # The isolated cluster stays its own component.
    isolated = reduction.gateway(2)
    assert connected_component(reduction.graph, isolated) == {isolated}
    rest = connected_component(reduction.graph, reduction.gateway(0))
    assert len(rest) == reduction.graph.num_vertices - 1


def test_degree_one_vertex_gets_self_loop():
    graph = generators.path_graph(2)
    reduction = reduce_to_three_regular(graph)
    assert reduction.graph.is_regular(3)
    assert reduction.graph.self_loop_count() >= 2


def test_intra_cluster_cycle_structure_for_high_degree():
    graph = generators.star_graph(5)
    reduction = reduce_to_three_regular(graph)
    cluster = reduction.cluster(0)
    assert len(cluster) == 5
    # Ports 1/2 of consecutive cluster members are wired as a cycle.
    for k, member in enumerate(cluster):
        nxt, nxt_port = reduction.graph.rotation(member, CYCLE_NEXT_PORT)
        assert nxt == cluster[(k + 1) % len(cluster)]
        assert nxt_port == CYCLE_PREV_PORT


def test_unknown_vertex_lookups_raise():
    graph = generators.cycle_graph(4)
    reduction = reduce_to_three_regular(graph)
    with pytest.raises(GraphStructureError):
        reduction.gateway(99)
    with pytest.raises(GraphStructureError):
        reduction.cluster(99)
    with pytest.raises(GraphStructureError):
        reduction.to_original(10_000)


def test_reduction_of_already_cubic_graph_keeps_vertex_per_port():
    graph = generators.prism_graph(4)
    reduction = reduce_to_three_regular(graph)
    # A 3-regular input still expands (each vertex becomes a 3-cycle), but the
    # component structure and regularity are preserved.
    assert reduction.graph.num_vertices == 3 * graph.num_vertices
    assert is_connected(reduction.graph)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=14), p=st.floats(min_value=0.1, max_value=0.7),
       seed=st.integers(min_value=0, max_value=500))
def test_property_reduction_regular_and_connectivity_preserving(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    graph = LabeledGraph.from_edges(edges, vertices=range(n))
    reduction = reduce_to_three_regular(graph)
    assert reduction.graph.is_regular(3)
    # Each vertex's reduced component is exactly the clusters of its
    # original component, so the two graphs have the same components.
    for vertex in graph.vertices:
        reduced = connected_component(reduction.graph, reduction.gateway(vertex))
        owners = {reduction.to_original(virtual) for virtual in reduced}
        assert owners == connected_component(graph, vertex)
