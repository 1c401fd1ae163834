"""Unit tests for the topology generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.connectivity import is_connected
from repro.graphs.properties import degree_histogram, is_simple


def test_path_graph_shape():
    graph = generators.path_graph(5)
    assert graph.num_vertices == 5
    assert graph.num_edges == 4
    assert degree_histogram(graph) == {1: 2, 2: 3}


def test_path_graph_single_vertex():
    graph = generators.path_graph(1)
    assert graph.num_vertices == 1
    assert graph.num_edges == 0


def test_cycle_graph_is_2_regular_and_connected():
    graph = generators.cycle_graph(7)
    assert graph.is_regular(2)
    assert is_connected(graph)
    assert graph.num_edges == 7


def test_complete_graph_edge_count():
    graph = generators.complete_graph(6)
    assert graph.num_edges == 15
    assert graph.is_regular(5)


def test_star_graph_degrees():
    graph = generators.star_graph(7)
    assert graph.degree(0) == 7
    assert all(graph.degree(leaf) == 1 for leaf in range(1, 8))


def test_grid_graph_structure():
    graph = generators.grid_graph(3, 4)
    assert graph.num_vertices == 12
    assert graph.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
    assert is_connected(graph)
    assert max(degree_histogram(graph)) == 4


def test_torus_graph_is_4_regular():
    graph = generators.torus_graph(4, 5)
    assert graph.num_vertices == 20
    assert graph.is_regular(4)
    assert is_connected(graph)


def test_binary_tree_sizes():
    graph = generators.binary_tree(3)
    assert graph.num_vertices == 15
    assert graph.num_edges == 14
    assert is_connected(graph)


def test_prism_graph_is_cubic():
    graph = generators.prism_graph(5)
    assert graph.num_vertices == 10
    assert graph.is_regular(3)
    assert is_connected(graph)
    assert is_simple(graph)


def test_petersen_and_moebius_kantor_are_cubic():
    petersen = generators.petersen_graph()
    assert petersen.num_vertices == 10 and petersen.is_regular(3)
    mk = generators.moebius_kantor_graph()
    assert mk.num_vertices == 16 and mk.is_regular(3)
    assert is_connected(petersen) and is_connected(mk)


def test_lollipop_graph_shape():
    graph = generators.lollipop_graph(5, 4)
    assert graph.num_vertices == 9
    assert is_connected(graph)
    # The path tail ends in a degree-1 vertex.
    assert degree_histogram(graph)[1] == 1


def test_circulant_graph_structure():
    graph = generators.circulant_graph(10, offsets=(1, 2))
    assert graph.is_regular(4)
    assert is_connected(graph)
    assert graph.has_edge(0, 2) and graph.has_edge(0, 9)
    with pytest.raises(GraphStructureError):
        generators.circulant_graph(2)
    with pytest.raises(GraphStructureError):
        generators.circulant_graph(8, offsets=(0,))
    with pytest.raises(GraphStructureError):
        generators.circulant_graph(8, offsets=(1, 1))


def test_random_regular_graph_is_regular():
    graph = generators.random_regular_graph(14, 3, seed=4)
    assert graph.is_regular(3)
    assert graph.num_vertices == 14


def test_random_regular_graph_rejects_odd_product():
    with pytest.raises(GraphStructureError):
        generators.random_regular_graph(7, 3)


def test_random_regular_graph_deterministic_per_seed():
    a = generators.random_regular_graph(12, 3, seed=9)
    b = generators.random_regular_graph(12, 3, seed=9)
    assert a == b


def test_erdos_renyi_deterministic_and_bounded():
    a = generators.erdos_renyi_graph(20, 0.2, seed=3)
    b = generators.erdos_renyi_graph(20, 0.2, seed=3)
    assert a == b
    assert a.num_vertices == 20
    assert a.num_edges <= 190


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(GraphStructureError):
        generators.erdos_renyi_graph(5, 1.5)


def test_random_tree_is_tree():
    graph = generators.random_tree(17, seed=2)
    assert graph.num_vertices == 17
    assert graph.num_edges == 16
    assert is_connected(graph)


def test_disjoint_union_sizes_and_disconnection():
    graph = generators.disjoint_union(
        [generators.cycle_graph(4), generators.path_graph(3), generators.complete_graph(3)]
    )
    assert graph.num_vertices == 10
    assert not is_connected(graph)


def test_generator_argument_validation():
    with pytest.raises(GraphStructureError):
        generators.cycle_graph(2)
    with pytest.raises(GraphStructureError):
        generators.grid_graph(0, 3)
    with pytest.raises(GraphStructureError):
        generators.prism_graph(2)
    with pytest.raises(GraphStructureError):
        generators.lollipop_graph(2, 1)
    with pytest.raises(GraphStructureError):
        generators.star_graph(0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_property_cycles_are_connected_2_regular(n):
    graph = generators.cycle_graph(n)
    assert graph.is_regular(2)
    assert is_connected(graph)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(min_value=1, max_value=5), cols=st.integers(min_value=1, max_value=5))
def test_property_grids_have_expected_edge_count(rows, cols):
    graph = generators.grid_graph(rows, cols)
    assert graph.num_vertices == rows * cols
    assert graph.num_edges == rows * (cols - 1) + cols * (rows - 1)
    assert is_connected(graph)
