"""Tests for connectivity helpers (components, shortest paths, BFS trees)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.connectivity import (
    are_connected,
    connected_component,
    connected_components,
    is_connected,
    shortest_path,
    shortest_path_lengths,
)
from repro.graphs.labeled_graph import LabeledGraph


def test_connected_component_of_connected_graph_is_everything(grid_4x4):
    assert connected_component(grid_4x4, 0) == set(grid_4x4.vertices)


def test_connected_component_respects_disconnection(two_components):
    component = connected_component(two_components, 0)
    assert len(component) == 5
    assert component == {0, 1, 2, 3, 4}


def test_connected_components_ordering(two_components):
    components = connected_components(two_components)
    assert [len(c) for c in components] == [5, 4]


def test_is_connected(grid_4x4, two_components):
    assert is_connected(grid_4x4)
    assert not is_connected(two_components)


def test_are_connected(two_components):
    assert are_connected(two_components, 0, 4)
    assert not are_connected(two_components, 0, 7)


def test_empty_graph_is_connected():
    empty = LabeledGraph({})
    assert is_connected(empty)
    assert connected_components(empty) == []


def test_shortest_path_lengths_grid():
    grid = generators.grid_graph(3, 3)
    distances = shortest_path_lengths(grid, 0)
    assert distances[0] == 0
    assert distances[8] == 4
    assert len(distances) == 9


def test_shortest_path_endpoints_and_length():
    grid = generators.grid_graph(3, 3)
    path = shortest_path(grid, 0, 8)
    assert path is not None
    assert path[0] == 0 and path[-1] == 8
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert grid.has_edge(a, b)


def test_shortest_path_same_vertex():
    grid = generators.grid_graph(2, 2)
    assert shortest_path(grid, 3, 3) == [3]


def test_shortest_path_unreachable_returns_none(two_components):
    assert shortest_path(two_components, 0, 6) is None


def test_shortest_path_unknown_vertex_raises(grid_4x4):
    with pytest.raises(GraphStructureError):
        shortest_path(grid_4x4, 0, 999)
    with pytest.raises(GraphStructureError):
        connected_component(grid_4x4, 999)
    with pytest.raises(GraphStructureError):
        shortest_path_lengths(grid_4x4, 999)


def test_isolated_vertex_component():
    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    assert connected_component(graph, 2) == {2}
    assert [len(c) for c in connected_components(graph)] == [2, 1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=20))
def test_property_path_graph_distances_are_indices(n):
    path = generators.path_graph(n)
    distances = shortest_path_lengths(path, 0)
    assert distances == {v: v for v in range(n)}


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=15), k=st.integers(min_value=0, max_value=50))
def test_property_cycle_distance_is_min_of_two_ways(n, k):
    cycle = generators.cycle_graph(n)
    target = k % n
    distances = shortest_path_lengths(cycle, 0)
    assert distances[target] == min(target, n - target)
