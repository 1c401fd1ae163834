"""Tests for node deployments and unit-disk graph construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.deployment import (
    Deployment,
    clustered_deployment,
    grid_deployment,
    random_deployment,
)
from repro.geometry.points import Point
from repro.geometry.unit_disk import unit_disk_edges, unit_disk_graph
from repro.graphs.connectivity import is_connected


def test_random_deployment_determinism_and_bounds():
    a = random_deployment(20, seed=4)
    b = random_deployment(20, seed=4)
    assert a.positions == b.positions
    for node in a:
        p = a.position(node)
        assert 0 <= p.x <= 1 and 0 <= p.y <= 1


def test_random_deployment_3d():
    d = random_deployment(10, dimension=3, seed=1)
    assert d.dimension == 3
    assert all(0 <= d.position(i).z <= 1 for i in d)


def test_random_deployment_validation():
    with pytest.raises(GeometryError):
        random_deployment(0)
    with pytest.raises(GeometryError):
        random_deployment(5, dimension=4)


def test_grid_deployment_positions():
    d = grid_deployment(2, 3, spacing=2.0)
    assert len(d) == 6
    assert d.position(0) == Point.planar(0, 0)
    assert d.position(5) == Point.planar(4.0, 2.0)


def test_clustered_deployment_counts():
    d = clustered_deployment(3, 4, seed=2)
    assert len(d) == 12
    assert d.dimension == 2


def test_deployment_requires_consistent_dimension():
    with pytest.raises(GeometryError):
        Deployment({0: Point.planar(0, 0), 1: Point.spatial(1, 1, 1)})
    with pytest.raises(GeometryError):
        Deployment({})


def test_deployment_lookups():
    d = grid_deployment(2, 2)
    assert d.distance(0, 1) == pytest.approx(1.0)
    assert d.nearest_node(Point.planar(0.9, 0.1)) == 1
    assert set(d.node_ids) == {0, 1, 2, 3}
    with pytest.raises(GeometryError):
        d.position(99)


def test_pairwise_distances_and_bounding_box():
    d = grid_deployment(2, 2)
    distances = d.pairwise_distances()
    assert len(distances) == 6
    assert distances[(0, 3)] == pytest.approx(2 ** 0.5)
    box = d.bounding_box()
    assert box == ((0.0, 1.0), (0.0, 1.0))


def test_unit_disk_graph_grid_radius_one():
    d = grid_deployment(3, 3)
    graph = unit_disk_graph(d, radius=1.0)
    assert graph.num_vertices == 9
    assert graph.num_edges == 12  # only axis-aligned neighbours
    assert is_connected(graph)


def test_unit_disk_graph_larger_radius_adds_diagonals():
    d = grid_deployment(3, 3)
    graph = unit_disk_graph(d, radius=1.5)
    assert graph.num_edges > 12


def test_unit_disk_graph_small_radius_disconnects():
    d = grid_deployment(2, 2)
    graph = unit_disk_graph(d, radius=0.5)
    assert graph.num_edges == 0
    assert not is_connected(graph)


def test_unit_disk_edges_requires_positive_radius():
    d = grid_deployment(2, 2)
    with pytest.raises(GeometryError):
        unit_disk_edges(d, 0.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=25), seed=st.integers(min_value=0, max_value=100))
def test_property_unit_disk_graph_edges_monotone_in_radius(n, seed):
    d = random_deployment(n, seed=seed)
    small = unit_disk_graph(d, radius=0.2)
    large = unit_disk_graph(d, radius=0.5)
    assert small.num_edges <= large.num_edges
    full = unit_disk_graph(d, radius=2.0)
    assert full.num_edges == n * (n - 1) // 2
