"""Tests for the baseline routing algorithms."""

from __future__ import annotations

import pytest

from repro.baselines.base import RoutingAttempt
from repro.baselines.dfs_routing import dfs_token_route
from repro.baselines.flooding import flood_broadcast, flood_route
from repro.baselines.greedy_geo import greedy_geographic_route
from repro.baselines.face_routing import gfg_route
from repro.baselines.random_walk_routing import random_walk_route
from repro.errors import GeometryError, RoutingError
from repro.geometry.deployment import Deployment, grid_deployment
from repro.geometry.points import Point
from repro.geometry.unit_disk import unit_disk_graph
from repro.graphs import generators
from repro.graphs.connectivity import are_connected, shortest_path
from repro.network.adhoc import build_unit_disk_network


# --------------------------------------------------------------------------- #
# Random-walk routing
# --------------------------------------------------------------------------- #


def test_random_walk_route_reaches_reachable_target(grid_4x4):
    attempt = random_walk_route(grid_4x4, 0, 15, seed=1)
    assert attempt.delivered
    assert attempt.path[0] == 0 and attempt.path[-1] == 15
    assert attempt.hops == len(attempt.path) - 1
    assert attempt.per_node_state_bits == 0


def test_random_walk_route_source_is_target(grid_4x4):
    attempt = random_walk_route(grid_4x4, 3, 3)
    assert attempt.delivered and attempt.hops == 0


def test_random_walk_route_cannot_detect_failure(two_components):
    attempt = random_walk_route(two_components, 0, 8, max_steps=300, seed=0)
    assert not attempt.delivered
    assert not attempt.detected_failure  # the silent-failure defect


def test_random_walk_route_isolated_source():
    from repro.graphs.labeled_graph import LabeledGraph

    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    attempt = random_walk_route(graph, 2, 0)
    assert not attempt.delivered and attempt.hops == 0


def test_random_walk_route_unknown_source(grid_4x4):
    with pytest.raises(RoutingError):
        random_walk_route(grid_4x4, 999, 0)


# --------------------------------------------------------------------------- #
# Flooding
# --------------------------------------------------------------------------- #


def test_flood_broadcast_reaches_component(two_components):
    flood = flood_broadcast(two_components, 0)
    assert flood.reached == frozenset({0, 1, 2, 3, 4})
    assert flood.per_node_state_bits == 1
    assert flood.transmissions == sum(
        two_components.degree(v) for v in flood.reached
    )


def test_flood_broadcast_rounds_equal_eccentricity_plus_one():
    path = generators.path_graph(5)
    flood = flood_broadcast(path, 0)
    assert flood.rounds == 5


def test_flood_route_delivers_and_detects_failure(two_components):
    ok = flood_route(two_components, 0, 3)
    assert ok.delivered
    fail = flood_route(two_components, 0, 7)
    assert not fail.delivered
    assert fail.detected_failure


def test_flood_route_cost_counts_all_transmissions(grid_4x4):
    attempt = flood_route(grid_4x4, 0, 15)
    assert attempt.delivered
    assert attempt.hops == sum(grid_4x4.degree(v) for v in grid_4x4.vertices)


# --------------------------------------------------------------------------- #
# Greedy geographic routing
# --------------------------------------------------------------------------- #


def test_greedy_delivers_on_dense_grid_deployment():
    deployment = grid_deployment(4, 4)
    graph = unit_disk_graph(deployment, radius=1.5)
    attempt = greedy_geographic_route(graph, deployment, 0, 15)
    assert attempt.delivered
    shortest = shortest_path(graph, 0, 15)
    assert attempt.hops >= len(shortest) - 1


def test_greedy_gets_stuck_in_void():
    # A "C"-shaped deployment: the target is geometrically close but the only
    # path goes around; greedy walks into the void and detects it is stuck.
    positions = {
        0: Point.planar(0.0, 0.0),   # source
        1: Point.planar(1.0, 0.0),
        2: Point.planar(2.0, 0.0),
        3: Point.planar(2.0, 1.0),
        4: Point.planar(2.0, 2.0),
        5: Point.planar(1.0, 2.0),
        6: Point.planar(0.0, 2.0),   # target: straight above the source
    }
    deployment = Deployment(positions)
    graph = unit_disk_graph(deployment, radius=1.1)
    attempt = greedy_geographic_route(graph, deployment, 0, 6)
    assert not attempt.delivered
    assert attempt.detected_failure
    assert "local minimum" in attempt.notes


def test_greedy_requires_target_position():
    deployment = grid_deployment(2, 2)
    graph = unit_disk_graph(deployment, radius=1.0)
    with pytest.raises(RoutingError):
        greedy_geographic_route(graph, deployment, 0, 99)


# --------------------------------------------------------------------------- #
# GFG / face routing
# --------------------------------------------------------------------------- #


def test_gfg_recovers_from_void_where_greedy_fails():
    positions = {
        0: Point.planar(0.0, 0.0),
        1: Point.planar(1.0, 0.0),
        2: Point.planar(2.0, 0.0),
        3: Point.planar(2.0, 1.0),
        4: Point.planar(2.0, 2.0),
        5: Point.planar(1.0, 2.0),
        6: Point.planar(0.0, 2.0),
    }
    deployment = Deployment(positions)
    graph = unit_disk_graph(deployment, radius=1.1)
    greedy = greedy_geographic_route(graph, deployment, 0, 6)
    gfg = gfg_route(graph, deployment, 0, 6)
    assert not greedy.delivered
    assert gfg.delivered


def test_gfg_delivers_on_connected_unit_disk_networks(provider):
    delivered = 0
    attempted = 0
    for seed in range(4):
        network = build_unit_disk_network(22, radius=0.45, seed=seed)
        graph, deployment = network.graph, network.deployment
        source, target = 0, network.num_nodes - 1
        if not are_connected(graph, source, target):
            continue
        attempted += 1
        if gfg_route(graph, deployment, source, target).delivered:
            delivered += 1
    assert attempted > 0
    assert delivered == attempted


def test_gfg_detects_unreachable_target():
    deployment = Deployment(
        {0: Point.planar(0, 0), 1: Point.planar(0.1, 0), 2: Point.planar(5, 5), 3: Point.planar(5.1, 5)}
    )
    graph = unit_disk_graph(deployment, radius=0.5)
    attempt = gfg_route(graph, deployment, 0, 2)
    assert not attempt.delivered
    assert attempt.detected_failure


def test_gfg_source_equals_target():
    deployment = grid_deployment(2, 2)
    graph = unit_disk_graph(deployment, radius=1.0)
    assert gfg_route(graph, deployment, 1, 1).delivered


def test_face_routing_rejects_3d(provider, udg_network_3d):
    with pytest.raises(GeometryError):
        gfg_route(udg_network_3d.graph, udg_network_3d.deployment, 0, 1)


# --------------------------------------------------------------------------- #
# DFS token routing
# --------------------------------------------------------------------------- #


def test_dfs_token_route_delivers(grid_4x4):
    attempt = dfs_token_route(grid_4x4, 0, 15)
    assert attempt.delivered
    assert attempt.per_node_state_bits > 0  # needs per-node state, unlike UES routing


def test_dfs_token_route_detects_unreachable(two_components):
    attempt = dfs_token_route(two_components, 0, 8)
    assert not attempt.delivered
    assert attempt.detected_failure


def test_dfs_token_route_cost_bounded_by_twice_edges(grid_4x4):
    attempt = dfs_token_route(grid_4x4, 0, 15)
    assert attempt.hops <= 2 * grid_4x4.num_edges


def test_dfs_token_route_source_is_target(grid_4x4):
    assert dfs_token_route(grid_4x4, 4, 4).delivered


def test_routing_attempt_dataclass_defaults():
    attempt = RoutingAttempt(algorithm="x", delivered=True, hops=3)
    assert attempt.stretch_basis == 3
    assert attempt.path == ()
    assert not attempt.detected_failure
