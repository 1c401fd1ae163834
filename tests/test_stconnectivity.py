"""Tests for the exploration-based st-connectivity decision procedure."""

from __future__ import annotations

import pytest

from repro.core.stconnectivity import exploration_connectivity
from repro.errors import RoutingError
from repro.graphs import generators
from repro.graphs.connectivity import are_connected


def test_connected_pair_is_decided_positively(provider, grid_4x4):
    answer = exploration_connectivity(grid_4x4, 0, 15, provider=provider)
    assert answer.connected
    assert answer.decided_early
    assert 0 < answer.walk_steps < answer.sequence_length


def test_disconnected_pair_is_decided_negatively(provider, two_components):
    answer = exploration_connectivity(two_components, 0, 8, provider=provider)
    assert not answer.connected
    assert answer.walk_steps == answer.sequence_length
    assert not answer.decided_early


def test_source_equals_target(provider, grid_4x4):
    answer = exploration_connectivity(grid_4x4, 5, 5, provider=provider)
    assert answer.connected
    assert answer.walk_steps == 0


def test_nonexistent_target_is_unreachable(provider, grid_4x4):
    assert not exploration_connectivity(grid_4x4, 0, 999, provider=provider).connected


def test_unknown_source_raises(provider, grid_4x4):
    with pytest.raises(RoutingError):
        exploration_connectivity(grid_4x4, 999, 0, provider=provider)


def test_size_bound_is_respected(provider, grid_4x4):
    answer = exploration_connectivity(grid_4x4, 0, 15, provider=provider, size_bound=100)
    assert answer.size_bound == 100
    assert answer.sequence_length == provider.length_for(100)


def test_exploration_connectivity_matches_bfs_ground_truth_on_all_pairs(
    provider, two_components
):
    path_and_triangle = generators.disjoint_union(
        [generators.path_graph(3), generators.cycle_graph(3)]
    )
    for graph in (two_components, path_and_triangle):
        for source in graph.vertices:
            for target in graph.vertices:
                answer = exploration_connectivity(graph, source, target, provider=provider)
                assert answer.connected == are_connected(graph, source, target)


def test_answer_agrees_with_routing_outcome(provider, two_components):
    from repro.core.routing import RouteOutcome, route

    for target in (3, 8):
        connectivity = exploration_connectivity(two_components, 0, target, provider=provider)
        routing = route(two_components, 0, target, provider=provider)
        assert connectivity.connected == (routing.outcome is RouteOutcome.SUCCESS)
