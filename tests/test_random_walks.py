"""Tests for the random-walk substrate and cover-time estimates."""

from __future__ import annotations

import pytest

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.walks.cover_time import empirical_cover_time, lovasz_cover_time_upper_bound
from repro.walks.random_walk import RandomWalk, random_walk_cover_steps


def test_random_walk_moves_along_edges():
    graph = generators.cycle_graph(6)
    walk = RandomWalk(graph, start=0, seed=1)
    previous = 0
    for _ in range(20):
        current = walk.step()
        assert graph.has_edge(previous, current)
        previous = current
    assert walk.steps_taken == 20


def test_random_walk_deterministic_per_seed():
    graph = generators.grid_graph(3, 3)
    a = RandomWalk(graph, start=0, seed=9).run(50)
    b = RandomWalk(graph, start=0, seed=9).run(50)
    c = RandomWalk(graph, start=0, seed=10).run(50)
    assert a == b
    assert a != c
    assert len(a) == 50


def test_random_walk_validation():
    graph = LabeledGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    with pytest.raises(GraphStructureError):
        RandomWalk(graph, start=2)  # isolated
    with pytest.raises(GraphStructureError):
        RandomWalk(graph, start=99)


def test_cover_steps_covers_component(two_components):
    steps = random_walk_cover_steps(two_components, 0, seed=2)
    assert steps is not None
    assert steps >= 4  # needs at least component-size - 1 steps


def test_cover_steps_budget_exhaustion():
    graph = generators.lollipop_graph(6, 6)
    assert random_walk_cover_steps(graph, 0, seed=0, max_steps=3) is None


def test_cover_steps_singleton_component():
    graph = generators.path_graph(2)
    assert random_walk_cover_steps(graph, 0, seed=0) >= 1


def test_empirical_cover_time_aggregates():
    graph = generators.cycle_graph(8)
    estimate = empirical_cover_time(graph, 0, trials=5, seed=3)
    assert estimate.samples == 5
    assert estimate.successes == 5
    assert estimate.success_rate == 1.0
    assert estimate.mean_steps >= 7
    assert estimate.median_steps is not None
    assert estimate.max_steps >= estimate.median_steps


def test_empirical_cover_time_with_tight_budget_reports_failures():
    graph = generators.lollipop_graph(6, 8)
    estimate = empirical_cover_time(graph, 0, trials=4, max_steps=5, seed=1)
    assert estimate.successes == 0
    assert estimate.mean_steps is None
    assert estimate.success_rate == 0.0


def test_lovasz_bound_dominates_measured_cover_time():
    graph = generators.prism_graph(5)
    bound = lovasz_cover_time_upper_bound(graph)
    estimate = empirical_cover_time(graph, 0, trials=8, seed=5)
    assert estimate.mean_steps <= bound
    assert bound == 2.0 * graph.num_edges * (graph.num_vertices - 1)


def test_lovasz_bound_trivial_cases():
    assert lovasz_cover_time_upper_bound(generators.path_graph(1)) == 0.0
