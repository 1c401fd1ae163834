"""Tests for Algorithm ``CountNodes`` (Section 4)."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counting import CountingResult, count_nodes
from repro.core.engine import prepare
from repro.core.universal import RandomSequenceProvider
from repro.errors import RoutingError
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.graphs.degree_reduction import reduce_to_three_regular
from repro.graphs.labeled_graph import LabeledGraph

_PROVIDER = RandomSequenceProvider(seed=2024)


def _true_counts(graph, source):
    reduction = reduce_to_three_regular(graph)
    virtual = len(connected_component(reduction.graph, reduction.gateway(source)))
    original = len(connected_component(graph, source))
    return virtual, original


@pytest.mark.parametrize(
    "graph",
    [
        generators.path_graph(4),
        generators.cycle_graph(6),
        generators.star_graph(5),
        generators.grid_graph(3, 3),
        generators.prism_graph(4),
        generators.binary_tree(2),
    ],
    ids=["path4", "cycle6", "star5", "grid3x3", "prism4", "tree2"],
)
def test_count_matches_true_component_size(graph, provider):
    source = graph.vertices[0]
    result = count_nodes(graph, source, provider=provider)
    virtual, original = _true_counts(graph, source)
    assert result.virtual_count == virtual
    assert result.original_count == original
    assert result.correct


def test_count_only_sees_source_component(provider, two_components):
    result = count_nodes(two_components, 0, provider=provider)
    assert result.original_count == 5
    assert result.virtual_count == 10  # 5-cycle of degree-2 vertices doubles
    other = count_nodes(two_components, 8, provider=provider)
    assert other.original_count == 4


def test_count_single_isolated_vertex(provider):
    graph = generators.path_graph(1)
    result = count_nodes(graph, 0, provider=provider)
    assert result.virtual_count == 1
    assert result.original_count == 1


def test_count_stops_at_small_exponent_for_small_graphs(provider):
    result = count_nodes(generators.path_graph(3), 0, provider=provider)
    # Component of 3 path vertices reduces to <= 6 virtual nodes; the doubling
    # search must stop by bound 8 at the latest, usually much earlier.
    assert result.final_bound <= 16
    assert result.rounds == result.final_exponent


def test_count_walk_steps_scale_with_component_not_namespace(provider):
    small = count_nodes(generators.cycle_graph(4), 0, provider=provider)
    large = count_nodes(generators.cycle_graph(16), 0, provider=provider)
    assert small.walk_steps < large.walk_steps


def test_count_unknown_source_raises(provider):
    with pytest.raises(RoutingError):
        count_nodes(generators.cycle_graph(4), 99, provider=provider)


def test_count_raises_when_provider_never_covers():
    from repro.core.exploration import ExplicitSequence
    from repro.core.universal import SequenceProvider

    class UselessProvider(SequenceProvider):
        def sequence_for(self, n):  # noqa: D102 - test stub
            return ExplicitSequence([0, 0])

    with pytest.raises(RoutingError):
        count_nodes(generators.grid_graph(3, 3), 0, provider=UselessProvider(), max_exponent=5)


def test_faithful_mode_agrees_with_memoised_mode(provider):
    graph = generators.path_graph(3)
    fast = count_nodes(graph, 0, provider=provider)
    slow = count_nodes(graph, 0, provider=provider, faithful=True)
    assert fast.virtual_count == slow.virtual_count
    assert fast.final_exponent == slow.final_exponent
    # The faithful mode pays for its Retrieve replays.
    assert slow.walk_steps > fast.walk_steps
    assert slow.retrieve_calls > fast.retrieve_calls


def test_counting_result_count_property(provider):
    result = count_nodes(generators.cycle_graph(5), 0, provider=provider)
    assert result.count == result.virtual_count


def test_count_feeds_routing_bound(provider):
    """End-to-end Section 3 + Section 4: count first, then route with the bound."""
    from repro.core.routing import RouteOutcome, route

    graph = generators.grid_graph(3, 3)
    counted = count_nodes(graph, 0, provider=provider)
    result = route(graph, 0, 8, provider=provider, size_bound=counted.virtual_count)
    assert result.outcome is RouteOutcome.SUCCESS


# --------------------------------------------------------------------------- #
# The memoised mode against the per-step probe loop and the pseudocode
# --------------------------------------------------------------------------- #


@st.composite
def small_graphs(draw, max_vertices=8):
    """Graphs with isolated, degree-1 and degree-2 vertices and many components."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    shuffle = random.Random(draw(st.integers(min_value=0, max_value=1_000)))
    return LabeledGraph.from_edges(edges, vertices=range(n), shuffle_ports=shuffle)


def _per_step_count(graph, source, provider, start_port):
    """The memoised mode as the pseudocode's loop: probe every walk step."""
    engine = prepare(graph)
    kernel = engine.kernel
    gateway = kernel.gateway(source)
    walk_steps = retrieve_calls = neighbor_retrieve_calls = rounds = exponent = 0
    while True:
        exponent += 1
        rounds += 1
        sequence = engine.offsets_for(2 ** exponent, provider).offsets()
        visited_list = kernel.walk_vertices(gateway, start_port, sequence)
        walk_steps += len(sequence)
        visited_set = set(visited_list)
        new_node_discovered = False
        for vertex in visited_list:
            for port in range(3):
                neighbor_retrieve_calls += 1
                retrieve_calls += 1
                if kernel.neighbor(vertex, port) not in visited_set:
                    new_node_discovered = True
                    break
            if new_node_discovered:
                break
        if not new_node_discovered:
            break
    return CountingResult(
        source=source,
        virtual_count=len(visited_set),
        original_count=len({kernel.owner[v] for v in visited_set}),
        final_exponent=exponent,
        final_bound=2 ** exponent,
        sequence_length=len(sequence),
        rounds=rounds,
        walk_steps=walk_steps,
        retrieve_calls=retrieve_calls,
        neighbor_retrieve_calls=neighbor_retrieve_calls,
        correct=len(visited_set) == kernel.component_size(gateway),
    )


_PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_PROPERTY
@given(graph=small_graphs())
def test_memoised_count_equals_the_per_step_probe_loop(graph):
    for source in graph.vertices:
        for start_port in range(3):
            expected = _per_step_count(graph, source, _PROVIDER, start_port)
            result = count_nodes(graph, source, provider=_PROVIDER, start_port=start_port)
            assert dataclasses.asdict(result) == dataclasses.asdict(expected)


@_PROPERTY
@given(graph=small_graphs())
def test_memoised_count_decides_as_the_pseudocode(graph):
    for source in graph.vertices:
        for start_port in range(3):
            fast = count_nodes(graph, source, provider=_PROVIDER, start_port=start_port)
            slow = count_nodes(
                graph, source, provider=_PROVIDER, start_port=start_port, faithful=True
            )
            assert (fast.virtual_count, fast.rounds, fast.final_exponent) == (
                slow.virtual_count, slow.rounds, slow.final_exponent
            )
