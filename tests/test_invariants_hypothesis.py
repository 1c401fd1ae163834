"""Cross-module property-based tests on the reproduction's core invariants.

These are the invariants the paper's correctness argument rests on, checked
with hypothesis over randomly generated networks, labelings and sequences:

* degree reduction always produces a connected-component-preserving 3-regular
  graph whose external edges are in bijection with the original edges;
* exploration walks are reversible, stay inside the start's component, and
  their coverage is monotone in the sequence prefix;
* Algorithm Route's verdict always equals ground-truth reachability, for any
  topology, any port labeling and any start port;
* the prepared engine's ``Route`` equals the executable specification
  (:func:`repro.network.dynamics.reference_route`) field for field, on drawn
  multigraphs with isolated vertices, multi-edges and half-loops, for targets
  that are no vertex and every start port;
* Algorithm CountNodes always returns the exact component size;
* the header bit accounting is monotone in the namespace and the walk cost is
  invariant under port relabeling of *other* components.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counting import count_nodes
from repro.core.engine import prepare
from repro.core.exploration import ExplicitSequence, walk_states
from repro.core.routing import RouteOutcome, route
from repro.core.universal import RandomSequenceProvider
from repro.graphs import generators
from repro.graphs.connectivity import connected_component
from repro.graphs.degree_reduction import reduce_to_three_regular
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import reference_route

# A single provider shared across examples so the per-size sequence cache is hit.
_PROVIDER = RandomSequenceProvider(seed=424242)

_RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_graph(n: int, p: float, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabeledGraph.from_edges(edges, vertices=range(n))


# --------------------------------------------------------------------------- #
# Degree reduction invariants
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reduction_external_edges_bijective_with_original(n, p, seed):
    graph = _random_graph(n, p, seed)
    reduction = reduce_to_three_regular(graph)
    assert reduction.graph.is_regular(3)
    assert reduction.external_edge_count() == sum(
        1 for edge in graph.edges() if not edge.is_half_loop
    )
    # Cluster sizes add up to the reduced vertex count.
    assert sum(reduction.cluster_size(v) for v in graph.vertices) == reduction.graph.num_vertices


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reduction_component_sizes_scale_by_cluster_sizes(n, p, seed):
    graph = _random_graph(n, p, seed)
    reduction = reduce_to_three_regular(graph)
    for vertex in graph.vertices:
        expected = sum(reduction.cluster_size(v) for v in connected_component(graph, vertex))
        reduced_component = connected_component(reduction.graph, reduction.gateway(vertex))
        assert len(reduced_component) == expected


# --------------------------------------------------------------------------- #
# Exploration walk invariants
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=0, max_value=150),
)
def test_walk_prefix_coverage_is_monotone(seed, length):
    rng = random.Random(seed)
    graph = generators.random_regular_graph(12, 3, seed=seed % 23)
    offsets = [rng.randrange(3) for _ in range(length)]
    visited_counts = []
    for prefix in range(0, length + 1, max(1, length // 5) if length else 1):
        vertices = {
            state.vertex
            for state in walk_states(graph, ExplicitSequence(offsets[:prefix]), 0)
        }
        visited_counts.append(len(vertices))
    assert visited_counts == sorted(visited_counts)


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.floats(min_value=0.05, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_broadcast_reaches_exactly_the_component(n, p, seed):
    """Broadcast coverage equals the BFS component, never more, never less."""
    from repro.core.broadcast import broadcast

    graph = _random_graph(n, p, seed)
    result = broadcast(graph, 0, provider=_PROVIDER)
    assert result.reached == frozenset(connected_component(graph, 0))
    assert result.covered_component


# --------------------------------------------------------------------------- #
# Routing / counting correctness invariants
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=11),
    p=st.floats(min_value=0.05, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10_000),
    port=st.integers(min_value=0, max_value=2),
)
def test_route_verdict_equals_reachability_on_random_graphs(n, p, seed, port):
    graph = _random_graph(n, p, seed)
    source, target = 0, n - 1
    result = route(graph, source, target, provider=_PROVIDER, start_port=port)
    reachable = target in connected_component(graph, source)
    assert result.delivered == reachable
    assert (result.outcome is RouteOutcome.SUCCESS) == reachable


def _drawn_multigraph(n: int, pieces) -> LabeledGraph:
    """A rotation map over ``0..n-1`` built from drawn pieces, ports in order.

    ``(u, v)`` is an edge (``u == v`` a two-port self-loop; a repeated pair a
    multi-edge) and ``(v,)`` a half-loop, one port mapped to itself.  A vertex
    no piece touches is isolated.
    """
    degrees = [0] * n
    rotation = {}

    def next_port(vertex: int):
        degrees[vertex] += 1
        return (vertex, degrees[vertex] - 1)

    for piece in pieces:
        if len(piece) == 1:
            half = next_port(piece[0])
            rotation[half] = half
        else:
            a, b = next_port(piece[0]), next_port(piece[1])
            rotation[a] = b
            rotation[b] = a
    return LabeledGraph(rotation, isolated_vertices=[v for v in range(n) if not degrees[v]])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_route_equals_the_reference_route(data):
    """The engine is the spec's walk on flat arrays: same result, every field."""
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")
    vertex = st.integers(min_value=0, max_value=n - 1)
    pieces = data.draw(
        st.lists(st.one_of(st.tuples(vertex, vertex), st.tuples(vertex)), max_size=8),
        label="pieces",
    )
    graph = _drawn_multigraph(n, pieces)
    source = data.draw(vertex, label="source")
    target = data.draw(
        st.one_of(vertex, st.integers(min_value=n, max_value=n + 3), st.just(-1)),
        label="target",
    )
    start_port = data.draw(st.integers(min_value=0, max_value=2), label="start_port")
    engine_result = prepare(graph).route(
        source, target, provider=_PROVIDER, start_port=start_port
    )
    spec_result, _states = reference_route(
        graph, source, target, provider=_PROVIDER, start_port=start_port
    )
    assert engine_result == spec_result


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=11),
    p=st.floats(min_value=0.05, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_route_verdict_invariant_under_port_relabeling(n, p, seed):
    """The guarantee must hold 'for any labeling' (Definition 3)."""
    graph = _random_graph(n, p, seed)
    relabeled = graph.with_relabeled_ports(random.Random(seed + 7))
    source, target = 0, n - 1
    original = route(graph, source, target, provider=_PROVIDER)
    shuffled = route(relabeled, source, target, provider=_PROVIDER)
    assert original.delivered == shuffled.delivered
    assert original.outcome == shuffled.outcome


@_RELAXED
@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_count_nodes_exact_on_random_graphs(n, p, seed):
    graph = _random_graph(n, p, seed)
    result = count_nodes(graph, 0, provider=_PROVIDER)
    assert result.original_count == len(connected_component(graph, 0))
    assert result.correct


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.floats(min_value=0.1, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_route_hop_cost_bounded_by_twice_sequence_length(n, p, seed):
    graph = _random_graph(n, p, seed)
    result = route(graph, 0, n - 1, provider=_PROVIDER)
    assert result.total_virtual_steps <= 2 * result.sequence_length
    assert result.physical_hops <= result.total_virtual_steps


@_RELAXED
@given(
    exponent_small=st.integers(min_value=4, max_value=20),
    delta=st.integers(min_value=1, max_value=20),
)
def test_header_bits_monotone_in_namespace(exponent_small, delta, grid_4x4):
    small = route(grid_4x4, 0, 15, provider=_PROVIDER, namespace_size=2 ** exponent_small)
    large = route(
        grid_4x4, 0, 15, provider=_PROVIDER, namespace_size=2 ** (exponent_small + delta)
    )
    assert large.header_bits == small.header_bits + 2 * delta
