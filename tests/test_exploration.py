"""Tests for exploration-sequence walk semantics (Section 2 of the paper)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exploration import (
    ExplicitSequence,
    WalkState,
    coverage_steps,
    covers_component,
    step_backward,
    step_forward,
    walk_states,
)
from repro.errors import SequenceExhaustedError
from repro.graphs import generators
from repro.graphs.degree_reduction import reduce_to_three_regular


def test_explicit_sequence_basicdunder():
    seq = ExplicitSequence([0, 1, 2, 1])
    assert len(seq) == 4
    assert seq[0] == 0 and seq[3] == 1
    assert list(seq) == [0, 1, 2, 1]
    assert seq == ExplicitSequence((0, 1, 2, 1))
    assert "length=4" in repr(seq)
    with pytest.raises(SequenceExhaustedError):
        seq[4]
    with pytest.raises(SequenceExhaustedError):
        seq[-1]


def test_step_forward_on_cycle_moves_as_expected():
    cycle = generators.cycle_graph(5)
    state = WalkState(vertex=0, entry_port=0)
    # Offset 0 exits through the same port we "arrived" on.
    new_state = step_forward(cycle, state, 0)
    assert new_state.vertex in (1, 4)


def test_forward_then_backward_is_identity_single_step():
    graph = generators.petersen_graph()
    for vertex in graph.vertices:
        for entry_port in range(graph.degree(vertex)):
            for offset in range(3):
                state = WalkState(vertex, entry_port)
                forward = step_forward(graph, state, offset)
                assert step_backward(graph, forward, offset) == state


def test_walk_states_length_and_start():
    prism = generators.prism_graph(4)
    seq = ExplicitSequence([1, 2, 0, 1, 2])
    states = list(walk_states(prism, seq, start_vertex=0))
    assert len(states) == 6
    assert states[0] == WalkState(0, 0)


def test_walk_vertices_max_steps():
    prism = generators.prism_graph(4)
    seq = ExplicitSequence([1] * 10)
    vertices = [state.vertex for state in walk_states(prism, seq, 0, max_steps=3)]
    assert len(vertices) == 4


def test_walk_respects_entry_port_convention():
    prism = generators.prism_graph(3)
    seq = ExplicitSequence([0])
    a = [state.vertex for state in walk_states(prism, seq, 0, start_port=0)]
    b = [state.vertex for state in walk_states(prism, seq, 0, start_port=1)]
    # Different initial edges may lead to different first hops.
    assert a[0] == b[0] == 0
    assert len(a) == len(b) == 2


def test_whole_walk_is_reversible():
    """Replaying the sequence backwards from the final state returns to the start."""
    graph = generators.prism_graph(5)
    rng = random.Random(3)
    seq = ExplicitSequence([rng.randrange(3) for _ in range(200)])
    states = list(walk_states(graph, seq, start_vertex=2, start_port=1))
    state = states[-1]
    for index in range(len(seq) - 1, -1, -1):
        state = step_backward(graph, state, seq[index])
    assert state == states[0]


def test_coverage_on_small_cubic_graph():
    graph = generators.complete_graph(4)
    rng = random.Random(0)
    seq = ExplicitSequence([rng.randrange(3) for _ in range(200)])
    assert covers_component(graph, seq, 0)
    steps = coverage_steps(graph, seq, 0)
    assert steps is not None and steps <= 200


def test_coverage_fails_for_too_short_sequence():
    graph = generators.prism_graph(6)
    seq = ExplicitSequence([0])
    assert not covers_component(graph, seq, 0)
    assert coverage_steps(graph, seq, 0) is None


def test_coverage_single_vertex_component():
    graph = generators.path_graph(1)
    reduced = reduce_to_three_regular(graph).graph
    seq = ExplicitSequence([])
    assert coverage_steps(reduced, seq, reduced.vertices[0]) == 0


def test_coverage_limited_to_start_component(two_components):
    reduced = reduce_to_three_regular(two_components).graph
    rng = random.Random(1)
    seq = ExplicitSequence([rng.randrange(3) for _ in range(2000)])
    # Coverage is judged against the start's component only, so a sequence can
    # cover even though the graph is disconnected.
    assert covers_component(reduced, seq, reduced.vertices[0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=1, max_value=120),
    start_port=st.integers(min_value=0, max_value=2),
)
def test_property_reversibility_on_random_cubic_graphs(seed, length, start_port):
    """The defining reversibility property holds for any sequence and start."""
    rng = random.Random(seed)
    graph = generators.random_regular_graph(10, 3, seed=seed % 17)
    seq = ExplicitSequence([rng.randrange(3) for _ in range(length)])
    states = list(walk_states(graph, seq, start_vertex=0, start_port=start_port))
    state = states[-1]
    for index in range(len(seq) - 1, -1, -1):
        state = step_backward(graph, state, seq[index])
        assert state == states[index]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_property_walks_stay_inside_component(seed, two_components):
    rng = random.Random(seed)
    reduction = reduce_to_three_regular(two_components)
    seq = ExplicitSequence([rng.randrange(3) for _ in range(100)])
    start = reduction.gateway(0)
    visited = {state.vertex for state in walk_states(reduction.graph, seq, start)}
    allowed = {v for v in reduction.graph.vertices if reduction.to_original(v) <= 4}
    assert visited <= allowed
