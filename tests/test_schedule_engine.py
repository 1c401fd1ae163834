"""Tests for the schedule-aware prepared engine (PreparedSchedule) and its kernels."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import (
    PreparedSchedule,
    prepare,
    prepare_schedule,
)
from repro.core.routing import RouteOutcome
from repro.errors import GraphStructureError, RoutingError
from repro.graphs import generators
from repro.network.dynamics import DynamicOutcome, TopologySchedule, reference_route


def _relabel_schedule(base, count=3, period=5, seed=3):
    rng = random.Random(seed)
    snapshots = [base]
    for _ in range(count - 1):
        snapshots.append(snapshots[-1].with_relabeled_ports(rng))
    return TopologySchedule(
        snapshots=tuple(snapshots),
        switch_times=tuple(index * period for index in range(count)),
    )


def test_prepare_schedule_is_cached_per_object():
    schedule = _relabel_schedule(generators.grid_graph(3, 3))
    assert prepare_schedule(schedule) is prepare_schedule(schedule)
    other = _relabel_schedule(generators.grid_graph(3, 3))
    assert prepare_schedule(other) is not prepare_schedule(schedule)


def test_rotation_identical_snapshots_share_one_kernel():
    # Two distinct-but-equal graphs and one genuinely different labeling.
    base = generators.grid_graph(3, 3)
    twin = generators.grid_graph(3, 3)
    relabeled = base.with_relabeled_ports(random.Random(1))
    schedule = TopologySchedule((base, twin, relabeled, base), (0, 4, 8, 12))
    engine = prepare_schedule(schedule)
    assert engine.num_snapshots == 4
    assert engine.num_compiled_kernels == 2
    assert engine.snapshot_engine(0) is engine.snapshot_engine(1)
    assert engine.snapshot_engine(0) is engine.snapshot_engine(3)
    assert engine.snapshot_engine(2) is not engine.snapshot_engine(0)


def test_snapshot_engines_come_from_the_shared_per_graph_cache():
    base = generators.grid_graph(3, 3)
    schedule = TopologySchedule.static(base)
    engine = prepare_schedule(schedule)
    assert engine.snapshot_engine(0) is prepare(base)


def test_prepared_schedule_validates_on_construction():
    ring = generators.cycle_graph(4)
    bad = object.__new__(TopologySchedule)
    object.__setattr__(bad, "snapshots", (ring, ring))
    object.__setattr__(bad, "switch_times", (0, 0))
    with pytest.raises(GraphStructureError):
        PreparedSchedule(bad)


def test_unknown_source_raises():
    engine = prepare_schedule(TopologySchedule.static(generators.cycle_graph(4)))
    with pytest.raises(RoutingError):
        engine.route(99, 0)


def test_static_schedule_agrees_with_static_engine(provider, grid_4x4):
    schedule = TopologySchedule.static(grid_4x4)
    schedule_engine = prepare_schedule(schedule)
    static_engine = prepare(grid_4x4)
    for source, target in [(0, 15), (3, 12), (5, 5), (0, 7)]:
        dynamic = schedule_engine.route(source, target, provider=provider)
        static = static_engine.route(source, target, provider=provider)
        assert dynamic.outcome is DynamicOutcome.DELIVERED
        assert static.outcome is RouteOutcome.SUCCESS
        # On a static schedule the dynamic walk is the same walk, so the
        # delivery step must equal the static walker's discovery step.
        assert dynamic.steps_taken == static.target_found_at_step
        assert dynamic.switches_survived == 0


def test_static_schedule_failure_agrees_with_static_engine(provider, two_components):
    schedule = TopologySchedule.static(two_components)
    dynamic = prepare_schedule(schedule).route(0, 8, provider=provider)
    static = prepare(two_components).route(0, 8, provider=provider)
    assert dynamic.outcome is DynamicOutcome.REPORTED_FAILURE
    assert dynamic.sound
    assert static.outcome is RouteOutcome.FAILURE


def test_route_many_matches_single_routes(provider):
    schedule = _relabel_schedule(generators.grid_graph(3, 3))
    engine = prepare_schedule(schedule)
    pairs = [(0, 8), (4, 2), (7, 7)]
    assert engine.route_many(pairs, provider=provider) == [
        engine.route(s, t, provider=provider) for s, t in pairs
    ]


def test_explicit_size_bound_is_honoured(provider):
    schedule = TopologySchedule.static(generators.cycle_graph(8))
    tiny = prepare_schedule(schedule).route(0, 4, provider=provider, size_bound=2)
    # A bound of 2 yields a short sequence; whatever the outcome, the walk
    # must respect the budget implied by the bound.
    full = prepare_schedule(schedule).route(0, 4, provider=provider)
    assert tiny.steps_taken <= full.steps_taken or tiny.outcome is not full.outcome


# --------------------------------------------------------------------------- #
# The static spec's walk states (reference_route) against the kernel
# --------------------------------------------------------------------------- #


def test_reference_route_matches_engine_route(provider, grid_4x4):
    engine = prepare(grid_4x4)
    for source, target in [(0, 15), (0, 99), (3, 3)]:
        plain = engine.route(source, target, provider=provider)
        spec, states = reference_route(grid_4x4, source, target, provider=provider)
        assert spec == plain
        assert len(states) == plain.total_virtual_steps + 1


def test_trace_states_follow_the_kernel(provider, grid_4x4):
    """Every consecutive forward spec state pair is one kernel step apart."""
    engine = prepare(grid_4x4)
    result, states = reference_route(grid_4x4, 0, 15, provider=provider)
    kernel = engine.kernel
    offsets = engine.offsets_for(result.size_bound, provider)
    for index in range(result.forward_virtual_steps):
        vertex, entry = states[index]
        edge = 3 * vertex + (entry + offsets[index]) % 3
        assert states[index + 1] == (kernel.next_vertex[edge], kernel.next_port[edge])


def test_trace_starts_at_the_gateway(provider, grid_4x4):
    _, states = reference_route(grid_4x4, 5, 9, provider=provider)
    assert states[0] == (prepare(grid_4x4).kernel.gateway(5), 0)


def test_translate_virtual_between_kernels():
    base = generators.grid_graph(3, 3)
    relabeled = base.with_relabeled_ports(random.Random(7))
    kernel_a = prepare(base).kernel
    kernel_b = prepare(relabeled).kernel
    for original in base.vertices:
        for virtual in kernel_a.clusters[original]:
            translated = kernel_a.translate_virtual(kernel_b, virtual)
            # Degrees are preserved by relabeling, so translation must succeed
            # and land on the same (owner, carried port) position.
            assert translated is not None
            assert kernel_b.owner[translated] == original
            assert kernel_b.physical_port[translated] == kernel_a.physical_port[virtual]


def test_translate_virtual_detects_degree_change():
    from repro.graphs.labeled_graph import LabeledGraph

    ring = generators.cycle_graph(5)
    path = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], vertices=range(5))
    kernel_ring = prepare(ring).kernel
    kernel_path = prepare(path).kernel
    # Vertex 0 has degree 2 in the ring but degree 1 in the path.
    gateway = kernel_ring.gateway(0)
    assert kernel_ring.translate_virtual(kernel_path, gateway) is None
