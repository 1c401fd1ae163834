"""Tests for the dynamic-topology extension (static-model violations)."""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphStructureError
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.core.engine import prepare_schedule
from repro.network.dynamics import (
    DynamicOutcome,
    TopologySchedule,
    reference_route_over_schedule,
    route_over_schedule,
    validate_schedule,
)


def _ring(n):
    return generators.cycle_graph(n)


def _bypassed_schedule(snapshots, switch_times):
    """Build a TopologySchedule without running __post_init__ validation."""
    schedule = object.__new__(TopologySchedule)
    object.__setattr__(schedule, "snapshots", snapshots)
    object.__setattr__(schedule, "switch_times", switch_times)
    return schedule


def test_schedule_validation():
    with pytest.raises(GraphStructureError):
        TopologySchedule(snapshots=(), switch_times=())
    with pytest.raises(GraphStructureError):
        TopologySchedule(snapshots=(_ring(4),), switch_times=(5,))
    with pytest.raises(GraphStructureError):
        TopologySchedule(snapshots=(_ring(4), _ring(4)), switch_times=(0, 0))
    with pytest.raises(GraphStructureError):
        TopologySchedule(snapshots=(_ring(4), _ring(5)), switch_times=(0, 10))


def test_static_schedule_and_active_at():
    schedule = TopologySchedule.static(_ring(5))
    assert schedule.is_static
    assert schedule.active_at(0) is schedule.snapshots[0]
    assert schedule.active_at(10_000) is schedule.snapshots[0]


def test_active_at_switches_over():
    a, b = _ring(5), _ring(5).with_relabeled_ports(__import__("random").Random(1))
    schedule = TopologySchedule(snapshots=(a, b), switch_times=(0, 10))
    assert schedule.active_at(9) is a
    assert schedule.active_at(10) is b
    assert not schedule.is_static


def test_always_connected():
    connected = generators.grid_graph(3, 3)
    split = generators.disjoint_union([generators.grid_graph(3, 2), generators.path_graph(3)])
    schedule = TopologySchedule(snapshots=(connected, split), switch_times=(0, 5))
    assert schedule.always_connected(0, 1)
    assert not schedule.always_connected(0, 8)


def test_static_schedule_routing_matches_static_routing(provider, grid_4x4):
    from repro.core.routing import RouteOutcome, route

    schedule = TopologySchedule.static(grid_4x4)
    dynamic = route_over_schedule(schedule, 0, 15, provider=provider)
    static = route(grid_4x4, 0, 15, provider=provider)
    assert dynamic.outcome is DynamicOutcome.DELIVERED
    assert dynamic.sound
    assert static.outcome is RouteOutcome.SUCCESS
    assert dynamic.switches_survived == 0


def test_static_schedule_failure_is_sound(provider, two_components):
    schedule = TopologySchedule.static(two_components)
    result = route_over_schedule(schedule, 0, 8, provider=provider)
    assert result.outcome is DynamicOutcome.REPORTED_FAILURE
    assert result.sound


def test_benign_relabeling_switch_still_terminates(provider):
    """Changing port labels mid-flight violates the model; the run must still
    terminate with one of the three declared outcomes (never hang or crash)."""
    import random

    base = generators.grid_graph(3, 3)
    shuffled = base.with_relabeled_ports(random.Random(3))
    schedule = TopologySchedule(snapshots=(base, shuffled), switch_times=(0, 7))
    result = route_over_schedule(schedule, 0, 8, provider=provider)
    assert result.outcome in (
        DynamicOutcome.DELIVERED,
        DynamicOutcome.REPORTED_FAILURE,
        DynamicOutcome.STRANDED,
    )
    assert result.switches_survived >= 1


def test_degree_change_strands_the_walk(provider):
    """Removing links under the message is detected as stranding, not silence."""
    before = generators.cycle_graph(6)
    after = LabeledGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], vertices=range(6)
    )  # the ring loses the closing edge: endpoints drop to degree 1
    schedule = TopologySchedule(snapshots=(before, after), switch_times=(0, 3))
    result = route_over_schedule(schedule, 0, 3, provider=provider)
    if result.outcome is DynamicOutcome.STRANDED:
        assert not result.sound
        assert result.detail
    else:
        # The walk may have already delivered before the switch hit it.
        assert result.outcome is DynamicOutcome.DELIVERED


def test_unsound_failure_is_flagged(provider):
    """If a failure is reported although the pair stayed connected in every
    snapshot, the result must carry sound=False."""
    import random

    base = generators.cycle_graph(8)
    relabeled = base.with_relabeled_ports(random.Random(9))
    schedule = TopologySchedule(snapshots=(base, relabeled), switch_times=(0, 2))
    result = route_over_schedule(schedule, 0, 4, provider=provider)
    if result.outcome is DynamicOutcome.REPORTED_FAILURE:
        assert not result.sound
    else:
        assert result.outcome in (DynamicOutcome.DELIVERED, DynamicOutcome.STRANDED)


def test_unknown_source_raises(provider):
    schedule = TopologySchedule.static(_ring(4))
    from repro.errors import RoutingError

    with pytest.raises(RoutingError):
        route_over_schedule(schedule, 99, 0, provider=provider)


# --------------------------------------------------------------------------- #
# Entry-point re-validation (schedules built around the constructor)
# --------------------------------------------------------------------------- #


def test_route_over_schedule_rejects_unsorted_switch_times(provider):
    """A schedule smuggled past __post_init__ with unsorted switch times must
    raise GraphStructureError instead of silently walking a broken timeline."""
    ring = _ring(4)
    bad = _bypassed_schedule((ring, ring, ring), (0, 9, 5))
    with pytest.raises(GraphStructureError, match="strictly increasing"):
        route_over_schedule(bad, 0, 2, provider=provider)
    with pytest.raises(GraphStructureError, match="strictly increasing"):
        prepare_schedule(bad).route_many([(0, 2)], provider=provider)
    with pytest.raises(GraphStructureError, match="strictly increasing"):
        reference_route_over_schedule(bad, 0, 2, provider=provider)


def test_route_over_schedule_rejects_other_bypassed_invariants(provider):
    ring = _ring(4)
    with pytest.raises(GraphStructureError):
        route_over_schedule(_bypassed_schedule((), ()), 0, 1, provider=provider)
    with pytest.raises(GraphStructureError):
        route_over_schedule(
            _bypassed_schedule((ring, ring), (0,)), 0, 1, provider=provider
        )
    with pytest.raises(GraphStructureError):
        route_over_schedule(_bypassed_schedule((ring,), (5,)), 0, 1, provider=provider)
    with pytest.raises(GraphStructureError):
        route_over_schedule(
            _bypassed_schedule((ring, _ring(5)), (0, 3)), 0, 1, provider=provider
        )


def test_validate_schedule_accepts_valid_schedules():
    schedule = TopologySchedule(snapshots=(_ring(4), _ring(4)), switch_times=(0, 10))
    validate_schedule(schedule)  # must not raise


# --------------------------------------------------------------------------- #
# Schedule-aware engine vs the reference (pre-engine) walker
# --------------------------------------------------------------------------- #


def _parity_schedules():
    base = generators.grid_graph(3, 3)
    relabeled_1 = base.with_relabeled_ports(random.Random(3))
    relabeled_2 = relabeled_1.with_relabeled_ports(random.Random(5))
    ring_before = generators.cycle_graph(6)
    ring_after = LabeledGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], vertices=range(6)
    )
    split = generators.disjoint_union(
        [generators.cycle_graph(5), generators.cycle_graph(4)]
    )
    return [
        TopologySchedule.static(base),
        TopologySchedule.static(split),
        TopologySchedule((base, relabeled_1, relabeled_2), (0, 4, 9)),
        # Re-activating the same object is not a switch; equal-but-distinct
        # objects are.
        TopologySchedule((base, relabeled_1, base), (0, 3, 6)),
        TopologySchedule((base, generators.grid_graph(3, 3)), (0, 5)),
        TopologySchedule((ring_before, ring_after), (0, 3)),
    ]


def test_engine_matches_reference_walker_everywhere(provider):
    """The schedule-aware engine must agree with the executable specification
    result-for-result (outcome, steps, switches, soundness, detail)."""
    for schedule in _parity_schedules():
        vertices = list(schedule.snapshots[0].vertices)
        for source in vertices[:3]:
            for target in vertices[:5]:
                engine_result = route_over_schedule(
                    schedule, source, target, provider=provider
                )
                reference = reference_route_over_schedule(
                    schedule, source, target, provider=provider
                )
                assert engine_result == reference, (schedule, source, target)


def test_route_many_over_schedule_matches_single_calls(provider):
    schedule = _parity_schedules()[2]
    pairs = [(0, 8), (0, 4), (1, 7), (2, 2)]
    batch = prepare_schedule(schedule).route_many(pairs, provider=provider)
    singles = [
        route_over_schedule(schedule, s, t, provider=provider) for s, t in pairs
    ]
    assert batch == singles
