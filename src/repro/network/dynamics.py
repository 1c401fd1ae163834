"""Dynamic-topology extension (beyond the paper's static model).

The paper is explicit: "we assume that the network is static.  That is, the
graph does not change during the delivery process."  Everything in
:mod:`repro.core` relies on that assumption — the reversibility of the walk,
the failure confirmation, the counting loop.  This module implements the
*extension* needed to study what happens when the assumption is violated, as
flagged in DESIGN.md §6:

* a :class:`TopologySchedule` describes a sequence of static graphs with
  switch-over times (a very coarse mobility model: the union of snapshots of a
  slowly moving network);
* :func:`route_over_schedule` replays the centralised routing walk against the
  schedule, consulting whichever snapshot is active when each step is taken,
  and reports how the run ends: delivered, explicit failure, *stranded* (the
  walk's current edge disappeared — the clean detection of a model violation),
  or silently wrong (a failure report even though a path existed throughout).

The replay itself runs on the schedule-aware prepared engine
(:class:`repro.core.engine.PreparedSchedule`).  This module also holds the
one executable specification of ``Route``: a dict-backed walk over the Fig. 1
reduction's rotation map, never over a compiled kernel, run over a schedule
by :func:`reference_route_over_schedule` and over a static graph by
:func:`reference_route`.  The engines must equal them result for result
(the ``spec-parity`` and ``schedule-engine-parity`` conformance invariants,
the golden walk traces and the parity tests).

The results are used by tests and by downstream users who want to know how far
the static-model guarantee stretches; they are *not* claims made by the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.exploration import WalkState, step_backward, step_forward
from repro.core.routing import (
    RouteOutcome,
    RouteResult,
    _check_size_bound,
    _check_start_port,
    _header_bits,
    default_provider,
)
from repro.core.universal import SequenceProvider
from repro.errors import GraphStructureError, RoutingError
from repro.graphs.connectivity import are_connected, connected_component
from repro.graphs.degree_reduction import DegreeReducedGraph, reduce_to_three_regular
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "TopologySchedule",
    "DynamicOutcome",
    "DynamicRouteResult",
    "validate_schedule",
    "route_over_schedule",
    "reference_route_over_schedule",
    "reference_route",
]


class DynamicOutcome(enum.Enum):
    """How a routing attempt over a changing topology ended."""

    DELIVERED = "delivered"
    REPORTED_FAILURE = "reported-failure"
    STRANDED = "stranded"


@dataclass(frozen=True)
class TopologySchedule:
    """A piecewise-static topology: ``snapshots[i]`` is active from ``switch_times[i]``.

    ``switch_times`` must start at 0 and be strictly increasing; the last
    snapshot stays active forever.  All snapshots must share the same vertex
    set (nodes do not appear or disappear, only links do) so that vertex
    identities remain meaningful across switches.
    """

    snapshots: Tuple[LabeledGraph, ...]
    switch_times: Tuple[int, ...]

    def __post_init__(self) -> None:
        validate_schedule(self)

    @classmethod
    def static(cls, graph: LabeledGraph) -> "TopologySchedule":
        """A schedule with a single, never-changing snapshot."""
        return cls(snapshots=(graph,), switch_times=(0,))

    def active_at(self, time: int) -> LabeledGraph:
        """Snapshot in force at the given time."""
        active = self.snapshots[0]
        for snapshot, start in zip(self.snapshots, self.switch_times):
            if time >= start:
                active = snapshot
            else:
                break
        return active

    @property
    def is_static(self) -> bool:
        """True when the schedule never actually changes."""
        return len(self.snapshots) == 1

    def always_connected(self, source: int, target: int) -> bool:
        """True when the pair is connected in every snapshot."""
        return all(are_connected(graph, source, target) for graph in self.snapshots)


def validate_schedule(schedule: TopologySchedule) -> None:
    """Check every :class:`TopologySchedule` invariant, raising on violation.

    ``TopologySchedule.__post_init__`` runs these checks on construction, but
    the routing entry points re-validate explicitly so that schedules built
    around the constructor (``dataclasses.replace`` on a subclass that skips
    ``__post_init__``, direct ``object.__setattr__`` surgery, duck-typed
    stand-ins, ...) fail loudly with a :class:`~repro.errors.GraphStructureError`
    instead of silently walking an inconsistent timeline — in particular
    unsorted ``switch_times``, which previously made ``active_at`` jump
    backwards in time mid-walk.
    """
    snapshots = tuple(schedule.snapshots)
    switch_times = tuple(schedule.switch_times)
    if len(snapshots) != len(switch_times) or not snapshots:
        raise GraphStructureError("need one switch time per snapshot (and at least one)")
    if switch_times[0] != 0:
        raise GraphStructureError("the first snapshot must start at time 0")
    if any(b <= a for a, b in zip(switch_times, switch_times[1:])):
        raise GraphStructureError(
            f"switch times must be strictly increasing, got {switch_times!r}"
        )
    base_vertices = tuple(snapshots[0].vertices)
    for index, graph in enumerate(snapshots[1:], start=1):
        if tuple(graph.vertices) != base_vertices:
            raise GraphStructureError(
                "all snapshots must share the same vertex set: snapshot "
                f"{index} diverges from snapshot 0 (an in-flight walk could "
                "reference a vertex that no longer exists)"
            )


@dataclass(frozen=True)
class DynamicRouteResult:
    """Outcome of routing over a topology schedule."""

    outcome: DynamicOutcome
    steps_taken: int
    switches_survived: int
    sound: bool
    detail: str = ""


def route_over_schedule(
    schedule: TopologySchedule,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
) -> DynamicRouteResult:
    """Run the routing walk while the underlying topology follows ``schedule``.

    Every step consults the *currently active* snapshot.  A step whose exit
    port no longer exists — the link vanished under the message — strands the
    walk, which is reported as such rather than papered over.

    ``sound`` in the result records whether the verdict the source would
    receive is *semantically correct*: delivery is always sound; a failure
    report is sound only if source and target were indeed disconnected in at
    least one snapshot; stranding is never sound (the source learns nothing).

    The walk runs on the schedule-aware prepared engine, which compiles each
    snapshot once; results are identical to
    :func:`reference_route_over_schedule`, the executable specification.
    """
    validate_schedule(schedule)
    # Imported lazily: repro.core.engine imports this module for the schedule
    # and result types, so a module-level import would close the cycle
    # engine -> dynamics -> engine.
    from repro.core.engine import prepare_schedule

    return prepare_schedule(schedule).route(
        source, target, provider=provider, size_bound=size_bound
    )


def reference_route_over_schedule(
    schedule: TopologySchedule,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
) -> DynamicRouteResult:
    """The executable specification of :func:`route_over_schedule`.

    :func:`_reference_walk` over the schedule, ending at the first delivery.
    The schedule engine must agree with it on every schedule (the parity
    tests in ``tests/test_dynamics.py``, ``schedule-engine-parity``).
    """
    walk = _reference_walk(schedule, source, target, provider, size_bound, 0, True)
    sound = walk.outcome is DynamicOutcome.DELIVERED
    detail = walk.detail
    if walk.outcome is DynamicOutcome.REPORTED_FAILURE:
        sound = not schedule.always_connected(source, target)
        detail = "" if sound else "failure reported although a path existed throughout"
    return DynamicRouteResult(walk.outcome, walk.steps, walk.switches_survived, sound, detail)


def reference_route(
    graph: LabeledGraph,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
    namespace_size: Optional[int] = None,
) -> Tuple[RouteResult, Tuple[Tuple[int, int], ...]]:
    """The executable specification of Algorithm ``Route`` on a static graph.

    :func:`_reference_walk` over ``TopologySchedule.static(graph)``, on to the
    end of backtracking.  Returns the :class:`~repro.core.routing.RouteResult`
    that :meth:`repro.core.engine.PreparedNetwork.route` must equal, and every
    ``(virtual vertex, entry port)`` state of the walk: the start state, one
    per forward step, then one per backtracking step.  A ``size_bound`` below
    the source's reduced component gives a sequence too short to explore it,
    so a FAILURE is then no confirmation that the pair is disconnected.
    """
    walk = _reference_walk(
        TopologySchedule.static(graph), source, target, provider, size_bound, start_port, False
    )
    if walk.outcome is DynamicOutcome.STRANDED:
        raise RoutingError(f"backtracking failed to return to the source: {walk.detail}")
    delivered = walk.outcome is DynamicOutcome.DELIVERED
    namespace = namespace_size if namespace_size is not None else max(1, graph.num_vertices)
    result = RouteResult(
        outcome=RouteOutcome.SUCCESS if delivered else RouteOutcome.FAILURE,
        delivered=delivered,
        source=source,
        target=target,
        size_bound=walk.size_bound,
        sequence_length=walk.sequence_length,
        forward_virtual_steps=walk.forward_steps,
        backward_virtual_steps=walk.backward_steps,
        physical_hops=walk.physical_hops,
        target_found_at_step=walk.target_found_at,
        header_bits=_header_bits(namespace, walk.sequence_length),
    )
    return result, walk.states


@dataclass(frozen=True)
class _ReferenceWalk:
    """How one :func:`_reference_walk` ended; ``steps`` is its final sequence index."""

    outcome: DynamicOutcome
    size_bound: int
    sequence_length: int
    steps: int
    switches_survived: int
    forward_steps: int
    backward_steps: int
    physical_hops: int
    target_found_at: Optional[int]
    states: Tuple[Tuple[int, int], ...]
    detail: str


def _reference_walk(
    schedule: TopologySchedule,
    source: int,
    target: int,
    provider: Optional[SequenceProvider],
    size_bound: Optional[int],
    start_port: int,
    stop_at_target: bool,
) -> _ReferenceWalk:
    """The one dict-backed ``Route`` walk, one tick per step.

    Each tick consults the snapshot active at that time.  The forward phase
    steps :func:`~repro.core.exploration.step_forward` over the Fig. 1
    reduction's rotation map until the target is met or ``T_n`` runs out;
    backtracking steps :func:`~repro.core.exploration.step_backward` until the
    walk is back on a virtual node of the source.  A walk that meets the
    target ends there when ``stop_at_target`` (the schedule walk) and
    otherwise backtracks to carry the verdict home (static ``Route``).
    The outcome is DELIVERED once the target was met, REPORTED_FAILURE when
    the exhausted walk got back to the source, and STRANDED otherwise.
    """
    validate_schedule(schedule)
    if not schedule.snapshots[0].has_vertex(source):
        raise RoutingError(f"source {source!r} is not a vertex of the network")
    _check_start_port(start_port)
    if provider is None:
        provider = default_provider()
    # One reduction per distinct snapshot *object* (schedules that repeat a
    # graph object share its reduction, so re-activating it never registers as
    # a switch — the behaviour the engine must reproduce).
    reductions: Dict[int, DegreeReducedGraph] = {}
    for graph in schedule.snapshots:
        if id(graph) not in reductions:
            reductions[id(graph)] = reduce_to_three_regular(graph)
    reduction = reductions[id(schedule.snapshots[0])]
    if size_bound is None:
        size_bound = len(connected_component(reduction.graph, reduction.gateway(source)))
    _check_size_bound(size_bound)
    sequence = provider.sequence_for(size_bound)
    length = len(sequence)

    # The walk state is tracked as (original vertex, virtual offset within its
    # cluster, entry port); expressing it this way keeps it meaningful across
    # snapshot switches as long as the vertex's degree is unchanged.
    state = WalkState(vertex=reduction.gateway(source), entry_port=start_port)
    states = [(state.vertex, state.entry_port)]
    current_original = source
    switches_survived = steps = forward_steps = backward_steps = physical_hops = 0
    target_found_at: Optional[int] = None
    direction_forward = True

    def ended(outcome: DynamicOutcome, detail: str = "") -> _ReferenceWalk:
        return _ReferenceWalk(
            outcome, size_bound, length, steps, switches_survived, forward_steps,
            backward_steps, physical_hops, target_found_at, tuple(states), detail,
        )

    for time in range(2 * length + 2):
        new_reduction = reductions[id(schedule.active_at(time))]
        if new_reduction is not reduction:
            switches_survived += 1
            cluster = new_reduction.cluster(current_original)
            old_cluster = reduction.cluster(current_original)
            if len(cluster) != len(old_cluster):
                return ended(
                    DynamicOutcome.STRANDED,
                    f"degree of node {current_original} changed under the message",
                )
            offset = old_cluster.index(state.vertex)
            state = WalkState(vertex=cluster[offset], entry_port=state.entry_port)
            reduction = new_reduction

        if direction_forward:
            if current_original == target:
                target_found_at = forward_steps
                if stop_at_target:
                    return ended(DynamicOutcome.DELIVERED)
                direction_forward = False
                continue
            if steps >= length:
                direction_forward = False
                continue
            state = step_forward(reduction.graph, state, sequence[steps])
            steps += 1
            forward_steps += 1
        else:
            if current_original == source or steps == 0:
                found = target_found_at is not None
                return ended(
                    DynamicOutcome.DELIVERED if found else DynamicOutcome.REPORTED_FAILURE
                )
            state = step_backward(reduction.graph, state, sequence[steps - 1])
            steps -= 1
            backward_steps += 1
        states.append((state.vertex, state.entry_port))
        new_original = reduction.to_original(state.vertex)
        if new_original != current_original:
            physical_hops += 1
        current_original = new_original

    return ended(DynamicOutcome.STRANDED, "walk did not terminate within its budget")
