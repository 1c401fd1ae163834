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

Since PR 2 the replay itself is executed by the schedule-aware prepared
engine (:class:`repro.core.engine.PreparedSchedule`): every snapshot is
compiled into a flat-array walk kernel once and the walk *resumes* across
switch-overs instead of re-deriving the reduction per call.
:func:`reference_route_over_schedule` keeps the original, dict-backed
implementation as the executable specification; the engine is tested (and
benchmarked, see ``benchmarks/bench_schedule.py``) against it step for step.

The results are used by tests and by downstream users who want to know how far
the static-model guarantee stretches; they are *not* claims made by the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.exploration import WalkState, step_backward, step_forward
from repro.core.routing import default_provider
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

    The walk runs on the schedule-aware prepared engine: each snapshot's
    degree reduction and flat-array kernel are compiled once (shared between
    rotation-identical snapshots and with the static per-graph engine cache)
    and the walk state is carried across switch-overs, so repeated calls over
    one schedule pay only for the walk itself.  Results are identical to
    :func:`reference_route_over_schedule`, the original per-call
    implementation kept as the executable specification.
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
    """The original dict-backed schedule walker, kept as executable spec.

    This is the pre-engine implementation of :func:`route_over_schedule`,
    byte-for-byte in behaviour: it re-derives the source's component bound on
    every call and steps the walk through the dict-of-tuples rotation map.
    The schedule-aware engine must agree with it on every schedule — the
    parity tests in ``tests/test_dynamics.py`` and the speedup benchmark in
    ``benchmarks/bench_schedule.py`` both compare against this function.
    """
    validate_schedule(schedule)
    base_graph = schedule.snapshots[0]
    if not base_graph.has_vertex(source):
        raise RoutingError(f"source {source!r} is not a vertex of the network")
    if provider is None:
        provider = default_provider()
    # One reduction per distinct snapshot *object* (schedules that repeat a
    # graph object share its reduction, so re-activating it never registers as
    # a switch — the behaviour the engine must reproduce).
    reductions_by_id: dict = {}
    reductions: List[DegreeReducedGraph] = []
    for graph in schedule.snapshots:
        cached = reductions_by_id.get(id(graph))
        if cached is None:
            cached = reduce_to_three_regular(graph)
            reductions_by_id[id(graph)] = cached
        reductions.append(cached)
    if size_bound is None:
        size_bound = len(
            connected_component(reductions[0].graph, reductions[0].gateway(source))
        )
    sequence = provider.sequence_for(size_bound)

    def reduction_at(time: int) -> DegreeReducedGraph:
        active_index = 0
        for index, start in enumerate(schedule.switch_times):
            if time >= start:
                active_index = index
        return reductions[active_index]

    # The walk state is tracked as (original vertex, virtual offset within its
    # cluster, entry port); expressing it this way keeps it meaningful across
    # snapshot switches as long as the vertex's degree is unchanged.
    reduction = reduction_at(0)
    state = WalkState(vertex=reduction.gateway(source), entry_port=0)
    current_original = source
    switches_survived = 0
    steps = 0
    direction_forward = True
    status_failure = False

    for time in range(2 * len(sequence) + 2):
        new_reduction = reduction_at(time)
        if new_reduction is not reduction:
            switches_survived += 1
            cluster = new_reduction.cluster(current_original)
            old_cluster = reduction.cluster(current_original)
            if len(cluster) != len(old_cluster):
                return DynamicRouteResult(
                    outcome=DynamicOutcome.STRANDED,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=False,
                    detail=f"degree of node {current_original} changed under the message",
                )
            offset = old_cluster.index(state.vertex)
            state = WalkState(vertex=cluster[offset], entry_port=state.entry_port)
            reduction = new_reduction

        if direction_forward:
            if current_original == target:
                return DynamicRouteResult(
                    outcome=DynamicOutcome.DELIVERED,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=True,
                )
            if steps >= len(sequence):
                direction_forward = False
                status_failure = True
                continue
            state = step_forward(reduction.graph, state, sequence[steps])
            steps += 1
        else:
            if current_original == source or steps == 0:
                sound = not schedule.always_connected(source, target) if status_failure else True
                return DynamicRouteResult(
                    outcome=DynamicOutcome.REPORTED_FAILURE,
                    steps_taken=steps,
                    switches_survived=switches_survived,
                    sound=sound,
                    detail="" if sound else "failure reported although a path existed throughout",
                )
            state = step_backward(reduction.graph, state, sequence[steps - 1])
            steps -= 1
        current_original = reduction.to_original(state.vertex)

    return DynamicRouteResult(
        outcome=DynamicOutcome.STRANDED,
        steps_taken=steps,
        switches_survived=switches_survived,
        sound=False,
        detail="walk did not terminate within its budget",
    )
