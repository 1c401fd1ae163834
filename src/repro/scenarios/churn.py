"""Churn traces, waypoint mobility, and delta-only schedule building.

Two session processes turn a heterogeneous base topology into a
:class:`~repro.network.dynamics.TopologySchedule`:

``churn``
    Every node alternates up/down sessions whose lengths are geometric with
    its capability class's ``mean_session`` / ``mean_downtime``.  A down node
    keeps its identity but loses every radio link — *link* churn, because a
    :class:`TopologySchedule` requires all snapshots to share one vertex set
    (an in-flight walk must always be able to name the vertex it sits on).
    Snapshot 0 has every node up, so the schedule's first snapshot equals the
    static base graph.

``mobility``
    Nodes move toward seeded waypoints at their class speed (datacenter nodes
    are pinned, mobile nodes are fast) and the budgeted unit-disk graph is
    rebuilt per snapshot from the moved deployment.

Both compile through :class:`TopologyScheduleBuilder`, which only
materialises *deltas*: a snapshot equal to the previously active one is
skipped entirely (the previous graph simply stays active — no switch, no
translation table), and a graph seen earlier in the schedule is re-used as
the same object so the prepared engine compiles its kernel once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ExperimentError, GraphStructureError
from repro.geometry.deployment import Deployment
from repro.geometry.points import Point
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import TopologySchedule
from repro.scenarios.capabilities import (
    CapabilityClass,
    assign_capabilities,
    hetero_unit_disk_graph,
    _spec_deployment,
    _spec_profile,
)

__all__ = [
    "ChurnTrace",
    "churn_trace",
    "waypoint_deployments",
    "TopologyScheduleBuilder",
    "build_churn_schedule",
    "build_mobility_schedule",
]


@dataclass(frozen=True)
class ChurnTrace:
    """Per-snapshot down-node sets of a churn process.

    ``down_sets[t]`` is the sorted tuple of nodes that are down during
    snapshot ``t``.  Snapshot 0 is always all-up.
    """

    snapshot_count: int
    down_sets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.snapshot_count != len(self.down_sets):
            raise ExperimentError("churn trace length must match its snapshot count")
        if self.down_sets and self.down_sets[0]:
            raise ExperimentError("snapshot 0 of a churn trace must be all-up")


def churn_trace(
    assignment: Mapping[int, CapabilityClass],
    snapshot_count: int,
    seed: int = 0,
) -> ChurnTrace:
    """Generate per-class alternating up/down sessions, one state per snapshot.

    Each node runs a two-state Markov chain in snapshot time: an up node goes
    down with probability ``1 / mean_session``, a down node comes back with
    probability ``1 / mean_downtime`` — so session lengths are geometric with
    the class means.  All nodes start up (snapshot 0 is the base graph) and
    every draw comes from one :class:`random.Random` seeded on
    ``(seed, "churn")`` with nodes visited in id order, so the trace is
    bit-identical for the same inputs.
    """
    if snapshot_count < 1:
        raise ExperimentError("a churn trace needs at least one snapshot")
    rng = random.Random((seed, "churn").__repr__())
    down_sets: List[List[int]] = [[] for _ in range(snapshot_count)]
    for node in sorted(assignment):
        capability = assignment[node]
        p_down = 1.0 / capability.mean_session
        p_up = 1.0 / capability.mean_downtime
        up = True
        for snapshot in range(1, snapshot_count):
            if up:
                up = rng.random() >= p_down
            else:
                up = rng.random() < p_up
            if not up:
                down_sets[snapshot].append(node)
    return ChurnTrace(
        snapshot_count=snapshot_count,
        down_sets=tuple(tuple(down) for down in down_sets),
    )


def waypoint_deployments(
    deployment: Deployment,
    assignment: Mapping[int, CapabilityClass],
    snapshot_count: int,
    seed: int = 0,
    side: float = 1.0,
) -> List[Deployment]:
    """Advance a deployment through the waypoint mobility model.

    Every node holds a seeded waypoint drawn uniformly in the deployment box
    and moves toward it by its class ``speed`` per snapshot; on arrival it
    draws a new waypoint.  Datacenter-class nodes (``speed == 0``) never
    move, so a pure-datacenter profile yields an entirely static sequence.
    Returns ``snapshot_count`` deployments, the first being the input.
    """
    if snapshot_count < 1:
        raise ExperimentError("a mobility trace needs at least one snapshot")
    rng = random.Random((seed, "mobility").__repr__())
    dimension = deployment.dimension

    def draw_waypoint() -> Tuple[float, ...]:
        return tuple(rng.uniform(0, side) for _ in range(dimension))

    waypoints: Dict[int, Tuple[float, ...]] = {
        node: draw_waypoint() for node in deployment.node_ids
    }
    deployments = [deployment]
    current = deployment
    for _ in range(1, snapshot_count):
        moved: Dict[int, Point] = {}
        for node in current.node_ids:
            speed = assignment[node].speed
            if speed <= 0:
                continue
            position = current.position(node).coordinates()
            goal = waypoints[node]
            offset = [g - p for g, p in zip(goal, position)]
            gap = sum(delta * delta for delta in offset) ** 0.5
            if gap <= speed:
                landed = goal
                waypoints[node] = draw_waypoint()
            else:
                scale = speed / gap
                landed = tuple(p + delta * scale for p, delta in zip(position, offset))
            if dimension == 2:
                moved[node] = Point.planar(*landed)
            else:
                moved[node] = Point.spatial(*landed)
        current = current.with_positions(moved)
        deployments.append(current)
    return deployments


class TopologyScheduleBuilder:
    """Compile a snapshot stream into a :class:`TopologySchedule`, deltas only.

    ``add_graph(graph, at_time)`` appends a snapshot that becomes active at
    walk step ``at_time``.  Two forms of de-duplication keep the compiled
    schedule small:

    - a snapshot equal to the *currently active* one is dropped entirely —
      the active graph simply stays active, so the walker never sees a
      switch and the schedule engine builds no translation table for it;
    - a snapshot equal to *any earlier* one is stored as the same object,
      so the prepared engine's identity-keyed caches compile one kernel per
      distinct topology no matter how often it recurs.

    A quiet trace therefore compiles to a single-snapshot (static) schedule.
    """

    def __init__(self, vertices: Sequence[int]):
        self._vertices = frozenset(vertices)
        if not self._vertices:
            raise ExperimentError("a schedule builder needs a non-empty vertex set")
        self._snapshots: List[LabeledGraph] = []
        self._switch_times: List[int] = []
        self._canonical: Dict[LabeledGraph, LabeledGraph] = {}

    @property
    def materialised_count(self) -> int:
        """Number of snapshots actually materialised so far (deltas only)."""
        return len(self._snapshots)

    def add_graph(self, graph: LabeledGraph, at_time: int) -> None:
        """Append a snapshot active from walk step ``at_time`` onward."""
        if frozenset(graph.vertices) != self._vertices:
            raise GraphStructureError(
                f"snapshot {len(self._snapshots)} does not preserve the vertex set"
            )
        if self._switch_times and at_time <= self._switch_times[-1]:
            raise ExperimentError("snapshot times must be strictly increasing")
        if not self._switch_times and at_time != 0:
            raise ExperimentError("the first snapshot must be active from time 0")
        canonical = self._canonical.setdefault(graph, graph)
        if self._snapshots and canonical is self._snapshots[-1]:
            return  # no delta: the active graph stays active
        self._snapshots.append(canonical)
        self._switch_times.append(at_time)

    def build(self) -> TopologySchedule:
        """Compile the accumulated snapshots into a validated schedule."""
        if not self._snapshots:
            raise ExperimentError("cannot build a schedule with no snapshots")
        return TopologySchedule(
            snapshots=tuple(self._snapshots), switch_times=tuple(self._switch_times)
        )


def _schedule_params(spec) -> Tuple[int, int]:
    extra = dict(spec.extra)
    count = int(extra.get("snapshots", 4))
    period = int(extra.get("switch_every", 8))
    if count < 1:
        raise ExperimentError("a schedule needs at least one snapshot")
    if period < 1:
        raise ExperimentError("switch_every must be positive")
    return count, period


def build_churn_schedule(spec) -> TopologySchedule:
    """Compile a ``churn`` scenario spec into a topology schedule.

    The base topology is the spec's budgeted unit-disk graph (all nodes up);
    each later snapshot removes every link incident to a node the churn trace
    marks down, keeping the node as an isolated vertex.  Surviving links are
    re-supplied in base-graph edge order, so port labels at untouched
    vertices are unchanged snapshot to snapshot.
    """
    if spec.radius is None:
        raise ExperimentError(f"{spec.family!r} scenarios need a radius")
    count, period = _schedule_params(spec)
    deployment = _spec_deployment(spec)
    assignment = assign_capabilities(deployment.node_ids, _spec_profile(spec), seed=spec.seed)
    base = hetero_unit_disk_graph(deployment, assignment, spec.radius)
    trace = churn_trace(assignment, count, seed=spec.seed)
    base_edges = [(edge.u, edge.v) for edge in base.edges()]
    builder = TopologyScheduleBuilder(base.vertices)
    for snapshot in range(count):
        down = set(trace.down_sets[snapshot])
        if not down:
            graph = base
        else:
            kept = [(u, v) for u, v in base_edges if u not in down and v not in down]
            graph = LabeledGraph.from_edges(kept, vertices=base.vertices)
        builder.add_graph(graph, at_time=snapshot * period)
    return builder.build()


def build_mobility_schedule(spec) -> TopologySchedule:
    """Compile a ``mobility`` scenario spec into a topology schedule.

    Each snapshot rebuilds the budgeted unit-disk graph from the deployment
    after one waypoint-mobility step; the capability assignment (and hence
    every degree budget) is fixed across the schedule.
    """
    if spec.radius is None:
        raise ExperimentError(f"{spec.family!r} scenarios need a radius")
    count, period = _schedule_params(spec)
    deployment = _spec_deployment(spec)
    assignment = assign_capabilities(deployment.node_ids, _spec_profile(spec), seed=spec.seed)
    builder = TopologyScheduleBuilder(deployment.node_ids)
    for snapshot, placed in enumerate(
        waypoint_deployments(deployment, assignment, count, seed=spec.seed)
    ):
        graph = hetero_unit_disk_graph(placed, assignment, spec.radius)
        builder.add_graph(graph, at_time=snapshot * period)
    return builder.build()
