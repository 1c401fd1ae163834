"""Greedy-Face-Greedy (GFG / GPSR-style) routing on planarised 2D networks.

This is the classical guaranteed-delivery algorithm for *planar* graphs that
the paper's references [2, 5, 9] survey, included as the strongest
position-based baseline:

* **greedy mode** forwards to the neighbour closest to the target;
* on reaching a local minimum the packet switches to **perimeter (face) mode**
  and traverses the boundary of the current face of a planar subgraph (the
  Gabriel graph by default) using the right-hand rule, switching faces where
  the boundary crosses the line towards the target;
* as soon as the packet reaches a node closer to the target than the point
  where greedy got stuck, greedy mode resumes;
* if a face traversal returns to its first edge without progress, the target
  is unreachable and the failure is *detected*.

The guarantee fundamentally relies on the planarity of the traversed subgraph,
which only holds for 2D unit-disk-like deployments — exactly the limitation
that motivates the paper's topology-independent approach (and experiment E8,
where 3D deployments leave GFG inapplicable while the exploration-sequence
router still delivers).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.baselines.base import RouterSpec, RoutingAttempt
from repro.errors import GeometryError, RoutingError
from repro.geometry.deployment import Deployment
from repro.geometry.planar import gabriel_subgraph, segments_properly_intersect
from repro.geometry.points import Point, distance
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["gfg_route", "SPEC"]


def _require_2d(deployment: Deployment) -> None:
    if deployment.dimension != 2:
        raise GeometryError(
            "face routing requires a 2D deployment: planar subgraphs (and with "
            "them the delivery guarantee) do not exist for 3D unit-ball graphs"
        )


def _angle(origin: Point, towards: Point) -> float:
    return math.atan2(towards.y - origin.y, towards.x - origin.x) % (2 * math.pi)


def _next_ccw(
    graph: LabeledGraph, deployment: Deployment, v: int, reference_angle: float
) -> Optional[int]:
    """Neighbour of ``v`` whose direction is first strictly after ``reference_angle`` (CCW)."""
    neighbors = sorted(set(w for w in graph.neighbors(v) if w != v))
    if not neighbors:
        return None
    origin = deployment.position(v)

    def turn(w: int) -> float:
        delta = (_angle(origin, deployment.position(w)) - reference_angle) % (2 * math.pi)
        return delta if delta > 1e-12 else 2 * math.pi

    return min(neighbors, key=turn)


def gfg_route(
    graph: LabeledGraph,
    deployment: Deployment,
    source: int,
    target: int,
    planar_graph: Optional[LabeledGraph] = None,
    max_hops: Optional[int] = None,
) -> RoutingAttempt:
    """Greedy-Face-Greedy routing from ``source`` to ``target``.

    Greedy forwarding runs on the full unit-disk graph; the face-routing
    fallback runs on ``planar_graph`` (the Gabriel subgraph of ``graph`` by
    default).  Only 2D deployments are supported — see the module docstring.
    """
    _require_2d(deployment)
    if not graph.has_vertex(source):
        raise RoutingError(f"source {source!r} is not a vertex of the graph")
    if source == target:
        return RoutingAttempt(algorithm="gfg", delivered=True, hops=0, path=(source,))
    planar = planar_graph if planar_graph is not None else gabriel_subgraph(graph, deployment)
    target_position = deployment.position(target)
    budget = max_hops if max_hops is not None else 8 * max(1, graph.num_edges)

    path = [source]
    current = source
    mode = "greedy"
    stuck_distance = float("inf")      # distance to target where greedy got stuck
    face_anchor: Optional[Point] = None
    first_edge: Optional[Tuple[int, int]] = None
    previous: Optional[int] = None

    for _ in range(budget):
        if current == target:
            break
        current_position = deployment.position(current)
        current_distance = distance(current_position, target_position)

        if mode == "perimeter" and current_distance < stuck_distance - 1e-15:
            mode = "greedy"
            previous = None

        if mode == "greedy":
            best_neighbor = None
            best_distance = current_distance
            for neighbor in set(graph.neighbors(current)):
                if neighbor == current:
                    continue
                candidate = distance(deployment.position(neighbor), target_position)
                if candidate < best_distance - 1e-15:
                    best_distance = candidate
                    best_neighbor = neighbor
            if best_neighbor is not None:
                previous = current
                current = best_neighbor
                path.append(current)
                continue
            # Local minimum: enter perimeter mode on the planar subgraph.
            mode = "perimeter"
            stuck_distance = current_distance
            face_anchor = current_position
            first_edge = None
            previous = None

        # Perimeter mode: right-hand-rule traversal of the planar subgraph.
        origin = deployment.position(current)
        if previous is None:
            reference_angle = _angle(origin, target_position)
        else:
            reference_angle = _angle(origin, deployment.position(previous))
        next_hop = _next_ccw(planar, deployment, current, reference_angle)
        if next_hop is None:
            return RoutingAttempt(
                algorithm="gfg",
                delivered=False,
                hops=len(path) - 1,
                path=tuple(path),
                detected_failure=True,
                notes=f"planar subgraph leaves node {current} isolated",
            )
        edge = (current, next_hop)
        if first_edge is None:
            first_edge = edge
        elif edge == first_edge:
            return RoutingAttempt(
                algorithm="gfg",
                delivered=False,
                hops=len(path) - 1,
                path=tuple(path),
                detected_failure=True,
                notes="perimeter traversal wrapped around: target unreachable",
            )
        if face_anchor is not None and segments_properly_intersect(
            deployment.position(current),
            deployment.position(next_hop),
            face_anchor,
            target_position,
        ):
            first_edge = edge
            face_anchor = deployment.position(next_hop)
        previous = current
        current = next_hop
        path.append(current)

    delivered = current == target
    return RoutingAttempt(
        algorithm="gfg",
        delivered=delivered,
        hops=len(path) - 1,
        path=tuple(path),
        detected_failure=False,
        notes="" if delivered else "hop budget exhausted",
    )


#: Conformance descriptor: GFG needs a 2D deployment (its guarantee rests on
#: the planarised subgraph, which does not exist in 3D — the limitation the
#: paper's topology-independent approach removes).
SPEC = RouterSpec(
    name="gfg",
    run=lambda graph, deployment, source, target, seed: gfg_route(
        graph, deployment, source, target
    ),
    needs_positions=True,
    planar_only=True,
)
