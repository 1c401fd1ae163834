"""Planar subgraph extraction and segment crossing for GFG routing.

Greedy-face-greedy (GFG, also known as GPSR) — the guaranteed-delivery
algorithm for *planar* 2D networks that the paper's references [2, 5, 9]
discuss — requires a planar, connected spanning subgraph of the unit-disk
graph.  The classic localized construction implemented here is the
**Gabriel graph**: keep edge (u, v) iff no other node lies inside the disk
with diameter uv.

It is planar when applied to 2D unit-disk graphs and keeps them connected.
In 3D it does not yield a planar graph — which is exactly the gap the
paper's exploration-sequence approach closes — so the 3D experiments use
this projection only as a "best effort" baseline.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import GeometryError
from repro.geometry.deployment import Deployment
from repro.geometry.points import Point, squared_distance
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "gabriel_subgraph",
    "segments_properly_intersect",
]


def _edge_list(graph: LabeledGraph) -> List[Tuple[int, int]]:
    """Distinct vertex pairs joined by at least one edge (self-loops dropped)."""
    pairs = set()
    for edge in graph.edges():
        if edge.u != edge.v:
            pairs.add((min(edge.u, edge.v), max(edge.u, edge.v)))
    return sorted(pairs)


def gabriel_subgraph(graph: LabeledGraph, deployment: Deployment) -> LabeledGraph:
    """Gabriel subgraph of ``graph`` with respect to the node positions.

    Edge (u, v) survives iff no third deployed node lies strictly inside the
    sphere whose diameter is the segment uv.  The test is purely local (it
    only ever needs to inspect common neighbours in the unit-disk model), but
    for simplicity and exactness we check against all nodes.
    """
    survivors: List[Tuple[int, int]] = []
    for u, v in _edge_list(graph):
        pu, pv = deployment.position(u), deployment.position(v)
        radius_sq = squared_distance(pu, pv) / 4.0
        center = Point(
            (pu.x + pv.x) / 2.0,
            (pu.y + pv.y) / 2.0,
            (pu.z + pv.z) / 2.0,
            pu.dimension if pu.dimension == pv.dimension else 3,
        )
        blocked = False
        for w in deployment.node_ids:
            if w in (u, v):
                continue
            if squared_distance(deployment.position(w), center) < radius_sq - 1e-12:
                blocked = True
                break
        if not blocked:
            survivors.append((u, v))
    return LabeledGraph.from_edges(survivors, vertices=graph.vertices)


def segments_properly_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Return ``True`` when open segments ab and cd cross at an interior point.

    Used by face routing to detect where the traversed face boundary crosses
    the source-target line, and by the planarity checks in the test-suite.
    Collinear overlaps and shared endpoints do not count as proper crossings.
    """
    if any(p.dimension != 2 for p in (a, b, c, d)):
        raise GeometryError("segment intersection is only defined in 2D")

    def orientation(p: Point, q: Point, r: Point) -> float:
        return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)

    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)
