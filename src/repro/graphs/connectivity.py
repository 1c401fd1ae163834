"""Connectivity utilities for :class:`~repro.graphs.labeled_graph.LabeledGraph`.

The paper's guarantees are all phrased relative to the *connected component of
the source node* ``C_s`` (Theorem 1 and Section 4).  These helpers compute
components, distances and connectivity predicates; they are the ground truth
the test-suite and the benchmark harness compare the distributed algorithms
against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro.errors import GraphStructureError
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "connected_component",
    "is_connected",
    "are_connected",
    "shortest_path_lengths",
    "shortest_path",
]


def connected_component(graph: LabeledGraph, source: int) -> Set[int]:
    """Return the vertex set of the connected component containing ``source``.

    This is the set the paper calls ``C_s``; the routing and counting
    algorithms run in time polynomial in its size.
    """
    if not graph.has_vertex(source):
        raise GraphStructureError(f"unknown vertex {source!r}")
    seen: Set[int] = {source}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for w in graph.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_connected(graph: LabeledGraph) -> bool:
    """Return ``True`` when the graph has at most one connected component."""
    if graph.num_vertices == 0:
        return True
    return len(connected_component(graph, graph.vertices[0])) == graph.num_vertices


def are_connected(graph: LabeledGraph, u: int, v: int) -> bool:
    """Return ``True`` when ``u`` and ``v`` lie in the same component."""
    return v in connected_component(graph, u)


def shortest_path_lengths(graph: LabeledGraph, source: int) -> Dict[int, int]:
    """Breadth-first distances (in hops) from ``source`` to every reachable vertex."""
    if not graph.has_vertex(source):
        raise GraphStructureError(f"unknown vertex {source!r}")
    distances: Dict[int, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for w in graph.neighbors(v):
            if w not in distances:
                distances[w] = distances[v] + 1
                frontier.append(w)
    return distances


def shortest_path(graph: LabeledGraph, source: int, target: int) -> Optional[List[int]]:
    """Return one shortest path from ``source`` to ``target`` or ``None``.

    The path is a list of vertices beginning with ``source`` and ending with
    ``target``.  Used by the analysis layer to compute routing *stretch*.
    """
    if not graph.has_vertex(source) or not graph.has_vertex(target):
        raise GraphStructureError("source or target vertex is unknown")
    if source == target:
        return [source]
    parents: Dict[int, int] = {source: source}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for w in graph.neighbors(v):
            if w in parents:
                continue
            parents[w] = v
            if w == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            frontier.append(w)
    return None
