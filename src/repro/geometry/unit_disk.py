"""Unit-disk connectivity graphs over node deployments.

In the standard ad hoc / sensor-network model two nodes can communicate when
their Euclidean distance is at most the radio range ``r``.  The resulting
*unit-disk graph* (in 2D) or *unit-ball graph* (in 3D) is the static topology
on which the routing experiments run.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import GeometryError
from repro.geometry.deployment import Deployment
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["unit_disk_graph", "unit_disk_edges"]


def unit_disk_edges(deployment: Deployment, radius: float) -> List[Tuple[int, int]]:
    """All pairs of nodes within communication range ``radius`` of each other."""
    if radius <= 0:
        raise GeometryError("communication radius must be positive")
    ids = deployment.node_ids
    edges: List[Tuple[int, int]] = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if deployment.distance(ids[i], ids[j]) <= radius:
                edges.append((ids[i], ids[j]))
    return edges


def unit_disk_graph(deployment: Deployment, radius: float) -> LabeledGraph:
    """Build the unit-disk (or unit-ball) graph of a deployment.

    Nodes with no neighbour in range appear as isolated vertices, so routing
    towards them exercises the failure-detection path of the algorithm.
    """
    edges = unit_disk_edges(deployment, radius)
    return LabeledGraph.from_edges(edges, vertices=deployment.node_ids)
