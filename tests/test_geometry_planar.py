"""Tests for Gabriel/RNG planarisation and face-traversal geometry."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import GeometryError
from repro.geometry.deployment import random_deployment
from repro.geometry.planar import gabriel_subgraph, segments_properly_intersect
from repro.geometry.points import Point
from repro.geometry.unit_disk import unit_disk_graph
from repro.graphs.connectivity import is_connected


def _planar_embedding_has_no_crossings(graph, deployment):
    """Brute-force check that no two edges properly cross."""
    edges = [
        (e.u, e.v)
        for e in graph.edges()
        if e.u != e.v
    ]
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if segments_properly_intersect(
            deployment.position(a),
            deployment.position(b),
            deployment.position(c),
            deployment.position(d),
        ):
            return False
    return True


def test_gabriel_subgraph_is_subgraph_and_planar():
    deployment = random_deployment(25, seed=11)
    udg = unit_disk_graph(deployment, radius=0.4)
    gabriel = gabriel_subgraph(udg, deployment)
    assert gabriel.num_edges <= udg.num_edges
    udg_edges = {frozenset((e.u, e.v)) for e in udg.edges()}
    assert {frozenset((e.u, e.v)) for e in gabriel.edges()} <= udg_edges
    assert set(gabriel.vertices) == set(udg.vertices)
    assert _planar_embedding_has_no_crossings(gabriel, deployment)


def test_gabriel_subgraph_preserves_connectivity():
    deployment = random_deployment(25, seed=13)
    udg = unit_disk_graph(deployment, radius=0.45)
    gabriel = gabriel_subgraph(udg, deployment)
    if is_connected(udg):
        assert is_connected(gabriel)


def test_gabriel_removes_blocked_edge():
    # Three collinear-ish points: the long edge 0-2 contains point 1 in its
    # diametral circle, so Gabriel must remove it.
    from repro.geometry.deployment import Deployment

    deployment = Deployment(
        {0: Point.planar(0, 0), 1: Point.planar(1, 0.01), 2: Point.planar(2, 0)}
    )
    udg = unit_disk_graph(deployment, radius=3.0)
    gabriel = gabriel_subgraph(udg, deployment)
    assert not gabriel.has_edge(0, 2)
    assert gabriel.has_edge(0, 1) and gabriel.has_edge(1, 2)


def test_segments_properly_intersect_cases():
    a, b = Point.planar(0, 0), Point.planar(2, 2)
    c, d = Point.planar(0, 2), Point.planar(2, 0)
    assert segments_properly_intersect(a, b, c, d)
    # Sharing an endpoint is not a proper intersection.
    assert not segments_properly_intersect(a, b, a, Point.planar(5, 0))
    # Parallel disjoint segments do not intersect.
    assert not segments_properly_intersect(
        Point.planar(0, 0), Point.planar(1, 0), Point.planar(0, 1), Point.planar(1, 1)
    )
    with pytest.raises(GeometryError):
        segments_properly_intersect(a, b, c, Point.spatial(1, 1, 1))
