"""Topology generators used throughout the test-suite and experiments.

The paper makes claims over *all* static topologies, so the experiment harness
exercises a broad family of graphs:

* classic structured topologies (paths, rings, grids, tori, trees, complete
  graphs, prisms/Möbius–Kantor ladders which are natively 3-regular),
* adversarial random-walk topologies (lollipops),
* random models (Erdős–Rényi, random regular), and
* geometric ad hoc deployments (unit-disk graphs in 2D and 3D), which live
  in :mod:`repro.geometry.unit_disk`.

Every generator returns a :class:`~repro.graphs.labeled_graph.LabeledGraph`
with a deterministic port labeling, so experiments are reproducible for a
fixed seed.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphStructureError
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "binary_tree",
    "prism_graph",
    "moebius_kantor_graph",
    "petersen_graph",
    "lollipop_graph",
    "circulant_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "disjoint_union",
    "random_tree",
]


def _edges_to_graph(
    edges: Iterable[Tuple[int, int]],
    vertices: Optional[Iterable[int]] = None,
    seed: Optional[int] = None,
) -> LabeledGraph:
    """Build a labeled graph; when ``seed`` is given the ports are shuffled."""
    rng = random.Random(seed) if seed is not None else None
    return LabeledGraph.from_edges(edges, vertices=vertices, shuffle_ports=rng)


def path_graph(n: int) -> LabeledGraph:
    """Path on ``n >= 1`` vertices ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise GraphStructureError("path_graph requires n >= 1")
    return _edges_to_graph([(i, i + 1) for i in range(n - 1)], vertices=range(n))


def cycle_graph(n: int) -> LabeledGraph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphStructureError("cycle_graph requires n >= 3")
    return _edges_to_graph([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> LabeledGraph:
    """Complete graph ``K_n`` on ``n >= 1`` vertices."""
    if n < 1:
        raise GraphStructureError("complete_graph requires n >= 1")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _edges_to_graph(edges, vertices=range(n))


def star_graph(n_leaves: int) -> LabeledGraph:
    """Star with centre ``0`` and ``n_leaves >= 1`` leaves ``1..n_leaves``.

    Stars maximise the degree spread, which makes them a useful stress test
    for the Fig. 1 degree-reduction gadget.
    """
    if n_leaves < 1:
        raise GraphStructureError("star_graph requires at least one leaf")
    return _edges_to_graph([(0, leaf) for leaf in range(1, n_leaves + 1)])


def grid_graph(rows: int, cols: int) -> LabeledGraph:
    """``rows x cols`` 2-dimensional grid (4-neighbourhood)."""
    if rows < 1 or cols < 1:
        raise GraphStructureError("grid_graph requires positive dimensions")

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vertex(r, c), vertex(r, c + 1)))
            if r + 1 < rows:
                edges.append((vertex(r, c), vertex(r + 1, c)))
    return _edges_to_graph(edges, vertices=range(rows * cols))


def torus_graph(rows: int, cols: int) -> LabeledGraph:
    """``rows x cols`` torus (grid with wrap-around edges), 4-regular for dims >= 3."""
    if rows < 3 or cols < 3:
        raise GraphStructureError("torus_graph requires both dimensions >= 3")

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            edges.append((vertex(r, c), vertex(r, (c + 1) % cols)))
            edges.append((vertex(r, c), vertex((r + 1) % rows, c)))
    return _edges_to_graph(edges)


def binary_tree(depth: int) -> LabeledGraph:
    """Complete binary tree of the given depth (depth 0 is a single root)."""
    if depth < 0:
        raise GraphStructureError("binary_tree requires depth >= 0")
    n = 2 ** (depth + 1) - 1
    edges = [((child - 1) // 2, child) for child in range(1, n)]
    return _edges_to_graph(edges, vertices=range(n))


def prism_graph(n: int) -> LabeledGraph:
    """Circular ladder (prism) ``Y_n``: two n-cycles joined by rungs, 3-regular.

    Prisms are the work-horse natively-3-regular topology in the tests: the
    exploration-sequence machinery applies to them without degree reduction.
    """
    if n < 3:
        raise GraphStructureError("prism_graph requires n >= 3")
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        edges.append((i, (i + 1) % n))             # outer cycle
        edges.append((n + i, n + (i + 1) % n))     # inner cycle
        edges.append((i, n + i))                   # rung
    return _edges_to_graph(edges)


def moebius_kantor_graph() -> LabeledGraph:
    """The Möbius–Kantor graph: 16 vertices, 3-regular, girth 6."""
    outer = [(i, (i + 1) % 8) for i in range(8)]
    inner = [(8 + i, 8 + (i + 3) % 8) for i in range(8)]
    spokes = [(i, 8 + i) for i in range(8)]
    return _edges_to_graph(outer + inner + spokes)


def petersen_graph() -> LabeledGraph:
    """The Petersen graph: 10 vertices, 3-regular, a classic expander-ish graph."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return _edges_to_graph(outer + inner + spokes)


def lollipop_graph(clique_size: int, path_length: int) -> LabeledGraph:
    """Clique ``K_m`` with a path of ``path_length`` vertices attached.

    The lollipop maximises random-walk hitting times (Theta(n^3)), which makes
    it the adversarial instance for the random-walk routing baseline and a
    good showcase for the deterministic exploration sequence.
    """
    if clique_size < 3 or path_length < 1:
        raise GraphStructureError("lollipop_graph requires clique >= 3 and path >= 1")
    edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
    previous = clique_size - 1
    for k in range(path_length):
        vertex = clique_size + k
        edges.append((previous, vertex))
        previous = vertex
    return _edges_to_graph(edges)


def circulant_graph(n: int, offsets: Tuple[int, ...] = (1, 2)) -> LabeledGraph:
    """Circulant graph: vertex ``i`` joins ``i ± o (mod n)`` for every offset ``o``.

    With the default offsets ``(1, 2)`` the graph is 4-regular, connected and
    non-bipartite (it contains triangles) for every ``n >= 5`` — properties the
    zig-zag machinery needs from its base graphs.
    """
    if n < 3:
        raise GraphStructureError("circulant_graph requires n >= 3")
    if not offsets or any(o < 1 or o >= n for o in offsets):
        raise GraphStructureError("offsets must be in the range 1..n-1")
    if len(set(offsets)) != len(offsets):
        raise GraphStructureError("offsets must be distinct")
    edges = []
    seen = set()
    for i in range(n):
        for offset in offsets:
            j = (i + offset) % n
            key = (min(i, j), max(i, j), offset)
            if key not in seen:
                seen.add(key)
                edges.append((i, j))
    return _edges_to_graph(edges)


def random_regular_graph(n: int, degree: int, seed: int = 0) -> LabeledGraph:
    """Random ``degree``-regular simple graph on ``n`` vertices.

    Uses :func:`networkx.random_regular_graph` (configuration-model based)
    with a fixed seed for reproducibility.  ``n * degree`` must be even.
    """
    import networkx as nx

    if n * degree % 2 != 0:
        raise GraphStructureError("random_regular_graph requires n * degree to be even")
    if degree >= n:
        raise GraphStructureError("random_regular_graph requires degree < n")
    nx_graph = nx.random_regular_graph(degree, n, seed=seed)
    return LabeledGraph.from_networkx(nx_graph)


def erdos_renyi_graph(n: int, edge_probability: float, seed: int = 0) -> LabeledGraph:
    """Erdős–Rényi ``G(n, p)`` graph with a deterministic seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphStructureError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return _edges_to_graph(edges, vertices=range(n))


def random_tree(n: int, seed: int = 0) -> LabeledGraph:
    """Uniform-ish random tree on ``n`` vertices built by random attachment."""
    if n < 1:
        raise GraphStructureError("random_tree requires n >= 1")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return _edges_to_graph(edges, vertices=range(n))


def disjoint_union(graphs: Sequence[LabeledGraph]) -> LabeledGraph:
    """Disjoint union of several graphs with vertices relabeled to be distinct.

    The result is the canonical way to construct *disconnected* instances for
    the failure-detection experiments (E9): route from one component to a
    vertex of another and observe the guaranteed "failure" confirmation.
    """
    rotation = {}
    isolated: List[int] = []
    offset = 0
    for graph in graphs:
        contiguous, _ = graph.with_contiguous_vertices()
        for (v, i), (w, j) in contiguous.rotation_map().items():
            rotation[(v + offset, i)] = (w + offset, j)
        for v in contiguous.vertices:
            if contiguous.degree(v) == 0:
                isolated.append(v + offset)
        offset += contiguous.num_vertices
    return LabeledGraph(rotation, isolated_vertices=isolated)
