"""Structural and spectral properties of labeled graphs.

These are analysis helpers used by the experiment harness: degree statistics
(to report the blow-up of the Fig. 1 degree reduction), diameters (to relate
routing cost to the graph), and the second eigenvalue of the random-walk
matrix (the quantity the zig-zag machinery of :mod:`repro.expander` improves
round after round).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

try:  # pragma: no cover - exercised by the no-NumPy CI job
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    np = None

from repro.graphs.connectivity import shortest_path_lengths
from repro.graphs.labeled_graph import LabeledGraph

#: True when NumPy imported; the matrix/spectral helpers below need it, the
#: structural ones (histograms, diameters, summaries) do not.
HAVE_NUMPY = np is not None


def _require_numpy(what: str) -> None:
    if np is None:
        raise ImportError(
            f"{what} needs NumPy, which is not installed; the structural "
            "helpers of repro.graphs.properties work without it"
        )

__all__ = [
    "degree_histogram",
    "is_simple",
    "adjacency_matrix",
    "second_eigenvalue",
    "diameter",
]


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Return ``{degree: count}`` over all vertices."""
    return dict(Counter(graph.degree(v) for v in graph.vertices))


def is_simple(graph: LabeledGraph) -> bool:
    """Return ``True`` when the graph has no self-loops and no parallel edges."""
    return graph.self_loop_count() == 0 and graph.parallel_edge_count() == 0


def adjacency_matrix(graph: LabeledGraph) -> "np.ndarray":
    """Dense adjacency matrix with multi-edge multiplicities.

    A half-loop contributes 1 to the diagonal and a two-port self-loop
    contributes 2, matching the convention that the row sum equals the degree.
    """
    _require_numpy("adjacency_matrix")
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = graph.num_vertices
    matrix = np.zeros((n, n), dtype=float)
    for v in graph.vertices:
        for port in range(graph.degree(v)):
            w, _ = graph.rotation(v, port)
            matrix[index[v], index[w]] += 1.0
    # Each non-loop edge was counted once from each side; loops were counted
    # once per port, which is exactly the degree contribution we want.
    return matrix


#: Above this vertex count the spectral routines switch to sparse linear algebra.
_SPARSE_THRESHOLD = 1500


def second_eigenvalue(graph: LabeledGraph) -> float:
    """Second largest eigenvalue (in absolute value) of the walk matrix.

    For a d-regular graph this is the usual normalised ``lambda(G)`` whose
    distance from 1 is the spectral gap; smaller means better expansion.
    Small graphs use a dense symmetric eigendecomposition; larger graphs (as
    produced by a couple of zig-zag rounds) switch to sparse Lanczos iteration
    so the computation stays within memory.
    """
    _require_numpy("second_eigenvalue")
    if graph.num_vertices <= 1:
        return 0.0
    if graph.num_vertices <= _SPARSE_THRESHOLD:
        # The walk matrix of an undirected graph is similar to the symmetric
        # matrix D^{-1/2} A D^{-1/2}; use that form for numerical stability.
        adjacency = adjacency_matrix(graph)
        degrees = adjacency.sum(axis=1)
        scale = 1.0 / np.sqrt(degrees)
        symmetric = adjacency * scale[:, None] * scale[None, :]
        eigenvalues = np.linalg.eigvalsh(symmetric)
        eigenvalues = np.sort(np.abs(eigenvalues))[::-1]
        return float(eigenvalues[1]) if len(eigenvalues) > 1 else 0.0

    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import eigsh

    index = {v: i for i, v in enumerate(graph.vertices)}
    rows, cols, data = [], [], []
    degrees = np.array([graph.degree(v) for v in graph.vertices], dtype=float)
    scale = 1.0 / np.sqrt(degrees)
    for v in graph.vertices:
        for port in range(graph.degree(v)):
            w, _ = graph.rotation(v, port)
            i, j = index[v], index[w]
            rows.append(i)
            cols.append(j)
            data.append(scale[i] * scale[j])
    symmetric = coo_matrix((data, (rows, cols)), shape=(len(degrees), len(degrees))).tocsr()
    # The two extreme eigenvalues in absolute value are 1 (trivial) and the
    # quantity we want; ask Lanczos for the top two by magnitude.
    top = eigsh(symmetric, k=2, which="LM", return_eigenvectors=False, tol=1e-8)
    magnitudes = np.sort(np.abs(top))[::-1]
    return float(magnitudes[1]) if len(magnitudes) > 1 else 0.0


def diameter(graph: LabeledGraph) -> Optional[int]:
    """Diameter of the graph, or ``None`` when it is disconnected or empty."""
    if graph.num_vertices == 0:
        return None
    best = 0
    for v in graph.vertices:
        distances = shortest_path_lengths(graph, v)
        if len(distances) != graph.num_vertices:
            return None
        best = max(best, max(distances.values()))
    return best
