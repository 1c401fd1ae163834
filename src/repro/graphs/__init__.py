"""Port-labeled graph substrate.

This subpackage implements the graph model of the paper (Section 2): undirected
multigraphs in which every vertex assigns local *port labels*
``0..deg(v) - 1`` to its incident edge endpoints.  The labels at the two
endpoints of an edge are independent, exactly as in the paper ("The labels of
an edge (u, v) from the viewpoint of u and v do not necessarily have to
match").

The central data structure is :class:`~repro.graphs.labeled_graph.LabeledGraph`,
a rotation-map representation that supports multi-edges and self-loops, which
the degree-reduction gadget of Fig. 1 and the zig-zag machinery of
:mod:`repro.expander` both require.
"""

from repro.graphs.labeled_graph import LabeledGraph, PortEdge
from repro.graphs.degree_reduction import DegreeReducedGraph, reduce_to_three_regular
from repro.graphs.connectivity import (
    connected_component,
    connected_components,
    is_connected,
    shortest_path_lengths,
)
from repro.graphs import generators
from repro.graphs.properties import (
    degree_histogram,
    diameter,
    is_simple,
)

__all__ = [
    "LabeledGraph",
    "PortEdge",
    "DegreeReducedGraph",
    "reduce_to_three_regular",
    "connected_component",
    "connected_components",
    "is_connected",
    "shortest_path_lengths",
    "generators",
    "degree_histogram",
    "diameter",
    "is_simple",
]
