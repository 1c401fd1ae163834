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
