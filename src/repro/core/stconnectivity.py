"""Undirected st-connectivity via exploration sequences.

Routing with guaranteed delivery and undirected st-connectivity (USTCON) are
two faces of the same coin: the routing algorithm of Section 3 *decides*
whether ``t`` is reachable from ``s`` (that is exactly what the
success/failure confirmation carries back), and the log-space solvability of
USTCON [Reingold 2004] is what makes Theorem 4 — and with it the whole paper —
possible.  This module makes the connection explicit by exposing the decision
procedure directly:

:func:`exploration_connectivity` decides reachability by walking the
exploration sequence over the degree-reduced graph, reporting the walk length
used (the "time" of the log-space algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.engine import prepare
from repro.core.routing import _DEFAULT_PROVIDER
from repro.core.universal import SequenceProvider
from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["ConnectivityAnswer", "exploration_connectivity"]


@dataclass(frozen=True)
class ConnectivityAnswer:
    """The outcome of one st-connectivity query."""

    source: int
    target: int
    connected: bool
    walk_steps: int
    sequence_length: int
    size_bound: int

    @property
    def decided_early(self) -> bool:
        """True when the walk stopped before exhausting the sequence."""
        return self.connected and self.walk_steps < self.sequence_length


def exploration_connectivity(
    graph: LabeledGraph,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
) -> ConnectivityAnswer:
    """Decide whether ``target`` is reachable from ``source`` by exploration.

    The procedure is the forward phase of Algorithm ``Route`` without the
    message machinery: walk the exploration sequence on the reduced graph
    until the target's cluster is met (connected) or the sequence runs out
    (not connected, given a universal sequence for the component size).
    """
    if not graph.has_vertex(source):
        raise RoutingError(f"source {source!r} is not a vertex of the graph")
    provider = provider if provider is not None else _DEFAULT_PROVIDER
    connected, steps, length, bound = prepare(graph).connectivity_walk(
        source, target, provider=provider, size_bound=size_bound, start_port=start_port
    )
    return ConnectivityAnswer(source, target, connected, steps, length, bound)
