"""Algorithm ``CountNodes`` — discovering |C_s| with no prior knowledge (Section 4).

Routing (Section 3) assumes an upper bound ``n`` on the size of the source's
connected component in the reduced graph, so that the nodes know which
sequence ``T_n`` to follow.  Section 4 removes the assumption: the source runs
exploration sequences ``T_1, T_2, T_4, ...`` of doubling size bound and checks
after each whether the set of vertices visited is *closed* under taking
neighbours.  When it is, the visited set is the whole component; counting its
distinct members yields ``|C_s|``.  The total work is polynomial in ``|C_s|``
because the walk for bound ``2^k`` has length ``poly(2^k)`` and the loop stops
by the time ``2^k`` reaches ``2 |C_s|``.

Two execution modes are provided:

* the **faithful** mode implements the paper's pseudocode literally, including
  the ``Retrieve``/``RetrieveNeighbor`` queries that re-walk the sequence from
  the source for every index probed (quadratic-and-worse in the walk length —
  run it only on small graphs, as the tests do);
* the default **memoised** mode walks each sequence once and answers the same
  queries from the recorded trajectory.  The decisions taken are identical;
  only the accounting of elementary steps differs, and both are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.core.engine import prepare
from repro.core.routing import _DEFAULT_PROVIDER
from repro.core.universal import SequenceProvider
from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["CountingResult", "count_nodes"]


@dataclass(frozen=True)
class CountingResult:
    """Outcome of one run of Algorithm ``CountNodes``."""

    source: int
    virtual_count: int
    original_count: int
    final_exponent: int
    final_bound: int
    sequence_length: int
    rounds: int
    walk_steps: int
    retrieve_calls: int
    neighbor_retrieve_calls: int
    correct: bool

    @property
    def count(self) -> int:
        """The value the algorithm returns: |C_s| in the reduced graph."""
        return self.virtual_count


def count_nodes(
    graph: LabeledGraph,
    source: int,
    provider: Optional[SequenceProvider] = None,
    start_port: int = 0,
    faithful: bool = False,
    max_exponent: int = 24,
) -> CountingResult:
    """Run Algorithm ``CountNodes`` from ``source`` on ``graph``.

    The count refers to the source's connected component of the *reduced*
    (3-regular) graph — the quantity the routing layer needs to choose
    ``T_n`` — and the result also reports the corresponding number of original
    vertices for convenience.

    Parameters
    ----------
    faithful:
        When true, every ``Retrieve`` re-walks the sequence from scratch as in
        the paper's pseudocode.  This is dramatically slower (cubic in the
        walk length) and exists to validate that the memoised mode makes the
        same decisions.
    max_exponent:
        Safety cap on the doubling exponent ``k``; exceeding it raises,
        because it means the provider's sequences never managed to cover the
        component (a broken provider rather than a property of the algorithm).
    """
    if not graph.has_vertex(source):
        raise RoutingError(f"source {source!r} is not a vertex of the graph")
    provider = provider if provider is not None else _DEFAULT_PROVIDER
    engine = prepare(graph)
    kernel = engine.kernel
    gateway = kernel.gateway(source)

    walk_steps = 0
    retrieve_calls = 0
    neighbor_retrieve_calls = 0
    rounds = 0

    exponent = 0
    while True:
        exponent += 1
        if exponent > max_exponent:
            raise RoutingError(
                f"CountNodes did not converge within exponent {max_exponent}; "
                "the sequence provider appears not to cover the component"
            )
        rounds += 1
        bound = 2 ** exponent
        sequence = engine.offsets_for(bound, provider).offsets()
        visited_list = kernel.walk_vertices(gateway, start_port, sequence)
        walk_steps += len(sequence)
        visited_set: Set[int] = set(visited_list)

        new_node_discovered = False
        for i, vertex in enumerate(visited_list):
            for port in range(3):
                neighbor_retrieve_calls += 1
                neighbor = kernel.neighbor(vertex, port)
                if faithful:
                    # The paper compares the neighbour against every visited
                    # vertex, re-deriving each by replaying the walk.
                    found = False
                    for j in range(len(visited_list)):
                        retrieve_calls += 1
                        walk_steps += j
                        if visited_list[j] == neighbor:
                            found = True
                            break
                    is_new = not found
                else:
                    retrieve_calls += 1
                    is_new = neighbor not in visited_set
                if is_new:
                    new_node_discovered = True
                    break
            if new_node_discovered:
                break
        if not new_node_discovered:
            break

    # Count the distinct vertices the final walk visited.
    if faithful:
        node_count = 0
        for i in range(len(visited_list)):
            is_new = True
            for j in range(i):
                retrieve_calls += 2
                walk_steps += i + j
                if visited_list[j] == visited_list[i]:
                    is_new = False
                    break
            if is_new:
                node_count += 1
    else:
        node_count = len(visited_set)

    owner = kernel.owner
    original_count = len({owner[v] for v in visited_set})
    true_component_size = kernel.component_size(gateway)
    return CountingResult(
        source=source,
        virtual_count=node_count,
        original_count=original_count,
        final_exponent=exponent,
        final_bound=2 ** exponent,
        sequence_length=len(sequence),
        rounds=rounds,
        walk_steps=walk_steps,
        retrieve_calls=retrieve_calls,
        neighbor_retrieve_calls=neighbor_retrieve_calls,
        correct=node_count == true_component_size,
    )
