"""Broadcasting along a universal exploration sequence (Theorem 1, last part).

"The same algorithm works for the broadcasting problem, where s wants to send
the message to all the vertexes in its connected component."  Instead of
stopping when a particular target is met, the message simply follows the whole
sequence ``T_n`` — which, by universality, visits every vertex of the
component — delivering its payload at each node it visits, and then backtracks
to the source so the source learns the broadcast completed.

As for routing, both a centralised walker (:func:`broadcast`) and a fully
distributed protocol (:func:`broadcast_on_network`) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.engine import prepare
from repro.core.routing import (
    Direction,
    RouteOutcome,
    _DEFAULT_PROVIDER,
    _header_bits,
)
from repro.core.universal import SequenceProvider
from repro.errors import RoutingError
from repro.graphs.degree_reduction import EXTERNAL_PORT
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.adhoc import AdHocNetwork
from repro.network.message import Header, Message
from repro.network.node import NodeContext
from repro.network.simulator import Protocol, SimulationResult

__all__ = ["BroadcastResult", "broadcast", "broadcast_on_network", "BroadcastProtocol"]


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one broadcast."""

    source: int
    reached: frozenset
    component_size: int
    covered_component: bool
    virtual_steps: int
    physical_hops: int
    sequence_length: int
    size_bound: int
    header_bits: int
    simulation: Optional[SimulationResult] = None

    @property
    def reach_count(self) -> int:
        """Number of distinct original vertices that received the payload."""
        return len(self.reached)


def broadcast(
    graph: LabeledGraph,
    source: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
    namespace_size: Optional[int] = None,
) -> BroadcastResult:
    """Broadcast from ``source`` along the exploration sequence (centralised).

    Returns which original vertices were reached; ``covered_component`` is the
    paper's guarantee (true whenever the sequence really is universal for the
    component size, which the default provider achieves with overwhelming
    probability and a certified provider achieves by construction).
    """
    engine = prepare(graph)
    provider = provider if provider is not None else _DEFAULT_PROVIDER
    namespace = namespace_size if namespace_size is not None else max(1, graph.num_vertices)
    bound, length, reached, physical_hops = engine.broadcast_walk(
        source, provider=provider, size_bound=size_bound, start_port=start_port
    )
    component = engine.original_component(source)
    return BroadcastResult(
        source=source,
        reached=reached,
        component_size=len(component),
        covered_component=component <= reached,
        virtual_steps=length,
        physical_hops=physical_hops,
        sequence_length=length,
        size_bound=bound,
        header_bits=_header_bits(namespace, length),
    )


class BroadcastProtocol(Protocol):
    """Distributed broadcast: the walk visits the component, delivering everywhere.

    Every node that the walk visits hands the payload to its application the
    first time it sees it (it remembers having seen it with a single bit of
    metered memory, well within the O(log n) budget).  After the sequence is
    exhausted the message backtracks to the source, which then knows the
    broadcast completed.
    """

    def __init__(
        self,
        network: AdHocNetwork,
        source: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        payload: object = None,
    ) -> None:
        self._network = network
        self._source = source
        self._payload = payload
        self._provider = provider if provider is not None else _DEFAULT_PROVIDER
        self._engine = prepare(network.graph)
        self._reduction = self._engine.reduction
        self._kernel = self._engine.kernel
        self._bound = self._engine.resolve_size_bound(source, size_bound)
        # A broadcast walks the whole sequence, so it takes every offset up
        # front as ``bytes``.  The raw offsets ARE the sequence; the alias
        # keeps the historical attribute that callers size budgets from.
        self._offsets = self._engine.offsets_for(self._bound, self._provider).offsets()
        self._sequence = self._offsets
        self._name_bits = network.name_bits
        self._index_bits = max(1, len(self._sequence).bit_length())
        self.reached: Set[int] = set()

    def _widths(self) -> Dict[str, int]:
        return {
            "source": self._name_bits,
            "direction": 1,
            "index": self._index_bits,
            "size_bound": self._index_bits,
        }

    def _make_message(self, direction: Direction, index: int) -> Message:
        header = Header.from_values(
            self._widths(),
            {
                "source": self._network.name_of(self._source),
                "direction": 0 if direction is Direction.FORWARD else 1,
                "index": index,
                "size_bound": self._bound,
            },
        )
        return Message(header=header, payload=self._payload)

    def _deliver_once(self, ctx: NodeContext) -> None:
        if not ctx.memory.load("broadcast_seen", False):
            ctx.memory.store("broadcast_seen", True)
            ctx.deliver(self._payload, note="broadcast payload")
        self.reached.add(ctx.node_id)

    def _process(self, ctx: NodeContext, vertex: int, entry_port: int, index: int, direction: Direction) -> None:
        kernel = self._kernel
        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner_of = kernel.owner
        physical_port_of = kernel.physical_port
        sequence = self._offsets
        length = len(sequence)
        while True:
            owner = owner_of[vertex]
            if direction is Direction.FORWARD:
                self._deliver_once(ctx)
                if index >= length:
                    direction = Direction.BACK
                    continue
                edge = 3 * vertex + (entry_port + sequence[index]) % 3
                index += 1
                next_v = next_vertex[edge]
                if owner_of[next_v] != owner:
                    ctx.send(physical_port_of[vertex], self._make_message(direction, index))
                    return
                entry_port = next_port[edge]
                vertex = next_v
            else:
                if owner == self._source or index == 0:
                    ctx.finish(RouteOutcome.SUCCESS)
                    return
                offset = sequence[index - 1]
                edge = 3 * vertex + entry_port
                index -= 1
                previous_v = next_vertex[edge]
                if owner_of[previous_v] != owner:
                    ctx.send(physical_port_of[vertex], self._make_message(direction, index))
                    return
                entry_port = (next_port[edge] - offset) % 3
                vertex = previous_v

    def _physical_port_of(self, owner: int, virtual_vertex: int) -> int:
        return self._kernel.physical_port[virtual_vertex]

    def on_start(self, ctx: NodeContext) -> None:
        self._process(
            ctx, self._kernel.gateway(self._source), 0, index=0, direction=Direction.FORWARD
        )

    def on_message(self, ctx: NodeContext, in_port: int, message: Message) -> None:
        direction = Direction.FORWARD if message.header.get("direction") == 0 else Direction.BACK
        index = int(message.header.get("index"))
        virtual = self._reduction.carrier(ctx.node_id, in_port)
        if direction is Direction.FORWARD:
            entry_port = EXTERNAL_PORT
        else:
            entry_port = (EXTERNAL_PORT - self._offsets[index]) % 3
        self._process(ctx, virtual, entry_port, index, direction)


def broadcast_on_network(
    network: AdHocNetwork,
    source: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    payload: object = None,
    node_memory_bits: Optional[int] = None,
    max_events: Optional[int] = None,
) -> BroadcastResult:
    """Run the distributed broadcast on a simulated network."""
    protocol = BroadcastProtocol(
        network, source=source, provider=provider, size_bound=size_bound, payload=payload
    )
    simulator = network.simulator(node_memory_bits=node_memory_bits)
    length = len(protocol._sequence)
    budget = max_events if max_events is not None else 4 * length + 64
    result = simulator.run(protocol, initiators=[source], max_events=budget)
    if result.result_at(source) is None:
        raise RoutingError("the source never learned that the broadcast completed")
    component = protocol._engine.original_component(source)
    reached = frozenset(protocol.reached)
    return BroadcastResult(
        source=source,
        reached=reached,
        component_size=len(component),
        covered_component=component <= set(reached),
        virtual_steps=length,
        physical_hops=result.stats.transmissions,
        sequence_length=length,
        size_bound=protocol._bound,
        header_bits=result.stats.max_header_bits,
        simulation=result,
    )
