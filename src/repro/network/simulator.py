"""A deterministic discrete-event simulator for static ad hoc networks.

The simulator delivers messages over the edges of a static
:class:`~repro.graphs.labeled_graph.LabeledGraph`.  Each transmission takes
one time unit (configurable), events are processed in ``(time, sequence)``
order, and the whole run is deterministic — re-running the same protocol on
the same network reproduces the same trace, which the test-suite relies on.

Protocols are written in the node-local style of the paper's pseudocode: a
handler is invoked with a :class:`~repro.network.node.NodeContext` and the
incoming message, may read/write only that node's metered memory, and may
send messages out of that node's ports.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.memory import MemoryMeter
from repro.errors import ProtocolViolation, SimulationLimitExceeded
from repro.geometry.deployment import Deployment
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.message import Message
from repro.network.node import Node, NodeContext
from repro.network.trace import DeliveryRecord, SimulationStats, TraceEvent

__all__ = ["Protocol", "Simulator", "SimulationResult"]


class Protocol(ABC):
    """A distributed protocol in node-local form.

    A single protocol instance serves every node; per-node state must live in
    the node's memory meter (accessible through the context), mirroring the
    paper's requirement that nodes have only O(log n) local storage.
    """

    def on_start(self, ctx: NodeContext) -> None:
        """Called once on each initiator node before any message flows."""

    @abstractmethod
    def on_message(self, ctx: NodeContext, in_port: int, message: Message) -> None:
        """Called when a node receives ``message`` on ``in_port``."""


@dataclass
class SimulationResult:
    """Everything a finished run produced."""

    stats: SimulationStats
    trace: List[TraceEvent]
    deliveries: List[DeliveryRecord]
    results: Dict[int, object]
    completed: bool
    events_processed: int

    def result_at(self, node_id: int) -> object:
        """Protocol-level result reported at ``node_id`` (or ``None``)."""
        return self.results.get(node_id)


class Simulator:
    """Discrete-event simulator over a static connectivity graph.

    Parameters
    ----------
    graph:
        The static connectivity graph.  Vertices are node ids; the port
        labels of the graph are the nodes' physical ports.
    names:
        Optional mapping from node id to universal name; defaults to the
        identity, i.e. the node id doubles as its name.
    deployment:
        Optional physical positions (enables position-based baselines).
    node_memory_bits:
        Optional per-node memory budget; when given, any protocol storing
        more than this many bits raises immediately (the hard O(log n) mode).
    link_delay:
        Time units a transmission takes; the default of 1 makes "time" equal
        to the longest chain of causally dependent messages.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        names: Optional[Dict[int, int]] = None,
        deployment: Optional[Deployment] = None,
        node_memory_bits: Optional[int] = None,
        link_delay: int = 1,
    ) -> None:
        if link_delay < 1:
            raise ProtocolViolation("link_delay must be at least 1")
        self._graph = graph
        self._deployment = deployment
        self._link_delay = link_delay
        self._names: Dict[int, int] = dict(names) if names is not None else {
            v: v for v in graph.vertices
        }
        if set(self._names) != set(graph.vertices):
            raise ProtocolViolation("names must cover exactly the graph's vertices")
        if len(set(self._names.values())) != len(self._names):
            raise ProtocolViolation("universal names must be unique")
        self._name_to_node = {name: node for node, name in self._names.items()}
        self._nodes: Dict[int, Node] = {}
        for v in graph.vertices:
            position = deployment.position(v) if deployment is not None else None
            self._nodes[v] = Node(
                node_id=v,
                name=self._names[v],
                degree=graph.degree(v),
                memory=MemoryMeter(budget_bits=node_memory_bits, label=f"node-{v}"),
                position=position,
            )
        self._protocol: Optional[Protocol] = None
        self._queue: List[Tuple[int, int, int, int, Message]] = []
        self._sequence = itertools.count()
        self._failed_links: set = set()
        self._failed_nodes: set = set()
        self._trace: List[TraceEvent] = []
        self._deliveries: List[DeliveryRecord] = []
        self._results: Dict[int, object] = {}
        self._stats = SimulationStats()

    # ------------------------------------------------------------------ #
    # Topology / naming lookups (used by NodeContext)
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> LabeledGraph:
        """The static connectivity graph."""
        return self._graph

    def node(self, node_id: int) -> Node:
        """The :class:`Node` object for ``node_id``."""
        return self._nodes[node_id]

    def nodes(self) -> List[Node]:
        """All nodes, ordered by id."""
        return [self._nodes[v] for v in self._graph.vertices]

    def name_of(self, node_id: int) -> int:
        """Universal name of ``node_id``."""
        return self._names[node_id]

    def node_of(self, name: int) -> int:
        """Node id carrying the universal name ``name``."""
        return self._name_to_node[name]

    def neighbor_name(self, node_id: int, port: int) -> int:
        """Name of the neighbour on the other end of ``port``."""
        neighbor, _ = self._graph.rotation(node_id, port)
        return self._names[neighbor]

    def neighbor_position(self, node_id: int, port: int):
        """Position of the neighbour on the other end of ``port`` (or ``None``)."""
        if self._deployment is None:
            return None
        neighbor, _ = self._graph.rotation(node_id, port)
        return self._deployment.position(neighbor)

    # ------------------------------------------------------------------ #
    # Failure injection (beyond the paper's static model)
    # ------------------------------------------------------------------ #

    def fail_link(self, u: int, v: int) -> None:
        """Silently drop all future transmissions between ``u`` and ``v``."""
        self._failed_links.add(frozenset((u, v)))

    def fail_node(self, v: int) -> None:
        """Silently drop all future transmissions to or from ``v``."""
        self._failed_nodes.add(v)

    # ------------------------------------------------------------------ #
    # Actions invoked by NodeContext
    # ------------------------------------------------------------------ #

    def transmit(self, sender: int, port: int, message: Message, now: int) -> None:
        """Schedule delivery of ``message`` sent by ``sender`` through ``port``."""
        receiver, receiver_port = self._graph.rotation(sender, port)
        if sender in self._failed_nodes or receiver in self._failed_nodes:
            return
        links = self._failed_links
        if links and sender != receiver and frozenset((sender, receiver)) in links:
            return
        deliver_at = now + self._link_delay
        event = TraceEvent(
            time=deliver_at,
            sender=sender,
            sender_port=port,
            receiver=receiver,
            receiver_port=receiver_port,
            header_bits=message.overhead_bits,
        )
        self._trace.append(event)
        self._stats.record_transmission(event)
        heapq.heappush(
            self._queue,
            (deliver_at, next(self._sequence), receiver, receiver_port, message),
        )

    def record_delivery(self, node_id: int, payload: object, now: int, note: str) -> None:
        """Record an application-level delivery at ``node_id``."""
        self._deliveries.append(DeliveryRecord(time=now, node=node_id, payload=payload, note=note))

    def record_result(self, node_id: int, result: object, now: int) -> None:
        """Record a protocol-level result reported at ``node_id``."""
        self._results[node_id] = result
        self._stats.final_time = max(self._stats.final_time, now)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(
        self,
        protocol: Protocol,
        initiators: List[int],
        max_events: int = 1_000_000,
        raise_on_limit: bool = True,
    ) -> SimulationResult:
        """Run ``protocol`` with the given initiator nodes until quiescence.

        The run ends when the event queue drains, or after ``max_events``
        message deliveries (raising :class:`SimulationLimitExceeded` unless
        ``raise_on_limit`` is false, in which case the partial result is
        returned with ``completed=False``).
        """
        self._protocol = protocol
        for node_id in initiators:
            if node_id not in self._nodes:
                raise ProtocolViolation(f"initiator {node_id} is not a node of the network")
            ctx = NodeContext(self, self._nodes[node_id], time=0)
            protocol.on_start(ctx)

        events_processed = 0
        while self._queue:
            if events_processed >= max_events:
                if raise_on_limit:
                    raise SimulationLimitExceeded(
                        f"simulation exceeded {max_events} delivered messages"
                    )
                return SimulationResult(
                    stats=self._stats,
                    trace=self._trace,
                    deliveries=self._deliveries,
                    results=dict(self._results),
                    completed=False,
                    events_processed=events_processed,
                )
            time, _, receiver, receiver_port, message = heapq.heappop(self._queue)
            events_processed += 1
            if receiver in self._failed_nodes:
                continue
            ctx = NodeContext(self, self._nodes[receiver], time=time)
            protocol.on_message(ctx, receiver_port, message)
        return SimulationResult(
            stats=self._stats,
            trace=self._trace,
            deliveries=self._deliveries,
            results=dict(self._results),
            completed=True,
            events_processed=events_processed,
        )

    # ------------------------------------------------------------------ #
    # Post-run inspection
    # ------------------------------------------------------------------ #

    def memory_high_water_bits(self) -> int:
        """Largest memory high-water mark over all nodes (bits)."""
        return max((node.memory.high_water_bits for node in self._nodes.values()), default=0)

    def stats(self) -> SimulationStats:
        """Aggregate statistics accumulated so far."""
        return self._stats
