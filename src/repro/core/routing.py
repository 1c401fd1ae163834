"""Algorithm ``Route`` — guaranteed ad hoc routing (Section 3, Theorem 1).

The algorithm routes a message from a source ``s`` to a target ``t`` by
following a universal exploration sequence over the degree-reduced (3-regular)
version of the network.  The message header carries only

    ``(s, t, dir, status, i)``

— the two endpoint names, one direction bit, a two-bit status field (none /
success / failure) and the current index into the exploration sequence — i.e.
``O(log n)`` bits.  Intermediate nodes store nothing.  If the target lies in
the source's connected component the walk is guaranteed to reach it; otherwise
the walk runs out of sequence and, thanks to the reversibility of exploration
sequences, backtracks to the source carrying a *failure* confirmation.  Either
way the source learns the outcome.

Two interchangeable realisations are provided:

* :func:`route` — a centralised walker that executes the exact same step rule
  directly on the graph.  It is fast and is what the benchmark harness sweeps.
* :func:`route_on_network` — the fully distributed version: a
  :class:`~repro.network.simulator.Protocol` where each physical node locally
  simulates its virtual (degree-reduction) nodes, all transient state travels
  in the message header, and every physical transmission is simulated and
  accounted.

Both realisations run on the prepared engine of :mod:`repro.core.engine`: the
degree reduction, the component size tables and the flat-array walk kernel are
computed once per graph and shared across calls, so repeated routes on the
same network pay only for the walk itself.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.memory import bits_for_namespace
from repro.core.universal import RandomSequenceProvider, SequenceProvider
from repro.errors import RoutingError
from repro.graphs.degree_reduction import EXTERNAL_PORT
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.adhoc import AdHocNetwork
from repro.network.message import Header, HeaderSchema, Message
from repro.network.node import NodeContext
from repro.network.simulator import Protocol, SimulationResult

__all__ = [
    "Direction",
    "RouteOutcome",
    "RouteResult",
    "route",
    "route_on_network",
    "RouteProtocol",
    "default_provider",
]

#: Shared default sequence provider so repeated calls reuse cached sequences.
_DEFAULT_PROVIDER = RandomSequenceProvider(seed=2008)


def default_provider() -> RandomSequenceProvider:
    """The library-wide default exploration-sequence provider."""
    return _DEFAULT_PROVIDER


class Direction(enum.Enum):
    """Travel direction of the routed message (the header's ``dir`` bit)."""

    FORWARD = "forward"
    BACK = "back"


class RouteOutcome(enum.Enum):
    """Final verdict reported back at the source (the header's ``status`` bit)."""

    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True, init=False)
class RouteResult:
    """Everything a single routing attempt produced.

    ``outcome`` is the verdict the source ends up holding; ``delivered`` says
    whether the payload actually reached the target (for a correct run these
    agree: SUCCESS iff delivered).  Step counts distinguish the walk on the
    reduced graph (``virtual``) from actual physical transmissions.

    ``__init__`` is written out because a lockstep batch builds one result
    per pair.  The one a frozen dataclass generates calls
    ``object.__setattr__`` per field; storing each field into the instance
    ``__dict__`` builds a result about three times faster, for 64 more
    bytes per result (the ``__dict__`` object; its keys stay shared).  On
    the traced ``batch-warm`` benchmark (2 cores, CPython 3.11) that moved
    the untraced glue's share of the wall from ~10% to ~7%.  The signature
    is the fields in order, with their defaults.
    """

    outcome: RouteOutcome
    delivered: bool
    source: int
    target: int
    size_bound: int
    sequence_length: int
    forward_virtual_steps: int
    backward_virtual_steps: int
    physical_hops: int
    target_found_at_step: Optional[int]
    header_bits: int
    node_memory_high_water_bits: int = 0
    simulation: Optional[SimulationResult] = None

    def __init__(
        self,
        outcome: RouteOutcome,
        delivered: bool,
        source: int,
        target: int,
        size_bound: int,
        sequence_length: int,
        forward_virtual_steps: int,
        backward_virtual_steps: int,
        physical_hops: int,
        target_found_at_step: Optional[int],
        header_bits: int,
        node_memory_high_water_bits: int = 0,
        simulation: Optional[SimulationResult] = None,
    ) -> None:
        fields = self.__dict__
        fields["outcome"] = outcome
        fields["delivered"] = delivered
        fields["source"] = source
        fields["target"] = target
        fields["size_bound"] = size_bound
        fields["sequence_length"] = sequence_length
        fields["forward_virtual_steps"] = forward_virtual_steps
        fields["backward_virtual_steps"] = backward_virtual_steps
        fields["physical_hops"] = physical_hops
        fields["target_found_at_step"] = target_found_at_step
        fields["header_bits"] = header_bits
        fields["node_memory_high_water_bits"] = node_memory_high_water_bits
        fields["simulation"] = simulation

    @property
    def total_virtual_steps(self) -> int:
        """Forward plus backward steps on the reduced graph."""
        return self.forward_virtual_steps + self.backward_virtual_steps

    @property
    def confirmed(self) -> bool:
        """True — the algorithm always returns a confirmation to the source."""
        return True


def _route_header_widths(name_bits: int, index_bits: int) -> Dict[str, int]:
    """The route header's fields and their widths in bits, in wire order.

    The paper's message header ``(s, t, dir, status, i)`` plus the size
    bound.  ``source`` and ``target`` are universal names of ``name_bits``
    each.  ``status`` is a three-valued field (none / success / failure) and
    therefore occupies **two** bits; the paper's prose calls it the
    confirmation bit because only the success/failure distinction travels
    back to the source.  ``index`` is the position in the exploration
    sequence.

    ``size_bound`` is the bound ``n`` on the number of vertices of the reduced
    connected component that selects which sequence ``T_n`` the nodes follow.
    Section 3 first assumes it is known; Section 4 (Algorithm ``CountNodes``)
    shows how the source discovers it, after which it simply rides along in
    the header — still ``O(log n)`` bits.  Both ``index`` and ``size_bound``
    take ``index_bits``, the bit length of the sequence length.
    """
    return {
        "source": name_bits,
        "target": name_bits,
        "direction": 1,
        "status": 2,
        "index": index_bits,
        "size_bound": index_bits,
    }


#: The header's ``status`` codes (none / success / failure) and back.
_STATUS_CODE = {None: 0, RouteOutcome.SUCCESS: 1, RouteOutcome.FAILURE: 2}
_STATUS_OF = {code: status for status, code in _STATUS_CODE.items()}


def _check_start_port(start_port: object) -> None:
    """Refuse an entry port of the initial edge outside 0..2.

    A walk state is ``3 * vertex + entry port``: any other entry port names a
    different vertex's state on the lockstep path.
    """
    if (
        isinstance(start_port, bool)
        or not isinstance(start_port, numbers.Integral)
        or not 0 <= start_port <= 2
    ):
        raise RoutingError(f"start_port must be 0, 1 or 2, got {start_port!r}")


def _check_size_bound(size_bound: object) -> None:
    """Refuse a ``size_bound`` that is not a positive integer."""
    if isinstance(size_bound, bool) or not isinstance(size_bound, numbers.Integral):
        raise RoutingError(f"size_bound must be an integer, got {size_bound!r}")
    if size_bound < 1:
        raise RoutingError("size_bound must be positive")


def _header_bits(namespace_size: int, sequence_length: int) -> int:
    """Total route header size in bits for a given namespace and sequence length."""
    name_bits = bits_for_namespace(namespace_size)
    index_bits = max(1, sequence_length.bit_length())
    return sum(_route_header_widths(name_bits, index_bits).values())


# --------------------------------------------------------------------------- #
# Centralised walker
# --------------------------------------------------------------------------- #


def route(
    graph: LabeledGraph,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
    namespace_size: Optional[int] = None,
) -> RouteResult:
    """Run Algorithm ``Route`` from ``source`` towards ``target`` on ``graph``.

    ``graph`` is the physical network (arbitrary degrees); it is degree-reduced
    internally.  ``target`` may name a vertex outside the source's component
    — or a vertex that does not exist at all — in which case the result's
    outcome is :data:`RouteOutcome.FAILURE`, obtained after the walk exhausts
    the sequence and backtracks, exactly as in the paper.

    Parameters
    ----------
    provider:
        Exploration-sequence provider (defaults to the shared library
        provider).
    size_bound:
        Bound on the reduced component size.  ``None`` uses the true size
        (what ``CountNodes`` would report).
    start_port:
        Entry port of the initial edge at the source's gateway virtual node.
    namespace_size:
        Only used for header-size accounting; defaults to the number of
        vertices.
    """
    # The engine caches the reduction, size tables and compiled walk kernel
    # per graph, so repeated calls only pay for the walk itself.  Imported
    # lazily because the engine module imports this one for the result types.
    from repro.core.engine import prepare

    return prepare(graph).route(
        source,
        target,
        provider=provider,
        size_bound=size_bound,
        start_port=start_port,
        namespace_size=namespace_size,
    )


# --------------------------------------------------------------------------- #
# Distributed protocol
# --------------------------------------------------------------------------- #


class RouteProtocol(Protocol):
    """The distributed realisation of Algorithm ``Route``.

    Every physical node locally simulates the virtual nodes its degree-
    reduction cluster contributes (Fig. 1: "Each node v simulates O(deg(v))
    nodes of degree 3").  A node that receives the message reconstructs the
    virtual walk position from its arrival port alone, advances the walk
    through its own virtual nodes — consulting only its locally derivable
    cluster structure and the shared deterministic sequence ``T_n`` — and
    forwards the message over the physical port on which the walk leaves its
    cluster.  No per-node state survives between messages.
    """

    def __init__(
        self,
        network: AdHocNetwork,
        source: int,
        target: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        payload: object = None,
        engine: Optional[object] = None,
    ) -> None:
        from repro.core.engine import PreparedNetwork, prepare

        self._source = source
        self._target = target
        self._payload = payload
        self._provider = provider if provider is not None else _DEFAULT_PROVIDER
        # The prepared engine is computed once per graph and shared, but
        # handlers only ever consult the slice of it describing their own node
        # (cluster members, their rotation entries and the carrier lookup);
        # that slice is locally computable from the node's own degree, so the
        # locality discipline of the model is respected.
        if engine is not None:
            if not isinstance(engine, PreparedNetwork):
                raise RoutingError("engine must be a PreparedNetwork")
            if engine.graph is not network.graph:
                raise RoutingError(
                    "engine was prepared for a different graph than this network's"
                )
        self._engine = engine if engine is not None else prepare(network.graph)
        self._kernel = self._engine.kernel
        self._bound = self._engine.resolve_size_bound(source, size_bound)
        self._offsets = self._engine.offsets_for(self._bound, self._provider)
        # The raw offsets ARE the sequence; the alias keeps the historical
        # attribute that callers size simulation budgets from.
        self._sequence = self._offsets
        name_bits = network.name_bits
        self._schema = HeaderSchema(
            _route_header_widths(name_bits, max(1, len(self._sequence).bit_length()))
        )
        self._source_name = network.name_of(source)
        # An unknown target has no universal name; the header carries the
        # all-ones in-namespace sentinel instead so the message stays
        # well-formed and the walk fails gracefully (the outcome comparison
        # uses node ids held by the protocol, never this field).
        self._target_name = (
            network.name_of(target)
            if target in network.names
            else (1 << name_bits) - 1
        )
        self.delivered_at_target = False
        self.target_found_at_step: Optional[int] = None
        #: Real walk-step counters, mirrored from the centralised walker so
        #: ``route_on_network`` reports the same virtual-step accounting.
        self.forward_steps = 0
        self.backward_steps = 0

    # -- header helpers -------------------------------------------------- #

    def _make_message(
        self, direction: Direction, status: Optional[RouteOutcome], index: int
    ) -> Message:
        header = Header(
            self._schema,
            (
                self._source_name,
                self._target_name,
                0 if direction is Direction.FORWARD else 1,
                _STATUS_CODE[status],
                index,
                self._bound,
            ),
        )
        return Message(header=header, payload=self._payload)

    @staticmethod
    def _decode(message: Message) -> Tuple[Direction, Optional[RouteOutcome], int]:
        direction = Direction.FORWARD if message.header.get("direction") == 0 else Direction.BACK
        status = _STATUS_OF[message.header.get("status")]
        return direction, status, int(message.header.get("index"))

    # -- local walk processing ------------------------------------------- #

    def _process(
        self,
        ctx: NodeContext,
        vertex: int,
        entry_port: int,
        index: int,
        direction: Direction,
        status: Optional[RouteOutcome],
    ) -> None:
        """Advance the walk locally until it leaves this node or terminates.

        The walk runs on the engine's compiled arrays: ``(vertex, entry_port)``
        are plain ints and each step is two list indexes, but the step rule is
        the same one :func:`repro.core.exploration.step_forward` defines.
        """
        kernel = self._kernel
        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner_of = kernel.owner
        physical_port_of = kernel.physical_port
        # Read the stream's ``bytes`` prefix directly and extend it only when
        # the walk reaches its end; the backward phase retraces offsets the
        # forward phase already generated.
        stream = self._offsets
        length = len(stream)
        offsets = stream.prefix
        available = len(offsets)
        while True:
            owner = owner_of[vertex]
            if direction is Direction.FORWARD:
                if owner == self._target:
                    if not self.delivered_at_target:
                        self.delivered_at_target = True
                        self.target_found_at_step = index
                        ctx.deliver(self._payload, note="routed payload")
                    direction = Direction.BACK
                    status = RouteOutcome.SUCCESS
                    continue
                if index >= available:
                    if index >= length:
                        direction = Direction.BACK
                        status = RouteOutcome.FAILURE
                        continue
                    offsets = stream.extend_to(index + 1)
                    available = len(offsets)
                edge = 3 * vertex + (entry_port + offsets[index]) % 3
                index += 1
                self.forward_steps += 1
                next_v = next_vertex[edge]
                if owner_of[next_v] != owner:
                    # A cluster-leaving step always exits through the virtual
                    # node's external port, whose physical counterpart is the
                    # original port that virtual node carries.
                    ctx.send(physical_port_of[vertex], self._make_message(direction, status, index))
                    return
                entry_port = next_port[edge]
                vertex = next_v
            else:
                if owner == self._source:
                    ctx.finish(status)
                    return
                if index == 0:
                    ctx.finish(status)
                    return
                offset = offsets[index - 1]
                edge = 3 * vertex + entry_port
                index -= 1
                self.backward_steps += 1
                previous_v = next_vertex[edge]
                if owner_of[previous_v] != owner:
                    ctx.send(physical_port_of[vertex], self._make_message(direction, status, index))
                    return
                entry_port = (next_port[edge] - offset) % 3
                vertex = previous_v

    # -- Protocol interface ----------------------------------------------- #

    def on_start(self, ctx: NodeContext) -> None:
        self._process(
            ctx,
            self._kernel.gateway(self._source),
            0,
            index=0,
            direction=Direction.FORWARD,
            status=None,
        )

    def on_message(self, ctx: NodeContext, in_port: int, message: Message) -> None:
        direction, status, index = self._decode(message)
        # The cluster member carrying the arrival port (a cluster holds one
        # member per port, or a single member for degree <= 1).
        virtual = self._kernel.clusters[ctx.node_id][in_port]
        if direction is Direction.FORWARD:
            entry_port = EXTERNAL_PORT
        else:
            # The sender already undid step ``index``; reconstruct the entry
            # port of the pre-step state locally from the same offset (every
            # reduced vertex has degree 3).
            entry_port = (EXTERNAL_PORT - self._offsets.prefix[index]) % 3
        self._process(ctx, virtual, entry_port, index, direction, status)


def route_on_network(
    network: AdHocNetwork,
    source: int,
    target: int,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    payload: object = None,
    node_memory_bits: Optional[int] = None,
    max_events: Optional[int] = None,
    engine: Optional[object] = None,
) -> RouteResult:
    """Run the distributed Algorithm ``Route`` on a simulated network.

    This is the end-to-end reproduction of Theorem 1: the message is actually
    transmitted hop by hop, every header is bit-accounted, per-node memory is
    metered, and the source node ends the run holding the success/failure
    verdict.  ``engine`` optionally supplies a prebuilt
    :class:`~repro.core.engine.PreparedNetwork` for the network's graph;
    otherwise the shared per-graph engine is used, so repeated calls on one
    network never recompute the reduction.  A ``target`` that names no node
    fails gracefully: the walk exhausts the sequence and the source receives
    a FAILURE confirmation, exactly like the centralised walker.
    """
    if not network.graph.has_vertex(source):
        raise RoutingError(f"source {source!r} is not a node of the network")
    protocol = RouteProtocol(
        network,
        source=source,
        target=target,
        provider=provider,
        size_bound=size_bound,
        payload=payload,
        engine=engine,
    )
    simulator = network.simulator(node_memory_bits=node_memory_bits)
    length = len(protocol._sequence)
    budget = max_events if max_events is not None else 4 * length + 64
    result = simulator.run(protocol, initiators=[source], max_events=budget)
    status = result.result_at(source)
    if status is None:
        raise RoutingError(
            "the source never received a confirmation; the simulation budget "
            "may be too small or the protocol violated an invariant"
        )
    outcome = status if isinstance(status, RouteOutcome) else RouteOutcome(status)
    return RouteResult(
        outcome=outcome,
        delivered=protocol.delivered_at_target,
        source=source,
        target=target,
        size_bound=protocol._bound,
        sequence_length=length,
        forward_virtual_steps=protocol.forward_steps,
        backward_virtual_steps=protocol.backward_steps,
        physical_hops=result.stats.transmissions,
        target_found_at_step=protocol.target_found_at_step,
        header_bits=result.stats.max_header_bits,
        node_memory_high_water_bits=simulator.memory_high_water_bits(),
        simulation=result,
    )
