"""Bracha reliable broadcast layered over the UES routing stack.

**Paper vs. extension.**  Braverman's note proves point-to-point routing (and
broadcast) with guaranteed delivery on honest static networks; this module is
the Byzantine extension the roadmap names: Bracha's SEND/ECHO/READY reliable
broadcast (Bracha 1987; correctness conditions as in Aspnes' notes,
arXiv:2001.04235) running *on top of* the repository's routing layer, so the
logical all-to-all channels Bracha assumes are priced — latency and
reachability — by the universal-exploration-sequence walk that
:func:`repro.core.engine.prepare` compiles and ``route_on_network`` executes
(the ``distributed-parity`` conformance invariant keeps those two identical).

The protocol, with ``f`` the tolerated Byzantine count and ``N`` nodes
(guarantees require ``N > 3f``):

* the source sends ``SEND(v)`` to everyone;
* on the first ``SEND(v)`` from the source a node sends ``ECHO(v)`` to
  everyone — or, with the *echo amplification* optimisation, on ``f + 1``
  matching ``ECHO(v)`` even if the ``SEND`` was lost;
* on ``ceil((N + f + 1) / 2)`` matching ``ECHO(v)`` — or ``f + 1`` matching
  ``READY(v)`` — a node sends ``READY(v)`` to everyone (each node echoes and
  readies at most once);
* on ``2f + 1`` matching ``READY(v)`` a node *delivers* ``v``.

The *reduced messages* optimisation skips sending an ``ECHO`` to a peer that
has already sent its ``READY`` (its echo phase is over, and ``READY`` is
sticky, so the message cannot change anything), and self-addressed messages
are counted locally instead of crossing the wire.  Both optimisations follow
the exemplar implementations referenced by SNIPPETS.md.

Byzantine behaviours come from a
:class:`~repro.network.byzantine.ByzantinePlan` (optionally composed with a
crash-model :class:`~repro.network.failures.FailurePlan` through
:class:`~repro.network.byzantine.FaultModel`).  Honest-to-honest channels are
assumed reliable — the Dolev-style realisation of that assumption over a
partially-corrupt *routing* substrate needs ``2f + 1`` vertex connectivity
and is out of scope here; Byzantine nodes lie in their own protocol messages
but do not silently absorb transit traffic.  Crashed processes are silent;
``FailurePlan.failed_links`` break the logical channel between a pair.

Accountability (after pod, arXiv:2501.14931): every wire transmission is
logged at arrival (a caller reads the log as :class:`BroadcastEvent`
records), and the run's logs are cross-examined for equivocation — two messages of the same kind, same sender,
different values — producing attributable :class:`Evidence` records rather
than a bare "agreement broke" verdict.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.core.engine import PreparedNetwork, prepare
from repro.core.universal import SequenceProvider
from repro.errors import SimulationError, SimulationLimitExceeded
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.byzantine import ByzantinePlan, FaultModel
from repro.network.failures import FailurePlan
from repro.network.message import HeaderSchema

__all__ = [
    "SEND",
    "ECHO",
    "READY",
    "QuorumThresholds",
    "BroadcastEvent",
    "Evidence",
    "ReliableBroadcastResult",
    "UESTransport",
    "broadcast_reliably",
    "equivocation_variants",
]

SEND = "SEND"
ECHO = "ECHO"
READY = "READY"

_KIND_INDEX = {SEND: 0, ECHO: 1, READY: 2}

#: Suffixes the scripted adversaries append to the base value.  Equivocators
#: push the base value to one half of the peers and the ``~alt`` variant to
#: the other; forgers fabricate support for the ``~forged`` variant.
_ALT_SUFFIX = "~alt"
_FORGED_SUFFIX = "~forged"


def equivocation_variants(value: str) -> Tuple[str, str]:
    """The two values an equivocator splits the network between."""
    base = value[: -len(_ALT_SUFFIX)] if value.endswith(_ALT_SUFFIX) else value
    return base, base + _ALT_SUFFIX


@dataclass(frozen=True)
class QuorumThresholds:
    """Bracha's quorum sizes for ``n`` nodes tolerating ``f`` Byzantine ones.

    ``f_tolerated`` is the largest ``f`` with ``n > 3f``; the actual corrupt
    count in a run may exceed it (that is exactly what the pinned
    ``f >= N/3`` regression exercises), in which case no guarantee holds.
    """

    n: int
    f_tolerated: int
    echo_quorum: int
    ready_support: int
    delivery_quorum: int

    @classmethod
    def for_size(cls, n: int) -> "QuorumThresholds":
        """The canonical thresholds for an ``n``-node network."""
        if n < 1:
            raise SimulationError("reliable broadcast needs at least one node")
        f = (n - 1) // 3
        return cls(
            n=n,
            f_tolerated=f,
            echo_quorum=-(-(n + f + 1) // 2),  # ceil((n + f + 1) / 2)
            ready_support=f + 1,
            delivery_quorum=2 * f + 1,
        )


#: One wire arrival as a run logs it: ``(time, seq, sender, receiver, kind, value)``.
_Arrival = Tuple[int, int, int, int, str, str]


@dataclass(frozen=True)
class BroadcastEvent:
    """One wire transmission, recorded at arrival (the golden-trace unit)."""

    time: int
    seq: int
    sender: int
    receiver: int
    kind: str
    value: str

    def as_list(self) -> List[object]:
        """The JSON-array shape used by golden fixtures and payloads."""
        return [self.time, self.seq, self.sender, self.receiver, self.kind, self.value]


@dataclass(frozen=True)
class Evidence:
    """An attributable protocol violation extracted from the event logs."""

    accused: int
    witness: int
    kind: str
    detail: str


@dataclass(frozen=True)
class ReliableBroadcastResult:
    """Everything one reliable-broadcast run produced.

    ``delivered`` holds ``(node, value)`` for every node that delivered
    (ascending node order); ``honest`` is the node set the guarantees
    quantify over (neither Byzantine nor crashed); ``origin_sent_values``
    are the values the source actually put into ``SEND`` messages — the
    reference set for the no-false-delivery invariant.  ``arrivals`` is the
    wire log, one ``(time, seq, sender, receiver, kind, value)`` tuple per
    arrival; :attr:`events` is the same log as :class:`BroadcastEvent`
    records, built on first read.
    """

    source: int
    value: str
    thresholds: QuorumThresholds
    byzantine: Tuple[Tuple[int, str], ...]
    crashed: Tuple[int, ...]
    honest: Tuple[int, ...]
    delivered: Tuple[Tuple[int, str], ...]
    delivery_times: Tuple[Tuple[int, int], ...]
    origin_sent_values: Tuple[str, ...]
    messages_sent: int
    final_time: int
    header_bits: int
    arrivals: Tuple[_Arrival, ...]
    evidence: Tuple[Evidence, ...]

    @cached_property
    def events(self) -> Tuple[BroadcastEvent, ...]:
        """Every wire transmission, in arrival order (the golden-trace unit)."""
        return tuple(BroadcastEvent(*arrival) for arrival in self.arrivals)

    @property
    def n(self) -> int:
        """Number of nodes in the network."""
        return self.thresholds.n

    @property
    def honest_delivered(self) -> Tuple[Tuple[int, str], ...]:
        """The deliveries of honest nodes only."""
        honest = set(self.honest)
        return tuple((node, value) for node, value in self.delivered if node in honest)

    @property
    def agreement(self) -> bool:
        """rb-agreement: no two honest nodes delivered different values."""
        return len({value for _node, value in self.honest_delivered}) <= 1

    @property
    def totality(self) -> bool:
        """rb-totality: either every honest node delivered or none did."""
        count = len(self.honest_delivered)
        return count == 0 or count == len(self.honest)

    @property
    def no_false_delivery(self) -> bool:
        """rb-no-false-delivery: honest deliveries are values the source sent.

        With an honest source this degenerates to "every delivered value is
        *the* broadcast value"; with a Byzantine source it still bounds what
        can be delivered to values the source actually emitted in ``SEND``
        messages (a forger's fabricated ECHO/READY support must never become
        a delivery on its own).
        """
        allowed = set(self.origin_sent_values)
        return all(value in allowed for _node, value in self.honest_delivered)

    @property
    def all_honest_delivered(self) -> bool:
        """Validity's conclusion: every honest node delivered something."""
        return len(self.honest_delivered) == len(self.honest)


class UESTransport:
    """Latency oracle for the logical all-to-all channels, priced by the walk.

    For an ordered pair ``(u, v)`` the latency is the *physical hop count* of
    the prepared engine's route from ``u`` to ``v`` (at least 1), or ``None``
    when the pair is disconnected (or ``v`` is no vertex) — in which case the
    message is lost, which is the honest-channel assumption failing, not the
    protocol.

    Every route from ``u`` follows the same walk of ``T_bound(u)``, so the
    first ``latency(u, ·)`` call walks it once and prices every target from
    it: the route to ``v`` stops at the first visit to ``v``'s cluster, after
    ``h(v)`` physical hops, and its backtrack retraces the walk to the last
    visit to ``u``'s cluster before that, made at hop ``h_src(v)``, so its
    hop count is ``2 * h(v) - h_src(v)``.  One transport instance therefore
    walks once per source (and a conformance scenario sweeping ``f`` shares
    one across runs).

    The engine route and the fully distributed ``route_on_network`` execution
    are interchangeable here: their parity on outcome and step accounting is
    a standing conformance invariant (``distributed-parity``), re-asserted at
    this layer by ``tests/test_byzantine.py``, and ``latency`` equals
    ``max(1, engine.route(u, v).physical_hops)`` on every delivered pair.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        provider: Optional[SequenceProvider] = None,
        engine: Optional[PreparedNetwork] = None,
    ) -> None:
        self._engine = engine if engine is not None else prepare(graph)
        self._provider = provider
        self._latencies: Dict[int, Dict[int, int]] = {}

    def latency(self, u: int, v: int) -> Optional[int]:
        """Delivery latency from ``u`` to ``v`` (``None`` = unreachable)."""
        if u == v:
            return 0
        latencies = self._latencies.get(u)
        if latencies is None:
            latencies = self._latencies[u] = self._walk_from(u)
        return latencies.get(v)

    def _walk_from(self, source: int) -> Dict[int, int]:
        """Route latency from ``source`` to every vertex its walk meets."""
        engine = self._engine
        engine._require_source(source)
        kernel = engine.kernel
        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner = kernel.owner
        stream = engine.offsets_for(engine.resolve_size_bound(source), self._provider)
        length = len(stream)
        # Every vertex of the source's component but the source itself.
        remaining = len(engine.original_component(source)) - 1

        latencies: Dict[int, int] = {}
        vertex, entry = kernel.gateway(source), 0
        current = source
        hops = 0
        source_hops = 0
        index = 0
        offsets = stream.prefix
        while remaining and index < length:
            if index >= len(offsets):
                offsets = stream.extend_to(index + 1)
            edge = 3 * vertex + (entry + offsets[index]) % 3
            vertex = next_vertex[edge]
            entry = next_port[edge]
            index += 1
            reached = owner[vertex]
            if reached == current:
                continue
            hops += 1
            current = reached
            if reached == source:
                source_hops = hops
            elif reached not in latencies:
                latencies[reached] = max(1, 2 * hops - source_hops)
                remaining -= 1
        return latencies


class _NodeState:
    """Per-node Bracha state (honest nodes and delay-only adversaries)."""

    __slots__ = (
        "echoes",
        "readies",
        "sent_echo",
        "sent_ready",
        "delivered",
        "delivered_at",
        "ready_peers",
    )

    def __init__(self) -> None:
        self.echoes: Dict[str, Set[int]] = {}
        self.readies: Dict[str, Set[int]] = {}
        self.sent_echo: Optional[str] = None
        self.sent_ready: Optional[str] = None
        self.delivered: Optional[str] = None
        self.delivered_at: Optional[int] = None
        self.ready_peers: Set[int] = set()


def _header_bits(n: int, values: Set[str]) -> int:
    """Bit-accounted overhead of one protocol message header.

    ``kind`` needs 2 bits, the origin name ``ceil(log2 n)`` bits (the paper's
    O(log n) header budget), and the value travels as an index into the run's
    value set — honest runs carry exactly one value, adversarial runs a
    handful, so the index stays within a byte.
    """
    name_bits = max(1, (max(1, n - 1)).bit_length())
    value_bits = max(1, (max(1, len(values) - 1)).bit_length())
    return HeaderSchema({"kind": 2, "origin": name_bits, "value_index": value_bits}).total_bits


class _BrachaRun:
    """One deterministic discrete-event execution of the protocol.

    The fault model and the quorum sizes are resolved once per run, into
    sets, a dict and ints, so a message costs set and dict lookups only.  The
    loop keeps each popped heap entry ``(time, seq, sender, receiver, kind,
    value)`` as it is, and so does the result.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        source: int,
        value: str,
        faults: FaultModel,
        transport: UESTransport,
        echo_amplification: bool,
        reduced_messages: bool,
        max_events: int,
    ) -> None:
        self.nodes = sorted(graph.vertices)
        if source not in set(self.nodes):
            raise SimulationError(f"source {source} is not a vertex of the graph")
        self.source = source
        self.value = value
        self.faults = faults
        self.transport = transport
        self.echo_amplification = echo_amplification
        self.reduced_messages = reduced_messages
        self.max_events = max_events

        self.crashed = frozenset(faults.crashed)
        self.behavior = dict(faults.byzantine)
        self.broken = frozenset(
            link for u, v in faults.broken_links for link in ((u, v), (v, u))
        )
        self.thresholds = QuorumThresholds.for_size(len(self.nodes))
        self.ready_support = self.thresholds.ready_support
        self.echo_quorum = self.thresholds.echo_quorum
        self.delivery_quorum = self.thresholds.delivery_quorum

        self.rank = {node: index for index, node in enumerate(self.nodes)}
        self.state = {node: _NodeState() for node in self.nodes}
        self.queue: List[_Arrival] = []
        self.arrivals: List[_Arrival] = []
        self.seq = 0
        self.messages_sent = 0
        self.now = 0
        self.values_seen: Set[str] = {value}
        self.origin_sent: List[str] = []
        self.activated: Set[int] = set()  # scripted adversaries fire once

    # ---------------------------------------------------------------- #
    # Emission
    # ---------------------------------------------------------------- #

    def send(self, sender: int, receiver: int, kind: str, value: str) -> None:
        """One wire transmission (dropped sends still count as sent)."""
        if sender in self.crashed:
            return
        self.values_seen.add(value)
        if sender == self.source and kind == SEND and value not in self.origin_sent:
            self.origin_sent.append(value)
        if receiver == sender:
            # Reduced-message rule: self-addressed messages are local state
            # updates, never wire traffic (applied unconditionally — sending
            # bits to yourself over the radio has no honest reading).
            self.receive(receiver, sender, kind, value)
            return
        self.messages_sent += 1
        latency = self.transport.latency(sender, receiver)
        if (
            latency is None
            or receiver in self.crashed
            or (sender, receiver) in self.broken
        ):
            return  # transmitted into the void
        if self.behavior.get(sender) == "delay":
            latency += self.faults.delay
        self.seq += 1
        heapq.heappush(
            self.queue, (self.now + latency, self.seq, sender, receiver, kind, value)
        )

    def emit_all(self, sender: int, kind: str, value: str) -> None:
        """Honest "send to everyone (including yourself, locally)"."""
        # Peers whose READY we already hold are past their echo phase and
        # READY is sticky — our echo cannot change their state.  Only the
        # sender's own READY can join the set during the loop, and the
        # sender is never skipped.
        ready_peers = (
            self.state[sender].ready_peers
            if self.reduced_messages and kind == ECHO
            else ()
        )
        for receiver in self.nodes:
            if receiver == sender or receiver not in ready_peers:
                self.send(sender, receiver, kind, value)

    # ---------------------------------------------------------------- #
    # Scripted adversaries
    # ---------------------------------------------------------------- #

    def run_adversary(self, node: int, behavior: str, heard_value: str) -> None:
        """Fire a scripted (non-delay) adversary's one-shot emission."""
        if node in self.activated or behavior == "drop":
            return
        self.activated.add(node)
        value_a, value_b = equivocation_variants(heard_value)
        if behavior == "equivocate":
            # Split the peers by rank parity and push a coherent SEND/ECHO/
            # READY story for a different value to each half.  Below the
            # f < N/3 threshold the echo quorum maths makes the split
            # harmless; at f >= N/3 this is the attack that breaks agreement.
            for receiver in self.nodes:
                if receiver == node:
                    continue
                variant = value_a if self.rank[receiver] % 2 == 0 else value_b
                if node == self.source:
                    self.send(node, receiver, SEND, variant)
                self.send(node, receiver, ECHO, variant)
                self.send(node, receiver, READY, variant)
            if node == self.source:
                # The wire log must betray both stories for accountability.
                self.origin_sent.extend(
                    v for v in (value_a, value_b) if v not in self.origin_sent
                )
        elif behavior == "forge":
            # Fabricate full ECHO/READY support for a value the source never
            # sent; honest nodes must still never deliver it (no echo quorum
            # can form without honest echoes, which need a SEND).
            bogus = value_a + _FORGED_SUFFIX
            if node == self.source:
                for receiver in self.nodes:
                    if receiver != node:
                        self.send(node, receiver, SEND, heard_value)
            for receiver in self.nodes:
                if receiver == node:
                    continue
                self.send(node, receiver, ECHO, bogus)
                self.send(node, receiver, READY, bogus)

    # ---------------------------------------------------------------- #
    # Honest protocol
    # ---------------------------------------------------------------- #

    def receive(self, node: int, sender: int, kind: str, value: str) -> None:
        """Apply one message to ``node``'s state machine."""
        if node in self.crashed:
            return
        behavior = self.behavior.get(node)
        if behavior is not None and behavior != "delay":
            # Scripted adversaries act once; a dropper stays silent.  The
            # "delay" adversary runs the honest logic below: its only
            # deviation is latency, applied at the send site.
            self.run_adversary(node, behavior, value)
            return
        state = self.state[node]
        if kind == SEND:
            if sender != self.source:
                return  # channels are authenticated: forged SENDs are ignored
            if state.sent_echo is None:
                state.sent_echo = value
                self.emit_all(node, ECHO, value)
            return
        if kind == ECHO:
            state.echoes.setdefault(value, set()).add(sender)
        elif kind == READY:
            state.readies.setdefault(value, set()).add(sender)
            state.ready_peers.add(sender)
        else:
            raise SimulationError(f"unknown message kind {kind!r}")
        self.check_thresholds(node, value)

    def check_thresholds(self, node: int, value: str) -> None:
        """Advance ``node`` through Bracha's phases for ``value``."""
        state = self.state[node]
        echoes = len(state.echoes.get(value, ()))
        readies = len(state.readies.get(value, ()))
        if (
            self.echo_amplification
            and state.sent_echo is None
            and echoes >= self.ready_support
        ):
            state.sent_echo = value
            self.emit_all(node, ECHO, value)
            echoes = len(state.echoes.get(value, ()))
        if state.sent_ready is None and (
            echoes >= self.echo_quorum or readies >= self.ready_support
        ):
            state.sent_ready = value
            self.emit_all(node, READY, value)
            readies = len(state.readies.get(value, ()))
        if state.delivered is None and readies >= self.delivery_quorum:
            state.delivered = value
            state.delivered_at = self.now

    # ---------------------------------------------------------------- #
    # Main loop
    # ---------------------------------------------------------------- #

    def start(self) -> None:
        """The source initiates its broadcast at time zero."""
        behavior = self.behavior.get(self.source)
        if self.source in self.crashed or behavior == "drop":
            return
        if behavior in ("equivocate", "forge"):
            self.run_adversary(self.source, behavior, self.value)
            return
        for receiver in self.nodes:
            self.send(self.source, receiver, SEND, self.value)

    def run(self) -> None:
        """Drain the event queue to quiescence (bounded by ``max_events``)."""
        self.start()
        queue = self.queue
        arrivals = self.arrivals
        receive = self.receive
        pop = heapq.heappop
        while queue:
            if len(arrivals) >= self.max_events:
                raise SimulationLimitExceeded(
                    f"reliable broadcast exceeded {self.max_events} events"
                )
            entry = pop(queue)
            self.now = entry[0]
            arrivals.append(entry)
            receive(entry[3], entry[2], entry[4], entry[5])

    def result(self) -> ReliableBroadcastResult:
        """Assemble the immutable run record."""
        arrivals = tuple(self.arrivals)
        excluded = self.crashed | set(self.behavior)
        honest = tuple(node for node in self.nodes if node not in excluded)
        delivered = tuple(
            (node, self.state[node].delivered)
            for node in self.nodes
            if self.state[node].delivered is not None
        )
        times = tuple(
            (node, self.state[node].delivered_at)
            for node in self.nodes
            if self.state[node].delivered_at is not None
        )
        return ReliableBroadcastResult(
            source=self.source,
            value=self.value,
            thresholds=self.thresholds,
            byzantine=self.faults.byzantine,
            crashed=self.faults.crashed,
            honest=honest,
            delivered=delivered,
            delivery_times=times,
            origin_sent_values=tuple(self.origin_sent),
            messages_sent=self.messages_sent,
            final_time=self.now,
            header_bits=_header_bits(len(self.nodes), self.values_seen),
            arrivals=arrivals,
            evidence=tuple(_detect_equivocation(arrivals)),
        )


def _detect_equivocation(arrivals: Tuple[_Arrival, ...]) -> List[Evidence]:
    """Cross-examine the wire logs for same-kind/different-value senders.

    This is the pod-style accountability pass: each receiver's log is honest
    evidence of what a sender transmitted, so two logged messages of the same
    kind from the same sender with different values *prove* equivocation and
    name the culprit.  One :class:`Evidence` record is produced per
    ``(accused, kind)`` pair, witnessed by the lowest-id receiver of a
    conflicting value.
    """
    first: Dict[Tuple[int, str], Tuple[str, int]] = {}
    accused_kinds: Dict[Tuple[int, str], Evidence] = {}
    for _time, _seq, sender, receiver, kind, sent in arrivals:
        key = (sender, kind)
        seen = first.get(key)
        if seen is None:
            first[key] = (sent, receiver)
            continue
        value, witness = seen
        if sent != value and key not in accused_kinds:
            accused_kinds[key] = Evidence(
                accused=sender,
                witness=min(witness, receiver),
                kind="equivocation",
                detail=(
                    f"{kind} for {value!r} (to {witness}) and "
                    f"{sent!r} (to {receiver})"
                ),
            )
    return [accused_kinds[key] for key in sorted(accused_kinds)]


def broadcast_reliably(
    graph: LabeledGraph,
    source: int,
    value: str = "m",
    plan: Optional[ByzantinePlan] = None,
    failures: Optional[FailurePlan] = None,
    faults: Optional[FaultModel] = None,
    provider: Optional[SequenceProvider] = None,
    transport: Optional[UESTransport] = None,
    echo_amplification: bool = True,
    reduced_messages: bool = True,
    max_events: int = 500_000,
) -> ReliableBroadcastResult:
    """Run one Bracha reliable broadcast of ``value`` from ``source``.

    ``plan`` injects Byzantine behaviours, ``failures`` crash-model faults;
    they compose order-independently through
    :meth:`repro.network.byzantine.FaultModel.resolve` (or pass a pre-resolved
    ``faults`` directly, which takes precedence).  ``transport`` may be shared
    across runs on the same graph to amortise the underlying route walks.

    The execution is fully deterministic: the event queue is keyed by
    ``(arrival time, send sequence)``, nodes are iterated in sorted order and
    all randomness (behaviour placement) lives in the plan's seed.
    """
    if not isinstance(value, str) or not value:
        raise SimulationError("the broadcast value must be a non-empty string")
    if faults is None:
        faults = FaultModel.resolve(byzantine=plan, failures=failures)
    if transport is None:
        transport = UESTransport(graph, provider=provider)
    run = _BrachaRun(
        graph=graph,
        source=source,
        value=value,
        faults=faults,
        transport=transport,
        echo_amplification=echo_amplification,
        reduced_messages=reduced_messages,
        max_events=max_events,
    )
    run.run()
    return run.result()
