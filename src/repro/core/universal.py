"""Universal exploration sequences (Definition 3 / Theorem 4 of the paper).

A sequence is *universal* for connected 3-regular graphs of size ``<= n`` when
following it from any start edge, on any such graph, under any labeling,
visits every vertex.  Reingold's theorem says such sequences of polynomial
length can be produced deterministically in logarithmic space; the paper uses
them as a black box.

This module provides the black box in three practical forms, together with the
certification machinery that keeps the delivery guarantee *checkable* instead
of assumed:

* :class:`RandomSequenceProvider` — pseudo-random offsets of length
  ``Theta(n^3)``; universal with overwhelming probability (the probabilistic
  argument the paper sketches), and deterministic for a fixed seed, so every
  node of the network recomputes identical entries.  Its sequences are lazy
  :class:`OffsetStream` objects: an immutable ``bytes`` prefix extended on
  demand, so a walk pays only for the offsets it actually reads.
* :class:`CertifiedSequenceProvider` — wraps any provider and *certifies*
  coverage against a family of 3-regular graphs (exhaustive for very small
  ``n``, a structured + randomised family otherwise), doubling the sequence
  length until certification passes.  This is the reproduction's stand-in for
  the log-space construction of [Reingold 2004]: the routing layer gets a
  concrete sequence whose coverage property has been verified rather than
  derived from the zig-zag analysis.  (The zig-zag machinery itself is
  implemented in :mod:`repro.expander` and can serve as the wrapped provider.)
* :func:`certify_covers` / :func:`exhaustive_cubic_graphs` — the verification
  primitives, usable on their own in tests and experiments.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import (
    GraphStructureError,
    SequenceExhaustedError,
    UniversalityCertificationError,
)
from repro.core.exploration import ExplicitSequence, ExplorationSequence, covers_component
from repro.core.kernel_store import _LOCK_HOLDERS, LRUCache
from repro.graphs.connectivity import is_connected
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs import generators
from repro.graphs.degree_reduction import reduce_to_three_regular

__all__ = [
    "OffsetStream",
    "SequenceProvider",
    "RandomSequenceProvider",
    "CertifiedSequenceProvider",
    "CertificationReport",
    "CoverageFailure",
    "certify_covers",
    "standard_certification_family",
    "exhaustive_cubic_graphs",
    "default_sequence_length",
    "offset_stream",
]


def default_sequence_length(n: int, factor: int = 6) -> int:
    """Default length budget for a candidate sequence for graphs of size ``<= n``.

    A random walk covers a 3-regular graph of ``n`` vertices in ``O(n^2)``
    expected steps (the paper cites Feige / Lovász), and on any *fixed* graph
    a sequence of independent uniform offsets induces exactly a simple random
    walk, so ``Theta(n^2 log n)`` steps cover with high probability.  The
    default budget is ``factor * n^2 * ceil(log2 n)`` with a small floor for
    tiny graphs; callers needing the (much larger) fully-universal budget can
    pass their own ``length_fn``.
    """
    n = max(1, n)
    return max(32, factor * n * n * max(1, n.bit_length()))


#: ``_TOP2[b]`` is the top two bits of byte ``b``: applied to the most
#: significant byte of a 32-bit Mersenne Twister word it yields exactly what
#: ``getrandbits(2)`` returns for that word.
_TOP2 = bytes(byte >> 6 for byte in range(256))

#: Offsets built by a stream's first extension; later ones double the prefix.
_FIRST_EXTENSION = 4096

#: Mersenne Twister words drawn per generation step, which bounds the
#: temporaries of one step to a few MB however long the sequence is.
_WORDS_PER_STEP = 1 << 18

#: Bound on the streams a provider keeps (keyed by ``n``).  CountNodes'
#: doubling loop needs ~log2(n) live bounds, a sweep one per scenario bound.
_STREAM_CACHE_LIMIT = 32


class OffsetStream:
    """An exploration sequence ``T_n`` as a lazily extended ``bytes`` prefix.

    ``len()`` is the declared length and costs nothing; the offsets
    themselves are generated only as far as a reader asks for them, which is
    the paper's own model (Section 2): a node recomputes ``T_n[i]`` locally
    and a delivered route reads only a short prefix of the sequence.

    A *seeded* stream holds a ``random.Random`` seeded with ``seed`` and
    extends its prefix by doubling (from :data:`_FIRST_EXTENSION` offsets)
    under a per-stream lock, because the daemon's dispatch threads share one
    provider.  Each step draws ``32 * words`` random bits in one call, keeps
    the top two bits of every 32-bit word and drops the value 3 — which is
    exactly what ``randrange(3)`` does one word at a time, so the prefix is
    bit-identical to the loop ``[rng.randrange(3) for _ in range(length)]``.
    The prefix is immutable: a reader keeps the ``bytes`` it was handed while
    a later extension publishes a longer one.

    A stream built from ``data`` alone is complete from the start; that is
    how :func:`offset_stream` normalises any other sequence into this one
    representation.
    """

    __slots__ = ("_prefix", "_length", "_seed", "_rng", "_lock", "__weakref__")

    def __init__(
        self, data: bytes = b"", length: Optional[int] = None, seed: Optional[str] = None
    ) -> None:
        if seed is None:
            if length is not None and length != len(data):
                raise ValueError("a stream without a seed must be given all its offsets")
            length = len(data)
        elif length is None:
            raise ValueError("a seeded stream needs its declared length")
        self._prefix = bytes(data)
        self._length = length
        self._seed = seed
        self._rng = None
        self._lock = None
        if seed is not None:
            self._rng = random.Random(seed)
            self._lock = threading.Lock()
            _LOCK_HOLDERS[id(self)] = self  # a forked child re-arms the lock

    def __len__(self) -> int:
        return self._length

    @property
    def prefix(self) -> bytes:
        """The offsets generated so far (never longer than the declared length)."""
        return self._prefix

    def extend_to(self, count: int) -> bytes:
        """Return a prefix holding at least ``min(count, len(self))`` offsets."""
        prefix = self._prefix
        if count <= len(prefix) or len(prefix) >= self._length:
            return prefix
        with self._lock:
            prefix = self._prefix
            if count > len(prefix):
                target = min(self._length, max(count, 2 * len(prefix), _FIRST_EXTENSION))
                prefix = self._prefix = self._grown(prefix, target)
            return prefix

    def _grown(self, prefix: bytes, target: int) -> bytes:
        """``prefix`` continued from the generator state to ``target`` offsets.

        Every offset a step produces is kept (up to the declared length), so
        the generator state always sits exactly after the last kept offset.
        """
        pieces = [prefix]
        have = len(prefix)
        getrandbits = self._rng.getrandbits
        while have < target:
            # 4/3 words per offset on average; a short step just loops again.
            words = min(_WORDS_PER_STEP, (target - have) * 4 // 3 + 16)
            piece = (
                getrandbits(32 * words)
                .to_bytes(4 * words, "little")[3::4]
                .translate(_TOP2)
                .replace(b"\x03", b"")
            )
            pieces.append(piece)
            have += len(piece)
        if have > self._length:
            pieces[-1] = pieces[-1][: len(pieces[-1]) - (have - self._length)]
        return b"".join(pieces)

    def offsets(self) -> bytes:
        """All ``len(self)`` offsets (generates whatever is still missing)."""
        return self.extend_to(self._length)

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(*index.indices(self._length))
            prefix = self.extend_to(max(span) + 1 if span else 0)
            if span.step > 0:
                return prefix[span.start : span.stop : span.step]
            return bytes(prefix[i] for i in span)
        prefix = self._prefix
        if 0 <= index < len(prefix):
            return prefix[index]
        if not 0 <= index < self._length:
            raise SequenceExhaustedError(
                f"index {index} outside sequence of length {self._length}"
            )
        return self.extend_to(index + 1)[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.offsets())

    def __reduce__(self):
        # Pickle the definition, not the lock or the generator: a seeded
        # stream regenerates the same offsets from its seed on demand.
        if self._seed is not None:
            return (OffsetStream, (b"", self._length, self._seed))
        return (OffsetStream, (self._prefix,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffsetStream):
            return NotImplemented
        if self._length != other._length:
            return False
        if self._seed is not None and self._seed == other._seed:
            return True
        return self.offsets() == other.offsets()

    def __hash__(self) -> int:
        # Equal streams share their length and first offsets; a tuple of ints
        # hashes the same in every process.
        return hash((self._length, tuple(self.extend_to(64)[:64])))

    def __repr__(self) -> str:
        preview = ", ".join(str(t) for t in self.extend_to(8)[:8])
        suffix = ", ..." if self._length > 8 else ""
        return (
            f"OffsetStream([{preview}{suffix}], length={self._length}, "
            f"materialised={len(self._prefix)})"
        )


def offset_stream(sequence: ExplorationSequence) -> OffsetStream:
    """``sequence`` as an :class:`OffsetStream`, the form every walk kernel reads.

    Streams pass through unchanged.  Any other sequence is normalised to
    ``bytes(t % 3 ...)``; that is exact because every walk step takes its
    offset modulo 3.  An :class:`ExplicitSequence` keeps its normalised
    bytes, so repeated calls do not redo the work.
    """
    if isinstance(sequence, OffsetStream):
        return sequence
    if isinstance(sequence, ExplicitSequence):
        return OffsetStream(sequence.offset_bytes())
    return OffsetStream(bytes(sequence[i] % 3 for i in range(len(sequence))))


class SequenceProvider(ABC):
    """Produces exploration sequences ``T_n`` indexed by the size bound ``n``.

    Providers must be deterministic: repeated calls with the same ``n`` return
    identical sequences.  This mirrors the paper's model where every node
    recomputes ``T_n[i]`` locally from scratch.
    """

    @abstractmethod
    def sequence_for(self, n: int) -> ExplorationSequence:
        """Return a sequence intended to be universal for 3-regular graphs of size <= n."""

    def length_for(self, n: int) -> int:
        """Length ``L_n`` of the sequence for bound ``n`` (the paper's ``|T_n|``)."""
        return len(self.sequence_for(n))

    def offset(self, n: int, index: int) -> int:
        """Return ``T_n[index]`` — the per-step lookup a node performs locally."""
        return self.sequence_for(n)[index]


class RandomSequenceProvider(SequenceProvider):
    """Pseudo-random exploration sequences, deterministic per (seed, n).

    The offsets are uniform over ``{0, 1, 2}``; the length defaults to
    ``default_sequence_length(n)`` and can be scaled with ``length_multiplier``
    (the knob :class:`CertifiedSequenceProvider` turns when certification
    fails).  Sequences are lazy :class:`OffsetStream` objects kept in a
    bounded LRU keyed by ``n``; an evicted stream regenerates the same
    offsets.
    """

    def __init__(
        self,
        seed: int = 0,
        length_fn: Callable[[int], int] = default_sequence_length,
        length_multiplier: int = 1,
    ) -> None:
        self._seed = seed
        self._length_fn = length_fn
        self._length_multiplier = max(1, length_multiplier)
        self._cache = LRUCache(_STREAM_CACHE_LIMIT)

    @property
    def seed(self) -> int:
        """Seed of the deterministic pseudo-random generator."""
        return self._seed

    def with_multiplier(self, multiplier: int) -> "RandomSequenceProvider":
        """Return a provider identical to this one but with a longer budget."""
        return RandomSequenceProvider(
            seed=self._seed,
            length_fn=self._length_fn,
            length_multiplier=multiplier,
        )

    def sequence_for(self, n: int) -> OffsetStream:
        stream = self._cache.get(n)
        if stream is None:
            stream = OffsetStream(
                length=self.length_for(n),
                seed=f"{self._seed}:{n}:{self._length_multiplier}",
            )
            self._cache.put(n, stream)
        return stream

    def length_for(self, n: int) -> int:
        return self._length_fn(n) * self._length_multiplier

    def __reduce__(self):
        # A provider pickles as its configuration (process-pool tasks carry
        # it); the stream LRU and its lock stay behind and refill on demand.
        return (type(self), (self._seed, self._length_fn, self._length_multiplier))

    def clear_cache(self) -> None:
        """Drop the cached streams.

        Purely a memory/measurement hook: sequences are deterministic per
        ``(seed, n, multiplier)``, so a cleared cache regenerates the exact
        same offsets.  The sweep runner's worker cold-start uses this so a
        forked worker cannot inherit the parent's amortised generation work.
        """
        self._cache.clear()


@dataclass(frozen=True)
class CoverageFailure:
    """A single certification counterexample."""

    graph_index: int
    num_vertices: int
    start_vertex: int
    start_port: int


@dataclass
class CertificationReport:
    """Outcome of checking one sequence against a family of graphs."""

    n: int
    sequence_length: int
    graphs_checked: int
    starts_checked: int
    failures: List[CoverageFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no start edge on any checked graph escaped coverage."""
        return not self.failures


def certify_covers(
    sequence: ExplorationSequence,
    graphs: Sequence[LabeledGraph],
    all_starts: bool = True,
    all_ports: bool = False,
) -> CertificationReport:
    """Check that ``sequence`` covers every graph of ``graphs``.

    ``all_starts`` walks from every vertex (otherwise only the smallest
    vertex); ``all_ports`` additionally tries every possible entry port at the
    start (Definition 3 quantifies over the initial *edge*, so the thorough
    mode checks all of them).
    """
    report = CertificationReport(
        n=max((g.num_vertices for g in graphs), default=0),
        sequence_length=len(sequence),
        graphs_checked=len(graphs),
        starts_checked=0,
    )
    for graph_index, graph in enumerate(graphs):
        starts = graph.vertices if all_starts else graph.vertices[:1]
        for start in starts:
            ports = range(graph.degree(start)) if all_ports else (0,)
            for port in ports:
                report.starts_checked += 1
                if not covers_component(graph, sequence, start, port):
                    report.failures.append(
                        CoverageFailure(
                            graph_index=graph_index,
                            num_vertices=graph.num_vertices,
                            start_vertex=start,
                            start_port=port,
                        )
                    )
    return report


def standard_certification_family(
    n: int,
    seed: int = 0,
    labelings_per_graph: int = 2,
) -> List[LabeledGraph]:
    """A structured + randomised family of connected 3-regular graphs of size <= n.

    The family mixes natively 3-regular topologies (prisms, Petersen,
    Möbius–Kantor, random cubic graphs) with degree reductions of common ad
    hoc topologies (paths, stars, grids), each under several random port
    relabelings — exercising the "for any labeling" quantifier of
    Definition 3.  All members are connected and have at most ``n`` vertices.
    """
    rng = random.Random(seed)
    candidates: List[LabeledGraph] = []

    def add(graph: LabeledGraph) -> None:
        if graph.num_vertices <= n and graph.num_vertices >= 1 and is_connected(graph):
            candidates.append(graph)
            for _ in range(max(0, labelings_per_graph - 1)):
                candidates.append(graph.with_relabeled_ports(rng))

    # Natively 3-regular graphs.
    add(generators.complete_graph(4))
    for k in range(3, max(4, n // 2) + 1):
        if 2 * k <= n:
            add(generators.prism_graph(k))
    if n >= 10:
        add(generators.petersen_graph())
    if n >= 16:
        add(generators.moebius_kantor_graph())
    for size in range(4, n + 1, 2):
        if size >= 4 and size <= n and size > 3:
            try:
                add(generators.random_regular_graph(size, 3, seed=rng.randrange(2 ** 30)))
            except (GraphStructureError, ValueError, ImportError):
                # Infeasible parameters (n*d odd, degree >= n) or networkx
                # unavailable: skip this family member.  Anything else — a
                # typo, API drift in the generator — must propagate; a bare
                # except here once hid real failures as "skipped graphs".
                continue

    # Degree reductions of non-regular topologies (these are what routing
    # actually runs on).
    reducible = [
        generators.path_graph(max(2, n // 3)),
        generators.star_graph(min(6, max(1, n // 4))),
        generators.grid_graph(2, max(2, n // 8)) if n >= 16 else None,
        generators.binary_tree(2) if n >= 14 else None,
    ]
    for graph in reducible:
        if graph is None:
            continue
        reduced = reduce_to_three_regular(graph).graph
        add(reduced)

    return [g for g in candidates if g.num_vertices <= n]


def _involutions(elements: Sequence[int]) -> Iterator[Dict[int, int]]:
    """All involutions (fixed points allowed) on ``elements``."""
    if not elements:
        yield {}
        return
    first, rest = elements[0], list(elements[1:])
    # first is a fixed point
    for partial in _involutions(rest):
        mapping = dict(partial)
        mapping[first] = first
        yield mapping
    # first is matched with some other element
    for index, partner in enumerate(rest):
        remaining = rest[:index] + rest[index + 1:]
        for partial in _involutions(remaining):
            mapping = dict(partial)
            mapping[first] = partner
            mapping[partner] = first
            yield mapping


def exhaustive_cubic_graphs(num_vertices: int, connected_only: bool = True) -> List[LabeledGraph]:
    """Every labeled 3-regular multigraph on exactly ``num_vertices`` vertices.

    Enumerates all rotation maps, i.e. all involutions on the ``3 * n`` half
    edges, so *every* labeling appears.  The count grows super-exponentially;
    this is intended for ``num_vertices <= 4`` (the test-suite uses 2 and 3),
    which is where genuinely exhaustive universality certification is feasible.
    """
    half_edges = [(v, p) for v in range(num_vertices) for p in range(3)]
    index = {he: i for i, he in enumerate(half_edges)}
    graphs: List[LabeledGraph] = []
    for involution in _involutions(list(range(len(half_edges)))):
        rotation = {
            half_edges[a]: half_edges[b] for a, b in involution.items()
        }
        graph = LabeledGraph(rotation)
        if connected_only and not is_connected(graph):
            continue
        graphs.append(graph)
    del index
    return graphs


class CertifiedSequenceProvider(SequenceProvider):
    """Wraps a provider and certifies its sequences before handing them out.

    For every requested bound ``n`` the wrapped provider's candidate sequence
    is checked against a certification family (``standard_certification_family``
    by default, or the exhaustive family for tiny ``n``).  If certification
    fails the candidate is regenerated with a doubled length budget, up to
    ``max_doublings`` times; persistent failure raises
    :class:`UniversalityCertificationError`.

    This keeps the guarantee of Theorem 1 *operational*: routing built on a
    certified provider cannot silently miss the target because the sequence
    was too short.
    """

    def __init__(
        self,
        base: Optional[SequenceProvider] = None,
        family: Callable[[int], Sequence[LabeledGraph]] = standard_certification_family,
        exhaustive_up_to: int = 3,
        max_doublings: int = 8,
        all_ports: bool = True,
    ) -> None:
        # The base provider must expose ``with_multiplier`` so certification
        # can retry with a longer budget; both RandomSequenceProvider and
        # ExpanderSequenceProvider do.
        self._base = base if base is not None else RandomSequenceProvider()
        self._family = family
        self._exhaustive_up_to = exhaustive_up_to
        self._max_doublings = max_doublings
        self._all_ports = all_ports
        self._cache: Dict[int, ExplorationSequence] = {}
        self._reports: Dict[int, CertificationReport] = {}

    def certification_report(self, n: int) -> Optional[CertificationReport]:
        """The report of the certification that admitted ``sequence_for(n)``."""
        return self._reports.get(n)

    def _certification_graphs(self, n: int) -> List[LabeledGraph]:
        graphs: List[LabeledGraph] = []
        for size in range(1, min(n, self._exhaustive_up_to) + 1):
            graphs.extend(exhaustive_cubic_graphs(size))
        graphs.extend(self._family(n))
        return graphs

    def sequence_for(self, n: int) -> ExplorationSequence:
        if n in self._cache:
            return self._cache[n]
        graphs = self._certification_graphs(n)
        multiplier = 1
        last_report: Optional[CertificationReport] = None
        for _ in range(self._max_doublings + 1):
            provider = (
                self._base
                if multiplier == 1
                else self._base.with_multiplier(multiplier)
            )
            candidate = provider.sequence_for(n)
            report = certify_covers(candidate, graphs, all_starts=True, all_ports=self._all_ports)
            last_report = report
            if report.passed:
                self._cache[n] = candidate
                self._reports[n] = report
                return candidate
            multiplier *= 2
        raise UniversalityCertificationError(
            f"could not certify a sequence for n={n} after {self._max_doublings} doublings; "
            f"last report had {len(last_report.failures) if last_report else '?'} failures"
        )
