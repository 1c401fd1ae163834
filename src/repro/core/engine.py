"""Prepared routing engine — amortise all topology-derived state across calls.

Every entry point of the seed code base (:func:`repro.core.routing.route`,
:func:`repro.core.routing.route_on_network`, counting, broadcasting, the
baselines and the CLI) used to recompute the same three things on every call:
the Fig. 1 degree reduction, the size of the source's reduced component, and a
dict-of-tuples walk over the reduced rotation map.  For a workload that routes
many messages over one static network — the paper's whole setting — that work
is pure overhead: the topology never changes between calls.

:class:`PreparedNetwork` computes all of it **once per graph**:

* the degree reduction (shared, immutable);
* the flat-array walk kernel (:class:`repro.core.walk_kernel.CompiledWalk`)
  that turns each walk step into two list indexes;
* the per-component size table that makes the ``CountNodes`` bound an O(1)
  lookup.

The exploration sequence is not engine state: :meth:`PreparedNetwork.offsets_for`
hands out the provider's own lazy :class:`~repro.core.universal.OffsetStream`,
and every walk reads its ``bytes`` prefix, extending it only when the walk
reaches its end.

It then serves unlimited :meth:`route` calls and the batch API
:meth:`route_many` against that shared state.  :func:`prepare` maintains a
small keyed cache so independent call sites (routing, counting, broadcast,
the distributed protocols, benchmarks) all land on the same engine for the
same graph object.

Static batches have one dispatch, :func:`route_many_multi` (``route_many`` is
that call with one task).  Batches whose total size and work clear the
lockstep thresholds run on the lockstep kernels of
:mod:`repro.core.batch_kernel` (all walks advance in synchronous lockstep,
three steps per gather over the compiled arrays):
:class:`~repro.core.batch_kernel.BatchedWalk` when every task shares one
kernel, :class:`~repro.core.batch_kernel.MultiGraphWalk` otherwise.  Smaller
batches, and every batch when NumPy is not installed, run the scalar loop
``reference_route_many`` — the executable specification the lockstep path
must match element for element (asserted by the ``batch-parity`` conformance
invariant and ``benchmarks/bench_batch.py``).  Schedule batches always run
the scalar loop: the schedule lockstep stepper measured slower than it on
every batch tried.

Results are bit-for-bit identical to the seed walkers: the kernel encodes the
same rotation map, the step rule is unchanged, and the header accounting uses
the same formulas.

:class:`PreparedSchedule` extends the same treatment to the dynamic-topology
extension (:mod:`repro.network.dynamics`, *not* part of the paper, which
assumes a static network): every snapshot of a
:class:`~repro.network.dynamics.TopologySchedule` is compiled into its walk
kernel exactly once — rotation-identical snapshots share one kernel, and each
compilation lands in the same per-graph cache the static engine uses — and
the schedule walk *resumes* across switch-overs by translating the current
virtual position between kernels in O(1) instead of re-deriving the reduction
per call.  Each distinct kernel also gets fused state tables when the
schedule is prepared (``forward[o][state]`` and ``owner_of_state[state]``
over ``state = 3 * vertex + entry``), so the forward ticks between two switch
times run as one tight loop over the ``bytes`` prefix that tests the target
only when the owner changes.  Outcomes are identical to
:func:`repro.network.dynamics.reference_route_over_schedule`, the original
per-call implementation kept as the executable specification.

**Serial reference vs. prepared/parallel split.**  Everything in this module
is the *optimised* realisation; the executable specifications live elsewhere
and are never edited for speed.  :func:`repro.core.routing.route` is a thin
wrapper over ``prepare(graph).route``, so it does not specify static
routing: the distributed :func:`repro.core.routing.route_on_network` (a
message-passing simulation of the same walk) and the golden walk traces
(``tests/data/golden_traces_*.json``) pin it until static routing gets an
engine-free reference walker.
:func:`repro.network.dynamics.reference_route_over_schedule` specifies the
schedule walk, and
:func:`repro.analysis.experiments.reference_run_parameter_sweep` specifies
sweep aggregation (``tests/test_sweep_runner.py`` pins
:func:`repro.analysis.runner.run_sweep` to it).  The conformance harness
(:mod:`repro.analysis.conformance`) asserts the two sides agree.

**Worker safety.**  The sharded sweep orchestrator
(:mod:`repro.analysis.runner`) runs one process pool per sweep; each worker
process has its own copy of the module-level caches below, so workers never
contend, and a graph object compiles once per process (the runner keeps a
spec-keyed scenario cache so shards over the same spec really do share one
graph object — these caches key by identity).  Workers fork with the
lockstep kernels already imported and call :func:`clear_prepared_caches`
when they start so that fork-inherited parent state cannot leak into their
measurements, and :func:`prepared_cache_info`
exposes the cache sizes and hit counters for diagnostics.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from operator import length_hint
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernel_store import (
    configure_kernel_store,
    kernel_store,
)
from repro.core.routing import (
    RouteOutcome,
    RouteResult,
    _header_bits,
    default_provider,
)
from repro.core.universal import OffsetStream, SequenceProvider, offset_stream
from repro.core.walk_kernel import CompiledWalk
from repro.errors import RoutingError
from repro.graphs.degree_reduction import DegreeReducedGraph, reduce_to_three_regular
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import (
    DynamicOutcome,
    DynamicRouteResult,
    TopologySchedule,
    validate_schedule,
)

__all__ = [
    "PreparedNetwork",
    "PreparedSchedule",
    "WalkTrace",
    "clear_prepared_caches",
    "configure_kernel_store",
    "kernel_store",
    "prepare",
    "prepare_schedule",
    "prepared_cache_info",
    "route_many_multi",
]

#: Static batch dispatch: the lockstep kernels pay a fixed NumPy per-step
#: overhead, so they win only when the scalar work they replace is large —
#: which scales with the batch size *and* the walk length (itself governed by
#: the reduced-graph size).  :func:`route_many_multi` therefore requires both
#: a minimum aggregate batch and a minimum ``pairs x kernel-vertices`` work
#: product (calibrated by measurement: a 64-pair batch breaks even around a
#: 12x12 grid, whose kernel has ~530 virtual vertices).  Results are identical
#: on both sides of the thresholds.
_LOCKSTEP_AUTO_MIN_STATIC = 32
_LOCKSTEP_AUTO_MIN_WORK = 32_768

#: The lockstep kernels hold vertex ids as int32.
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


class PreparedNetwork:
    """All per-graph routing state, computed once and shared by every call.

    Parameters
    ----------
    graph:
        The physical network graph.  It is reduced to 3-regular form and
        compiled into the array kernel immediately.
    default_provider:
        Exploration-sequence provider used when a call does not pass one
        (defaults to the library-wide shared provider).
    namespace_size:
        Default namespace for header-size accounting; ``None`` means the
        number of vertices, matching :func:`repro.core.routing.route`.
    kernel:
        Pre-compiled walk kernel for ``graph``.  ``None`` (the default) asks
        the process-wide :class:`~repro.core.kernel_store.KernelStore`, which
        serves it from its disk tier when one is configured and compiles it
        otherwise — that is how pool workers and restarts skip recompilation.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        default_provider_: Optional[SequenceProvider] = None,
        namespace_size: Optional[int] = None,
        kernel: Optional[CompiledWalk] = None,
    ) -> None:
        self._graph = graph
        self._default_provider = (
            default_provider_ if default_provider_ is not None else default_provider()
        )
        self._namespace = (
            namespace_size if namespace_size is not None else max(1, graph.num_vertices)
        )
        if kernel is None:
            kernel = kernel_store().kernel_for(graph)
        self._kernel = kernel
        # The lockstep kernels hold every owner id, and one less than the
        # smallest (their no-vertex marker), as int32; batches on a graph
        # whose ids do not fit run the scalar specification instead.
        owners = kernel.owner
        self._lockstep_ids_fit = not owners or (
            min(0, min(owners)) - 1 >= _INT32_MIN and max(owners) <= _INT32_MAX
        )
        #: Built lazily by :attr:`reduction` for the few callers that need it;
        #: walks read only the kernel's flat arrays.
        self._reduction: Optional[DegreeReducedGraph] = None
        self._original_components: Optional[Dict[int, FrozenSet[int]]] = None

    # ------------------------------------------------------------------ #
    # Shared state accessors
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> LabeledGraph:
        """The physical graph this engine was prepared for."""
        return self._graph

    @property
    def reduction(self) -> DegreeReducedGraph:
        """The Fig. 1 degree reduction, rebuilt on first use.

        No kernel keeps the reduction object it was compiled from — the flat
        arrays are all the walk needs.  The reduction is deterministic per
        rotation map, so rebuilding it here yields exactly the structure the
        kernel was compiled from.
        """
        if self._reduction is None:
            self._reduction = reduce_to_three_regular(self._graph)
        return self._reduction

    @property
    def kernel(self) -> CompiledWalk:
        """The flat-array walk kernel over the reduced graph."""
        return self._kernel

    def resolve_size_bound(self, source: int, size_bound: Optional[int] = None) -> int:
        """Bound on the reduced component size used to pick ``T_n``.

        When the caller does not supply one, the true size of the source's
        reduced component — the quantity Algorithm ``CountNodes`` (Section 4)
        discovers — is read from the precomputed component table in O(1).
        """
        if size_bound is not None:
            if isinstance(size_bound, bool) or not isinstance(size_bound, numbers.Integral):
                raise RoutingError(f"size_bound must be an integer, got {size_bound!r}")
            if size_bound < 1:
                raise RoutingError("size_bound must be positive")
            return size_bound
        return self._kernel.component_size(self._kernel.gateway(source))

    def offsets_for(
        self, bound: int, provider: Optional[SequenceProvider] = None
    ) -> OffsetStream:
        """``T_bound`` as an :class:`~repro.core.universal.OffsetStream`.

        The provider caches its streams, so this holds no state of its own;
        a stream generates offsets only as far as a walk reads them.
        """
        provider = provider if provider is not None else self._default_provider
        return offset_stream(provider.sequence_for(bound))

    def original_component(self, vertex: int) -> FrozenSet[int]:
        """Connected component of ``vertex`` in the *original* graph (cached)."""
        if self._original_components is None:
            components: Dict[int, FrozenSet[int]] = {}
            graph = self._graph
            seen = set()
            for start in graph.vertices:
                if start in seen:
                    continue
                stack = [start]
                members = {start}
                while stack:
                    v = stack.pop()
                    for port in range(graph.degree(v)):
                        w, _ = graph.rotation(v, port)
                        if w not in members:
                            members.add(w)
                            stack.append(w)
                frozen = frozenset(members)
                seen |= members
                for member in members:
                    components[member] = frozen
            self._original_components = components
        return self._original_components[vertex]

    def _require_source(self, source: int) -> None:
        if not self._graph.has_vertex(source):
            raise RoutingError(f"source {source!r} is not a vertex of the graph")

    @staticmethod
    def _require_start_port(start_port: int) -> None:
        # A walk state is ``3 * vertex + entry port``: any other entry port
        # names a different vertex's state on the lockstep path.
        if (
            isinstance(start_port, bool)
            or not isinstance(start_port, numbers.Integral)
            or not 0 <= start_port <= 2
        ):
            raise RoutingError(f"start_port must be 0, 1 or 2, got {start_port!r}")

    # ------------------------------------------------------------------ #
    # Routing (the hot path)
    # ------------------------------------------------------------------ #

    def route(
        self,
        source: int,
        target: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
        namespace_size: Optional[int] = None,
    ) -> RouteResult:
        """Run Algorithm ``Route`` against the prepared state.

        Same contract and same results as :func:`repro.core.routing.route`
        (which is now a thin wrapper over this method); only the constant
        factor differs.
        """
        self._require_source(source)
        self._require_start_port(start_port)
        kernel = self._kernel
        gateway = kernel.gateway(source)
        bound = self.resolve_size_bound(source, size_bound)
        stream = self.offsets_for(bound, provider)
        length = len(stream)
        namespace = namespace_size if namespace_size is not None else self._namespace

        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner = kernel.owner

        vertex, entry = gateway, start_port
        index = 0
        forward_steps = 0
        physical_hops = 0
        target_found_at: Optional[int] = None
        offsets = stream.prefix
        available = len(offsets)

        # Forward phase: follow the sequence until the target is met or the
        # sequence is exhausted (step rule identical to the seed walker).  The
        # walk indexes the generated prefix and extends it only when the index
        # reaches its end.
        while True:
            current_owner = owner[vertex]
            if current_owner == target:
                outcome = RouteOutcome.SUCCESS
                target_found_at = forward_steps
                break
            if index >= available:
                if index >= length:
                    outcome = RouteOutcome.FAILURE
                    break
                offsets = stream.extend_to(index + 1)
                available = len(offsets)
            edge = 3 * vertex + (entry + offsets[index]) % 3
            vertex = next_vertex[edge]
            entry = next_port[edge]
            index += 1
            forward_steps += 1
            if owner[vertex] != current_owner:
                physical_hops += 1

        # Backward phase: retrace the walk (reversibility, Section 2) until a
        # virtual node of the source is reached, carrying the status.  Every
        # offset it reads was generated by the forward phase.
        backward_steps = 0
        while owner[vertex] != source and index > 0:
            edge = 3 * vertex + entry
            previous_vertex = next_vertex[edge]
            entry = (next_port[edge] - offsets[index - 1]) % 3
            index -= 1
            backward_steps += 1
            if owner[previous_vertex] != owner[vertex]:
                physical_hops += 1
            vertex = previous_vertex
        if owner[vertex] != source:
            raise RoutingError("backtracking failed to return to the source")

        return RouteResult(
            outcome=outcome,
            delivered=outcome is RouteOutcome.SUCCESS,
            source=source,
            target=target,
            size_bound=bound,
            sequence_length=length,
            forward_virtual_steps=forward_steps,
            backward_virtual_steps=backward_steps,
            physical_hops=physical_hops,
            target_found_at_step=target_found_at,
            header_bits=_header_bits(namespace, length),
        )

    def route_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
        namespace_size: Optional[int] = None,
    ) -> List[RouteResult]:
        """Route every ``(source, target)`` pair against the shared state.

        This is the batch API the repeated-route workloads should use: one
        engine build, then one pass over the compiled walk kernel.  It is
        :func:`route_many_multi` with this engine as the only task: batches
        large enough for vectorization to pay off (both a minimum batch size
        and a minimum batch x kernel-size work product — small batches and
        short walks are faster scalar) run on the NumPy lockstep kernel
        (:class:`repro.core.batch_kernel.BatchedWalk` — all walks advance in
        synchronous lockstep, three steps per gather of its block table); small
        batches, and every batch when NumPy is absent, run the scalar loop
        :meth:`reference_route_many`, the executable specification.  Results
        are bit-for-bit identical either way (the ``batch-parity``
        conformance invariant and ``benchmarks/bench_batch.py`` assert it).
        """
        [results] = route_many_multi(
            [(self, pairs, namespace_size)],
            provider=provider,
            size_bound=size_bound,
            start_port=start_port,
        )
        return results

    def reference_route_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
        namespace_size: Optional[int] = None,
    ) -> List[RouteResult]:
        """The scalar batch loop — the executable specification of ``route_many``.

        One :meth:`route` call per pair over the compiled kernel.  The
        lockstep path must match this list element for element; it is also
        what :meth:`route_many` runs when NumPy is unavailable or the batch is
        too small for vectorization to pay off.
        """
        return [
            self.route(
                source,
                target,
                provider=provider,
                size_bound=size_bound,
                start_port=start_port,
                namespace_size=namespace_size,
            )
            for source, target in pairs
        ]

    # ------------------------------------------------------------------ #
    # Walks shared with the sibling algorithms
    # ------------------------------------------------------------------ #

    def broadcast_walk(
        self,
        source: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
    ) -> Tuple[int, int, FrozenSet[int], int]:
        """Forward broadcast walk; returns ``(bound, length, reached, hops)``.

        ``reached`` is the set of original vertices visited, ``hops`` the
        number of cluster-leaving (physical) steps — exactly the quantities
        :func:`repro.core.broadcast.broadcast` reports.
        """
        self._require_source(source)
        self._require_start_port(start_port)
        kernel = self._kernel
        bound = self.resolve_size_bound(source, size_bound)
        offsets = self.offsets_for(bound, provider).offsets()
        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner = kernel.owner

        vertex, entry = kernel.gateway(source), start_port
        reached = {source}
        add = reached.add
        physical_hops = 0
        for offset in offsets:
            edge = 3 * vertex + (entry + offset) % 3
            nxt = next_vertex[edge]
            if owner[nxt] != owner[vertex]:
                physical_hops += 1
            entry = next_port[edge]
            vertex = nxt
            add(owner[vertex])
        return bound, len(offsets), frozenset(reached), physical_hops

    def connectivity_walk(
        self,
        source: int,
        target: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
    ) -> Tuple[bool, int, int, int]:
        """Forward phase only; returns ``(connected, steps, length, bound)``."""
        self._require_source(source)
        self._require_start_port(start_port)
        kernel = self._kernel
        gateway = kernel.gateway(source)
        bound = self.resolve_size_bound(source, size_bound)
        stream = self.offsets_for(bound, provider)
        length = len(stream)
        next_vertex = kernel.next_vertex
        next_port = kernel.next_port
        owner = kernel.owner

        vertex, entry = gateway, start_port
        if owner[vertex] == target:
            return True, 0, length, bound
        steps = 0
        offsets = stream.prefix
        while steps < length:
            if steps >= len(offsets):
                offsets = stream.extend_to(steps + 1)
            for offset in offsets[steps:]:
                edge = 3 * vertex + (entry + offset) % 3
                vertex = next_vertex[edge]
                entry = next_port[edge]
                steps += 1
                if owner[vertex] == target:
                    return True, steps, length, bound
        return False, steps, length, bound

    # ------------------------------------------------------------------ #
    # Traced routing (golden-trace regression support)
    # ------------------------------------------------------------------ #

    def route_with_trace(
        self,
        source: int,
        target: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
        start_port: int = 0,
        namespace_size: Optional[int] = None,
    ) -> Tuple[RouteResult, "WalkTrace"]:
        """Run :meth:`route` while recording every walk state.

        Returns the exact :class:`~repro.core.routing.RouteResult` of a plain
        :meth:`route` call together with the full ``(virtual vertex, entry
        port)`` state sequence of both phases.  All outcome/accounting logic
        lives in :meth:`route`; the trace is reconstructed afterwards by
        replaying the walk's step counts through the kernel, so the two can
        never drift apart.  The golden-trace regression tests serialize these
        sequences into ``tests/data/`` and assert the engine reproduces them
        bit for bit across refactors.
        """
        result = self.route(
            source,
            target,
            provider=provider,
            size_bound=size_bound,
            start_port=start_port,
            namespace_size=namespace_size,
        )
        kernel = self._kernel
        offsets = self.offsets_for(result.size_bound, provider).extend_to(
            result.forward_virtual_steps
        )

        vertex, entry = kernel.gateway(source), start_port
        forward_states: List[Tuple[int, int]] = [(vertex, entry)]
        for index in range(result.forward_virtual_steps):
            vertex, entry = kernel.step_forward(vertex, entry, offsets[index])
            forward_states.append((vertex, entry))

        backward_states: List[Tuple[int, int]] = []
        index = result.forward_virtual_steps
        for _ in range(result.backward_virtual_steps):
            vertex, entry = kernel.step_backward(vertex, entry, offsets[index - 1])
            index -= 1
            backward_states.append((vertex, entry))

        return result, WalkTrace(
            forward=tuple(forward_states), backward=tuple(backward_states)
        )


@dataclass(frozen=True)
class WalkTrace:
    """Full ``(virtual vertex, entry port)`` state sequence of one routing walk.

    ``forward`` lists every state of the forward phase, the starting state
    included; ``backward`` lists the state reached after each backtracking
    step.  Together they pin down the walk completely: two runs that agree on
    both tuples took identical steps through the reduced graph.
    """

    forward: Tuple[Tuple[int, int], ...]
    backward: Tuple[Tuple[int, int], ...]


# ---------------------------------------------------------------------- #
# Shared engine cache (the kernel store's memory tier)
# ---------------------------------------------------------------------- #
# Engines are keyed by ``id(graph)`` in the store's bounded engine LRU.
# Entries hold the graph strongly, so an id can never be recycled while its
# entry is alive; the bound keeps long many-graph runs (sweeps, hypothesis
# tests) from accumulating state, and evictions are counted in
# ``prepared_cache_info()``.  Beneath the LRU, a compile goes through
# ``KernelStore.kernel_for`` — which consults the content-addressed disk
# tier first when one is configured (``configure_kernel_store`` /
# ``REPRO_KERNEL_CACHE_DIR``).


def prepare(network_or_graph: object) -> PreparedNetwork:
    """Return the shared :class:`PreparedNetwork` for a graph (built on demand).

    Accepts either a :class:`~repro.graphs.labeled_graph.LabeledGraph` or
    anything carrying one as a ``graph`` attribute (e.g.
    :class:`~repro.network.adhoc.AdHocNetwork`).  Graphs are immutable, so the
    cache key is object identity; repeated calls for the same graph are O(1).
    """
    if isinstance(network_or_graph, LabeledGraph):
        graph = network_or_graph
    else:
        graph = getattr(network_or_graph, "graph", None)
        if not isinstance(graph, LabeledGraph):
            raise RoutingError(
                f"cannot prepare {network_or_graph!r}: expected a LabeledGraph "
                "or an object with a .graph attribute"
            )
    cache = kernel_store().engines
    key = id(graph)
    engine = cache.peek(key)
    if engine is not None and engine.graph is graph:
        cache.touch(key)
        return engine
    cache.record_miss()
    engine = PreparedNetwork(graph)
    cache.put(key, engine)
    return engine


# ---------------------------------------------------------------------- #
# Schedule-aware engine (dynamic-topology extension)
# ---------------------------------------------------------------------- #

#: Offsets a forward stretch of :meth:`PreparedSchedule.route` copies out of
#: the prefix at a time, so a short walk never copies a long prefix.
_STRETCH_WINDOW = 4096


#: One kernel's fused state tables: ``(forward, owner_of_state)``.
_FusedTables = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


def _fused_tables(kernel: CompiledWalk, states: Sequence[int]) -> _FusedTables:
    """The schedule walk's state tables of one kernel: ``(forward, owner_of_state)``.

    A walk state is ``3 * vertex + entry``.  ``forward[o][state]`` is the
    state one forward step with offset ``o`` leads to, and
    ``owner_of_state[state]`` is the original vertex its virtual vertex
    simulates, so a forward step is two tuple reads instead of the kernel
    arithmetic.  The forward tables take their entries from ``states``
    (``states[i] == i``, at least as long as this kernel's state count), so
    every kernel of a schedule shares one int object per state and a table
    costs a pointer per entry.
    """
    num_states = 3 * kernel.num_vertices
    # landing[edge]: the state reached by leaving through ``edge``.
    landing = [
        states[3 * vertex + port] for vertex, port in zip(kernel.next_vertex, kernel.next_port)
    ]
    # Under offset o, entries 0, 1, 2 leave through ports (entry + o) % 3.
    forward = tuple(
        tuple([landing[base + port] for base in range(0, num_states, 3) for port in exits])
        for exits in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    owner_of_state = tuple([owner for owner in kernel.owner for _entry in range(3)])
    return forward, owner_of_state


class PreparedSchedule:
    """All per-schedule routing state, compiled once and resumed across switches.

    **Paper vs. extension.**  The paper's model — and every guarantee it
    proves — is *static*: "the graph does not change during the delivery
    process".  This class belongs to the dynamic-topology *extension* of
    :mod:`repro.network.dynamics`, which studies how the walk behaves when
    that assumption is violated; nothing here is a claim made by the paper.

    What is prepared, exactly once per schedule:

    * every snapshot of the :class:`~repro.network.dynamics.TopologySchedule`
      is compiled into a flat-array walk kernel via the shared per-graph
      engine cache (:func:`prepare`), so a snapshot that also serves static
      routes reuses the same compilation;
    * snapshots that are *rotation-identical* (equal as port-labeled graphs,
      not merely same edge set — the walk consults port labels) share one
      kernel even when they are distinct objects;
    * the exploration sequence is the provider's lazy offset stream, read
      through the snapshot-0 engine;
    * every distinct kernel gets its fused state tables (:func:`_fused_tables`):
      ``forward[o][state]`` and ``owner_of_state[state]``, with the walk state
      ``3 * vertex + entry``.  They belong to this object and go with it.

    :meth:`route` then replays the schedule walk by *resuming* the flat-array
    walk across switch-overs: at each switch the current virtual position is
    translated between kernels in O(1) (owner + carried-port offset) instead
    of re-deriving the degree reduction, which is what the pre-engine
    implementation paid on every call.  A forward walk steps on every tick,
    so the ticks up to the next switch time run as one stretch: a loop over
    the prefix through ``forward`` that reads ``owner_of_state`` and tests
    the target only when the owner changes.  Switch-overs, stranding, the
    turn, the backward phase (which keeps the kernel arithmetic) and
    soundness are those of the per-tick walk; the specification's tick
    budget is never reached, so the loop has no budget exit.  Results are
    identical to :func:`repro.network.dynamics.reference_route_over_schedule`,
    the original implementation kept as the executable specification (see
    the parity tests in ``tests/test_dynamics.py``, the property over drawn
    schedules in ``tests/test_schedule_stretches.py`` and the speedup
    benchmark in ``benchmarks/bench_schedule.py``).
    """

    def __init__(
        self,
        schedule: TopologySchedule,
        default_provider_: Optional[SequenceProvider] = None,
    ) -> None:
        validate_schedule(schedule)
        self._schedule = schedule
        self._default_provider = (
            default_provider_ if default_provider_ is not None else default_provider()
        )
        # Rotation-identical snapshots (LabeledGraph equality is rotation-map
        # equality) share one prepared engine; the first instance of each
        # distinct graph goes through the shared per-graph cache.
        engines_by_graph: Dict[LabeledGraph, PreparedNetwork] = {}
        engines: List[PreparedNetwork] = []
        for graph in schedule.snapshots:
            engine = engines_by_graph.get(graph)
            if engine is None:
                engine = prepare(graph)
                engines_by_graph[graph] = engine
            engines.append(engine)
        self._engines = engines
        self._kernels = [engine.kernel for engine in engines]
        self._num_compiled = len(engines_by_graph)
        # The fused state tables of each distinct kernel, per snapshot.
        states = list(range(3 * max(kernel.num_vertices for kernel in self._kernels)))
        tables_of: Dict[int, _FusedTables] = {}
        for kernel in self._kernels:
            if id(kernel) not in tables_of:
                tables_of[id(kernel)] = _fused_tables(kernel, states)
        self._tables = [tables_of[id(kernel)] for kernel in self._kernels]

    # ------------------------------------------------------------------ #
    # Shared state accessors
    # ------------------------------------------------------------------ #

    @property
    def schedule(self) -> TopologySchedule:
        """The topology schedule this engine was prepared for."""
        return self._schedule

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots in the schedule."""
        return len(self._schedule.snapshots)

    @property
    def num_compiled_kernels(self) -> int:
        """Distinct kernels actually compiled (shared between equal snapshots)."""
        return self._num_compiled

    def snapshot_engine(self, index: int) -> PreparedNetwork:
        """The prepared static engine serving snapshot ``index``."""
        return self._engines[index]

    # ------------------------------------------------------------------ #
    # Routing over the schedule
    # ------------------------------------------------------------------ #

    def route(
        self,
        source: int,
        target: int,
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
    ):
        """Route ``source -> target`` while the topology follows the schedule.

        Same contract and same results as
        :func:`repro.network.dynamics.route_over_schedule` (which delegates
        here); only the constant factor differs.
        """
        schedule = self._schedule
        snapshots = schedule.snapshots
        if not snapshots[0].has_vertex(source):
            raise RoutingError(f"source {source!r} is not a vertex of the network")
        engine0 = self._engines[0]
        bound = engine0.resolve_size_bound(source, size_bound)
        stream = engine0.offsets_for(
            bound, provider if provider is not None else self._default_provider
        )
        length = len(stream)
        offsets = stream.prefix

        switch_times = schedule.switch_times
        kernels = self._kernels
        tables = self._tables
        num_snapshots = len(snapshots)

        active = 0
        active_graph = snapshots[0]
        kernel = kernels[0]
        forward, owner_of_state = tables[0]

        state = 3 * kernel.gateway(source)
        current_original = source
        switches_survived = 0
        steps = 0
        direction_forward = True
        status_failure = False

        # The loop always returns: a walk takes at most ``length`` forward
        # ticks, the turn, ``length`` backward ticks and the report, all
        # within the ``2 * length + 2`` ticks the specification budgets.
        time = 0
        while True:
            # Activate every snapshot whose switch time has passed.  A switch
            # to a *different graph object* translates the walk position into
            # the new kernel (owner + carried-port offset, both O(1)); a
            # schedule that re-activates the same object is not a switch,
            # matching the reference implementation.
            while active + 1 < num_snapshots and time >= switch_times[active + 1]:
                active += 1
                new_graph = snapshots[active]
                if new_graph is active_graph:
                    continue
                new_kernel = kernels[active]
                switches_survived += 1
                translated = kernel.translate_virtual(new_kernel, state // 3)
                if translated is None:
                    return DynamicRouteResult(
                        outcome=DynamicOutcome.STRANDED,
                        steps_taken=steps,
                        switches_survived=switches_survived,
                        sound=False,
                        detail=(
                            f"degree of node {current_original} changed under the message"
                        ),
                    )
                state = 3 * translated + state % 3
                active_graph = new_graph
                kernel = new_kernel
                forward, owner_of_state = tables[active]

            if direction_forward:
                if current_original == target:
                    return DynamicRouteResult(
                        outcome=DynamicOutcome.DELIVERED,
                        steps_taken=steps,
                        switches_survived=switches_survived,
                        sound=True,
                    )
                if steps >= length:
                    direction_forward = False
                    status_failure = True
                    time += 1
                    continue
                # A forward walk steps on every tick (``steps == time``), so
                # the ticks up to the next switch time run as one stretch over
                # the prefix, testing the target only when the owner changes.
                # A hit ends the stretch; the next tick applies any switch due
                # and then reports the delivery, as the per-tick walk does.
                stop = length
                if active + 1 < num_snapshots:
                    stop = min(stop, switch_times[active + 1])
                while steps < stop and current_original != target:
                    if steps >= len(offsets):
                        offsets = stream.extend_to(steps + 1)
                    window = offsets[steps : min(stop, len(offsets), steps + _STRETCH_WINDOW)]
                    ticks = iter(window)
                    for offset in ticks:
                        state = forward[offset][state]
                        owner = owner_of_state[state]
                        if owner != current_original:
                            current_original = owner
                            if owner == target:
                                break
                    # A bytes iterator's length hint is exactly what it has
                    # not yielded yet.
                    steps += len(window) - length_hint(ticks)
                time = steps
            else:
                if current_original == source or steps == 0:
                    sound = (
                        not schedule.always_connected(source, target)
                        if status_failure
                        else True
                    )
                    return DynamicRouteResult(
                        outcome=DynamicOutcome.REPORTED_FAILURE,
                        steps_taken=steps,
                        switches_survived=switches_survived,
                        sound=sound,
                        detail=(
                            ""
                            if sound
                            else "failure reported although a path existed throughout"
                        ),
                    )
                # A backward step leaves through the entry edge, which is the
                # state index itself.
                state = 3 * kernel.next_vertex[state] + (
                    kernel.next_port[state] - offsets[steps - 1]
                ) % 3
                steps -= 1
                current_original = owner_of_state[state]
                time += 1

    def route_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
    ) -> List[object]:
        """Route every ``(source, target)`` pair against the prepared schedule.

        The batch API for dynamic workloads: one compilation of every
        snapshot, then the scalar loop :meth:`reference_route_many` over the
        resumed flat-array walk.
        """
        return self.reference_route_many(
            pairs, provider=provider, size_bound=size_bound
        )

    def reference_route_many(
        self,
        pairs: Iterable[Tuple[int, int]],
        provider: Optional[SequenceProvider] = None,
        size_bound: Optional[int] = None,
    ) -> List[object]:
        """The scalar batch loop — the executable specification of ``route_many``."""
        return [
            self.route(source, target, provider=provider, size_bound=size_bound)
            for source, target in pairs
        ]


# Prepared schedules are keyed by ``id(schedule)`` in the store's bounded
# schedule LRU; entries hold the schedule strongly, so an id can never be
# recycled while its entry is alive.


def prepare_schedule(schedule: TopologySchedule) -> PreparedSchedule:
    """Return the shared :class:`PreparedSchedule` for a schedule (built on demand).

    Schedules are immutable, so the cache key is object identity; repeated
    calls for the same schedule object are O(1).  The per-snapshot kernels
    additionally land in the same per-graph cache :func:`prepare` maintains,
    so a graph that appears both as a snapshot and as a static routing target
    is compiled exactly once either way.
    """
    cache = kernel_store().schedules
    key = id(schedule)
    entry = cache.peek(key)
    if entry is not None and entry.schedule is schedule:
        cache.touch(key)
        return entry
    cache.record_miss()
    entry = PreparedSchedule(schedule)
    cache.put(key, entry)
    return entry


# ---------------------------------------------------------------------- #
# Multi-graph batch routing
# ---------------------------------------------------------------------- #


def route_many_multi(
    tasks: Sequence[Tuple[object, Iterable[Tuple[int, int]], Optional[int]]],
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
) -> List[List[RouteResult]]:
    """Route several per-graph batches; the one static batch dispatch.

    ``tasks`` is a sequence of ``(engine_or_graph, pairs, namespace_size)``
    triples — typically one per sweep scenario, or the single task of
    :meth:`PreparedNetwork.route_many`.  Results come back as one
    :class:`~repro.core.routing.RouteResult` list per task, element-for-
    element identical to each engine's scalar ``reference_route_many``
    specification — the batch and multi-graph parity tests and
    ``benchmarks/bench_multigraph.py`` assert it.

    The dispatch looks at the *aggregate* batch size and work product, so
    many small per-scenario batches that would each fall below the lockstep
    thresholds clear them together.  Above the thresholds (and with NumPy
    installed) all tasks' pairs are grouped into per-(graph, size-bound) jobs
    and advanced together by the lockstep kernels; below them, or when some
    graph's vertex ids do not fit the kernels' int32 arrays, each task runs
    its engine's ``reference_route_many``.
    """
    from repro.core.batch_kernel import HAVE_NUMPY

    PreparedNetwork._require_start_port(start_port)
    normalized: List[Tuple[PreparedNetwork, List[Tuple[int, int]], Optional[int]]] = []
    for engine_or_graph, pairs, namespace_size in tasks:
        engine = (
            engine_or_graph
            if isinstance(engine_or_graph, PreparedNetwork)
            else prepare(engine_or_graph)
        )
        normalized.append((engine, list(pairs), namespace_size))

    total_pairs = sum(len(pairs) for _engine, pairs, _ns in normalized)
    aggregate_work = sum(
        len(pairs) * engine.kernel.num_vertices
        for engine, pairs, _ns in normalized
    )
    if (
        HAVE_NUMPY
        and total_pairs >= _LOCKSTEP_AUTO_MIN_STATIC
        and aggregate_work >= _LOCKSTEP_AUTO_MIN_WORK
        and all(engine._lockstep_ids_fit for engine, _pairs, _ns in normalized)
    ):
        return _route_lockstep(normalized, provider, size_bound, start_port)
    return [
        engine.reference_route_many(
            pairs,
            provider=provider,
            size_bound=size_bound,
            start_port=start_port,
            namespace_size=namespace_size,
        )
        for engine, pairs, namespace_size in normalized
    ]


def _route_lockstep(
    tasks: Sequence[Tuple[PreparedNetwork, List[Tuple[int, int]], Optional[int]]],
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
    start_port: int = 0,
) -> List[List[RouteResult]]:
    """The lockstep realisation of :func:`route_many_multi` (needs NumPy).

    Every task's pairs are grouped into one job per size bound.  When all
    jobs run on one kernel, each job is one
    :class:`~repro.core.batch_kernel.BatchedWalk` run; otherwise all jobs
    advance together over the stacked block table of
    :class:`~repro.core.batch_kernel.MultiGraphWalk`.  Both run the one
    lockstep loop of :mod:`repro.core.batch_kernel`; on one graph and one
    job they take the same gather, and ``MultiGraphWalk`` measured −2% to
    +7% against ``BatchedWalk`` (512 pairs on a 49-node grid, a 36-node
    torus and an 84-node ring; it re-keys its accounts per pair).
    Pairs whose walks exceed the trajectory buffer cap are finished on the
    scalar kernel — same results, bounded memory.
    """
    from repro.core.batch_kernel import batched_walk_for, multigraph_walk_for

    steppers: List[object] = []
    stepper_index: Dict[int, int] = {}
    jobs: List[Tuple[int, List[Tuple[int, int]], OffsetStream]] = []
    #: job -> (task index, task-local pair indices, bound, header_bits, length)
    job_meta: List[Tuple[int, List[int], int, int, int]] = []
    for task_index, (engine, pairs, namespace_size) in enumerate(tasks):
        if not pairs:
            continue
        namespace = (
            namespace_size if namespace_size is not None else engine._namespace
        )
        sources = dict.fromkeys(source for source, _ in pairs)
        for source in sources:
            engine._require_source(source)
        bound_of = {
            source: engine.resolve_size_bound(source, size_bound)
            for source in sources
        }
        groups: Dict[int, List[int]] = {}
        for pair_index, (source, _target) in enumerate(pairs):
            groups.setdefault(bound_of[source], []).append(pair_index)
        kernel_key = id(engine.kernel)
        graph_slot = stepper_index.get(kernel_key)
        if graph_slot is None:
            graph_slot = len(steppers)
            stepper_index[kernel_key] = graph_slot
            steppers.append(batched_walk_for(engine.kernel))
        for bound, indices in groups.items():
            offsets = engine.offsets_for(bound, provider)
            jobs.append((graph_slot, [pairs[i] for i in indices], offsets))
            job_meta.append(
                (
                    task_index,
                    indices,
                    bound,
                    _header_bits(namespace, len(offsets)),
                    len(offsets),
                )
            )

    stacked = len(steppers) > 1
    if stacked:
        accounts, unresolved = multigraph_walk_for(steppers).run(
            jobs, start_port=start_port
        )
    else:
        unresolved = []
    success, failure = RouteOutcome.SUCCESS, RouteOutcome.FAILURE
    results: List[List[Optional[RouteResult]]] = [
        [None] * len(pairs) for _engine, pairs, _ns in tasks
    ]
    for job_index, (graph_slot, job_pairs, offsets) in enumerate(jobs):
        if stacked:
            keys: Sequence[object] = [
                (job_index, local_index) for local_index in range(len(job_pairs))
            ]
        else:
            accounts, job_unresolved = steppers[graph_slot].run(
                job_pairs, offsets, start_port=start_port
            )
            unresolved.extend((job_index, local_index) for local_index in job_unresolved)
            keys = range(len(job_pairs))
        task_index, indices, bound, header_bits, length = job_meta[job_index]
        task_results = results[task_index]
        for key, pair_index, (source, target) in zip(keys, indices, job_pairs):
            account = accounts.get(key)
            if account is None:
                continue  # spilled: finished on the scalar kernel below
            delivered = account.success
            task_results[pair_index] = RouteResult(
                success if delivered else failure,
                delivered,
                source,
                target,
                bound,
                length,
                account.forward_steps,
                account.backward_steps,
                account.physical_hops,
                account.target_found_at,
                header_bits,
            )
    for job_index, local_index in unresolved:
        task_index, indices = job_meta[job_index][0], job_meta[job_index][1]
        engine, pairs, namespace_size = tasks[task_index]
        pair_index = indices[local_index]
        source, target = pairs[pair_index]
        results[task_index][pair_index] = engine.route(
            source,
            target,
            provider=provider,
            size_bound=size_bound,
            start_port=start_port,
            namespace_size=namespace_size,
        )
    return results


# ---------------------------------------------------------------------- #
# Cache hooks for multi-process orchestration
# ---------------------------------------------------------------------- #


def prepared_cache_info() -> Dict[str, int]:
    """Sizes and hit/miss counters of the shared caches, for this process.

    Every process (the main one and each sweep worker) has its own caches, so
    the numbers describe local behaviour only; the sweep runner can surface
    them to verify that rotation-identical graphs really compiled once per
    process.  ``offset_entries`` counts the exploration-sequence streams the
    library-wide default provider holds (``offset_hits`` / ``offset_misses``
    / ``offset_evictions`` are its LRU counters), so a session can see
    sequence generation too; :meth:`repro.api.Session.cache_info` merges
    these numbers with the session-scoped scenario-cache counters (the
    ``repro sweep`` summary line prints that merged view).

    The kernel store contributes its full tier picture: memory-LRU
    hit/miss/eviction counters for engines and schedules, ``kernel_compiles``
    (every actual ``CompiledWalk`` compilation in this process — zero on a
    fully warm start), and the disk-tier ``disk_hits`` / ``disk_misses`` /
    ``disk_saves`` / ``disk_errors`` counters when persistence is enabled.
    """
    from repro.core.batch_kernel import batch_cache_info

    info = kernel_store().info()
    streams = default_provider()._cache
    info["offset_entries"] = len(streams)
    info["offset_hits"] = streams.hits
    info["offset_misses"] = streams.misses
    info["offset_evictions"] = streams.evictions
    info.update(batch_cache_info())
    return info


def clear_prepared_caches() -> None:
    """Drop every cached engine and schedule and reset the counters.

    The sweep runner's worker initialiser calls this so a worker forked from
    a warm parent starts from the same cold state as one spawned fresh —
    per-worker compile behaviour is then identical across start methods and
    the parent's cached graphs are not kept alive in every worker.  The
    library-wide default sequence provider's cache is dropped for the same
    reason; its sequences are deterministic, so nothing observable changes.

    Clearing also makes the kernel store re-read its environment
    configuration (``REPRO_KERNEL_CACHE_DIR`` / ``REPRO_KERNEL_CACHE_SIZE``),
    which is how pool workers adopt a disk tier configured in the parent and
    warm-start from persisted kernels instead of recompiling.

    The lockstep module imported here is loaded into a pool's parent before
    it forks (``repro.analysis.runner._WORKER_MODULES``), so in a worker the
    import costs a dictionary lookup; outside pools it stays lazy, and a cold
    scalar route never loads it.
    """
    from repro.core.batch_kernel import clear_batch_caches

    kernel_store().clear()
    clear_batch_caches()
    default_provider().clear_cache()
