"""Exploration-sequence walk semantics (Section 2 of the paper).

An *exploration sequence* is a sequence of integer offsets ``t_1, t_2, ...``.
A walk following it is defined on a port-labeled graph: if before step ``i``
the walk entered vertex ``v`` on the edge labeled ``l(v, u)`` (the port of
``v`` on which it arrived), then it leaves on the edge labeled

    ``l(v, w) = l(v, u) + t_i  (mod deg(v))``.

The crucial property used by Algorithm ``Route`` is *reversibility*: knowing
``t_i`` and the edge taken at step ``i``, the edge taken at step ``i - 1`` can
be recovered locally, because

    ``l(v, u) = l(v, w) - t_i  (mod deg(v))``.

This module implements the walk state, single forward/backward steps, whole
walks, and coverage checks.  Everything here is purely combinatorial; the
distributed realisation lives in :mod:`repro.core.routing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence, Set, Tuple

from repro.errors import SequenceExhaustedError
from repro.graphs.connectivity import connected_component
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "WalkState",
    "ExplorationSequence",
    "ExplicitSequence",
    "step_forward",
    "step_backward",
    "walk_states",
    "covers_component",
    "coverage_steps",
]


@dataclass(frozen=True)
class WalkState:
    """The local state of an exploration walk.

    ``vertex`` is the walk's current position; ``entry_port`` is the label
    ``l(v, u)`` of the edge over which the walk arrived (for the walk's very
    first step the convention is an arbitrary port, 0 by default — the paper
    allows any initial edge).
    """

    vertex: int
    entry_port: int


class ExplorationSequence(Protocol):
    """Anything that behaves like a (possibly lazily computed) offset sequence.

    Offsets are indexed from 0; ``sequence[i]`` is the offset the paper calls
    ``t_{i+1}``.  Implementations must be deterministic: the same index always
    yields the same offset, because different nodes of the network recompute
    entries independently (that is the log-space re-computation trick of
    Section 2).
    """

    def __len__(self) -> int:  # pragma: no cover - protocol signature only
        ...

    def __getitem__(self, index: int) -> int:  # pragma: no cover - protocol signature only
        ...


class ExplicitSequence:
    """An exploration sequence backed by an in-memory list of offsets."""

    def __init__(self, offsets: Sequence[int]) -> None:
        self._offsets: Tuple[int, ...] = tuple(int(t) for t in offsets)
        self._bytes: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < len(self._offsets):
            raise SequenceExhaustedError(
                f"index {index} outside sequence of length {len(self._offsets)}"
            )
        return self._offsets[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._offsets)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExplicitSequence):
            return self._offsets == other._offsets
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._offsets)

    def __repr__(self) -> str:
        preview = ", ".join(str(t) for t in self._offsets[:8])
        suffix = ", ..." if len(self._offsets) > 8 else ""
        return f"ExplicitSequence([{preview}{suffix}], length={len(self._offsets)})"

    def offsets(self) -> Tuple[int, ...]:
        """The raw offsets as a tuple."""
        return self._offsets

    def offset_bytes(self) -> bytes:
        """The offsets reduced modulo 3, as ``bytes`` (computed once).

        Every walk step takes its offset modulo 3, so this is the exact form
        the compiled walk kernels read.
        """
        if self._bytes is None:
            self._bytes = bytes(t % 3 for t in self._offsets)
        return self._bytes


def step_forward(graph: LabeledGraph, state: WalkState, offset: int) -> WalkState:
    """Advance the walk one step using ``offset`` (the paper's ``next``).

    The walk leaves the current vertex through the port
    ``(entry_port + offset) mod deg(v)`` and the new state records the port on
    which it arrives at the neighbour.
    """
    degree = graph.degree(state.vertex)
    exit_port = (state.entry_port + offset) % degree
    neighbor, arrival_port = graph.rotation(state.vertex, exit_port)
    return WalkState(vertex=neighbor, entry_port=arrival_port)


def step_backward(graph: LabeledGraph, state: WalkState, offset: int) -> WalkState:
    """Undo one step of the walk (the paper's ``prev``).

    If ``state`` is the walk's state *after* a step taken with ``offset``,
    the returned state is the walk's state *before* that step.  Only local
    information (the current vertex's rotation map) is consulted, which is
    what lets the routing algorithm backtrack without any stored path.
    """
    previous_vertex, exit_port = graph.rotation(state.vertex, state.entry_port)
    degree = graph.degree(previous_vertex)
    previous_entry = (exit_port - offset) % degree
    return WalkState(vertex=previous_vertex, entry_port=previous_entry)


def walk_states(
    graph: LabeledGraph,
    sequence: ExplorationSequence,
    start_vertex: int,
    start_port: int = 0,
    max_steps: Optional[int] = None,
) -> Iterator[WalkState]:
    """Yield the successive states of the exploration walk, starting state included.

    The walk performs ``min(len(sequence), max_steps)`` steps.  The starting
    state corresponds to the paper's "initial edge": the walk behaves as if it
    had just arrived at ``start_vertex`` over port ``start_port``.
    """
    state = WalkState(vertex=start_vertex, entry_port=start_port)
    yield state
    limit = len(sequence) if max_steps is None else min(len(sequence), max_steps)
    for index in range(limit):
        state = step_forward(graph, state, sequence[index])
        yield state


def covers_component(
    graph: LabeledGraph,
    sequence: ExplorationSequence,
    start_vertex: int,
    start_port: int = 0,
) -> bool:
    """Return ``True`` when the walk visits every vertex of the start's component.

    This is the coverage property that makes a sequence "universal" when it
    holds for *every* graph of bounded size, *every* labeling and *every*
    start edge (Definition 3).  Checking a single instance is the primitive
    out of which the certification machinery of :mod:`repro.core.universal`
    is built.
    """
    return coverage_steps(graph, sequence, start_vertex, start_port) is not None


def coverage_steps(
    graph: LabeledGraph,
    sequence: ExplorationSequence,
    start_vertex: int,
    start_port: int = 0,
) -> Optional[int]:
    """Number of steps after which the walk has seen the whole component.

    Returns ``None`` when the sequence ends before full coverage.  A return
    value of 0 means the component is the single starting vertex.
    """
    component = connected_component(graph, start_vertex)
    remaining: Set[int] = set(component)
    steps_taken = -1
    for steps_taken, state in enumerate(
        walk_states(graph, sequence, start_vertex, start_port)
    ):
        remaining.discard(state.vertex)
        if not remaining:
            return steps_taken
    return None
