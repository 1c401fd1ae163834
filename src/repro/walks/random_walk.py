"""Simple random walks on port-labeled graphs.

A simple random walk picks a uniformly random incident edge at every step.
On a port-labeled graph this is the same as following an exploration sequence
whose offsets are chosen independently and uniformly at every step — the
observation that motivates universal exploration sequences as a
*derandomized* random walk (Section 1.2 of the paper).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.errors import GraphStructureError
from repro.graphs.connectivity import connected_component
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "RandomWalk",
    "random_walk_cover_steps",
]


@dataclass
class RandomWalk:
    """A resumable simple random walk.

    The walk is deterministic for a fixed seed, which keeps experiment runs
    reproducible.  ``position`` is the current vertex; :meth:`step` advances
    by one edge and returns the new vertex.
    """

    graph: LabeledGraph
    start: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.graph.has_vertex(self.start):
            raise GraphStructureError(f"unknown start vertex {self.start!r}")
        if self.graph.degree(self.start) == 0:
            raise GraphStructureError("random walk cannot start at an isolated vertex")
        self._rng = random.Random(self.seed)
        self._position = self.start
        self._steps_taken = 0

    @property
    def position(self) -> int:
        """Current vertex of the walk."""
        return self._position

    @property
    def steps_taken(self) -> int:
        """Number of steps performed so far."""
        return self._steps_taken

    def step(self) -> int:
        """Advance one step along a uniformly random incident edge."""
        degree = self.graph.degree(self._position)
        port = self._rng.randrange(degree)
        self._position = self.graph.neighbor(self._position, port)
        self._steps_taken += 1
        return self._position

    def run(self, num_steps: int) -> List[int]:
        """Advance ``num_steps`` steps and return the visited vertices in order."""
        return [self.step() for _ in range(num_steps)]


def random_walk_cover_steps(
    graph: LabeledGraph,
    start: int,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps a random walk needs to visit every vertex of the start's component.

    Returns ``None`` if ``max_steps`` elapse before full coverage.
    """
    component = connected_component(graph, start)
    remaining: Set[int] = set(component)
    remaining.discard(start)
    if not remaining:
        return 0
    walk = RandomWalk(graph, start, seed)
    limit = max_steps if max_steps is not None else 10**12
    for step in range(1, limit + 1):
        remaining.discard(walk.step())
        if not remaining:
            return step
    return None
