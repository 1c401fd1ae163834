"""Cover-time estimates for random walks.

Section 2 of the paper leans on the classical results that a random walk of
length ``O(n^2)`` covers a bounded-degree graph with high probability (Feige;
Lovász).  This module provides:

* empirical estimates (repeat the walk over several seeds and average), used
  by experiment E2 to put the exploration-sequence coverage numbers next to
  the random-walk baseline; and
* Lovász's analytic ``O(m n)`` / ``<= 2 m (n - 1)`` cover-time upper
  bound, used as a sanity rail in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median
from typing import List, Optional

from repro.graphs.labeled_graph import LabeledGraph
from repro.walks.random_walk import random_walk_cover_steps

__all__ = [
    "CoverTimeEstimate",
    "empirical_cover_time",
    "lovasz_cover_time_upper_bound",
]


@dataclass(frozen=True)
class CoverTimeEstimate:
    """Aggregate of repeated cover-time measurements."""

    samples: int
    successes: int
    mean_steps: Optional[float]
    median_steps: Optional[float]
    max_steps: Optional[int]

    @property
    def success_rate(self) -> float:
        """Fraction of trials that finished within the step budget."""
        return self.successes / self.samples if self.samples else 0.0


def _summarise(observations: List[Optional[int]]) -> CoverTimeEstimate:
    finished = [obs for obs in observations if obs is not None]
    return CoverTimeEstimate(
        samples=len(observations),
        successes=len(finished),
        mean_steps=mean(finished) if finished else None,
        median_steps=median(finished) if finished else None,
        max_steps=max(finished) if finished else None,
    )


def empirical_cover_time(
    graph: LabeledGraph,
    start: int,
    trials: int = 10,
    max_steps: Optional[int] = None,
    seed: int = 0,
) -> CoverTimeEstimate:
    """Estimate the cover time of the start's component over several trials."""
    observations = [
        random_walk_cover_steps(graph, start, seed=seed + trial, max_steps=max_steps)
        for trial in range(trials)
    ]
    return _summarise(observations)


def lovasz_cover_time_upper_bound(graph: LabeledGraph) -> float:
    """The classical ``2 m (n - 1)`` upper bound on the expected cover time.

    ``m`` counts edges and ``n`` vertices (Aleliunas et al. / Lovász's survey).
    For 3-regular graphs this is ``3 n (n - 1)`` — the ``O(n^2)`` figure the
    paper quotes.
    """
    n = graph.num_vertices
    m = graph.num_edges
    if n <= 1:
        return 0.0
    return 2.0 * m * (n - 1)
