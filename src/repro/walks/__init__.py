"""Random walks on labeled graphs.

The paper contrasts the deterministic universal-exploration-sequence walk with
the "natural, if wasteful" randomized walk (Section 1.2) and relies on the
classical fact that a random walk of length ``O(n^2)`` covers a 3-regular
graph with high probability (Section 2, citing Feige and Lovász).  This
subpackage provides the random-walk substrate: walk simulation, empirical
cover times and Lovász's analytic bound, which the E2 experiment compares
against the exploration-sequence coverage.
"""

from repro.walks.random_walk import (
    RandomWalk,
    random_walk_cover_steps,
)
from repro.walks.cover_time import (
    CoverTimeEstimate,
    empirical_cover_time,
    lovasz_cover_time_upper_bound,
)

__all__ = [
    "RandomWalk",
    "random_walk_cover_steps",
    "CoverTimeEstimate",
    "empirical_cover_time",
    "lovasz_cover_time_upper_bound",
]
