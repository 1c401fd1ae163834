"""Corollary 2 — combining a fast probabilistic router with the guaranteed one.

The paper observes that the existence of the guaranteed (but possibly slow)
exploration-sequence router upgrades *any* probabilistic routing algorithm
for free: run both in parallel and stop as soon as either succeeds.  The
expected cost stays within a constant factor of the probabilistic router's
(it wins whenever it succeeds, which is almost always), while delivery becomes
guaranteed whenever a path exists, and bounded-time failure detection is
gained when it does not.

The combiner below models the parallel composition round by round: in every
round each *still-running* walk advances by one physical hop, and the run
stops the moment either reports success (or the guaranteed router reports
failure, which is conclusive).  The reported cost charges each router one
message per round **while it is running**: a fast router that terminated
(undelivered) before the stopping round is charged only the hops it actually
took, so ``total_messages`` is at most — not always exactly — twice the
winner's cost, the constant-factor overhead the corollary's ``O(T(n))``
hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol as TypingProtocol

from repro.core.routing import RouteOutcome, RouteResult, route
from repro.core.universal import SequenceProvider
from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph

__all__ = ["FastAttempt", "HybridResult", "hybrid_route"]


class FastAttempt(TypingProtocol):
    """What the combiner needs to know about a probabilistic router's attempt.

    All baseline routers in :mod:`repro.baselines` return objects satisfying
    this protocol.
    """

    @property
    def delivered(self) -> bool:  # pragma: no cover - protocol signature only
        ...

    @property
    def hops(self) -> int:  # pragma: no cover - protocol signature only
        ...


#: A probabilistic/fast router: ``(graph, source, target) -> FastAttempt``.
FastRouter = Callable[[LabeledGraph, int, int], FastAttempt]


@dataclass(frozen=True)
class HybridResult:
    """Outcome of the Corollary 2 parallel composition."""

    outcome: RouteOutcome
    delivered: bool
    winner: str
    rounds: int
    total_messages: int
    fast_attempt: FastAttempt
    guaranteed_result: RouteResult

    @property
    def fast_won(self) -> bool:
        """True when the probabilistic router reached the target first."""
        return self.winner == "fast"


def hybrid_route(
    graph: LabeledGraph,
    source: int,
    target: int,
    fast_router: FastRouter,
    provider: Optional[SequenceProvider] = None,
    size_bound: Optional[int] = None,
) -> HybridResult:
    """Route with a probabilistic router and the guaranteed router in parallel.

    Parameters
    ----------
    fast_router:
        Any callable with the :data:`FastRouter` signature — e.g.
        :func:`repro.baselines.greedy_geo.greedy_geographic_route` (via a
        wrapper binding its deployment),
        :func:`repro.baselines.random_walk_routing.random_walk_route`, or a
        user-supplied heuristic.
    provider, size_bound:
        Passed through to the guaranteed router (see
        :func:`repro.core.routing.route`).

    Returns
    -------
    HybridResult
        ``outcome`` is SUCCESS when either router delivered, FAILURE when the
        guaranteed router certified that no path exists.  ``total_messages``
        charges one message per router per round *while that router is still
        running*: the guaranteed router runs through every round, the fast
        router only through ``min(fast.hops, rounds)`` of them (it may have
        terminated, undelivered, before the stopping round).  The total is
        therefore at most twice the winner's own cost — the constant-factor
        overhead of Corollary 2 — and equals it exactly when the fast router
        wins.  A ``fast_cost == guaranteed_cost`` tie goes to the fast
        router.
    """
    guaranteed = route(
        graph, source, target, provider=provider, size_bound=size_bound
    )
    fast = fast_router(graph, source, target)
    if guaranteed.outcome is RouteOutcome.FAILURE and fast.delivered:
        # Inconsistent inputs: the fast router claims delivery to a target the
        # guaranteed router proved unreachable.  That can only happen with a
        # buggy fast router, so fail loudly instead of guessing.
        raise RoutingError(
            "fast router claims delivery to a target the guaranteed router "
            "certified unreachable"
        )

    fast_cost = fast.hops if fast.delivered else None
    # The guaranteed walk reaches the target after `physical_hops` forward
    # hops when it succeeds, and certifies failure after the full
    # forward+backward walk otherwise.
    guaranteed_cost = guaranteed.physical_hops

    if fast_cost is not None and fast_cost <= guaranteed_cost:
        # Tie-break: on fast_cost == guaranteed_cost the fast router wins —
        # both reach the target in the same round and the composition stops
        # on whichever success is cheaper to confirm.
        winner = "fast"
        rounds = fast_cost
        outcome = RouteOutcome.SUCCESS
        delivered = True
    else:
        winner = "guaranteed"
        rounds = guaranteed_cost
        outcome = guaranteed.outcome
        delivered = guaranteed.delivered
    # The guaranteed walk is charged every round; the fast walk only the
    # rounds it was actually in flight.  A fast router that terminated
    # (undelivered) after fast.hops < rounds hops sends no further messages —
    # charging it 2 * rounds would overstate Corollary 2's cost.
    total_messages = rounds + min(fast.hops, rounds)
    return HybridResult(
        outcome=outcome,
        delivered=delivered,
        winner=winner,
        rounds=rounds,
        total_messages=total_messages,
        fast_attempt=fast,
        guaranteed_result=guaranteed,
    )
