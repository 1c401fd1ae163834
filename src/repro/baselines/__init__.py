"""Baseline routing and broadcasting algorithms.

The paper positions its exploration-sequence router against the existing
landscape: naive random-walk routing (the "natural, if wasteful" approach of
Section 1.2), flooding, and the position-based algorithms surveyed in its
references [2, 5, 9] — greedy geographic forwarding and greedy-face-greedy
(GFG/GPSR) on a planarised subgraph — plus the token-depositing DFS strawman
the introduction dismisses because it requires per-node state.  All of them
are implemented here so every experiment can report the guaranteed router and
its competitors on the identical network instance.

Each algorithm lives in its own module and is imported from there.  All of
them return a :class:`~repro.baselines.base.RoutingAttempt`, which also
satisfies the ``FastAttempt`` protocol expected by the Corollary 2 combiner
(:func:`repro.core.hybrid.hybrid_route`).  This package module defines only
the router registry shared by the sweep planner and the conformance harness:
:data:`ALL_ROUTER_SPECS` and its applicability policy.
"""

from typing import Optional, Tuple

from repro.baselines import (
    dfs_routing,
    face_routing,
    flooding,
    greedy_geo,
    random_walk_routing,
)
from repro.baselines.base import RouterSpec

#: Every baseline router, as a uniform descriptor.  The conformance harness
#: (and any sweep that wants "all competitors on this instance") iterates
#: this tuple instead of hard-coding algorithm-specific call signatures.
ALL_ROUTER_SPECS: Tuple[RouterSpec, ...] = (
    random_walk_routing.SPEC,
    flooding.SPEC,
    dfs_routing.SPEC,
    greedy_geo.SPEC,
    face_routing.SPEC,
)


def router_applies(
    spec: RouterSpec, has_positions: bool, dimension: Optional[int] = None
) -> bool:
    """Whether one router's contract lets it run on a scenario.

    The single applicability policy: position-based routers need a
    deployment, planar-only routers need a 2D one.  ``dimension=None`` means
    "unknown", which only the positive checks can veto.  Both the conformance
    harness (:func:`applicable_routers`, from a built network) and the sweep
    planner (:func:`repro.analysis.runner.plan_sweep`, statically from a
    :class:`~repro.analysis.experiments.ScenarioSpec`) decide through this
    predicate.
    """
    if spec.needs_positions and not has_positions:
        return False
    if spec.planar_only and dimension is not None and dimension != 2:
        return False
    return True


def applicable_routers(
    deployment: Optional[object] = None, dimension: Optional[int] = None
) -> Tuple[RouterSpec, ...]:
    """The subset of :data:`ALL_ROUTER_SPECS` runnable on a scenario.

    ``deployment`` is the scenario's node deployment (``None`` for purely
    topological networks, which rules out the position-based routers);
    ``dimension`` its dimensionality (face routing requires 2D).
    """
    return tuple(
        spec
        for spec in ALL_ROUTER_SPECS
        if router_applies(spec, deployment is not None, dimension)
    )


__all__ = ["ALL_ROUTER_SPECS", "applicable_routers", "router_applies"]
