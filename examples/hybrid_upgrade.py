#!/usr/bin/env python3
"""Corollary 2 in practice: upgrading a fast heuristic router for free.

Greedy geographic forwarding is extremely cheap (it follows the straight line
to the target) but fails whenever the network has a *void* — a region the
straight line crosses but no radio covers.  Corollary 2 of the paper says the
fix costs only a constant factor: run the cheap router and the guaranteed
exploration-sequence router in parallel and stop at the first success.

This example builds a deployment with a deliberate void (a ring of nodes
around an empty disc), shows greedy failing across it, and shows the hybrid
delivering every message while staying near-greedy-cheap whenever greedy
works.

Run it with::

    python examples/hybrid_upgrade.py
"""

from __future__ import annotations

import math

from repro.analysis.reporting import format_table
from repro.baselines.greedy_geo import greedy_geographic_route
from repro.core.hybrid import hybrid_route
from repro.geometry.deployment import Deployment
from repro.geometry.points import Point
from repro.geometry.unit_disk import unit_disk_graph
from repro.network.adhoc import build_graph_network


def horseshoe_with_void() -> Deployment:
    """Nodes along a horseshoe; the two tips face each other across an empty gap.

    The source sits at one tip and the target at the other.  The straight line
    between them crosses the void, so greedy forwarding is stuck immediately
    (every neighbour of the source lies *farther* from the target), while a
    perfectly good multi-hop path runs around the horseshoe.
    """
    positions = {}
    # Sweep 300 degrees of a circle, leaving a 60-degree gap between the tips.
    tips_gap = math.radians(60)
    count = 22
    for node in range(count):
        angle = tips_gap / 2 + (2 * math.pi - tips_gap) * node / (count - 1)
        positions[node] = Point.planar(
            0.5 + 0.4 * math.cos(angle), 0.5 + 0.4 * math.sin(angle)
        )
    return Deployment(positions)


def main() -> None:
    deployment = horseshoe_with_void()
    graph = unit_disk_graph(deployment, radius=0.15)
    network = build_graph_network(graph, deployment=deployment)
    # The two tips of the horseshoe: first and last node of the sweep.
    source = 0
    target = len(deployment) - 1

    def greedy_router(g, s, t):
        return greedy_geographic_route(g, deployment, s, t)

    greedy_alone = greedy_router(graph, source, target)
    hybrid = hybrid_route(graph, source, target, greedy_router)

    rows = [
        ["greedy alone", "yes" if greedy_alone.delivered else f"no ({greedy_alone.notes})", greedy_alone.hops],
        [
            "hybrid (greedy ∥ UES)",
            "yes" if hybrid.delivered else "no",
            hybrid.total_messages,
        ],
        ["guaranteed alone", hybrid.guaranteed_result.outcome.value, hybrid.guaranteed_result.physical_hops],
    ]
    print(
        format_table(
            ["strategy", "delivered", "messages"],
            rows,
            title="routing across the void (source and target on opposite arms)",
        )
    )
    print(f"\nhybrid winner: {hybrid.winner} router")

    # On an easy pair (two adjacent ring nodes) the hybrid stays greedy-cheap.
    easy_source, easy_target = 0, 1
    easy = hybrid_route(graph, easy_source, easy_target, greedy_router)
    print(
        f"easy pair {easy_source}->{easy_target}: delivered by the {easy.winner} router "
        f"using {easy.total_messages} messages"
    )


if __name__ == "__main__":
    main()
