#!/usr/bin/env python3
"""Disaster-relief scenario: broadcasting and failure detection under partition.

An ad hoc network thrown together after a disaster (responders' radios in a
damaged area) is typically *partitioned*: some clusters of nodes simply cannot
be reached.  Two things matter in that setting and both are exactly what the
paper's algorithm provides:

* a coordinator can broadcast an instruction to everyone in its partition and
  *know when the broadcast has completed* (the walk returns to the source), and
* a message addressed to a node in another partition comes back with an
  explicit failure verdict after a bounded number of steps, instead of
  wandering forever — so the coordinator can fall back to other channels.

The example also shows the cost trade-off against flooding, the usual
broadcast mechanism: flooding is faster but sends a message over every link
and leaves a mark in every node.

Run it with::

    python examples/disaster_relief_broadcast.py
"""

from __future__ import annotations

from repro.baselines.flooding import flood_broadcast
from repro.core.broadcast import broadcast_on_network
from repro.core.routing import RouteOutcome, route_on_network
from repro.geometry.deployment import clustered_deployment
from repro.geometry.unit_disk import unit_disk_graph
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_graph_network


def main() -> None:
    # Responders cluster around a few sites; radio range only joins some sites.
    deployment = clustered_deployment(
        clusters=4, nodes_per_cluster=6, cluster_radius=0.06, seed=3
    )
    graph = unit_disk_graph(deployment, radius=0.35)
    network = build_graph_network(graph, namespace_size=2 ** 16, name_seed=9, deployment=deployment)

    coordinator = 0
    partition = connected_component(graph, coordinator)
    others = [v for v in graph.vertices if v not in partition]
    print(
        f"{len(graph.vertices)} radios in 4 clusters; the coordinator's partition "
        f"contains {len(partition)} of them"
    )

    # Broadcast an instruction to the whole partition and learn completion.
    result = broadcast_on_network(network, coordinator, payload="evacuate sector 4")
    print(
        f"broadcast reached {result.reach_count} nodes "
        f"({'the whole partition' if result.covered_component else 'INCOMPLETE'}) "
        f"using {result.physical_hops} transmissions"
    )

    flood = flood_broadcast(graph, coordinator)
    print(
        f"flooding would have used {flood.transmissions} transmissions in "
        f"{flood.rounds} rounds, plus one mark bit in every node"
    )

    # A message to an unreachable responder comes back with a failure verdict.
    if others:
        unreachable = others[0]
        attempt = route_on_network(network, coordinator, unreachable, payload="status?")
        print(
            f"message to radio {unreachable} (other partition): "
            f"{attempt.outcome.value} confirmed at the coordinator after "
            f"{attempt.physical_hops} transmissions"
        )
        assert attempt.outcome is RouteOutcome.FAILURE
    else:
        print("all radios happen to be in one partition for this seed")


if __name__ == "__main__":
    main()
