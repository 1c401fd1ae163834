#!/usr/bin/env python3
"""3D sensor network: where position-based routing loses its guarantee.

The paper's opening motivation is that guaranteed routing is well understood
for *planar* (2D) networks — greedy forwarding with a face-routing fallback on
a planar subgraph — but open for general 3D networks, where no planarisation
exists.  This example builds a 3D unit-ball sensor network (think sensors
dispersed in a building or a water volume), and compares:

* greedy geographic forwarding (gets stuck in 3D voids, silently),
* greedy-face-greedy, which simply does not apply in 3D (the library refuses
  to planarise a 3D deployment), and
* the exploration-sequence router, which never looks at coordinates and keeps
  its guarantee in any dimension.

Run it with::

    python examples/sensor_network_3d.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.baselines.face_routing import gfg_route
from repro.baselines.greedy_geo import greedy_geographic_route
from repro.core.routing import route
from repro.errors import GeometryError
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_unit_disk_network


def main() -> None:
    network = build_unit_disk_network(60, radius=0.38, dimension=3, seed=13)
    graph, deployment = network.graph, network.deployment
    source = graph.vertices[0]
    component = connected_component(graph, source)
    targets = [v for v in sorted(component) if v != source][:12]
    print(f"3D sensor network: {network.num_nodes} nodes, |C_s| = {len(component)}")

    # GFG requires a planar subgraph, which does not exist for 3D deployments.
    try:
        gfg_route(graph, deployment, source, targets[0])
    except GeometryError as exc:
        print(f"GFG is not applicable in 3D: {exc}")

    rows = []
    greedy_delivered = 0
    ues_delivered = 0
    for target in targets:
        greedy = greedy_geographic_route(graph, deployment, source, target)
        ues = route(graph, source, target)
        greedy_delivered += int(greedy.delivered)
        ues_delivered += int(ues.delivered)
        rows.append(
            [
                target,
                "yes" if greedy.delivered else f"no ({greedy.notes})",
                greedy.hops,
                ues.outcome.value,
                ues.physical_hops,
            ]
        )
    print(
        format_table(
            ["target", "greedy delivered", "greedy hops", "ues outcome", "ues hops"],
            rows,
            title="\nper-target comparison (3D unit-ball graph)",
        )
    )
    print(
        f"\ndelivery: greedy {greedy_delivered}/{len(targets)}, "
        f"exploration-sequence router {ues_delivered}/{len(targets)}"
    )
    assert ues_delivered == len(targets)


if __name__ == "__main__":
    main()
