#!/usr/bin/env python3
"""Quickstart: guaranteed routing on a random ad hoc network.

This example walks through the paper's pipeline end to end on a small 2D
unit-disk network:

1. deploy nodes and build the connectivity graph,
2. discover the size of the source's connected component with Algorithm
   ``CountNodes`` (no prior knowledge of the network is used),
3. route a message with Algorithm ``Route`` — both the fast centralised
   walker and the fully simulated distributed protocol,
4. route towards an unreachable node and watch the source receive the
   guaranteed *failure* confirmation,
5. switch to the unified task API: submit the same route as a replayable
   ``RouteRequest`` through a ``Session`` and check the uniform ``TaskResult``
   envelope agrees with the direct call — then round-trip it through JSON,
6. scale out: submit a ``SweepRequest`` (sharded across worker processes)
   and check the aggregate matches the inline serial reference row for row,
7. leave the paper's static homogeneous model: sweep a heterogeneous
   *churn* scenario (capability classes, link churn compiled to a
   ``TopologySchedule``) through the same machinery and check the pooled
   aggregate again matches the inline reference bit for bit.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.experiments import ScenarioSpec, structured_scenarios
from repro.api import RouteRequest, Session, SweepRequest
from repro.api.envelope import from_json
from repro.core.counting import count_nodes
from repro.core.routing import RouteOutcome, route, route_on_network
from repro.graphs.connectivity import connected_component
from repro.network.adhoc import build_unit_disk_network
from repro.scenarios import churn_scenarios


def main() -> None:
    # 1. A random ad hoc deployment: 40 radios in the unit square, links
    #    wherever two nodes are within range 0.28.  Names are drawn from a
    #    32-bit namespace, the paper's IPv4 example.
    network = build_unit_disk_network(
        40, radius=0.28, seed=7, namespace_size=2 ** 32, name_seed=1
    )
    graph = network.graph
    source = graph.vertices[0]
    component = connected_component(graph, source)
    print(f"deployed {network.num_nodes} nodes; |C_s| = {len(component)}")

    # 2. Section 4: the source discovers its component size by itself.
    counted = count_nodes(graph, source)
    print(
        f"CountNodes: {counted.original_count} original nodes "
        f"({counted.virtual_count} virtual) after {counted.rounds} doubling rounds"
    )

    # 3. Section 3: route to a node inside the component.
    target = sorted(component)[-1]
    result = route(graph, source, target, size_bound=counted.virtual_count)
    print(
        f"route {source} -> {target}: {result.outcome.value} after "
        f"{result.physical_hops} hops (sequence length {result.sequence_length})"
    )

    # The same algorithm as a distributed protocol: every hop is simulated,
    # the header is bit-accounted, and intermediate nodes store nothing.
    distributed = route_on_network(network, source, target, payload="hello, ad hoc world")
    print(
        f"distributed route: {distributed.outcome.value}, "
        f"{distributed.physical_hops} transmissions, "
        f"header {distributed.header_bits} bits, "
        f"per-node memory {distributed.node_memory_high_water_bits} bits"
    )

    # 4. Routing towards a node outside the component (or one that does not
    #    exist) terminates with a failure confirmation at the source.
    outside = [v for v in graph.vertices if v not in component]
    missing_target = outside[0] if outside else 10_000
    failure = route(graph, source, missing_target, size_bound=counted.virtual_count)
    print(
        f"route {source} -> {missing_target} (unreachable): {failure.outcome.value} "
        f"reported back at the source after {failure.total_virtual_steps} walk steps"
    )
    assert failure.outcome is RouteOutcome.FAILURE

    # 5. The unified task API (repro.api): the same route as a declarative,
    #    replayable request through the Session facade.  The request names a
    #    ScenarioSpec instead of a live graph, so it round-trips losslessly
    #    through JSON — and the envelope must agree with the direct call.
    session = Session()
    spec = ScenarioSpec(
        name="quickstart-udg",
        family="unit-disk",
        size=40,
        seed=7,
        radius=0.28,
        namespace_size=2 ** 32,
    )
    request = RouteRequest(scenario=spec, source=0, target=1)
    envelope = session.submit(request)
    assert RouteRequest.from_json(request.to_json()) == request
    replayed = from_json(envelope.to_json())
    assert replayed.payload == envelope.payload and replayed.status == envelope.status
    print(
        f"task API: {envelope.task} via {envelope.backend} backend -> "
        f"{envelope.status}, payload of {len(envelope.payload)} fields, "
        f"JSON round-trip lossless"
    )

    # 6. Beyond the paper: sweep a whole scenario grid across worker
    #    processes by submitting one SweepRequest.  Each shard derives its
    #    trial seed from the master seed, so the pooled aggregate is
    #    row-for-row identical to the inline serial reference — add
    #    out_path="sweep.jsonl" and resume=True to survive interruptions.
    sweep = SweepRequest(
        scenarios=tuple(
            structured_scenarios("grid", [9, 16]) + structured_scenarios("ring", [8])
        ),
        routers=("ues-engine", "flooding"),
        pairs=3,
        master_seed=0,
        workers=2,
    )
    outcome = session.submit(sweep)                        # process-pool backend
    reference = session.submit(sweep, backend="inline")    # serial reference
    assert outcome.payload["rows"] == reference.payload["rows"]
    delivered = sum(1 for row in outcome.payload["rows"] if row[6])
    print(
        f"sweep: {outcome.payload['shards_total']} shards -> "
        f"{len(outcome.payload['rows'])} rows ({delivered} delivered), "
        f"{outcome.backend} aggregate identical to {reference.backend}"
    )

    # 7. Heterogeneous churn (extension, docs/scenarios.md): each node gets a
    #    capability class (datacenter / desktop / mobile) by a seeded draw, the
    #    topology is a budgeted unit-disk graph that respects every class's
    #    degree budget, and per-class sessions compile into a TopologySchedule
    #    whose snapshot 0 is the all-up base graph.  The spec is an ordinary
    #    ScenarioSpec, so the sharded sweep, the schedule walker and the
    #    determinism guarantee all apply unchanged.
    churn_spec = churn_scenarios(
        [18], radius=0.42, seeds=(5,), snapshot_count=3, switch_every=6
    )[0]
    churn_sweep = SweepRequest(
        scenarios=(churn_spec,),
        routers=("ues-schedule",),
        pairs=4,
        master_seed=0,
        workers=2,
    )
    pooled = session.submit(churn_sweep)
    inline = session.submit(churn_sweep, backend="inline")
    assert pooled.payload["rows"] == inline.payload["rows"]
    churn_delivered = sum(1 for row in pooled.payload["rows"] if row[6])
    print(
        f"heterogeneous churn: {churn_spec.name} swept over "
        f"{dict(churn_spec.extra)['snapshots']} snapshots -> "
        f"{len(pooled.payload['rows'])} rows ({churn_delivered} delivered), "
        "pooled aggregate identical to inline"
    )


if __name__ == "__main__":
    main()
