"""Tests for the discrete-event network simulator."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolViolation, SimulationLimitExceeded
from repro.graphs import generators
from repro.network.adhoc import build_graph_network
from repro.network.message import Header, HeaderSchema, Message
from repro.network.node import NodeContext
from repro.network.simulator import Protocol, Simulator


HOP_SCHEMA = HeaderSchema({"hop": 16})


def _simple_message(hop: int = 0) -> Message:
    return Message(header=Header(HOP_SCHEMA, (hop,)))


class PingAlongPath(Protocol):
    """Forwards a message along port 'degree-1 direction' until it dead-ends."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.send(0, _simple_message())

    def on_message(self, ctx: NodeContext, in_port: int, message: Message) -> None:
        hop = message.header.get("hop")
        ctx.deliver(hop, note="ping")
        out_ports = [p for p in range(ctx.degree) if p != in_port]
        if out_ports:
            ctx.send(out_ports[0], _simple_message(hop + 1))


class EchoOnce(Protocol):
    """Every node answers the first message it receives back to the sender."""

    def on_start(self, ctx: NodeContext) -> None:
        for port in range(ctx.degree):
            ctx.send(port, _simple_message())

    def on_message(self, ctx: NodeContext, in_port: int, message: Message) -> None:
        if not ctx.memory.load("answered", False):
            ctx.memory.store("answered", True)
            ctx.send(in_port, message)


def test_simulator_runs_protocol_along_a_path():
    network = build_graph_network(generators.path_graph(5))
    simulator = network.simulator()
    result = simulator.run(PingAlongPath(), initiators=[0])
    assert result.completed
    # The ping traverses the path 0->1->2->3->4 and stops at the end.
    delivered_nodes = [record.node for record in result.deliveries]
    assert delivered_nodes == [1, 2, 3, 4]
    assert result.stats.transmissions == 4
    assert result.stats.final_time == 4


def test_simulator_trace_records_ports_and_header_bits():
    network = build_graph_network(generators.path_graph(3))
    simulator = network.simulator()
    result = simulator.run(PingAlongPath(), initiators=[0])
    first = result.trace[0]
    assert first.sender == 0
    assert first.receiver == 1
    assert first.header_bits == 16
    assert result.stats.max_header_bits == 16


def test_simulator_event_limit_raises_or_truncates():
    network = build_graph_network(generators.cycle_graph(6))
    simulator = network.simulator()
    with pytest.raises(SimulationLimitExceeded):
        simulator.run(PingAlongPath(), initiators=[0], max_events=10)
    simulator2 = build_graph_network(generators.cycle_graph(6)).simulator()
    result = simulator2.run(
        PingAlongPath(), initiators=[0], max_events=10, raise_on_limit=False
    )
    assert not result.completed
    assert result.events_processed == 10


def test_simulator_rejects_bad_initiator_and_bad_port():
    network = build_graph_network(generators.path_graph(3))
    simulator = network.simulator()
    with pytest.raises(ProtocolViolation):
        simulator.run(PingAlongPath(), initiators=[99])

    class BadPort(Protocol):
        def on_start(self, ctx):
            ctx.send(99, _simple_message())

        def on_message(self, ctx, in_port, message):
            pass

    with pytest.raises(ProtocolViolation):
        build_graph_network(generators.path_graph(3)).simulator().run(BadPort(), [0])


def test_simulator_validates_names():
    graph = generators.path_graph(3)
    with pytest.raises(ProtocolViolation):
        Simulator(graph, names={0: 1, 1: 1, 2: 2})
    with pytest.raises(ProtocolViolation):
        Simulator(graph, names={0: 0})
    with pytest.raises(ProtocolViolation):
        Simulator(graph, link_delay=0)


def test_name_and_node_lookup():
    network = build_graph_network(generators.path_graph(3), namespace_size=100, name_seed=5)
    simulator = network.simulator()
    for node in network.graph.vertices:
        name = simulator.name_of(node)
        assert simulator.node_of(name) == node
        assert network.name_of(node) == name
    assert simulator.neighbor_name(0, 0) == simulator.name_of(1)


def test_node_context_exposes_local_information_only():
    network = build_graph_network(generators.star_graph(3))
    simulator = network.simulator()
    recorded = {}

    class Inspect(Protocol):
        def on_start(self, ctx):
            recorded["id"] = ctx.node_id
            recorded["degree"] = ctx.degree
            recorded["name"] = ctx.name
            recorded["neighbor"] = ctx.neighbor_name(0)
            recorded["position"] = ctx.position
            recorded["time"] = ctx.time

        def on_message(self, ctx, in_port, message):
            pass

    simulator.run(Inspect(), initiators=[0])
    assert recorded["id"] == 0
    assert recorded["degree"] == 3
    assert recorded["neighbor"] in (1, 2, 3)
    assert recorded["position"] is None  # no deployment attached
    assert recorded["time"] == 0


def test_per_node_memory_metered_and_shared_per_run():
    network = build_graph_network(generators.cycle_graph(4))
    simulator = network.simulator(node_memory_bits=8)
    result = simulator.run(EchoOnce(), initiators=[0], max_events=100)
    assert result.completed
    assert simulator.memory_high_water_bits() == 1


def test_link_failure_blocks_traffic():
    network = build_graph_network(generators.path_graph(3))
    simulator = network.simulator()
    simulator.fail_link(1, 2)
    result = simulator.run(PingAlongPath(), initiators=[0])
    delivered_nodes = [record.node for record in result.deliveries]
    assert delivered_nodes == [1]  # the ping never crosses the failed link


def test_node_failure_blocks_traffic():
    network = build_graph_network(generators.path_graph(4))
    simulator = network.simulator()
    simulator.fail_node(2)
    result = simulator.run(PingAlongPath(), initiators=[0])
    delivered_nodes = [record.node for record in result.deliveries]
    assert delivered_nodes == [1]


def test_link_delay_scales_completion_time():
    network = build_graph_network(generators.path_graph(4))
    fast = network.simulator(link_delay=1).run(PingAlongPath(), initiators=[0])
    slow = build_graph_network(generators.path_graph(4)).simulator(link_delay=3).run(
        PingAlongPath(), initiators=[0]
    )
    assert slow.stats.final_time == 3 * fast.stats.final_time


def test_simulation_result_result_at():
    network = build_graph_network(generators.path_graph(2))

    class Finisher(Protocol):
        def on_start(self, ctx):
            ctx.finish("done")

        def on_message(self, ctx, in_port, message):
            pass

    result = network.simulator().run(Finisher(), initiators=[0])
    assert result.result_at(0) == "done"
    assert result.result_at(1) is None
