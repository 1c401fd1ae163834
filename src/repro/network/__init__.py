"""Ad hoc network simulation substrate.

The paper's algorithms are *distributed*: independent nodes with O(log n)
memory exchange messages carrying an O(log n) header over a static topology.
This subpackage provides the execution environment that makes those claims
testable end to end:

* :mod:`repro.network.message` — messages with bit-accounted headers;
* :mod:`repro.network.node` — nodes with metered memory and the context
  object protocol handlers use to interact with the world;
* :mod:`repro.network.simulator` — a deterministic discrete-event simulator
  delivering messages over the static connectivity graph;
* :mod:`repro.network.trace` — execution traces and aggregate statistics;
* :mod:`repro.network.adhoc` — convenience constructors tying deployments,
  unit-disk graphs and namespaces together;
* :mod:`repro.network.failures` — link/node failure injection used to probe
  behaviour outside the paper's static model;
* :mod:`repro.network.byzantine` — Byzantine behaviour plans and the
  composed :class:`~repro.network.byzantine.FaultModel` consumed by the
  reliable-broadcast protocol (:mod:`repro.core.reliable_broadcast`).
"""

from repro.network.message import Header, HeaderSchema, Message
from repro.network.node import Node, NodeContext
from repro.network.simulator import Protocol, SimulationResult, Simulator
from repro.network.trace import DeliveryRecord, SimulationStats, TraceEvent
from repro.network.adhoc import AdHocNetwork, build_unit_disk_network, build_graph_network
from repro.network.failures import FailurePlan
from repro.network.byzantine import BYZANTINE_BEHAVIORS, ByzantinePlan, FaultModel
from repro.network.dynamics import (
    DynamicOutcome,
    DynamicRouteResult,
    TopologySchedule,
    route_over_schedule,
    validate_schedule,
)

__all__ = [
    "Header",
    "HeaderSchema",
    "Message",
    "Node",
    "NodeContext",
    "Protocol",
    "SimulationResult",
    "Simulator",
    "DeliveryRecord",
    "SimulationStats",
    "TraceEvent",
    "AdHocNetwork",
    "build_unit_disk_network",
    "build_graph_network",
    "FailurePlan",
    "BYZANTINE_BEHAVIORS",
    "ByzantinePlan",
    "FaultModel",
    "DynamicOutcome",
    "DynamicRouteResult",
    "TopologySchedule",
    "route_over_schedule",
    "validate_schedule",
]
