"""repro — reproduction of "On ad hoc routing with guaranteed delivery".

The package reproduces Mark Braverman's PODC 2008 note end to end: ad hoc
routing (and broadcasting) with *guaranteed delivery* on arbitrary static
topologies, using universal exploration sequences over a degree-reduced
3-regular version of the network, with O(log n) node memory and O(log n)
message overhead, in time polynomial in the size of the source's connected
component — plus the network simulator, topology generators, baseline
algorithms and experiment harness needed to evaluate it.

Quickstart
----------

>>> from repro import build_unit_disk_network, route
>>> network = build_unit_disk_network(30, radius=0.35, seed=1)
>>> result = route(network.graph, source=0, target=17)
>>> result.outcome
<RouteOutcome.SUCCESS: 'success'>

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
experiment harness described in EXPERIMENTS.md.
"""

from repro.errors import (
    GeometryError,
    GraphStructureError,
    MemoryBudgetExceeded,
    ReproError,
    RoutingError,
    SequenceError,
    SimulationError,
)
from repro.graphs import (
    LabeledGraph,
    connected_component,
    generators,
    is_connected,
    reduce_to_three_regular,
)
from repro.geometry import (
    Deployment,
    Point,
    gabriel_subgraph,
    grid_deployment,
    random_deployment,
    unit_disk_graph,
)
from repro.core import (
    BroadcastResult,
    CertifiedSequenceProvider,
    CountingResult,
    Direction,
    ExplicitSequence,
    HybridResult,
    MemoryMeter,
    PreparedNetwork,
    PreparedSchedule,
    RandomSequenceProvider,
    RouteOutcome,
    RouteResult,
    WalkState,
    broadcast,
    count_nodes,
    covers_component,
    hybrid_route,
    prepare,
    prepare_schedule,
    route,
    route_on_network,
)
from repro.core.broadcast import broadcast_on_network
from repro.core.reliable_broadcast import (
    QuorumThresholds,
    ReliableBroadcastResult,
    broadcast_reliably,
)
from repro.network import (
    AdHocNetwork,
    ByzantinePlan,
    FailurePlan,
    FaultModel,
    DynamicOutcome,
    Message,
    Protocol,
    Simulator,
    TopologySchedule,
    build_graph_network,
    build_unit_disk_network,
    route_over_schedule,
)
from repro.baselines import (
    RoutingAttempt,
    dfs_token_route,
    flood_broadcast,
    flood_route,
    gfg_route,
    greedy_geographic_route,
    random_walk_route,
)
from repro.api import (
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    Session,
    SweepRequest,
    TaskResult,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphStructureError",
    "GeometryError",
    "SequenceError",
    "RoutingError",
    "SimulationError",
    "MemoryBudgetExceeded",
    # graphs
    "LabeledGraph",
    "generators",
    "connected_component",
    "is_connected",
    "reduce_to_three_regular",
    # geometry
    "Point",
    "Deployment",
    "random_deployment",
    "grid_deployment",
    "unit_disk_graph",
    "gabriel_subgraph",
    # core
    "WalkState",
    "ExplicitSequence",
    "covers_component",
    "RandomSequenceProvider",
    "CertifiedSequenceProvider",
    "MemoryMeter",
    "Direction",
    "RouteOutcome",
    "RouteResult",
    "route",
    "route_on_network",
    "PreparedNetwork",
    "PreparedSchedule",
    "prepare",
    "prepare_schedule",
    "BroadcastResult",
    "broadcast",
    "broadcast_on_network",
    "CountingResult",
    "count_nodes",
    "HybridResult",
    "hybrid_route",
    # reliable broadcast under Byzantine faults
    "QuorumThresholds",
    "ReliableBroadcastResult",
    "broadcast_reliably",
    "ByzantinePlan",
    "FailurePlan",
    "FaultModel",
    # network
    "AdHocNetwork",
    "DynamicOutcome",
    "Message",
    "Protocol",
    "Simulator",
    "TopologySchedule",
    "build_graph_network",
    "build_unit_disk_network",
    "route_over_schedule",
    # baselines
    "RoutingAttempt",
    "random_walk_route",
    "flood_route",
    "flood_broadcast",
    "greedy_geographic_route",
    "gfg_route",
    "dfs_token_route",
    # unified task API (the facade; full surface in repro.api)
    "Session",
    "TaskResult",
    "RouteRequest",
    "RouteBatchRequest",
    "ScheduleRouteRequest",
    "BroadcastRequest",
    "BroadcastReliableRequest",
    "CountRequest",
    "ConnectivityRequest",
    "CompareRequest",
    "SweepRequest",
    "ConformanceRequest",
    "__version__",
]
