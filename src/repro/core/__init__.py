"""The paper's primary contribution: guaranteed ad hoc routing via universal
exploration sequences.

The subpackage is organised to mirror the paper:

* :mod:`repro.core.exploration` — exploration-sequence walk semantics on
  port-labeled graphs, including the reversibility property (Section 2);
* :mod:`repro.core.universal` — universal exploration sequence providers and
  the certification machinery that stands in for Reingold's Theorem 4;
* :mod:`repro.core.memory` — the O(log n) space accounting used by nodes and
  message headers;
* :mod:`repro.core.routing` — Algorithm ``Route`` (Section 3, Theorem 1);
* :mod:`repro.core.walk_kernel` / :mod:`repro.core.engine` — the flat-array
  walk kernel and the prepared per-graph engine (cached reduction, size
  tables, ``route_many`` batch API) every entry point routes through;
* :mod:`repro.core.broadcast` — broadcasting along the exploration walk;
* :mod:`repro.core.reliable_broadcast` — Bracha's reliable broadcast layered
  on UES point-to-point routing, tolerating f < n/3 Byzantine nodes;
* :mod:`repro.core.counting` — Algorithm ``CountNodes`` (Section 4);
* :mod:`repro.core.hybrid` — the Corollary 2 combiner that runs a fast
  probabilistic router in parallel with the guaranteed one.
"""

from repro.core.exploration import (
    ExplicitSequence,
    ExplorationSequence,
    WalkState,
    covers_component,
    coverage_steps,
    step_backward,
    step_forward,
    walk_vertices,
)
from repro.core.universal import (
    CertifiedSequenceProvider,
    RandomSequenceProvider,
    SequenceProvider,
    certify_covers,
    standard_certification_family,
)
from repro.core.memory import MemoryMeter, bits_for_namespace
from repro.core.routing import (
    Direction,
    RouteOutcome,
    RouteResult,
    route,
    route_on_network,
)
from repro.core.broadcast import BroadcastResult, broadcast
from repro.core.reliable_broadcast import (
    QuorumThresholds,
    ReliableBroadcastResult,
    UESTransport,
    broadcast_reliably,
)
from repro.core.counting import CountingResult, count_nodes
from repro.core.engine import (
    PreparedNetwork,
    PreparedSchedule,
    WalkTrace,
    prepare,
    prepare_schedule,
)
from repro.core.walk_kernel import CompiledWalk
from repro.core.hybrid import HybridResult, hybrid_route
from repro.core.stconnectivity import ConnectivityAnswer, exploration_connectivity
from repro.core.adversary import (
    AdversarialWitness,
    find_adversarial_labeling,
    find_uncovered_start,
    worst_case_coverage_steps,
)

__all__ = [
    "ExplicitSequence",
    "ExplorationSequence",
    "WalkState",
    "covers_component",
    "coverage_steps",
    "step_backward",
    "step_forward",
    "walk_vertices",
    "CertifiedSequenceProvider",
    "RandomSequenceProvider",
    "SequenceProvider",
    "certify_covers",
    "standard_certification_family",
    "MemoryMeter",
    "bits_for_namespace",
    "Direction",
    "RouteOutcome",
    "RouteResult",
    "route",
    "route_on_network",
    "PreparedNetwork",
    "PreparedSchedule",
    "WalkTrace",
    "prepare",
    "prepare_schedule",
    "CompiledWalk",
    "BroadcastResult",
    "broadcast",
    "QuorumThresholds",
    "ReliableBroadcastResult",
    "UESTransport",
    "broadcast_reliably",
    "CountingResult",
    "count_nodes",
    "HybridResult",
    "hybrid_route",
    "ConnectivityAnswer",
    "exploration_connectivity",
    "AdversarialWitness",
    "find_adversarial_labeling",
    "find_uncovered_start",
    "worst_case_coverage_steps",
]
