"""Frozen request dataclasses — one per task the unified API can run.

Every operation the repository exposes (routing, batch routing, schedule
routing, broadcasting, counting, connectivity decisions, baseline
comparisons, parameter sweeps, conformance passes) is described by exactly
one immutable request object here.  Requests are *declarative*: they name a
:class:`~repro.analysis.experiments.ScenarioSpec` (never a live graph
object), carry only JSON-representable field values, and therefore round-trip
losslessly through the wire codec in :mod:`repro.api.envelope` — which is
what makes task submissions replayable and shippable across processes.

Dispatch them through :meth:`repro.api.session.Session.submit`; the task
registry (:mod:`repro.api.registry`) maps each type onto its CLI subcommand
and default backend.  The task catalogue, envelope schema and migration table
from the legacy free functions live in ``docs/api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

from repro.analysis.experiments import ScenarioSpec, is_dynamic_scenario
from repro.errors import TaskError
from repro.network.byzantine import BYZANTINE_BEHAVIORS

__all__ = [
    "TaskRequest",
    "REQUEST_TYPES",
    "WireCodable",
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
]

#: Explicit source/target pairs, as an immutable tuple of 2-tuples.
Pairs = Tuple[Tuple[int, int], ...]


class WireCodable:
    """Mixin adding ``to_json``/``from_json`` backed by the envelope codec."""

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize this object to its canonical JSON wire form."""
        from repro.api.envelope import to_json

        return to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str):
        """Parse the wire form back into an instance of this exact type."""
        from repro.api.envelope import from_json

        obj = from_json(text)
        if not isinstance(obj, cls):
            raise TaskError(
                f"{cls.__name__}.from_json decoded a {type(obj).__name__}; "
                "use repro.api.envelope.from_json for polymorphic decoding"
            )
        return obj


def _freeze_pairs(pairs) -> Optional[Pairs]:
    if pairs is None:
        return None
    frozen = tuple((int(s), int(t)) for s, t in pairs)
    return frozen


@dataclass(frozen=True)
class RouteRequest(WireCodable):
    """Route one message with Algorithm ``Route`` on a scenario's network.

    ``size_bound`` defaults to the size of the source's reduced component.  A
    smaller bound is accepted, but its sequence is too short to explore the
    component, so a FAILURE is then no confirmation that the pair is
    disconnected (Theorem 1 needs the bound to cover the component).
    """

    task: ClassVar[str] = "route"

    scenario: ScenarioSpec
    source: int
    target: int
    size_bound: Optional[int] = None
    start_port: int = 0


@dataclass(frozen=True)
class RouteBatchRequest(WireCodable):
    """Batch-route many pairs through one prepared engine.

    ``pairs`` fixes the exact source/target pairs; when ``None``, ``num_pairs``
    random pairs are drawn deterministically from ``pair_seed`` (the same
    policy as :func:`repro.analysis.experiments.pick_source_target_pairs`).
    """

    task: ClassVar[str] = "route-many"

    scenario: ScenarioSpec
    pairs: Optional[Pairs] = None
    num_pairs: int = 20
    pair_seed: int = 0
    size_bound: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _freeze_pairs(self.pairs))
        if self.pairs is None and self.num_pairs < 1:
            raise TaskError("a batch route needs pairs or num_pairs >= 1")


@dataclass(frozen=True)
class ScheduleRouteRequest(WireCodable):
    """Route pairs over a dynamic topology schedule (the extension workload).

    The scenario must be a dynamic-schedule spec: either a ``churn`` /
    ``mobility`` family scenario (dynamic by construction) or any family with
    ``snapshots`` / ``mutation`` / ``switch_every`` in its ``extra``
    parameters, materialised with
    :func:`repro.analysis.experiments.build_schedule`.
    """

    task: ClassVar[str] = "route-schedule"

    scenario: ScenarioSpec
    pairs: Optional[Pairs] = None
    num_pairs: int = 10
    pair_seed: int = 0
    size_bound: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _freeze_pairs(self.pairs))
        if not is_dynamic_scenario(self.scenario):
            raise TaskError(
                f"scenario {self.scenario.name!r} is not a dynamic-schedule "
                "spec; use a churn/mobility family or add snapshots/mutation/"
                "switch_every to its extra parameters (or use RouteRequest/"
                "RouteBatchRequest)"
            )
        if self.pairs is None and self.num_pairs < 1:
            raise TaskError("a schedule route needs pairs or num_pairs >= 1")


@dataclass(frozen=True)
class BroadcastRequest(WireCodable):
    """Broadcast from a source along the exploration sequence."""

    task: ClassVar[str] = "broadcast"

    scenario: ScenarioSpec
    source: int


@dataclass(frozen=True)
class BroadcastReliableRequest(WireCodable):
    """Bracha reliable broadcast from a source under injected Byzantine faults.

    ``byzantine`` fixes explicit ``(node, behaviour)`` corruptions; when it is
    empty, ``num_byzantine`` nodes are corrupted deterministically from
    ``fault_seed`` with behaviours drawn from ``behaviors`` (the same policy
    as :meth:`repro.network.byzantine.ByzantinePlan.random_plan`).
    ``crashes`` adds crash-model failures, composed order-independently with
    the Byzantine plan; ``delay`` is the extra latency of ``delay`` nodes.
    """

    task: ClassVar[str] = "broadcast-reliable"

    scenario: ScenarioSpec
    source: int
    value: str = "m"
    byzantine: Tuple[Tuple[int, str], ...] = ()
    num_byzantine: int = 0
    behaviors: Tuple[str, ...] = ("equivocate",)
    fault_seed: int = 0
    crashes: Tuple[int, ...] = ()
    delay: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "byzantine",
            tuple((int(node), str(behavior)) for node, behavior in self.byzantine),
        )
        object.__setattr__(self, "behaviors", tuple(str(b) for b in self.behaviors))
        object.__setattr__(self, "crashes", tuple(int(node) for node in self.crashes))
        if not isinstance(self.value, str) or not self.value:
            raise TaskError("a reliable broadcast needs a non-empty string value")
        if self.num_byzantine < 0:
            raise TaskError("num_byzantine must be >= 0")
        if self.delay < 0:
            raise TaskError("delay must be >= 0")
        for behavior in self.behaviors + tuple(b for _n, b in self.byzantine):
            if behavior not in BYZANTINE_BEHAVIORS:
                raise TaskError(
                    f"unknown Byzantine behaviour {behavior!r}; "
                    f"choose from {BYZANTINE_BEHAVIORS}"
                )
        if not self.byzantine and self.num_byzantine > 0 and not self.behaviors:
            raise TaskError("random corruption needs a non-empty behaviour pool")


@dataclass(frozen=True)
class CountRequest(WireCodable):
    """Run Algorithm ``CountNodes`` from a source."""

    task: ClassVar[str] = "count"

    scenario: ScenarioSpec
    source: int


@dataclass(frozen=True)
class ConnectivityRequest(WireCodable):
    """Decide st-connectivity by walking the exploration sequence."""

    task: ClassVar[str] = "connectivity"

    scenario: ScenarioSpec
    source: int
    target: int


@dataclass(frozen=True)
class CompareRequest(WireCodable):
    """Route the same random pairs with the guaranteed router and baselines."""

    task: ClassVar[str] = "compare"

    scenario: ScenarioSpec
    num_pairs: int = 5
    pair_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_pairs < 1:
            raise TaskError("a comparison needs num_pairs >= 1")


@dataclass(frozen=True)
class SweepRequest(WireCodable):
    """Shard a scenario × router sweep (optionally across worker processes)."""

    task: ClassVar[str] = "sweep"

    scenarios: Tuple[ScenarioSpec, ...]
    routers: Tuple[str, ...] = ("ues-engine",)
    pairs: int = 8
    master_seed: int = 0
    workers: int = 1
    out_path: Optional[str] = None
    resume: bool = False
    experiment: str = "api-sweep"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "routers", tuple(str(r) for r in self.routers))
        if not self.scenarios:
            raise TaskError("a sweep needs at least one scenario")
        if self.resume and self.out_path is None:
            raise TaskError(
                "resume=True requires out_path: there is no shard stream to resume from"
            )


@dataclass(frozen=True)
class ConformanceRequest(WireCodable):
    """Run the differential conformance harness over a scenario matrix.

    ``scenarios=None`` selects the default matrix
    (:func:`repro.analysis.conformance.default_conformance_matrix`).
    """

    task: ClassVar[str] = "conformance"

    scenarios: Optional[Tuple[ScenarioSpec, ...]] = None
    pairs_per_scenario: int = 4
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.scenarios is not None:
            object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.pairs_per_scenario < 1:
            raise TaskError("a conformance pass needs pairs_per_scenario >= 1")


#: Every request type, in task-catalogue order.
REQUEST_TYPES: Tuple[type, ...] = (
    RouteRequest,
    RouteBatchRequest,
    ScheduleRouteRequest,
    BroadcastRequest,
    BroadcastReliableRequest,
    CountRequest,
    ConnectivityRequest,
    CompareRequest,
    SweepRequest,
    ConformanceRequest,
)

TaskRequest = Union[
    RouteRequest,
    RouteBatchRequest,
    ScheduleRouteRequest,
    BroadcastRequest,
    BroadcastReliableRequest,
    CountRequest,
    ConnectivityRequest,
    CompareRequest,
    SweepRequest,
    ConformanceRequest,
]
