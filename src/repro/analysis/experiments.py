"""Scenario construction and parameter sweeps for the experiment harness.

A :class:`ScenarioSpec` describes one network instance to evaluate (topology
family, size, radius, seed, dimension); :func:`reference_run_parameter_sweep`
evaluates a caller-supplied function over a list of scenarios and collects
rows for the report tables.  The benchmark modules in ``benchmarks/`` are
thin wrappers around these helpers, so the same sweeps can also be run
interactively from the examples.

A spec can also describe a *dynamic-schedule* scenario (an extension beyond
the paper's static model): :func:`build_schedule` derives a
:class:`~repro.network.dynamics.TopologySchedule` from the spec's base
topology by applying a per-snapshot mutation (``relabel`` permutes port
labels, ``drop-edge`` removes a link, ``static`` repeats the base graph),
which is the workload the schedule-aware engine and the conformance harness
exercise.

**Serial reference vs. parallel split.**
:func:`reference_run_parameter_sweep` is the executable specification of a
sweep: one process, scenarios in order, rows in order — it is never edited
for speed.  :func:`repro.analysis.runner.map_scenario_rows` fans the same
``evaluate`` body out over a process pool, row-for-row identical to the
reference.  The same runner module provides the full scenario × router sweep
orchestrator (`plan_sweep` / `run_sweep`) with JSONL streaming and crash-safe
resume.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernel_store import LRUCache
from repro.errors import ExperimentError, GraphStructureError
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.adhoc import AdHocNetwork, build_graph_network, build_unit_disk_network
from repro.network.dynamics import TopologySchedule

__all__ = [
    "SCENARIO_FAMILIES",
    "SCHEDULE_MUTATIONS",
    "ScenarioSpec",
    "ExperimentResult",
    "ExperimentTable",
    "ScenarioStore",
    "reference_run_parameter_sweep",
    "is_dynamic_scenario",
    "is_streamed_scenario",
    "build_scenario",
    "build_schedule",
    "unit_disk_scenarios",
    "structured_scenarios",
    "dynamic_schedule_scenarios",
    "pick_source_target_pairs",
]

#: Snapshot mutations understood by :func:`build_schedule`.
SCHEDULE_MUTATIONS = ("static", "relabel", "drop-edge")

#: Topology families :func:`build_scenario` understands — the canonical list
#: the CLI's ``--family``/``--families`` choices are derived from.
SCENARIO_FAMILIES = (
    "unit-disk",
    "grid",
    "torus",
    "ring",
    "prism",
    "random-regular",
    "erdos-renyi",
    "lollipop",
    "tree",
    "two-rings",
    "hetero-unit-disk",
    "churn",
    "mobility",
    "streamed-grid",
    "streamed-torus",
    "streamed-ring",
    "streamed-unit-disk",
)

#: Families that are dynamic *by construction*: their spec always
#: materialises through :func:`build_schedule` (churn traces / waypoint
#: mobility over a heterogeneous base), extras or not.
DYNAMIC_FAMILIES = ("churn", "mobility")

#: Radius-bearing families: positioned deployments under a radio range.
POSITIONAL_FAMILIES = ("unit-disk", "hetero-unit-disk", "churn", "mobility")

#: ``extra`` keys that mark a spec as a dynamic-schedule scenario.
_SCHEDULE_KEYS = ("snapshots", "mutation", "switch_every")


def is_dynamic_scenario(spec: "ScenarioSpec") -> bool:
    """True when the spec describes a dynamic-schedule scenario.

    The single source of truth for the distinction: the sweep planner routes
    dynamic specs through the schedule walker and the conformance harness
    checks them against the dynamic invariants.  A spec is dynamic when its
    family is inherently dynamic (:data:`DYNAMIC_FAMILIES`) or when its
    ``extra`` parameters carry schedule keys.
    """
    return spec.family in DYNAMIC_FAMILIES or any(
        key in _SCHEDULE_KEYS for key, _ in spec.extra
    )


def is_streamed_scenario(spec: "ScenarioSpec") -> bool:
    """True when the spec describes a streamed (sharded) scenario family.

    Streamed specs are routed shard by shard through
    :mod:`repro.scenarios.streaming`; :func:`build_scenario` still
    materialises them fully for the small sizes conformance uses.
    """
    return spec.family.startswith("streamed-")


@dataclass(frozen=True)
class ScenarioSpec:
    """One network instance the harness should build and evaluate."""

    name: str
    family: str
    size: int
    seed: int = 0
    radius: Optional[float] = None
    dimension: int = 2
    namespace_size: Optional[int] = None
    extra: Tuple[Tuple[str, object], ...] = ()

    def parameters(self) -> Dict[str, object]:
        """All parameters as a dictionary (for report rows)."""
        params: Dict[str, object] = {
            "name": self.name,
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "dimension": self.dimension,
        }
        if self.radius is not None:
            params["radius"] = self.radius
        params.update(dict(self.extra))
        return params


@dataclass
class ExperimentResult:
    """Rows accumulated by a sweep, plus the header naming their columns."""

    experiment: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, row: Sequence[object]) -> None:
        """Append one row, validating its width."""
        if len(row) != len(self.headers):
            raise ExperimentError(
                f"experiment {self.experiment!r}: row width {len(row)} != {len(self.headers)}"
            )
        self.rows.append(list(row))


#: The sweep orchestrator and its docs call the aggregated result an
#: *experiment table*; both names refer to the same class.
ExperimentTable = ExperimentResult


def build_scenario(spec: ScenarioSpec) -> AdHocNetwork:
    """Materialise a scenario into an :class:`AdHocNetwork`.

    Families: ``unit-disk`` (requires ``radius``), ``grid``, ``torus``,
    ``ring``, ``prism``, ``random-regular``, ``erdos-renyi``, ``lollipop``,
    ``tree``, ``two-rings``, plus the :mod:`repro.scenarios` families —
    ``hetero-unit-disk`` / ``churn`` / ``mobility`` (budgeted unit-disk over
    a capability profile, require ``radius``) and ``streamed-*`` (sharded
    families, materialised fully here only for small sizes).

    Structured families round ``size`` to the nearest valid configuration
    (a grid needs a square side, a prism an even count, ``two-rings`` two
    cycles of >= 3 vertices, ...), so the realised vertex count can differ
    slightly from ``spec.size`` — read it off the returned network.  A
    ``size`` below 1 is rejected rather than rounded up.
    """
    if spec.size < 1:
        raise ExperimentError(f"scenario {spec.name!r}: size must be >= 1, got {spec.size}")
    family = spec.family
    if family == "unit-disk":
        if spec.radius is None:
            raise ExperimentError("unit-disk scenarios need a radius")
        return build_unit_disk_network(
            spec.size,
            spec.radius,
            dimension=spec.dimension,
            seed=spec.seed,
            namespace_size=spec.namespace_size,
        )
    if family in ("hetero-unit-disk",) + DYNAMIC_FAMILIES:
        # Heterogeneous (budgeted) unit-disk; for churn/mobility this is the
        # all-up snapshot-0 base network the dynamic schedule starts from.
        from repro.scenarios.capabilities import build_hetero_network

        return build_hetero_network(spec)
    if is_streamed_scenario(spec):
        # Full materialisation — intended for the *small* streamed sizes the
        # conformance/parity paths use; large families route shard by shard
        # through repro.scenarios.streaming without ever building this.
        from repro.scenarios.streaming import streamed_network

        return streamed_network(spec)
    graph = _structured_graph(spec)
    return build_graph_network(graph, namespace_size=spec.namespace_size)


def _structured_graph(spec: ScenarioSpec) -> LabeledGraph:
    family, size, seed = spec.family, spec.size, spec.seed
    extra = dict(spec.extra)
    if family == "grid":
        side = max(2, int(round(size ** 0.5)))
        return generators.grid_graph(side, side)
    if family == "torus":
        side = max(3, int(round(size ** 0.5)))
        return generators.torus_graph(side, side)
    if family == "ring":
        return generators.cycle_graph(max(3, size))
    if family == "prism":
        return generators.prism_graph(max(3, size // 2))
    if family == "random-regular":
        degree = int(extra.get("degree", 3))
        n = size if (size * degree) % 2 == 0 else size + 1
        return generators.random_regular_graph(n, degree, seed=seed)
    if family == "erdos-renyi":
        probability = float(extra.get("p", 0.1))
        return generators.erdos_renyi_graph(size, probability, seed=seed)
    if family == "lollipop":
        clique = max(3, size // 2)
        return generators.lollipop_graph(clique, max(1, size - clique))
    if family == "tree":
        return generators.random_tree(max(1, size), seed=seed)
    if family == "two-rings":
        # Deliberately disconnected: exercises the FAILURE/confirmation paths.
        half = max(3, size // 2)
        return generators.disjoint_union(
            [generators.cycle_graph(half), generators.cycle_graph(max(3, size - half))]
        )
    raise ExperimentError(f"unknown scenario family {family!r}")


def build_schedule(spec: ScenarioSpec) -> TopologySchedule:
    """Materialise a scenario into a :class:`TopologySchedule`.

    The schedule starts from the spec's base topology and derives further
    snapshots with the mutation named in the spec's ``extra`` parameters:

    ``snapshots``
        Number of snapshots (default 1: a static schedule).
    ``switch_every``
        Walk steps between consecutive switch times (default 8).
    ``mutation``
        One of :data:`SCHEDULE_MUTATIONS`: ``relabel`` permutes every
        vertex's port labels (degrees preserved — the walk can survive),
        ``drop-edge`` removes one random link per snapshot (degrees change —
        the walk strands when the change hits it), ``static`` repeats the
        base graph object.

    Mutations are seeded from ``spec.seed``, so the same spec always yields
    the same schedule.

    The :data:`DYNAMIC_FAMILIES` (``churn`` / ``mobility``) ignore the
    mutation machinery entirely: their schedules come from the session/
    mobility processes in :mod:`repro.scenarios.churn` (reading ``profile``,
    ``snapshots`` and ``switch_every`` from ``extra``).

    Every mutation-generated snapshot is validated to preserve the base
    topology's vertex namespace — in-flight walks name the vertex they sit
    on, so a snapshot that drops (or invents) vertices would corrupt them
    mid-delivery.  A violating mutation raises
    :class:`~repro.errors.GraphStructureError` naming the offending snapshot
    index.
    """
    if spec.family in DYNAMIC_FAMILIES:
        from repro.scenarios.churn import build_churn_schedule, build_mobility_schedule

        if spec.family == "churn":
            return build_churn_schedule(spec)
        return build_mobility_schedule(spec)
    base = build_scenario(spec).graph
    extra = dict(spec.extra)
    count = int(extra.get("snapshots", 1))
    period = int(extra.get("switch_every", 8))
    mutation = str(extra.get("mutation", "relabel"))
    if count < 1:
        raise ExperimentError("a schedule needs at least one snapshot")
    if period < 1:
        raise ExperimentError("switch_every must be positive")
    if mutation not in SCHEDULE_MUTATIONS:
        raise ExperimentError(
            f"unknown schedule mutation {mutation!r}; expected one of {SCHEDULE_MUTATIONS}"
        )
    rng = random.Random((spec.seed, "schedule-mutations").__repr__())
    base_vertices = set(base.vertices)
    snapshots: List[LabeledGraph] = [base]
    current = base
    for index in range(1, count):
        current = _mutate_snapshot(current, mutation, rng)
        if set(current.vertices) != base_vertices:
            missing = sorted(base_vertices - set(current.vertices))
            extra_vertices = sorted(set(current.vertices) - base_vertices)
            raise GraphStructureError(
                f"schedule mutation {mutation!r} broke the vertex namespace at "
                f"snapshot {index}: missing {missing!r}, unexpected "
                f"{extra_vertices!r}"
            )
        snapshots.append(current)
    switch_times = tuple(index * period for index in range(count))
    return TopologySchedule(snapshots=tuple(snapshots), switch_times=switch_times)


def _mutate_snapshot(graph: LabeledGraph, mutation: str, rng: random.Random) -> LabeledGraph:
    if mutation == "static":
        return graph
    if mutation == "relabel":
        return graph.with_relabeled_ports(rng)
    # mutation == "drop-edge": remove one random (non-loop) link, keeping the
    # vertex set; the two endpoints lose a degree, which strands a walk that
    # is sitting on them when the switch hits.
    edges = [edge for edge in graph.edges() if not edge.is_self_loop]
    if not edges:
        return graph
    dropped = rng.choice(edges)
    kept = [
        (edge.u, edge.v)
        for edge in graph.edges()
        if edge.key() != dropped.key()
    ]
    return LabeledGraph.from_edges(kept, vertices=graph.vertices)


class ScenarioStore:
    """Bounded cache of materialised scenarios (networks and schedules).

    Specs are frozen dataclasses, so the key is the spec itself; a spec whose
    ``extra`` carries unhashable values (JSON lists arrive that way from the
    wire) is built fresh and not cached.  Shards or tasks over the same spec
    then share one graph/schedule *object*, which is what lets the
    identity-keyed :func:`repro.core.engine.prepare` / ``prepare_schedule``
    caches hit.  Each :class:`~repro.api.session.Session` owns one (its
    counters feed :meth:`~repro.api.session.Session.cache_info`), and the
    sweep runner holds one per process.

    Thread-safe: both caches are :class:`~repro.core.kernel_store.LRUCache`
    instances, which lock every operation (the server dispatches one shared
    session from a thread pool).  Builds run outside the locks; two threads
    racing on the same cold spec may both build it — the builds are
    deterministic, so either result is correct and one wins the cache slot.
    """

    _CAPACITY = 32

    def __init__(self) -> None:
        self._networks = LRUCache(self._CAPACITY)
        self._schedules = LRUCache(self._CAPACITY)

    @staticmethod
    def _get(cache: LRUCache, spec: ScenarioSpec, build):
        try:
            built = cache.get(spec)
        except TypeError:  # unhashable extra values: build fresh, skip caching
            cache.record_miss()
            return build(spec)
        if built is None:
            built = build(spec)
            cache.put(spec, built)
        return built

    def network(self, spec: ScenarioSpec) -> AdHocNetwork:
        """The built :class:`~repro.network.adhoc.AdHocNetwork` for ``spec``."""
        return self._get(self._networks, spec, build_scenario)

    def schedule(self, spec: ScenarioSpec) -> TopologySchedule:
        """The built :class:`~repro.network.dynamics.TopologySchedule` for ``spec``."""
        return self._get(self._schedules, spec, build_schedule)

    def clear(self) -> None:
        """Drop every cached scenario and reset the counters."""
        self._networks.clear()
        self._schedules.clear()

    def info(self) -> Dict[str, int]:
        """Cache sizes and hit/miss counters."""
        return {
            "session_networks": len(self._networks),
            "session_schedules": len(self._schedules),
            "session_hits": self._networks.hits + self._schedules.hits,
            "session_misses": self._networks.misses + self._schedules.misses,
        }


def unit_disk_scenarios(
    sizes: Sequence[int],
    radius: float,
    dimension: int = 2,
    seeds: Sequence[int] = (0,),
) -> List[ScenarioSpec]:
    """A grid of unit-disk scenarios over sizes × seeds."""
    return [
        ScenarioSpec(
            name=f"udg{dimension}d-n{size}-s{seed}",
            family="unit-disk",
            size=size,
            seed=seed,
            radius=radius,
            dimension=dimension,
        )
        for size, seed in itertools.product(sizes, seeds)
    ]


def structured_scenarios(
    family: str, sizes: Sequence[int], seeds: Sequence[int] = (0,), **extra: object
) -> List[ScenarioSpec]:
    """A grid of structured-topology scenarios over sizes × seeds."""
    extras = tuple(sorted(extra.items()))
    return [
        ScenarioSpec(
            name=f"{family}-n{size}-s{seed}",
            family=family,
            size=size,
            seed=seed,
            extra=extras,
        )
        for size, seed in itertools.product(sizes, seeds)
    ]


def dynamic_schedule_scenarios(
    families: Sequence[str] = ("grid", "ring"),
    sizes: Sequence[int] = (16,),
    seeds: Sequence[int] = (0,),
    snapshot_count: int = 3,
    switch_every: int = 6,
    mutations: Sequence[str] = ("relabel",),
    snapshots: Optional[int] = None,
) -> List[ScenarioSpec]:
    """A grid of dynamic-schedule scenarios over families × sizes × seeds × mutations.

    Each spec carries the schedule parameters in ``extra`` and is materialised
    with :func:`build_schedule`; its base topology is still available through
    :func:`build_scenario`, which is how the conformance harness compares the
    dynamic walk against static routing on snapshot 0.

    ``snapshot_count`` sets how many snapshots each schedule carries (the
    ``repro sweep`` CLI threads ``--snapshots`` through here); the legacy
    ``snapshots`` keyword is accepted as an alias and takes precedence when
    given.
    """
    if snapshots is not None:
        snapshot_count = snapshots
    if snapshot_count < 1:
        raise ExperimentError("a schedule needs at least one snapshot")
    specs: List[ScenarioSpec] = []
    for family, size, seed, mutation in itertools.product(
        families, sizes, seeds, mutations
    ):
        specs.append(
            ScenarioSpec(
                name=f"dyn-{mutation}-{family}-n{size}-s{seed}",
                family=family,
                size=size,
                seed=seed,
                extra=(
                    ("mutation", mutation),
                    ("snapshots", snapshot_count),
                    ("switch_every", switch_every),
                ),
            )
        )
    return specs


def pick_source_target_pairs(
    network, pairs: int, seed: int = 0, distinct: bool = True
) -> List[Tuple[int, int]]:
    """Deterministically choose source/target node pairs for an experiment.

    ``network`` is an :class:`AdHocNetwork` or a bare
    :class:`~repro.graphs.labeled_graph.LabeledGraph` (anything carrying its
    vertex set directly or via a ``graph`` attribute).
    """
    vertices = list(getattr(network, "graph", network).vertices)
    if not vertices:
        raise ExperimentError("cannot pick pairs from an empty network")
    choice = random.Random(seed).choice
    distinct = distinct and len(vertices) > 1
    chosen: List[Tuple[int, int]] = []
    for _ in range(pairs):
        source = choice(vertices)
        target = choice(vertices)
        if distinct:
            while target == source:
                target = choice(vertices)
        chosen.append((source, target))
    return chosen


def reference_run_parameter_sweep(
    experiment: str,
    headers: Sequence[str],
    scenarios: Sequence[ScenarioSpec],
    evaluate: Callable[[ScenarioSpec, AdHocNetwork], Iterable[Sequence[object]]],
) -> ExperimentResult:
    """Build every scenario and collect the rows ``evaluate`` produces for it.

    This is the executable specification of a parameter sweep — one process,
    scenarios in order, rows in order.  The parallel fan-out
    :func:`repro.analysis.runner.map_scenario_rows` must reproduce its rows
    in order.
    """
    result = ExperimentResult(experiment=experiment, headers=list(headers))
    for spec in scenarios:
        network = build_scenario(spec)
        for row in evaluate(spec, network):
            result.add_row(row)
    return result

