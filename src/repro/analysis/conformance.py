"""Differential conformance harness across every router in the repository.

**Paper vs. extension.**  The paper proves one algorithm correct; this module
is reproduction infrastructure.  It runs the *same* source/target pairs
through every implementation the repository ships — the prepared engine
(:mod:`repro.core.engine`), the executable specification of ``Route``
(:func:`repro.network.dynamics.reference_route`), the fully distributed
:func:`repro.core.routing.route_on_network`, the schedule-aware engine of
the dynamic-topology extension, and every baseline
router registered in :data:`repro.baselines.ALL_ROUTER_SPECS` — over a matrix
of :class:`~repro.analysis.experiments.ScenarioSpec` instances (unit-disk 2D
and 3D, structured topologies, deliberately disconnected networks, and
dynamic topology schedules), and asserts the cross-implementation invariants
in one table-driven pass:

* the guaranteed router succeeds **iff** source and target are connected
  (Theorem 1), the prepared engine equals the executable specification
  :func:`repro.network.dynamics.reference_route` field for field
  (``spec-parity``), and the distributed realisation agrees with it on
  outcome and step accounting (``distributed-parity``);
* no router ever delivers across components ("no false delivery");
* routers whose contract guarantees delivery/detection (flooding, DFS token)
  honour it, while weaker flags (greedy's local-minimum detection) are not
  over-trusted;
* the schedule-aware engine agrees with the reference schedule walker
  result-for-result, degenerates to static routing on static schedules, and
  labels the soundness of every dynamic verdict correctly;
* the unified task API (:mod:`repro.api`) reproduces the engine exactly when
  routing the same pair through a :class:`~repro.api.session.Session`-built
  scenario — status, payload and step accounting (the ``api-parity``
  invariant, checked on the default-provider path for both static and
  dynamic scenarios);
* the lockstep batched walk kernel (:mod:`repro.core.batch_kernel`) matches
  the scalar walks element for element when the same pairs are routed as one
  batch through the engine's lockstep realisation on static networks (the
  ``batch-parity`` invariant);
* the Bracha reliable-broadcast layer (:mod:`repro.core.reliable_broadcast`)
  keeps its correctness conditions on the *malicious-node scenario axis*
  (:func:`malicious_broadcast_scenarios`): for every generated configuration
  with ``f < N/3`` Byzantine nodes — each behaviour in
  :data:`~repro.network.byzantine.BYZANTINE_BEHAVIORS` alone, a mixed pool,
  and a crash-composed variant — honest nodes never deliver two different
  values (``rb-agreement``), deliver all-or-none (``rb-totality``), and only
  deliver values the source actually emitted (``rb-no-false-delivery``);
  additionally an honest source always reaches everyone (``rb-validity``),
  equivocation evidence only ever accuses genuinely Byzantine nodes
  (``rb-evidence-attributable``), and resolving the Byzantine plan and the
  crash plan in either order yields identical runs
  (``rb-fault-composition``).

The harness is what the roadmap's "validate round-based models against their
synchronous idealisation" advice looks like in code: one place where every
implementation is confronted with every scenario family, so a divergence
introduced by an optimisation shows up as a named invariant violation rather
than a silently different benchmark number.

Scenarios are independent of each other, so :func:`conformance_pass` can shard
them across worker processes (``workers > 1``) through the same pool helper
the sweep orchestrator uses (:func:`repro.analysis.runner.parallel_map`);
per-scenario fragments are merged in scenario order, so the report is
identical to a serial run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    DYNAMIC_FAMILIES,
    ScenarioSpec,
    build_scenario,
    build_schedule,
    dynamic_schedule_scenarios,
    is_dynamic_scenario,
    is_streamed_scenario,
    pick_source_target_pairs,
)
from repro.analysis.runner import parallel_map
from repro.analysis.reporting import format_table
from repro.baselines import applicable_routers
from repro.core.engine import _route_lockstep, prepare, prepare_schedule
from repro.core.reliable_broadcast import (
    QuorumThresholds,
    UESTransport,
    broadcast_reliably,
)
from repro.core.routing import RouteOutcome, route_on_network
from repro.core.universal import SequenceProvider
from repro.errors import RoutingError
from repro.graphs.connectivity import are_connected, connected_component, is_connected
from repro.network.byzantine import BYZANTINE_BEHAVIORS, ByzantinePlan, FaultModel
from repro.network.dynamics import (
    DynamicOutcome,
    reference_route,
    reference_route_over_schedule,
)
from repro.network.failures import FailurePlan

__all__ = [
    "ConformanceViolation",
    "ConformanceReport",
    "default_conformance_matrix",
    "is_malicious_scenario",
    "malicious_broadcast_scenarios",
    "conformance_pass",
]

#: Skip the (slow, per-event bit-accounted) distributed realisation when the
#: exploration sequence is longer than this; the walkers are still compared.
_DISTRIBUTED_LENGTH_CAP = 30_000

#: Skip the (dict-backed) static specification when the engine's walk is
#: longer than this many virtual steps.  The longest pair of
#: ``conformance_pass(pairs_per_scenario=2)`` walks 172,101, so ``spec-parity``
#: runs on every static pair of that matrix.
_SPEC_STEP_CAP = 250_000

#: Columns of the per-(scenario, router) summary table.
_REPORT_HEADERS = ("scenario", "router", "pairs", "delivered", "detected", "violations")


@dataclass(frozen=True)
class ConformanceViolation:
    """One failed invariant: which scenario, router, pair and rule."""

    scenario: str
    router: str
    source: int
    target: int
    invariant: str
    detail: str = ""


@dataclass
class ConformanceReport:
    """Outcome of one conformance pass: summary rows plus every violation."""

    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    violations: List[ConformanceViolation] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        """True when every invariant held on every scenario."""
        return not self.violations

    def table(self, title: str = "differential conformance") -> str:
        """The per-(scenario, router) summary as a rendered table."""
        return format_table(self.headers, self.rows, title=title)


def default_conformance_matrix() -> List[ScenarioSpec]:
    """The scenario matrix the conformance suite runs by default.

    Unit-disk deployments in 2D and 3D (position-based baselines apply),
    structured topologies spanning degree profiles (grid, ring, prism,
    random-regular, lollipop, tree), sparse Erdős–Rényi and the deliberately
    disconnected ``two-rings`` family (failure/confirmation paths), plus
    dynamic topology schedules for every supported mutation, and the
    :mod:`repro.scenarios` families: heterogeneous budgeted unit-disk
    (``hetero-degree-respected``), churn and mobility schedules
    (``churn-delivery-iff-connected``), and small streamed shard families
    (``streamed-parity`` against the materialised union).
    """
    scenarios: List[ScenarioSpec] = [
        ScenarioSpec(name="udg2d-n20", family="unit-disk", size=20, seed=0, radius=0.35),
        ScenarioSpec(name="udg2d-n20-s1", family="unit-disk", size=20, seed=1, radius=0.35),
        ScenarioSpec(
            name="udg3d-n16", family="unit-disk", size=16, seed=0, radius=0.5, dimension=3
        ),
        ScenarioSpec(name="grid-n16", family="grid", size=16, seed=0),
        ScenarioSpec(name="ring-n8", family="ring", size=8, seed=0),
        ScenarioSpec(name="prism-n10", family="prism", size=10, seed=0),
        ScenarioSpec(
            name="rr3-n12", family="random-regular", size=12, seed=1, extra=(("degree", 3),)
        ),
        ScenarioSpec(
            name="er-n14", family="erdos-renyi", size=14, seed=2, extra=(("p", 0.15),)
        ),
        ScenarioSpec(name="lollipop-n12", family="lollipop", size=12, seed=0),
        ScenarioSpec(name="tree-n14", family="tree", size=14, seed=3),
        ScenarioSpec(name="two-rings-n11", family="two-rings", size=11, seed=0),
    ]
    scenarios.extend(
        dynamic_schedule_scenarios(
            families=("grid", "ring"),
            sizes=(12,),
            seeds=(0,),
            snapshot_count=3,
            switch_every=5,
            mutations=("relabel", "drop-edge"),
        )
    )
    scenarios.append(
        ScenarioSpec(
            name="dyn-static-grid-n12",
            family="grid",
            size=12,
            seed=0,
            extra=(("mutation", "static"), ("snapshots", 1), ("switch_every", 4)),
        )
    )
    # The repro.scenarios families: heterogeneous capability budgets (two
    # seeds), churn and mobility schedules (two churn seeds so the
    # churn-delivery-iff-connected invariant sees different traces), and
    # small streamed shard families checked against their materialised union.
    for hetero_seed in (0, 1):
        scenarios.append(
            ScenarioSpec(
                name=f"hetero-mixed-n24-s{hetero_seed}",
                family="hetero-unit-disk",
                size=24,
                seed=hetero_seed,
                radius=0.35,
                extra=(("profile", "mixed"),),
            )
        )
    for churn_seed in (0, 1):
        scenarios.append(
            ScenarioSpec(
                name=f"churn-mixed-n20-s{churn_seed}",
                family="churn",
                size=20,
                seed=churn_seed,
                radius=0.4,
                extra=(("profile", "mixed"), ("snapshots", 4), ("switch_every", 5)),
            )
        )
    scenarios.append(
        ScenarioSpec(
            name="mobility-mixed-n18",
            family="mobility",
            size=18,
            seed=0,
            radius=0.4,
            extra=(("profile", "mixed"), ("snapshots", 3), ("switch_every", 5)),
        )
    )
    scenarios.append(
        ScenarioSpec(
            name="streamed-grid-n48",
            family="streamed-grid",
            size=48,
            seed=0,
            extra=(("shard_size", 16),),
        )
    )
    scenarios.append(
        ScenarioSpec(
            name="streamed-ud-n36",
            family="streamed-unit-disk",
            size=36,
            seed=0,
            radius=0.4,
            extra=(("shard_size", 12),),
        )
    )
    scenarios.extend(malicious_broadcast_scenarios())
    return scenarios


#: ``extra`` key that marks a spec as a malicious-broadcast scenario (its
#: value is the number of Byzantine nodes to corrupt).
_MALICIOUS_KEY = "byzantine"


def is_malicious_scenario(spec: ScenarioSpec) -> bool:
    """True when the spec describes a malicious-broadcast scenario.

    Such specs carry a ``("byzantine", f)`` entry in ``extra`` (plus
    ``behavior`` and optionally ``crashes``); the conformance harness checks
    them against the reliable-broadcast invariants instead of the routing
    ones.  A malicious spec is still a perfectly ordinary *static* spec to
    every other consumer of the matrix (sweeps, parity suites): the extra
    keys only change which invariants this harness applies.
    """
    return any(key == _MALICIOUS_KEY for key, _ in spec.extra)


def malicious_broadcast_scenarios(
    families: Sequence[Tuple[str, int]] = (("grid", 9), ("ring", 7)),
    behaviors: Sequence[str] = BYZANTINE_BEHAVIORS,
) -> List[ScenarioSpec]:
    """The malicious-node scenario axis of the conformance matrix.

    For every ``(family, size)`` and **every** Byzantine count ``f`` with
    ``f < N/3`` (``0 <= f <= f_tolerated``), one scenario per single
    behaviour plus one drawing from the mixed behaviour pool; on top, one
    composition scenario per family that combines a Byzantine plan with a
    crash-model :class:`~repro.network.failures.FailurePlan`, so the
    order-independence of :meth:`~repro.network.byzantine.FaultModel.resolve`
    is exercised inside the matrix and not only by unit tests.
    """
    scenarios: List[ScenarioSpec] = []
    for family, size in families:
        realised = build_scenario(
            ScenarioSpec(name="probe", family=family, size=size, seed=0)
        ).graph.num_vertices
        f_tolerated = QuorumThresholds.for_size(realised).f_tolerated
        for f in range(f_tolerated + 1):
            if f == 0:
                scenarios.append(
                    ScenarioSpec(
                        name=f"rb-{family}-n{size}-f0",
                        family=family,
                        size=size,
                        seed=0,
                        extra=((_MALICIOUS_KEY, 0),),
                    )
                )
                continue
            for behavior in tuple(behaviors) + ("mixed",):
                scenarios.append(
                    ScenarioSpec(
                        name=f"rb-{family}-n{size}-f{f}-{behavior}",
                        family=family,
                        size=size,
                        seed=0,
                        extra=((_MALICIOUS_KEY, f), ("behavior", behavior)),
                    )
                )
        if f_tolerated >= 2:
            # One Byzantine node plus one crashed node: both fault plans on
            # the same scenario, total faults still below the threshold.
            scenarios.append(
                ScenarioSpec(
                    name=f"rb-{family}-n{size}-compose",
                    family=family,
                    size=size,
                    seed=0,
                    extra=(
                        (_MALICIOUS_KEY, 1),
                        ("behavior", "equivocate"),
                        ("crashes", 1),
                    ),
                )
            )
    return scenarios


class _Tally:
    """Per-(scenario, router) counters feeding the report rows."""

    def __init__(self) -> None:
        self.pairs = 0
        self.delivered = 0
        self.detected = 0
        self.violations = 0


def _scenario_fragment(
    task: Tuple[ScenarioSpec, int, int, Optional[SequenceProvider]],
) -> ConformanceReport:
    """Check one scenario; return its report fragment (runs in any process)."""
    spec, pairs_per_scenario, seed, provider = task
    fragment = ConformanceReport(headers=list(_REPORT_HEADERS))
    if is_malicious_scenario(spec):
        _check_malicious_scenario(spec, pairs_per_scenario, seed, provider, fragment)
    elif is_dynamic_scenario(spec):
        _check_dynamic_scenario(spec, pairs_per_scenario, seed, provider, fragment)
    else:
        _check_static_scenario(spec, pairs_per_scenario, seed, provider, fragment)
    return fragment


def conformance_pass(
    scenarios: Optional[Sequence[ScenarioSpec]] = None,
    pairs_per_scenario: int = 4,
    seed: int = 0,
    provider: Optional[SequenceProvider] = None,
    workers: int = 1,
) -> ConformanceReport:
    """Run the differential conformance pass over ``scenarios``.

    Every scenario is materialised once; every pair is routed by every
    applicable implementation; every invariant violation is recorded with the
    scenario, router, pair and the rule it broke.  The returned report is
    table-renderable and ``report.ok`` is the single go/no-go flag the test
    suite asserts.

    ``workers > 1`` shards the scenarios over a process pool (each scenario
    checked exactly as on the serial path, in its own worker) and merges the
    fragments in scenario order — the report is identical to a serial run.
    A non-default ``provider`` must then be picklable *and* deterministic per
    bound: a provider that mutates cross-call state to vary its sequences
    would see that state reset in every worker and silently diverge from the
    serial report.

    This is the execution body of the ``conformance`` task
    (:class:`repro.api.ConformanceRequest`); the blessed entry point is
    ``Session.submit``.
    """
    specs = list(scenarios) if scenarios is not None else default_conformance_matrix()
    tasks = [(spec, pairs_per_scenario, seed, provider) for spec in specs]
    fragments = parallel_map(_scenario_fragment, tasks, workers)
    report = ConformanceReport(headers=list(_REPORT_HEADERS))
    for fragment in fragments:
        report.rows.extend(fragment.rows)
        report.violations.extend(fragment.violations)
        report.checks += fragment.checks
    return report


# --------------------------------------------------------------------------- #
# Static scenarios
# --------------------------------------------------------------------------- #


def _check_static_scenario(
    spec: ScenarioSpec,
    pairs_per_scenario: int,
    seed: int,
    provider: Optional[SequenceProvider],
    report: ConformanceReport,
) -> None:
    network = build_scenario(spec)
    graph = network.graph
    deployment = network.deployment
    dimension = deployment.dimension if deployment is not None else None
    engine = prepare(graph)
    pairs = pick_source_target_pairs(network, pairs_per_scenario, seed=seed)
    tallies: Dict[str, _Tally] = {}
    engine_results: List[object] = []

    # The unified task API must reproduce the engine exactly when it builds
    # the same spec itself.  Requests cannot carry a live provider object, so
    # the check only applies on the default-provider path.  Imported lazily:
    # repro.api sits above this module in the layer order.
    api_session = None
    if provider is None:
        from repro.api.executors import route_result_payload
        from repro.api.requests import RouteRequest
        from repro.api.session import Session

        api_session = Session()

    def fail(router: str, s: int, t: int, invariant: str, detail: str = "") -> None:
        report.violations.append(
            ConformanceViolation(spec.name, router, s, t, invariant, detail)
        )
        tallies.setdefault(router, _Tally()).violations += 1

    def check(router: str, s: int, t: int, invariant: str, ok: bool, detail: str = "") -> None:
        report.checks += 1
        if not ok:
            fail(router, s, t, invariant, detail)

    for s, t in pairs:
        truth = are_connected(graph, s, t)

        # --- the guaranteed router: one spec, two realisations ------------- #
        try:
            engine_result = engine.route(s, t, provider=provider)
        except RoutingError as error:
            # The spec returns a verdict where the engine gives up; the spec's
            # result stands in for the engine's in the batch comparisons.
            spec_result, _states = reference_route(graph, s, t, provider=provider)
            engine_results.append(spec_result)
            check(
                "ues-engine", s, t, "spec-parity", False,
                f"engine raised {error}; spec={spec_result}",
            )
            continue
        engine_results.append(engine_result)
        tally = tallies.setdefault("ues-engine", _Tally())
        tally.pairs += 1
        tally.delivered += int(engine_result.delivered)
        tally.detected += int(engine_result.outcome is RouteOutcome.FAILURE)
        check(
            "ues-engine", s, t, "guaranteed-delivery",
            (engine_result.outcome is RouteOutcome.SUCCESS) == truth,
            f"outcome={engine_result.outcome.value} connected={truth}",
        )
        check(
            "ues-engine", s, t, "outcome-matches-delivery",
            engine_result.delivered == (engine_result.outcome is RouteOutcome.SUCCESS),
        )

        if engine_result.total_virtual_steps <= _SPEC_STEP_CAP:
            spec_result, _states = reference_route(graph, s, t, provider=provider)
            check(
                "ues-engine", s, t, "spec-parity",
                spec_result == engine_result,
                f"engine={engine_result} spec={spec_result}",
            )

        if api_session is not None:
            # The facade builds its own network from the same spec, so parity
            # here covers scenario construction, engine reuse and the payload
            # encoding in one invariant.
            api_result = api_session.submit(
                RouteRequest(scenario=spec, source=s, target=t)
            )
            expected = engine.route(s, t, namespace_size=network.namespace_size)
            tally = tallies.setdefault("ues-api", _Tally())
            tally.pairs += 1
            tally.delivered += int(api_result.payload["delivered"])
            tally.detected += int(api_result.status == RouteOutcome.FAILURE.value)
            check(
                "ues-api", s, t, "api-parity",
                api_result.status == expected.outcome.value
                and api_result.payload == route_result_payload(expected)
                and api_result.physical_steps == expected.physical_hops
                and api_result.virtual_steps == expected.total_virtual_steps,
                f"api={api_result.status}/{api_result.payload} "
                f"engine={expected.outcome.value}",
            )

        if engine_result.sequence_length <= _DISTRIBUTED_LENGTH_CAP:
            distributed = route_on_network(network, s, t, provider=provider)
            tally = tallies.setdefault("ues-distributed", _Tally())
            tally.pairs += 1
            tally.delivered += int(distributed.delivered)
            tally.detected += int(distributed.outcome is RouteOutcome.FAILURE)
            agree = (
                distributed.outcome is engine_result.outcome
                and distributed.delivered == engine_result.delivered
                and distributed.forward_virtual_steps == engine_result.forward_virtual_steps
                and distributed.backward_virtual_steps == engine_result.backward_virtual_steps
                and distributed.size_bound == engine_result.size_bound
            )
            check(
                "ues-distributed", s, t, "distributed-parity", agree,
                f"distributed={distributed.outcome.value}/"
                f"{distributed.forward_virtual_steps}+{distributed.backward_virtual_steps} "
                f"engine={engine_result.outcome.value}/"
                f"{engine_result.forward_virtual_steps}+{engine_result.backward_virtual_steps}",
            )

        # --- every applicable baseline, against its declared contract ----- #
        for router in applicable_routers(deployment, dimension):
            attempt = router.run(graph, deployment, s, t, seed)
            tally = tallies.setdefault(router.name, _Tally())
            tally.pairs += 1
            tally.delivered += int(attempt.delivered)
            tally.detected += int(attempt.detected_failure)
            check(
                router.name, s, t, "no-false-delivery",
                (not attempt.delivered) or truth,
                "delivered across components",
            )
            if router.guaranteed_delivery:
                check(
                    router.name, s, t, "guaranteed-delivery",
                    attempt.delivered == truth,
                    f"delivered={attempt.delivered} connected={truth}",
                )
            if router.guaranteed_detection:
                check(
                    router.name, s, t, "guaranteed-detection",
                    (not attempt.detected_failure) or not truth,
                    "failure detected although the pair is connected",
                )

    # --- the batched walk kernel against the scalar walks, pair for pair -- #
    # The batch is far below route_many's lockstep thresholds, so the whole
    # batch is routed through the lockstep realisation directly (route_many,
    # i.e. the scalar reference, when NumPy is absent — the invariant then
    # degenerates to a self-check, which is exactly the fallback contract);
    # every element must equal the per-pair scalar result.
    from repro.core import batch_kernel

    if batch_kernel.HAVE_NUMPY:
        [batched_results] = _route_lockstep([(engine, pairs, None)], provider)
    else:
        batched_results = engine.route_many(pairs, provider=provider)
    for (s, t), scalar_result, batched_result in zip(
        pairs, engine_results, batched_results
    ):
        check(
            "ues-engine", s, t, "batch-parity",
            batched_result == scalar_result,
            f"batched={batched_result} scalar={scalar_result}",
        )

    # --- heterogeneous capability budgets hold on the built topology ------- #
    if spec.family == "hetero-unit-disk":
        from repro.scenarios.capabilities import (
            assignment_for_spec,
            degree_budget_violations,
        )

        violations = degree_budget_violations(graph, assignment_for_spec(spec))
        tallies.setdefault("hetero-capabilities", _Tally()).pairs = len(graph.vertices)
        check(
            "hetero-capabilities", -1, -1, "hetero-degree-respected",
            not violations,
            f"degree over budget at (vertex, degree, budget): {violations}",
        )

    # --- streamed shard-local routing against the materialised union ------- #
    if is_streamed_scenario(spec):
        from repro.scenarios.streaming import family_from_spec, route_streamed_pairs

        try:
            streamed_results: List[object] = route_streamed_pairs(
                family_from_spec(spec), list(pairs), provider=provider
            )
        except RoutingError as error:
            # One batch: a pair that raises leaves no result for any pair.
            streamed_results = [f"raised: {error}"] * len(pairs)
        tallies.setdefault("ues-streamed", _Tally()).pairs = len(pairs)
        for (s, t), union_result, shard_result in zip(
            pairs, engine_results, streamed_results
        ):
            check(
                "ues-streamed", s, t, "streamed-parity",
                shard_result == union_result,
                f"shard-local={shard_result} union={union_result}",
            )

    for router_name in sorted(tallies):
        tally = tallies[router_name]
        report.rows.append(
            [spec.name, router_name, tally.pairs, tally.delivered, tally.detected, tally.violations]
        )


# --------------------------------------------------------------------------- #
# Malicious-broadcast scenarios (the Byzantine axis)
# --------------------------------------------------------------------------- #


def _check_malicious_scenario(
    spec: ScenarioSpec,
    pairs_per_scenario: int,
    seed: int,
    provider: Optional[SequenceProvider],
    report: ConformanceReport,
) -> None:
    """Reliable broadcast under the spec's injected faults, all invariants.

    ``pairs_per_scenario`` runs are executed per scenario, each with a
    distinct deterministic ``(source, fault placement)`` drawn from ``seed``.
    The rb-* guarantees are asserted whenever the *total* fault count
    (Byzantine plus crashed — a crash is a special case of a Byzantine node)
    stays within ``f_tolerated``, which is how every generated scenario of
    :func:`malicious_broadcast_scenarios` is constructed.
    """
    network = build_scenario(spec)
    graph = network.graph
    params = dict(spec.extra)
    count = int(params.get(_MALICIOUS_KEY, 0))
    behavior = str(params.get("behavior", "mixed"))
    crash_count = int(params.get("crashes", 0))
    pool = BYZANTINE_BEHAVIORS if behavior == "mixed" else (behavior,)
    thresholds = QuorumThresholds.for_size(graph.num_vertices)
    # The honest-channel assumption Bracha's proof rides on: the UES walk
    # must be able to deliver between every pair of live nodes.
    assert is_connected(graph), (
        f"malicious scenario {spec.name} needs a connected graph"
    )
    transport = UESTransport(graph, provider=provider)
    vertices = sorted(graph.vertices)
    rng = random.Random(seed)
    tally = _Tally()

    def check(s: int, invariant: str, ok: bool, detail: str = "") -> None:
        report.checks += 1
        if not ok:
            report.violations.append(
                ConformanceViolation(spec.name, "rb-bracha", s, -1, invariant, detail)
            )
            tally.violations += 1

    for index in range(pairs_per_scenario):
        fault_seed = seed * 1009 + index
        source = rng.choice(vertices)
        plan = (
            ByzantinePlan.random_plan(graph, count, seed=fault_seed, behaviors=pool)
            if count
            else None
        )
        failures = None
        if crash_count:
            corrupted = set(plan.nodes()) if plan is not None else set()
            crashed = [v for v in reversed(vertices) if v not in corrupted]
            failures = FailurePlan(failed_nodes=set(crashed[:crash_count]))
        result = broadcast_reliably(
            graph, source, value="m", plan=plan, failures=failures,
            transport=transport,
        )
        tally.pairs += 1
        tally.delivered += int(result.all_honest_delivered)
        tally.detected += int(bool(result.evidence))

        total_faults = len(result.byzantine) + len(result.crashed)
        guaranteed = total_faults <= thresholds.f_tolerated
        if guaranteed:
            check(
                source, "rb-agreement", result.agreement,
                f"honest deliveries diverged: {result.honest_delivered}",
            )
            check(
                source, "rb-totality", result.totality,
                f"{len(result.honest_delivered)}/{len(result.honest)} honest delivered",
            )
            check(
                source, "rb-no-false-delivery", result.no_false_delivery,
                f"delivered outside origin-sent {result.origin_sent_values}: "
                f"{result.honest_delivered}",
            )
            source_honest = (
                result.source in result.honest
                or dict(result.byzantine).get(result.source) == "delay"
            )
            if source_honest:
                check(
                    source, "rb-validity",
                    result.all_honest_delivered
                    and all(v == "m" for _n, v in result.honest_delivered),
                    f"honest source, deliveries {result.honest_delivered}",
                )
        check(
            source, "rb-evidence-attributable",
            all(
                item.accused in dict(result.byzantine) for item in result.evidence
            ),
            f"evidence accuses a non-Byzantine node: {result.evidence}",
        )
        if failures is not None or plan is not None:
            # Satellite contract: applying the crash plan and the Byzantine
            # plan in either order must produce the identical run.
            swapped_faults = FaultModel()
            if failures is not None:
                swapped_faults = swapped_faults.with_crashes(failures)
            if plan is not None:
                swapped_faults = swapped_faults.with_byzantine(plan)
            swapped = broadcast_reliably(
                graph, source, value="m", faults=swapped_faults,
                transport=transport,
            )
            check(
                source, "rb-fault-composition",
                swapped == result,
                "crash-then-Byzantine differs from Byzantine-then-crash",
            )

    report.rows.append(
        [spec.name, "rb-bracha", tally.pairs, tally.delivered, tally.detected, tally.violations]
    )


# --------------------------------------------------------------------------- #
# Dynamic-schedule scenarios
# --------------------------------------------------------------------------- #


def _check_dynamic_scenario(
    spec: ScenarioSpec,
    pairs_per_scenario: int,
    seed: int,
    provider: Optional[SequenceProvider],
    report: ConformanceReport,
) -> None:
    schedule = build_schedule(spec)
    engine = prepare_schedule(schedule)
    base = schedule.snapshots[0]
    vertices = list(base.vertices)
    rng = random.Random(seed)
    pairs: List[Tuple[int, int]] = []
    for _ in range(pairs_per_scenario):
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        while t == s and len(vertices) > 1:
            t = rng.choice(vertices)
        pairs.append((s, t))

    tally = _Tally()

    def check(s: int, t: int, invariant: str, ok: bool, detail: str = "") -> None:
        report.checks += 1
        if not ok:
            report.violations.append(
                ConformanceViolation(spec.name, "ues-schedule", s, t, invariant, detail)
            )
            tally.violations += 1

    # Same API-parity treatment as the static path: only on the
    # default-provider path, through a facade-built schedule.
    api_session = None
    if provider is None:
        from repro.api.executors import dynamic_result_payload
        from repro.api.requests import ScheduleRouteRequest
        from repro.api.session import Session

        api_session = Session()

    # Heterogeneous schedules (churn / mobility): every materialised snapshot
    # must respect the capability degree budgets the base was built under,
    # and churn delivery must track connectivity (see the per-pair check).
    churn_component_stable: Dict[frozenset, bool] = {}
    if spec.family in DYNAMIC_FAMILIES:
        from repro.scenarios.capabilities import (
            assignment_for_spec,
            degree_budget_violations,
        )

        assignment = assignment_for_spec(spec)
        for index, snapshot in enumerate(schedule.snapshots):
            budget_violations = degree_budget_violations(snapshot, assignment)
            check(
                -1, -1, "hetero-degree-respected",
                not budget_violations,
                f"snapshot {index} exceeds budgets at "
                f"(vertex, degree, budget): {budget_violations}",
            )

    def churn_component_untouched(component: frozenset) -> bool:
        # Churn only removes edges, and components are edge-closed, so the
        # source's base component is untouched by the whole schedule iff its
        # induced subgraph is identical in every snapshot — in which case the
        # dynamic walk degenerates to the static walk on snapshot 0.
        cached = churn_component_stable.get(component)
        if cached is None:
            base_induced = base.induced_subgraph(component)
            cached = all(
                snapshot.induced_subgraph(component) == base_induced
                for snapshot in schedule.snapshots[1:]
            )
            churn_component_stable[component] = cached
        return cached

    static_engine = prepare(base)
    for s, t in pairs:
        result = engine.route(s, t, provider=provider)
        tally.pairs += 1
        tally.delivered += int(result.outcome is DynamicOutcome.DELIVERED)
        tally.detected += int(result.outcome is DynamicOutcome.REPORTED_FAILURE)

        if api_session is not None:
            api_result = api_session.submit(
                ScheduleRouteRequest(scenario=spec, pairs=((s, t),))
            )
            check(
                s, t, "api-parity",
                api_result.payload["results"] == [dynamic_result_payload(result)],
                f"api={api_result.payload['results']} engine={result}",
            )

        reference = reference_route_over_schedule(schedule, s, t, provider=provider)
        check(
            s, t, "schedule-engine-parity",
            result == reference,
            f"engine={result} reference={reference}",
        )
        check(s, t, "delivery-is-sound", result.outcome is not DynamicOutcome.DELIVERED or result.sound)
        check(s, t, "stranding-is-unsound", result.outcome is not DynamicOutcome.STRANDED or not result.sound)
        if result.outcome is DynamicOutcome.REPORTED_FAILURE:
            check(
                s, t, "failure-soundness-label",
                result.sound == (not schedule.always_connected(s, t)),
                f"sound={result.sound}",
            )
        if schedule.is_static:
            static_result = static_engine.route(s, t, provider=provider)
            check(
                s, t, "static-schedule-degenerates",
                (result.outcome is DynamicOutcome.DELIVERED)
                == (static_result.outcome is RouteOutcome.SUCCESS)
                and result.outcome is not DynamicOutcome.STRANDED,
                f"dynamic={result.outcome.value} static={static_result.outcome.value}",
            )
        if spec.family == "churn":
            # Link churn only ever removes base edges, so a delivery implies
            # base (snapshot-0) connectivity unconditionally; and when the
            # source's base component is untouched by the whole trace, the
            # walk degenerates to static routing — delivery *iff* connected,
            # and no stranding.
            delivered = result.outcome is DynamicOutcome.DELIVERED
            base_connected = are_connected(base, s, t)
            if churn_component_untouched(frozenset(connected_component(base, s))):
                ok = (
                    delivered == base_connected
                    and result.outcome is not DynamicOutcome.STRANDED
                )
                detail = (
                    f"untouched component: outcome={result.outcome.value} "
                    f"base-connected={base_connected}"
                )
            else:
                ok = (not delivered) or base_connected
                detail = (
                    f"churned component: delivered={delivered} "
                    f"base-connected={base_connected}"
                )
            check(s, t, "churn-delivery-iff-connected", ok, detail)

    report.rows.append(
        [spec.name, "ues-schedule", tally.pairs, tally.delivered, tally.detected, tally.violations]
    )
