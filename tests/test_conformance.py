"""Differential conformance suite: every router, every scenario family.

The table-driven pass lives in :mod:`repro.analysis.conformance`; this module
asserts it holds over the full default matrix, checks the report plumbing,
and adds Hypothesis coverage: random schedules over random connected graphs
must never produce a router that delivers while the engine reports failure on
the same static snapshot.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import (
    ConformanceViolation,
    conformance_pass,
    default_conformance_matrix,
)
from repro.analysis.experiments import (
    ScenarioSpec,
    build_scenario,
    build_schedule,
    pick_source_target_pairs,
)
from repro.baselines import applicable_routers
from repro.baselines.dfs_routing import dfs_token_route
from repro.baselines.flooding import flood_route
from repro.core.batch_kernel import HAVE_NUMPY, BatchedWalk
from repro.core.engine import prepare
from repro.core.routing import RouteOutcome
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import (
    DynamicOutcome,
    TopologySchedule,
    route_over_schedule,
)


def test_full_matrix_has_no_violations(provider):
    report = conformance_pass(provider=provider)
    assert report.ok, "\n".join(str(violation) for violation in report.violations)
    assert report.checks > 300
    # Every scenario of the matrix produced at least one summary row.
    covered = {row[0] for row in report.rows}
    assert covered == {spec.name for spec in default_conformance_matrix()}


def test_matrix_covers_the_required_scenario_families():
    families = {spec.family for spec in default_conformance_matrix()}
    # unit-disk, structured and dynamic-schedule scenarios, per ISSUE 2.
    assert "unit-disk" in families
    assert {"grid", "ring"} <= families
    assert any(
        any(key == "snapshots" for key, _ in spec.extra)
        for spec in default_conformance_matrix()
    )
    # Disconnected pairs must be exercised (failure/confirmation paths).
    assert "two-rings" in families


def test_report_table_renders(provider):
    report = conformance_pass(
        scenarios=[ScenarioSpec(name="ring-n6", family="ring", size=6, seed=0)],
        pairs_per_scenario=2,
        provider=provider,
    )
    table = report.table()
    assert "ring-n6" in table
    assert "ues-engine" in table
    assert report.ok


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy unavailable: no lockstep kernel")
def test_static_batch_parity_runs_the_lockstep_kernel(provider, monkeypatch):
    # Conformance batches are far below route_many's lockstep thresholds;
    # batch-parity must still compare the kernel against the scalar walks,
    # not the scalar loop against itself.
    calls = []
    original = BatchedWalk.run

    def counted_run(self, *args, **kwargs):
        calls.append(len(args[0]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BatchedWalk, "run", counted_run)
    report = conformance_pass(
        scenarios=[ScenarioSpec(name="ring-n6", family="ring", size=6, seed=0)],
        pairs_per_scenario=2,
        provider=provider,
    )
    assert report.ok
    assert sum(calls) == 2


def test_violations_are_reported_not_swallowed(provider, monkeypatch):
    """A router that lies about delivery must surface as a named violation."""
    from repro.analysis import conformance as conformance_module
    from repro.baselines.base import RouterSpec, RoutingAttempt

    lying = RouterSpec(
        name="liar",
        run=lambda graph, deployment, source, target, seed: RoutingAttempt(
            algorithm="liar", delivered=True, hops=0
        ),
        guaranteed_delivery=True,
    )
    monkeypatch.setattr(
        conformance_module, "applicable_routers", lambda deployment, dimension: (lying,)
    )
    report = conformance_pass(
        scenarios=[
            ScenarioSpec(name="two-rings-n10", family="two-rings", size=10, seed=0)
        ],
        pairs_per_scenario=4,
        provider=provider,
    )
    assert not report.ok
    assert any(
        violation.invariant == "no-false-delivery" and violation.router == "liar"
        for violation in report.violations
    )
    assert all(isinstance(violation, ConformanceViolation) for violation in report.violations)


def test_engine_that_diverges_from_the_spec_is_a_named_violation(provider, monkeypatch):
    """An engine that miscounts, or raises, fails spec-parity for that pair."""
    from repro.core.engine import PreparedNetwork
    from repro.errors import RoutingError

    honest_route = PreparedNetwork.route

    def faulty_route(self, source, target, **kwargs):
        if source % 2:
            raise RoutingError("backtracking failed to return to the source")
        result = honest_route(self, source, target, **kwargs)
        return dataclasses.replace(result, physical_hops=result.physical_hops + 1)

    monkeypatch.setattr(PreparedNetwork, "route", faulty_route)
    report = conformance_pass(
        scenarios=[ScenarioSpec(name="ring-n8", family="ring", size=8, seed=0)],
        pairs_per_scenario=4,
        provider=provider,
    )
    flagged = {
        (violation.source, violation.target)
        for violation in report.violations
        if violation.invariant == "spec-parity" and violation.scenario == "ring-n8"
    }
    pairs = pick_source_target_pairs(
        build_scenario(ScenarioSpec(name="ring-n8", family="ring", size=8)), 4, seed=0
    )
    assert flagged == set(pairs)


def test_applicable_routers_filters_by_scenario_shape():
    names_topological = {spec.name for spec in applicable_routers(None, None)}
    assert names_topological == {"random-walk", "flooding", "dfs-token"}

    class _FakeDeployment:
        dimension = 3

    names_3d = {spec.name for spec in applicable_routers(_FakeDeployment(), 3)}
    assert "greedy" in names_3d and "gfg" not in names_3d
    names_2d = {spec.name for spec in applicable_routers(_FakeDeployment(), 2)}
    assert "gfg" in names_2d


def test_dynamic_scenarios_build_real_schedules():
    spec = ScenarioSpec(
        name="dyn-test",
        family="ring",
        size=8,
        seed=1,
        extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 4)),
    )
    schedule = build_schedule(spec)
    assert len(schedule.snapshots) == 3
    assert schedule.switch_times == (0, 4, 8)
    # Same spec, same schedule — determinism the golden tests rely on.
    again = build_schedule(spec)
    assert schedule.snapshots == again.snapshots


# --------------------------------------------------------------------------- #
# Hypothesis: random schedules over random connected graphs
# --------------------------------------------------------------------------- #


def _connected_graph(n: int, extra_edges: int, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    tree = generators.random_tree(n, seed=seed)
    edges = [(edge.u, edge.v) for edge in tree.edges()]
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return LabeledGraph.from_edges(edges, vertices=range(n))


@st.composite
def _random_schedules(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    extra_edges = draw(st.integers(min_value=0, max_value=3))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    base = _connected_graph(n, extra_edges, graph_seed)
    snapshot_count = draw(st.integers(min_value=1, max_value=3))
    period = draw(st.integers(min_value=1, max_value=8))
    relabel_rng = random.Random(graph_seed + 1)
    snapshots = [base]
    for _ in range(snapshot_count - 1):
        snapshots.append(snapshots[-1].with_relabeled_ports(relabel_rng))
    schedule = TopologySchedule(
        snapshots=tuple(snapshots),
        switch_times=tuple(index * period for index in range(snapshot_count)),
    )
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    return schedule, source, target


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_random_schedules())
def test_no_router_delivers_where_engine_reports_failure(provider, case):
    """ISSUE 2 satellite: on every static snapshot of a random schedule over a
    random connected graph, a baseline router delivering the message while the
    engine reports failure would be a conformance catastrophe — the engine's
    failure confirmation must imply the target is unreachable."""
    schedule, source, target = case
    for snapshot in schedule.snapshots:
        engine_result = prepare(snapshot).route(source, target, provider=provider)
        static = route_over_schedule(
            TopologySchedule.static(snapshot), source, target, provider=provider
        )
        for attempt in (
            flood_route(snapshot, source, target),
            dfs_token_route(snapshot, source, target),
        ):
            if attempt.delivered:
                assert engine_result.outcome is RouteOutcome.SUCCESS, (
                    f"{attempt.algorithm} delivered {source}->{target} but the "
                    f"engine reported {engine_result.outcome.value}"
                )
                assert static.outcome is not DynamicOutcome.REPORTED_FAILURE
        # On connected bases the pair is always deliverable, so the engine
        # must in fact succeed (Theorem 1 on this snapshot).
        assert engine_result.outcome is RouteOutcome.SUCCESS
        assert static.outcome is DynamicOutcome.DELIVERED
