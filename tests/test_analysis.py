"""Tests for metrics, reporting and the experiment harness."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ScenarioSpec,
    build_scenario,
    pick_source_target_pairs,
    reference_run_parameter_sweep,
    structured_scenarios,
    unit_disk_scenarios,
)
from repro.analysis.metrics import (
    RoutingObservation,
    delivery_rate,
    failure_detection_rate,
    mean_hops,
    observation_from_attempt,
    observation_from_route,
    stretch,
)
from repro.analysis.reporting import format_cell, format_table
from repro.baselines.random_walk_routing import random_walk_route
from repro.core.routing import route
from repro.errors import ExperimentError
from repro.graphs import generators


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #


def test_observation_from_route_success(provider, grid_4x4):
    result = route(grid_4x4, 0, 15, provider=provider)
    obs = observation_from_route(grid_4x4, result)
    assert obs.algorithm == "ues-route"
    assert obs.delivered and obs.reachable and obs.correct
    assert obs.shortest_path_hops == 6
    assert obs.stretch >= 1.0


def test_observation_from_route_failure(provider, two_components):
    result = route(two_components, 0, 8, provider=provider)
    obs = observation_from_route(two_components, result)
    assert not obs.reachable and not obs.delivered
    assert obs.correct  # failure was the right answer and it is known
    assert obs.stretch is None


def test_observation_from_attempt_silent_failure(two_components):
    attempt = random_walk_route(two_components, 0, 8, max_steps=100, seed=1)
    obs = observation_from_attempt(two_components, 0, 8, attempt)
    assert not obs.outcome_known
    assert not obs.correct  # silent failure is never "correct"


def test_delivery_and_failure_detection_rates():
    observations = [
        RoutingObservation("a", 0, 1, True, True, True, 3, 3),
        RoutingObservation("a", 0, 2, True, False, False, 9, 2),
        RoutingObservation("a", 0, 3, False, False, True, 5, None),
        RoutingObservation("a", 0, 4, False, False, False, 5, None),
    ]
    assert delivery_rate(observations) == 0.5
    assert failure_detection_rate(observations) == 0.5
    assert delivery_rate([]) == 1.0
    assert failure_detection_rate([observations[0]]) == 1.0


def test_mean_hops_and_stretch():
    observations = [
        RoutingObservation("a", 0, 1, True, True, True, 4, 2),
        RoutingObservation("a", 0, 2, True, True, True, 6, 3),
        RoutingObservation("a", 0, 3, True, False, True, 100, 4),
    ]
    assert mean_hops(observations) == 5.0
    assert mean_hops(observations, delivered_only=False) == pytest.approx(110 / 3)
    assert stretch(observations) == pytest.approx(2.0)
    assert stretch([]) is None
    assert mean_hops([]) is None


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #


def test_format_cell_variants():
    assert format_cell(None) == "-"
    assert format_cell(True) == "yes"
    assert format_cell(1.23456, precision=2) == "1.23"
    assert format_cell("abc") == "abc"


def test_format_table_alignment_and_validation():
    table = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


# --------------------------------------------------------------------------- #
# Experiment harness
# --------------------------------------------------------------------------- #


def test_scenario_parameters_dictionary():
    spec = ScenarioSpec(name="t", family="unit-disk", size=10, radius=0.3, extra=(("k", 1),))
    params = spec.parameters()
    assert params["radius"] == 0.3 and params["k"] == 1 and params["size"] == 10


def test_build_scenario_families():
    assert build_scenario(ScenarioSpec("g", "grid", 16)).num_nodes == 16
    assert build_scenario(ScenarioSpec("r", "ring", 9)).num_nodes == 9
    assert build_scenario(ScenarioSpec("p", "prism", 12)).num_nodes == 12
    assert build_scenario(
        ScenarioSpec("u", "unit-disk", 12, radius=0.4, seed=1)
    ).deployment is not None
    assert build_scenario(ScenarioSpec("t", "tree", 10)).num_nodes == 10
    lollipop = build_scenario(ScenarioSpec("l", "lollipop", 12))
    assert lollipop.num_nodes == 12
    torus = build_scenario(ScenarioSpec("to", "torus", 9))
    assert torus.graph.is_regular(4)
    rr = build_scenario(ScenarioSpec("rr", "random-regular", 10, extra=(("degree", 3),)))
    assert rr.graph.is_regular(3)
    er = build_scenario(ScenarioSpec("er", "erdos-renyi", 15, extra=(("p", 0.2),)))
    assert er.num_nodes == 15


def test_build_scenario_validation():
    with pytest.raises(ExperimentError):
        build_scenario(ScenarioSpec("bad", "unit-disk", 10))  # missing radius
    with pytest.raises(ExperimentError):
        build_scenario(ScenarioSpec("bad", "no-such-family", 10))


def test_scenario_grids():
    udg = unit_disk_scenarios([10, 20], radius=0.3, seeds=(0, 1))
    assert len(udg) == 4
    assert {spec.size for spec in udg} == {10, 20}
    rings = structured_scenarios("ring", [5, 6])
    assert [spec.family for spec in rings] == ["ring", "ring"]


def test_pick_source_target_pairs_deterministic():
    network = build_scenario(ScenarioSpec("g", "grid", 16))
    a = pick_source_target_pairs(network, 5, seed=3)
    b = pick_source_target_pairs(network, 5, seed=3)
    assert a == b
    assert all(s != t for s, t in a)
    assert len(a) == 5


def _spec_pairs(vertices, pairs, seed, distinct):
    """The pair draws, spelled out: one ``rng.choice`` per endpoint, the
    target re-drawn until it differs.  Recorded sweeps, batches and
    provenance logs depend on exactly these draws."""
    import random

    rng = random.Random(seed)
    chosen = []
    for _ in range(pairs):
        source = rng.choice(vertices)
        target = rng.choice(vertices)
        if distinct and len(vertices) > 1:
            while target == source:
                target = rng.choice(vertices)
        chosen.append((source, target))
    return chosen


@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize("num_vertices", [1, 2, 3, 16, 49])
def test_pick_source_target_pairs_keeps_the_spec_draws(num_vertices, distinct):
    graph = generators.path_graph(num_vertices)
    vertices = list(graph.vertices)
    for seed in (0, 1, 7, 12345):
        for count in (0, 1, 5, 64):
            assert pick_source_target_pairs(
                graph, count, seed=seed, distinct=distinct
            ) == _spec_pairs(vertices, count, seed, distinct)


def test_run_parameter_sweep_collects_rows(provider):
    scenarios = structured_scenarios("ring", [5, 7])

    def evaluate(spec, network):
        result = route(network.graph, 0, spec.size - 1, provider=provider)
        yield [spec.name, spec.size, result.outcome.value, result.physical_hops]

    result = reference_run_parameter_sweep(
        "demo", ["name", "n", "outcome", "hops"], scenarios, evaluate
    )
    assert len(result.rows) == 2
    assert all(row[2] == "success" for row in result.rows)
    with pytest.raises(ExperimentError):
        result.add_row(["too", "short"])
