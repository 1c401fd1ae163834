"""The lockstep batched walk kernel vs the scalar reference, property-tested.

The batched path of ``route_many`` (:mod:`repro.core.batch_kernel`) must be
an *invisible* optimisation: for any scenario — connected or disconnected —
and any pair batch — including repeated pairs and self-pairs — its output
must equal the scalar reference loop element for element.  The schedule
stepper, which no engine path calls, is held to the same accounting.
Hypothesis drives that equality over random networks, random schedules and
random batches; unit tests pin the dispatch policy (auto threshold, forced
modes, the no-NumPy fallback) and the trajectory-buffer cap's scalar
spill-over.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ScenarioSpec, build_schedule
from repro.core import batch_kernel
from repro.core.batch_kernel import HAVE_NUMPY, batched_walk_for
from repro.core.engine import PreparedNetwork, prepare, prepare_schedule
from repro.core.universal import RandomSequenceProvider
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import DynamicOutcome

#: One provider shared across examples so the per-size sequence cache is hit.
_PROVIDER = RandomSequenceProvider(seed=77)

_RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="NumPy unavailable: the lockstep kernel cannot run"
)


def _random_graph(n: int, p: float, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabeledGraph.from_edges(edges, vertices=range(n))


# --------------------------------------------------------------------------- #
# Hypothesis: batched == reference, element for element
# --------------------------------------------------------------------------- #


@_RELAXED
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=0.8),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    pair_seed=st.integers(min_value=0, max_value=10_000),
    num_pairs=st.integers(min_value=1, max_value=40),
)
def test_static_route_many_batched_equals_reference(
    n, p, graph_seed, pair_seed, num_pairs
):
    graph = _random_graph(n, p, graph_seed)
    engine = prepare(graph)
    rng = random.Random(pair_seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(num_pairs)]
    # Repeated pairs and self-pairs are part of the contract.
    pairs.append(pairs[0])
    pairs.append((pairs[0][0], pairs[0][0]))
    reference = engine.reference_route_many(pairs, provider=_PROVIDER)
    batched = engine.route_many(pairs, provider=_PROVIDER, lockstep=True)
    assert batched == reference


@st.composite
def _schedule_cases(draw):
    family = draw(st.sampled_from(["grid", "ring", "tree", "two-rings"]))
    size = draw(st.integers(min_value=8, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=50))
    mutation = draw(st.sampled_from(["relabel", "drop-edge", "static"]))
    snapshots = draw(st.integers(min_value=1, max_value=3))
    switch_every = draw(st.integers(min_value=1, max_value=8))
    spec = ScenarioSpec(
        name=f"h-{family}-{size}-{seed}-{mutation}-{snapshots}-{switch_every}",
        family=family,
        size=size,
        seed=seed,
        extra=(
            ("mutation", mutation),
            ("snapshots", snapshots),
            ("switch_every", switch_every),
        ),
    )
    schedule = build_schedule(spec)
    vertices = list(schedule.snapshots[0].vertices)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    count = draw(st.integers(min_value=1, max_value=12))
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]
    pairs.append(pairs[0])
    pairs.append((pairs[0][0], pairs[0][0]))
    return schedule, pairs


_SCHEDULE_OUTCOMES = {
    batch_kernel.SCHEDULE_DELIVERED: DynamicOutcome.DELIVERED,
    batch_kernel.SCHEDULE_REPORTED_FAILURE: DynamicOutcome.REPORTED_FAILURE,
    batch_kernel.SCHEDULE_STRANDED_DEGREE: DynamicOutcome.STRANDED,
    batch_kernel.SCHEDULE_STRANDED_BUDGET: DynamicOutcome.STRANDED,
}


@needs_numpy
@_RELAXED
@given(case=_schedule_cases())
def test_schedule_route_many_batched_equals_reference(case):
    # Schedule batches run the scalar loop; the lockstep schedule stepper is
    # driven directly here, one run per size-bound group.
    schedule, pairs = case
    engine = prepare_schedule(schedule)
    engines = [engine.snapshot_engine(i) for i in range(engine.num_snapshots)]
    stepper = batch_kernel.ScheduleBatchedWalk(
        steppers=[batched_walk_for(snapshot.kernel) for snapshot in engines],
        snapshots=schedule.snapshots,
        switch_times=schedule.switch_times,
        gateway_of=engines[0].kernel.gateway_of,
    )
    reference = engine.reference_route_many(pairs, provider=_PROVIDER)
    groups = {}
    for index, (source, _target) in enumerate(pairs):
        groups.setdefault(engines[0].resolve_size_bound(source), []).append(index)
    for bound, indices in groups.items():
        accounts = stepper.run(
            [pairs[index][0] for index in indices],
            [pairs[index][1] for index in indices],
            engines[0].offsets_for(bound, _PROVIDER),
        )
        for index, account in zip(indices, accounts):
            expected = reference[index]
            assert (
                _SCHEDULE_OUTCOMES[account.code],
                account.steps_taken,
                account.switches_survived,
            ) == (
                expected.outcome,
                expected.steps_taken,
                expected.switches_survived,
            ), pairs[index]


# --------------------------------------------------------------------------- #
# Dispatch policy and fallbacks
# --------------------------------------------------------------------------- #


def _forbid_batched(monkeypatch, cls, name="_route_many_batched"):
    def _fail(self, *args, **kwargs):  # pragma: no cover - failure path only
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(cls, name, _fail)


def test_small_batches_take_the_reference_path(grid_4x4, provider, monkeypatch):
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    pairs = [(0, 15), (3, 12)]  # below the auto threshold
    assert engine.route_many(pairs, provider=provider) == engine.reference_route_many(
        pairs, provider=provider
    )


def test_lockstep_false_forces_the_reference_path(grid_4x4, provider, monkeypatch):
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    pairs = [(0, 15)] * 40  # above the auto threshold
    results = engine.route_many(pairs, provider=provider, lockstep=False)
    assert results == engine.reference_route_many(pairs, provider=provider)


def test_missing_numpy_falls_back_to_reference(grid_4x4, provider, monkeypatch):
    # With NumPy "absent", even lockstep=True must silently take the scalar
    # loop — that is the automatic-fallback contract.
    monkeypatch.setattr(batch_kernel, "HAVE_NUMPY", False)
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    pairs = [(0, 15)] * 40
    results = engine.route_many(pairs, provider=provider, lockstep=True)
    assert results == engine.reference_route_many(pairs, provider=provider)


@needs_numpy
def test_auto_policy_routes_large_batches_through_the_kernel(provider, monkeypatch):
    # Large batch x large kernel clears both auto thresholds: the default
    # dispatch must take the lockstep kernel (the scalar loop is forbidden
    # below) and still reproduce the reference results exactly.
    graph = generators.grid_graph(12, 12)
    engine = prepare(graph)
    rng = random.Random(5)
    n = graph.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
    expected = engine.reference_route_many(pairs, provider=provider)
    _forbid_batched(monkeypatch, PreparedNetwork, name="reference_route_many")
    assert engine.route_many(pairs, provider=provider) == expected


@needs_numpy
def test_auto_policy_keeps_small_graphs_on_the_reference_path(
    grid_4x4, provider, monkeypatch
):
    # A big batch over a tiny kernel fails the work-product threshold: the
    # scalar loop is faster there, so the default must not vectorize.
    _forbid_batched(monkeypatch, PreparedNetwork)
    engine = prepare(grid_4x4)
    rng = random.Random(5)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(48)]
    assert engine.route_many(pairs, provider=provider) == (
        engine.reference_route_many(pairs, provider=provider)
    )


@needs_numpy
def test_buffer_cap_hands_unresolved_pairs_back(provider):
    # A cap too small for even one chunk forces every non-self pair back to
    # the caller; the pairs the stepper does resolve must still be exact.
    graph = generators.grid_graph(4, 4)
    engine = prepare(graph)
    stepper = batched_walk_for(engine.kernel)
    pairs = [(0, 15), (3, 3), (1, 14)]
    bound = engine.resolve_size_bound(0)
    offsets = engine.offsets_for(bound, _PROVIDER)
    accounts, unresolved = stepper.run(pairs, offsets, max_buffer_elements=1)
    assert sorted(unresolved) == [0, 2]
    assert accounts[1].success and accounts[1].forward_steps == 0


@needs_numpy
def test_engine_finishes_capped_batches_on_the_scalar_kernel(
    grid_4x4, provider, monkeypatch
):
    # When the stepper truncates, _route_many_batched must finish the
    # unresolved pairs on the scalar kernel — results stay bitwise identical.
    class _TinyCapStepper:
        def __init__(self, inner):
            self._inner = inner

        def run(self, pairs, offsets, start_port=0):
            return self._inner.run(
                pairs, offsets, start_port=start_port, max_buffer_elements=1
            )

    engine = prepare(grid_4x4)
    inner = batched_walk_for(engine.kernel)
    monkeypatch.setattr(
        batch_kernel, "batched_walk_for", lambda kernel: _TinyCapStepper(inner)
    )
    rng = random.Random(9)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(20)]
    batched = engine.route_many(pairs, provider=provider, lockstep=True)
    assert batched == engine.reference_route_many(pairs, provider=provider)
