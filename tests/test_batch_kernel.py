"""The lockstep batched walk kernel vs the scalar reference, property-tested.

The lockstep realisation of ``route_many`` (:mod:`repro.core.batch_kernel`)
must be an *invisible* optimisation: for any scenario — connected or disconnected —
and any pair batch — including repeated pairs and self-pairs — its output
must equal the scalar reference loop element for element.  The schedule
stepper, which no engine path calls, is held to the same accounting.
Hypothesis drives that equality over random networks, random schedules and
random batches; unit tests pin the dispatch policy (thresholds, the no-NumPy
fallback), the trajectory-buffer cap's scalar spill-over, and the shared
stepper cache under concurrent use.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ScenarioSpec, ScenarioStore, build_schedule
from repro.core import batch_kernel
from repro.core import engine as engine_module
from repro.core.batch_kernel import HAVE_NUMPY, batched_walk_for
from repro.core.engine import PreparedNetwork, _route_lockstep, prepare, prepare_schedule
from repro.core.kernel_store import LRUCache
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


@needs_numpy
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
    [batched] = _route_lockstep([(engine, pairs, None)], provider=_PROVIDER)
    assert batched == reference


@needs_numpy
@pytest.mark.parametrize("count", [4, 64])
def test_target_that_is_no_vertex_fails_on_both_sides_of_the_dispatch(count):
    # 64 pairs take the lockstep path, whose int32 target array overflowed
    # on 2**40; 4 take the scalar loop.  Both must report FAILURE, as
    # ``route`` promises for a target that does not exist at all.
    engine = prepare(generators.grid_graph(12, 12))
    pairs = [(0, 2**40)] * count
    results = engine.route_many(pairs, provider=_PROVIDER, size_bound=8)
    assert results == engine.reference_route_many(pairs, provider=_PROVIDER, size_bound=8)
    assert not any(result.delivered for result in results)


@needs_numpy
def test_no_vertex_target_marker_differs_from_negative_vertices():
    # The value a target that is no vertex enters the lockstep arrays as
    # must differ from every owner, negative vertex ids included.
    ring = LabeledGraph.from_edges([(-1, 0), (0, 1), (1, 2), (2, -1)])
    engine = prepare(ring)
    pairs = [(0, 2**40), (0, 7), (0, -2), (0, -1)]
    [batched] = _route_lockstep([(engine, pairs, None)], provider=_PROVIDER)
    assert batched == engine.reference_route_many(pairs, provider=_PROVIDER)


def _ring_with_ids(ids):
    return [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]


@pytest.mark.parametrize(
    "edges, pairs",
    [
        # 2**32 wrapped to vertex 0 in an int32 owner array, so walks from
        # near it reported the target 0 found on meeting 2**32.
        (
            _ring_with_ids(list(range(1, 100)) + [2**32]) + [(0, 50)],
            [(source, 0) for source in (1, 2, 3, 98, 99)] * 40,
        ),
        # Ids above 2**31 - 1 overflowed the int32 source rows.
        (
            _ring_with_ids([2**31 + i for i in range(100)]),
            [(2**31, 2**31 + 3), (2**31 + 5, 2**31 + 1)] * 100,
        ),
    ],
    ids=["wraps-to-a-vertex", "above-int32"],
)
def test_batch_on_vertex_ids_outside_int32_equals_reference(edges, pairs):
    engine = prepare(LabeledGraph.from_edges(edges))
    # Large enough for the lockstep path on a graph whose ids fit.
    assert len(pairs) >= engine_module._LOCKSTEP_AUTO_MIN_STATIC
    assert len(pairs) * engine.kernel.num_vertices >= engine_module._LOCKSTEP_AUTO_MIN_WORK
    reference = engine.reference_route_many(pairs, provider=_PROVIDER, size_bound=8)
    assert engine.route_many(pairs, provider=_PROVIDER, size_bound=8) == reference
    grid = prepare(generators.grid_graph(6, 6))
    grid_pairs = [(0, 35)] * 64
    assert engine_module.route_many_multi(
        [(grid, grid_pairs, None), (engine, pairs, None)], provider=_PROVIDER, size_bound=8
    ) == [grid.reference_route_many(grid_pairs, provider=_PROVIDER, size_bound=8), reference]


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


def _forbid_batched(monkeypatch, owner=engine_module, name="_route_lockstep"):
    def _fail(self, *args, **kwargs):  # pragma: no cover - failure path only
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(owner, name, _fail)


def test_small_batches_take_the_reference_path(grid_4x4, provider, monkeypatch):
    _forbid_batched(monkeypatch)
    engine = prepare(grid_4x4)
    pairs = [(0, 15), (3, 12)]  # below the auto threshold
    assert engine.route_many(pairs, provider=provider) == engine.reference_route_many(
        pairs, provider=provider
    )


def test_missing_numpy_falls_back_to_reference(grid_4x4, provider, monkeypatch):
    # With NumPy "absent" the batch must silently take the scalar loop even
    # when it clears every threshold — that is the automatic-fallback contract.
    monkeypatch.setattr(batch_kernel, "HAVE_NUMPY", False)
    monkeypatch.setattr(engine_module, "_LOCKSTEP_AUTO_MIN_WORK", 0)
    _forbid_batched(monkeypatch)
    engine = prepare(grid_4x4)
    pairs = [(0, 15)] * 40
    results = engine.route_many(pairs, provider=provider)
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
    _forbid_batched(monkeypatch)
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
    # When the stepper truncates, the lockstep realisation must finish the
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
    [batched] = _route_lockstep([(engine, pairs, None)], provider=provider)
    assert batched == engine.reference_route_many(pairs, provider=provider)


# --------------------------------------------------------------------------- #
# Shared caches under concurrent use
# --------------------------------------------------------------------------- #


@needs_numpy
def test_shared_caches_survive_concurrent_eviction(monkeypatch):
    # The daemon's dispatch pool drives these caches from several threads.
    # With three times more keys than capacity, every lookup races an
    # eviction; each call must still return the entry for its own key, and
    # the caches must stay bounded.
    capacity = 4
    monkeypatch.setattr(batch_kernel, "_BATCH_CACHE", LRUCache(capacity))
    monkeypatch.setattr(ScenarioStore, "_CAPACITY", capacity)
    store = ScenarioStore()
    sizes = range(3, 3 + 3 * capacity)
    kernels = [prepare(generators.cycle_graph(n)).kernel for n in sizes]
    specs = [ScenarioSpec(name=f"ring-{n}", family="ring", size=n, seed=0) for n in sizes]
    workers = 8
    barrier = threading.Barrier(workers)
    errors = []

    def hammer(offset):
        try:
            barrier.wait()
            for step in range(150):
                index = (offset + step) % len(kernels)
                assert batched_walk_for(kernels[index]).kernel is kernels[index]
                network = store.network(specs[index])
                assert network.graph.num_vertices == specs[index].size
        except BaseException as exc:  # pragma: no cover - failure path only
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(offset,)) for offset in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(batch_kernel._BATCH_CACHE) <= capacity
    assert store.info()["session_networks"] <= capacity
