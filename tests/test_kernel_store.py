"""The kernel store: bounded LRU caches whose evictions are invisible.

The store replaces PR 5's unbounded module-level ``prepare`` /
``prepare_schedule`` dicts.  Eviction and recompilation must leave routing
results bitwise identical: the caches are optimisations, not semantics.
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    clear_prepared_caches,
    prepare,
    prepare_schedule,
    prepared_cache_info,
)
from repro.core.kernel_store import (
    ENGINE_CAPACITY,
    SCHEDULE_CAPACITY,
    LRUCache,
    kernel_store,
)
from repro.core.walk_kernel import CompiledWalk
from repro.graphs import generators
from repro.network.dynamics import TopologySchedule


@pytest.fixture
def clean_store():
    """A cold process-wide store; cleared again afterwards."""
    clear_prepared_caches()
    yield kernel_store()
    clear_prepared_caches()


def _route(graph, provider, count=6):
    engine = prepare(graph)
    vertices = list(graph.vertices)
    pairs = [
        (vertices[i % len(vertices)], vertices[(i * 5 + 3) % len(vertices)])
        for i in range(count)
    ]
    return engine.route_many(pairs, provider=provider)


# --------------------------------------------------------------------------- #
# LRUCache unit behaviour
# --------------------------------------------------------------------------- #


def test_lru_counts_hits_misses_and_evicts_in_order():
    cache = LRUCache(2)
    assert cache.get("a") is None and cache.misses == 1
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1 and cache.hits == 1
    cache.put("c", 3)  # evicts "b": "a" was refreshed by the hit
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1 and len(cache) == 2
    cache.clear()
    assert len(cache) == 0 and cache.hits == cache.misses == cache.evictions == 0


def test_lru_peek_and_touch_keep_counters_truthful():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.hits == 0 and cache.misses == 0  # peek is uncounted
    cache.touch("a")
    assert cache.hits == 1
    cache.record_miss()
    assert cache.misses == 1
    cache.put("c", 3)  # "b" is now the LRU tail
    assert "b" not in cache


# --------------------------------------------------------------------------- #
# Bounded prepare caches: eviction is invisible
# --------------------------------------------------------------------------- #


def test_engine_eviction_recompiles_bitwise_identical(clean_store, provider, monkeypatch):
    monkeypatch.setattr(clean_store, "engines", LRUCache(2))
    graph = generators.grid_graph(4, 4)
    before = _route(graph, provider)
    # Two more graphs push the first engine out of the bounded LRU.
    prepare(generators.cycle_graph(7))
    prepare(generators.cycle_graph(8))
    assert prepared_cache_info()["engine_evictions"] >= 1
    assert _route(graph, provider) == before


def test_schedule_eviction_reprepares_bitwise_identical(clean_store, provider, monkeypatch):
    store = clean_store
    monkeypatch.setattr(store, "schedules", LRUCache(1))
    first = TopologySchedule(
        snapshots=(generators.cycle_graph(6), generators.cycle_graph(6)),
        switch_times=(0, 4),
    )
    second = TopologySchedule.static(generators.grid_graph(3, 3))
    pairs = [(0, 3), (1, 5), (2, 2)]
    before = prepare_schedule(first).route_many(pairs, provider=provider)
    prepare_schedule(second)  # evicts the first schedule engine
    assert store.schedules.evictions >= 1
    assert prepare_schedule(first).route_many(pairs, provider=provider) == before


def test_capacity_validation():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_defaults_without_environment(clean_store):
    assert clean_store.engines.capacity == ENGINE_CAPACITY == 64
    assert clean_store.schedules.capacity == SCHEDULE_CAPACITY == 16
    assert set(clean_store.info()) == {
        "engines",
        "engine_hits",
        "engine_misses",
        "engine_evictions",
        "engine_capacity",
        "schedules",
        "schedule_hits",
        "schedule_misses",
        "schedule_evictions",
        "kernel_compiles",
    }


def test_prepared_engine_recomputes_reduction_lazily(clean_store):
    engine = prepare(generators.grid_graph(3, 3))
    assert prepared_cache_info()["kernel_compiles"] == 1
    # The kernel keeps no reduction object; the engine recomputes it for the
    # callers that need one.
    assert not hasattr(engine.kernel, "reduction")
    reduction = engine.reduction
    assert reduction is not None
    assert engine.kernel.num_vertices == CompiledWalk(reduction).num_vertices
