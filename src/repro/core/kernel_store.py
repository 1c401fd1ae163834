"""Kernel store — the bounded in-memory caches behind ``prepare``.

PR 5 left every ``prepare()``/``prepare_schedule()`` result in a module-level
dict, which grew without bound within a process.  This module replaces those
dicts with a single :class:`KernelStore`:

* **Memory LRU** — bounded :class:`LRUCache` maps for prepared engines
  (keyed by graph identity, :data:`ENGINE_CAPACITY` entries) and prepared
  schedules (keyed by schedule identity, :data:`SCHEDULE_CAPACITY`).
  Entries hold their graph/schedule strongly, so an ``id`` can never be
  recycled while its entry is alive; hit/miss/eviction counters are
  surfaced through :func:`repro.core.engine.prepared_cache_info`.
* **Compile** — on a miss, :meth:`KernelStore.kernel_for` runs
  :func:`repro.graphs.degree_reduction.reduce_to_three_regular` followed by
  :class:`~repro.core.walk_kernel.CompiledWalk`.  Every compilation in the
  process increments ``kernel_compiles``.

Nothing is persisted.  A kernel is a deterministic function of the graph's
rotation map, so, like the paper's nodes, which recompute the walk from
local information, each process (the main one and every pool worker) has
its own store and compiles the kernels it routes on.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable

from repro.core.walk_kernel import CompiledWalk
from repro.graphs.degree_reduction import reduce_to_three_regular

__all__ = [
    "ENGINE_CAPACITY",
    "KernelStore",
    "LRUCache",
    "SCHEDULE_CAPACITY",
    "kernel_store",
    "store_fingerprint",
]

#: In-memory capacities: prepared engines, prepared schedules.
ENGINE_CAPACITY = 64
SCHEDULE_CAPACITY = 16


def store_fingerprint() -> str:
    """Short digest naming the compiled-kernel representation.

    Provenance records (:mod:`repro.provenance`) carry this fingerprint so a
    replayed result can attest which kernel representation produced it.  It
    is a constant: the first 16 hex digits of the sha256 the kernel file
    format of earlier versions hashed to (magic ``0x52504B31``, layout 1).
    Kernels have not changed since, and every recorded log carries this
    value, so replay depends on it staying fixed.
    """
    return "607e9ff558d40a9f"


#: Every live object that guards its state with a ``_lock`` attribute
#: (:class:`LRUCache`, seeded :class:`repro.core.universal.OffsetStream`),
#: keyed by ``id``: a ``WeakSet`` would hash its members, and a stream
#: hashes by its offsets, which it would generate to do so.
_LOCK_HOLDERS: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()


def _rearm_locks() -> None:
    """Give every registered object a fresh lock (runs in a forked child).

    A fork copies each lock in the state it had, but not the threads that
    held one, so a lock held by another thread of the parent would never be
    released in the child.  A pool worker's initialiser clears the caches
    behind these locks, so it would block forever.  Clearing still runs
    after this, so nothing a parent thread half-wrote reaches a worker's
    work.
    """
    for holder in list(_LOCK_HOLDERS.values()):
        holder._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; nothing forks elsewhere
    os.register_at_fork(after_in_child=_rearm_locks)


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters.

    A thin, dependency-free replacement for the ad-hoc ``OrderedDict`` +
    limit idiom used across the code base.  ``get`` counts a hit or a miss
    and refreshes recency; callers that must validate an entry before
    accepting it (the engine cache re-checks graph identity) use
    ``peek``/``touch``/``record_miss`` to keep the counters truthful.

    Every method is individually thread-safe (the server's dispatch pool
    drives ``prepare()`` from several threads): a per-instance lock guards
    the ``OrderedDict``'s compound mutations so concurrent access can never
    corrupt the structure.  Compound *caller* sequences (peek → validate →
    put) may still interleave; the worst outcome is a duplicate build of a
    deterministic value, never a wrong one.  A forked child gets a fresh
    lock (:func:`_rearm_locks`).
    """

    __slots__ = (
        "capacity", "hits", "misses", "evictions", "_entries", "_lock", "__weakref__"
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        _LOCK_HOLDERS[id(self)] = self

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up without touching recency or counters."""
        return self._entries.get(key, default)

    def touch(self, key: Hashable) -> None:
        """Record a hit on ``key`` and mark it most recently used.

        Tolerates a key concurrently evicted between the caller's ``peek``
        and this call: the hit is still counted (the caller did get a valid
        value) and recency is simply not refreshed.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self.hits += 1

    def record_miss(self) -> None:
        """Count a miss decided outside ``get`` (e.g. failed validation)."""
        self.misses += 1

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: hit refreshes recency, miss returns ``default``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace ``key`` and evict the LRU tail past capacity."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries[key] = value
                entries.move_to_end(key)
                return
            entries[key] = value
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


class KernelStore:
    """The per-process store behind ``prepare``/``prepare_schedule``.

    Not a public entry point by itself — :func:`repro.core.engine.prepare`
    and friends consult the process-wide instance from :func:`kernel_store`.
    """

    def __init__(self) -> None:
        self.engines = LRUCache(ENGINE_CAPACITY)
        self.schedules = LRUCache(SCHEDULE_CAPACITY)
        self.kernel_compiles = 0

    def kernel_for(self, graph: object) -> CompiledWalk:
        """Compile the walk kernel for ``graph`` and count the compile.

        No kernel keeps its reduction object; the engine recomputes it
        lazily for the rare callers that need it.
        """
        self.kernel_compiles += 1
        return CompiledWalk(reduce_to_three_regular(graph))

    def info(self) -> Dict[str, int]:
        """Counters of both caches, flat, for ``prepared_cache_info``."""
        return {
            "engines": len(self.engines),
            "engine_hits": self.engines.hits,
            "engine_misses": self.engines.misses,
            "engine_evictions": self.engines.evictions,
            "engine_capacity": self.engines.capacity,
            "schedules": len(self.schedules),
            "schedule_hits": self.schedules.hits,
            "schedule_misses": self.schedules.misses,
            "schedule_evictions": self.schedules.evictions,
            "kernel_compiles": self.kernel_compiles,
        }

    def clear(self) -> None:
        """Drop both caches and reset every counter."""
        self.engines.clear()
        self.schedules.clear()
        self.kernel_compiles = 0


#: The process-wide store instance every ``prepare`` call consults.
_STORE = KernelStore()


def kernel_store() -> KernelStore:
    """The process-wide :class:`KernelStore` behind the prepared caches."""
    return _STORE
