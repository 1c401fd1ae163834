"""Tiered kernel store — bounded LRU caches plus an optional disk tier.

PR 5 left every ``prepare()``/``prepare_schedule()`` result in a module-level
dict: unbounded growth within a process, and nothing survives the process —
each pool worker and each restart recompiles every degree reduction from
scratch.  This module replaces those dicts with a single :class:`KernelStore`
holding three tiers, consulted in order:

1. **Memory LRU** — bounded :class:`LRUCache` maps for prepared engines
   (keyed by graph identity) and prepared schedules (keyed by schedule
   identity).  Entries hold their graph/schedule strongly, so an ``id`` can
   never be recycled while its entry is alive; hit/miss/eviction counters are
   surfaced through :func:`repro.core.engine.prepared_cache_info`.
2. **Disk** *(optional, NumPy only)* — compiled walk kernels persisted as one
   flat ``int64`` ``.npy`` file per kernel, content-addressed by
   :func:`repro.core.walk_kernel.rotation_hash` of the source graph.  Equal
   graphs (rotation-map equality — the only equality the walk observes) map
   to the same file, so process-pool workers and future server restarts warm
   up by reading arrays instead of re-deriving the Fig. 1 reduction.
   Corrupt or truncated files are detected (magic number, shape and range
   validation in ``CompiledWalk.from_arrays``) and silently fall back to
   tier 3, counted in ``disk_errors``.  Writes are atomic (temp file +
   ``os.replace``); temp files orphaned by a crashed writer are swept
   whenever the tier opens (:func:`sweep_stale_tmp_files`, counted in
   ``disk_tmp_swept``).  NumPy is imported on the tier's first read or
   write, so a process without a configured tier never loads it here.
3. **Compile** — :func:`repro.graphs.degree_reduction.reduce_to_three_regular`
   followed by :class:`~repro.core.walk_kernel.CompiledWalk`, exactly as
   before; the result is written back to the disk tier when one is
   configured.  Every compilation anywhere in the process increments
   ``kernel_compiles``, which is how the warm-start benchmark asserts a
   second run performs *zero* recompilations.

Configuration travels through environment variables so forked/spawned pool
workers inherit it: ``REPRO_KERNEL_CACHE_DIR`` names the disk-tier directory
(unset/empty disables the tier) and ``REPRO_KERNEL_CACHE_SIZE`` bounds the
in-memory engine LRU.  :func:`configure_kernel_store` is the in-process knob
(the ``repro sweep --kernel-cache-dir`` CLI flag lands here); it exports the
same variables, and :meth:`KernelStore.clear` re-reads them — which is what
lets the sweep runner's worker initialiser (it clears all prepared caches)
pick up the store configuration inside every worker.

Determinism is untouched: a kernel restored from disk contains the same six
integer columns a fresh compilation produces (the reduction is a
deterministic function of the rotation map), so routing results are bitwise
identical on every tier — ``tests/test_kernel_store.py`` asserts it.
"""

from __future__ import annotations

import importlib.util
import os
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, List, Optional

from repro.core.walk_kernel import CompiledWalk, rotation_hash
from repro.errors import GraphStructureError

#: Whether NumPy is installed (the disk tier needs it).  Finding the package
#: imports nothing: the tier imports NumPy where it reads or writes a file.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = [
    "DEFAULT_ENGINE_CAPACITY",
    "DEFAULT_SCHEDULE_CAPACITY",
    "ENV_KERNEL_CACHE_DIR",
    "ENV_KERNEL_CACHE_SIZE",
    "KernelStore",
    "LRUCache",
    "configure_kernel_store",
    "kernel_file",
    "kernel_store",
    "store_fingerprint",
    "sweep_stale_tmp_files",
]

#: Environment variables carrying the store configuration into pool workers.
ENV_KERNEL_CACHE_DIR = "REPRO_KERNEL_CACHE_DIR"
ENV_KERNEL_CACHE_SIZE = "REPRO_KERNEL_CACHE_SIZE"

#: Default in-memory capacities (identical to the PR-5 dict bounds).
DEFAULT_ENGINE_CAPACITY = 64
DEFAULT_SCHEDULE_CAPACITY = 16

#: First element of every persisted kernel file ("RPK1" as an integer); a
#: file that does not open with it is rejected before any array is trusted.
_KERNEL_MAGIC = 0x5250_4B31

#: Version of the flat pack layout (:func:`_pack_kernel`); bumped with it.
_PACK_VERSION = 1

#: Suffix marker of the disk tier's in-progress writes (``<hash>.npy.tmp.<pid>``).
_TMP_MARKER = ".tmp."


def store_fingerprint() -> str:
    """Short digest of the kernel persistence *format* (not of any config).

    Provenance records (:mod:`repro.provenance`) carry this fingerprint so a
    replayed result can attest which compiled-kernel representation produced
    it.  It is a pure function of the file magic and pack layout version —
    deliberately independent of cache directories, capacities or whether the
    disk tier is enabled, because kernels restored from any tier are bitwise
    identical to fresh compilations and two backends of one process must
    stamp identical provenance (the parity tests compare results exactly).
    """
    import hashlib
    import json

    payload = json.dumps(
        {"magic": _KERNEL_MAGIC, "pack_version": _PACK_VERSION}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

#: A temp file from a *live* pid is still swept once it is this old — pids
#: recycle, and no atomic write takes an hour.
STALE_TMP_SECONDS = 3600.0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently names a process (conservative on doubt)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # PermissionError etc.: it exists, just not ours
        return True
    return True


def sweep_stale_tmp_files(cache_dir: str, max_age_seconds: float = STALE_TMP_SECONDS) -> int:
    """Remove orphaned ``*.tmp.<pid>`` files under ``cache_dir``; return the count.

    :meth:`KernelStore._save_kernel` writes ``<hash>.npy.tmp.<pid>`` and then
    ``os.replace``\\ s it into place — a crash (SIGKILL, power loss) between
    the two leaks the temp file forever.  Every time the disk tier opens it
    sweeps temp files whose writer is dead, or which are older than
    ``max_age_seconds`` even if a (recycled) pid looks alive.  Files of the
    *current* process and fresh files of live pids are never touched, so
    concurrent writers in a pool are safe.
    """
    try:
        entries = os.listdir(cache_dir)
    except OSError:
        return 0
    removed = 0
    now = time.time()
    for entry in entries:
        head, marker, suffix = entry.rpartition(_TMP_MARKER)
        if not marker or not head or not suffix.isdigit():
            continue
        pid = int(suffix)
        if pid == os.getpid():
            continue
        path = os.path.join(cache_dir, entry)
        stale = not _pid_alive(pid)
        if not stale:
            try:
                stale = now - os.path.getmtime(path) > max_age_seconds
            except OSError:
                continue  # raced with the writer's own os.replace/unlink
        if stale:
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
    return removed


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

    def values(self) -> Iterator[Any]:
        """Iterate current values, least recently used first."""
        with self._lock:
            return iter(list(self._entries.values()))

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

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove ``key`` if present (no counter changes)."""
        with self._lock:
            return self._entries.pop(key, default)

    def resize(self, capacity: int) -> None:
        """Change the bound, evicting the tail if the cache is now over it."""
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        with self._lock:
            self.capacity = int(capacity)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


def _env_capacity() -> int:
    raw = os.environ.get(ENV_KERNEL_CACHE_SIZE, "")
    try:
        capacity = int(raw)
    except ValueError:
        return DEFAULT_ENGINE_CAPACITY
    return capacity if capacity >= 1 else DEFAULT_ENGINE_CAPACITY


def _env_cache_dir() -> Optional[str]:
    raw = os.environ.get(ENV_KERNEL_CACHE_DIR, "").strip()
    return raw or None


def kernel_file(cache_dir: str, graph: object) -> str:
    """Path of the persisted kernel for ``graph`` under ``cache_dir``."""
    return os.path.join(cache_dir, rotation_hash(graph) + ".npy")


def _pack_kernel(kernel: CompiledWalk) -> "Any":
    """Flatten a kernel into the single int64 array the disk tier stores.

    Layout: ``[magic, n, k, next_vertex(3n), next_port(3n), owner(n),
    physical_port(n), component_id(n), component_sizes(k)]``.
    """
    arrays = kernel.to_arrays()
    n = kernel.num_vertices
    k = len(arrays["component_sizes"])
    flat: List[int] = [_KERNEL_MAGIC, n, k]
    flat.extend(arrays["next_vertex"])
    flat.extend(arrays["next_port"])
    flat.extend(arrays["owner"])
    flat.extend(arrays["physical_port"])
    flat.extend(arrays["component_id"])
    flat.extend(arrays["component_sizes"])
    import numpy

    return numpy.asarray(flat, dtype=numpy.int64)


def _unpack_kernel(flat: "Any") -> CompiledWalk:
    """Rebuild a kernel from the on-disk layout; raise on any inconsistency."""
    if getattr(flat, "ndim", None) != 1 or flat.dtype.kind not in "iu":
        raise GraphStructureError("kernel file is not a flat integer array")
    if len(flat) < 3 or int(flat[0]) != _KERNEL_MAGIC:
        raise GraphStructureError("kernel file has a bad magic number")
    n = int(flat[1])
    k = int(flat[2])
    if n < 0 or k < 0 or len(flat) != 3 + 9 * n + k:
        raise GraphStructureError("kernel file has an inconsistent length")
    data = flat[3:].tolist()
    cuts = [3 * n, 6 * n, 7 * n, 8 * n, 9 * n, 9 * n + k]
    return CompiledWalk.from_arrays(
        {
            "next_vertex": data[: cuts[0]],
            "next_port": data[cuts[0] : cuts[1]],
            "owner": data[cuts[1] : cuts[2]],
            "physical_port": data[cuts[2] : cuts[3]],
            "component_id": data[cuts[3] : cuts[4]],
            "component_sizes": data[cuts[4] : cuts[5]],
        }
    )


class KernelStore:
    """The per-process tiered store behind ``prepare``/``prepare_schedule``.

    Not a public entry point by itself — :func:`repro.core.engine.prepare`
    and friends consult the process-wide instance from
    :func:`kernel_store`; :func:`configure_kernel_store` adjusts it.
    """

    def __init__(
        self,
        engine_capacity: Optional[int] = None,
        schedule_capacity: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.engines = LRUCache(
            engine_capacity if engine_capacity is not None else _env_capacity()
        )
        self.schedules = LRUCache(
            schedule_capacity if schedule_capacity is not None else DEFAULT_SCHEDULE_CAPACITY
        )
        self.kernel_compiles = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_saves = 0
        self.disk_errors = 0
        self.disk_tmp_swept = 0
        self.cache_dir: Optional[str] = None
        self._open_disk_tier(cache_dir if cache_dir is not None else _env_cache_dir())

    def _open_disk_tier(self, cache_dir: Optional[str]) -> None:
        """Adopt ``cache_dir`` and sweep temp files orphaned by dead writers."""
        self.cache_dir = cache_dir
        if cache_dir is not None:
            self.disk_tmp_swept += sweep_stale_tmp_files(cache_dir)

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #

    @property
    def disk_enabled(self) -> bool:
        """Whether the persistence tier is active (dir configured + NumPy)."""
        return HAVE_NUMPY and self.cache_dir is not None

    def _load_kernel(self, path: str) -> Optional[CompiledWalk]:
        """Read and validate one persisted kernel; ``None`` on any problem."""
        import numpy

        try:
            with open(path, "rb") as handle:
                flat = numpy.load(handle, allow_pickle=False)
        except FileNotFoundError:
            self.disk_misses += 1
            return None
        except (OSError, ValueError, EOFError):
            self.disk_errors += 1
            return None
        try:
            kernel = _unpack_kernel(flat)
        except GraphStructureError:
            self.disk_errors += 1
            return None
        self.disk_hits += 1
        return kernel

    def _save_kernel(self, path: str, kernel: CompiledWalk) -> None:
        """Persist one kernel atomically (write temp file, then rename)."""
        import numpy

        tmp_path = path + f".tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp_path, "wb") as handle:
                numpy.save(handle, _pack_kernel(kernel), allow_pickle=False)
            os.replace(tmp_path, path)
        except OSError:
            self.disk_errors += 1
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return
        self.disk_saves += 1

    def kernel_for(self, graph: object) -> CompiledWalk:
        """Compiled walk kernel for ``graph``: disk tier first, then compile.

        No kernel keeps its reduction object, on either tier; the engine
        recomputes it lazily for the rare callers that need it.  A compile
        increments ``kernel_compiles`` and is written back to the disk tier
        when one is configured.
        """
        path = None
        if self.disk_enabled:
            path = kernel_file(self.cache_dir, graph)
            kernel = self._load_kernel(path)
            if kernel is not None:
                return kernel
        from repro.graphs.degree_reduction import reduce_to_three_regular

        self.kernel_compiles += 1
        kernel = CompiledWalk(reduce_to_three_regular(graph))
        if path is not None:
            self._save_kernel(path, kernel)
        return kernel

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #

    def info(self) -> Dict[str, int]:
        """Counters of every tier, flat, for ``prepared_cache_info``."""
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
            "kernel_disk_enabled": int(self.disk_enabled),
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_saves": self.disk_saves,
            "disk_errors": self.disk_errors,
            "disk_tmp_swept": self.disk_tmp_swept,
        }

    def clear(self) -> None:
        """Drop the memory tiers, reset counters, re-read the environment.

        Re-reading the environment is load-bearing: the sweep runner's
        worker initialiser clears all prepared caches, and that is the
        moment a forked/spawned worker adopts ``REPRO_KERNEL_CACHE_DIR`` /
        ``REPRO_KERNEL_CACHE_SIZE`` exported by the parent, warming itself
        from the shared disk tier instead of recompiling.
        """
        self.engines.clear()
        self.schedules.clear()
        self.engines.resize(_env_capacity())
        self.kernel_compiles = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_saves = 0
        self.disk_errors = 0
        self.disk_tmp_swept = 0
        self._open_disk_tier(_env_cache_dir())


#: The process-wide store instance every ``prepare`` call consults.
_STORE = KernelStore()


def kernel_store() -> KernelStore:
    """The process-wide :class:`KernelStore` behind the prepared caches."""
    return _STORE


def configure_kernel_store(
    capacity: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> KernelStore:
    """Adjust the process-wide store and export the config to child workers.

    ``capacity`` resizes the in-memory engine LRU (evicting if now over the
    bound).  ``cache_dir`` enables the disk tier under that directory — pass
    an empty string to disable it.  Both settings are exported through the
    ``REPRO_KERNEL_CACHE_*`` environment variables so process-pool workers
    (whose initialiser clears and re-reads the store) inherit them.  Returns
    the live store; cached entries and counters are otherwise untouched.
    """
    store = kernel_store()
    if capacity is not None:
        if capacity < 1:
            raise ValueError("kernel store capacity must be positive")
        os.environ[ENV_KERNEL_CACHE_SIZE] = str(int(capacity))
        store.engines.resize(int(capacity))
    if cache_dir is not None:
        text = str(cache_dir).strip()
        if text:
            os.makedirs(text, exist_ok=True)
            os.environ[ENV_KERNEL_CACHE_DIR] = text
            store._open_disk_tier(text)
        else:
            os.environ.pop(ENV_KERNEL_CACHE_DIR, None)
            store.cache_dir = None
    return store
