"""Execution backends for the unified task API.

A backend decides *where* a task's body runs; *what* runs is fixed by the
shared executors (:mod:`repro.api.executors`), which is why two backends that
both accept a request produce identical results (status, payload, step
accounting) — the differential-parity property ``tests/test_api_parity.py``
asserts.  Two backends ship:

:class:`InlineBackend`
    Runs every task in-process against the per-session scenario cache and
    the shared prepared-engine caches.  Harness tasks (sweep, conformance)
    are forced onto their serial reference path (``workers=1``), so inline
    results are the executable specification the pooled backend must match.

:class:`ProcessPoolBackend`
    Delegates the parallelisable tasks to the sharding machinery of
    :mod:`repro.analysis.runner`: sweeps and conformance passes honour the
    request's ``workers``, and batch routes are chunked across a process
    pool (each worker building its scenario locally and reusing its own
    per-process engine caches).  Worker initialisation clears the prepared
    caches, which also makes the per-process kernel store re-read its
    environment configuration — so when a disk tier is enabled
    (``repro sweep --kernel-cache-dir`` /
    :func:`repro.core.engine.configure_kernel_store`), every worker
    warm-starts from the persisted compiled kernels instead of recompiling
    the degree reduction per process.

Backends are stateless apart from the session-owned
:class:`~repro.api.executors.ScenarioStore` handed to :meth:`Backend.run`,
so one backend instance can serve many sessions.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import build_scenario
from repro.api.envelope import TaskResult
from repro.api.executors import (
    ScenarioStore,
    TaskComputation,
    assemble_route_batch,
    execute_broadcast,
    execute_broadcast_reliable,
    execute_compare,
    execute_conformance,
    execute_connectivity,
    execute_count,
    execute_route,
    execute_route_batch,
    execute_schedule_route,
    execute_sweep,
    result_provenance,
    route_result_payload,
)
from repro.api.requests import (
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    SweepRequest,
    TaskRequest,
)
from repro.core.engine import prepare
from repro.errors import TaskError

__all__ = [
    "Backend",
    "InlineBackend",
    "ProcessPoolBackend",
]


class Backend:
    """Common machinery: dispatch a request, stamp backend id and timing."""

    #: Stable backend identifier (the envelope's ``backend`` field).
    name: str = "abstract"

    def handles(self, request: TaskRequest) -> bool:
        """Whether this backend accepts the request type."""
        return type(request) in self._dispatch_table()

    def run(self, request: TaskRequest, store: ScenarioStore) -> TaskResult:
        """Execute ``request`` and wrap the computation into the envelope."""
        executor = self._dispatch_table().get(type(request))
        if executor is None:
            raise TaskError(
                f"backend {self.name!r} does not handle "
                f"{type(request).__name__}; see the backend matrix in docs/api.md"
            )
        started = time.perf_counter()
        computation = executor(request, store)
        elapsed = time.perf_counter() - started
        return TaskResult(
            task=request.task,
            status=computation.status,
            backend=self.name,
            payload=computation.payload,
            physical_steps=computation.physical_steps,
            virtual_steps=computation.virtual_steps,
            seed=computation.seed,
            elapsed_seconds=elapsed,
            # Stamped here, in the one wrapper every backend runs through,
            # so provenance cannot drift between backends (parity tests
            # compare whole envelopes modulo timing).
            provenance=result_provenance(request),
        )

    def _dispatch_table(self) -> Dict[type, Callable[..., TaskComputation]]:
        """The dispatch mapping, built once per backend instance."""
        table = getattr(self, "_dispatch_cache", None)
        if table is None:
            table = self._dispatch()
            self._dispatch_cache = table
        return table

    def _dispatch(self) -> Dict[type, Callable[..., TaskComputation]]:
        raise NotImplementedError


class InlineBackend(Backend):
    """In-process execution over the session's shared prepared state."""

    name = "inline"

    def _dispatch(self):
        return {
            RouteRequest: execute_route,
            RouteBatchRequest: execute_route_batch,
            ScheduleRouteRequest: execute_schedule_route,
            BroadcastRequest: execute_broadcast,
            BroadcastReliableRequest: execute_broadcast_reliable,
            CountRequest: execute_count,
            ConnectivityRequest: execute_connectivity,
            CompareRequest: execute_compare,
            # Inline means serial: harness tasks run their reference path.
            SweepRequest: lambda request, store: execute_sweep(request, workers=1),
            ConformanceRequest: lambda request, store: execute_conformance(
                request, workers=1
            ),
        }


def _route_chunk_task(
    task: Tuple[object, List[Tuple[int, int]], Optional[int]],
) -> List[Dict[str, object]]:
    """Worker body for pooled batch routing (module-level: must be picklable).

    Builds the scenario locally — graphs are never shipped between processes
    — and routes its chunk through the worker's own prepared-engine cache,
    returning the same per-route payload shape the inline path produces.
    Inside each worker the chunk goes through ``route_many``'s automatic
    batching, so a large pooled batch is vectorized by the lockstep kernel
    (:mod:`repro.core.batch_kernel`) *per chunk* on top of the process-level
    parallelism.
    """
    spec, chunk, size_bound = task
    network = build_scenario(spec)
    results = prepare(network.graph).route_many(
        chunk, size_bound=size_bound, namespace_size=network.namespace_size
    )
    return [route_result_payload(result) for result in results]


class ProcessPoolBackend(Backend):
    """Sharded execution through :mod:`repro.analysis.runner`'s process pools."""

    name = "process-pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        #: Worker count for tasks that do not carry their own (batch routes).
        self._workers = workers if workers is not None else (os.cpu_count() or 1)

    def _dispatch(self):
        return {
            RouteBatchRequest: self._run_batch,
            SweepRequest: lambda request, store: execute_sweep(
                request, workers=max(1, request.workers)
            ),
            ConformanceRequest: lambda request, store: execute_conformance(
                request, workers=max(1, request.workers)
            ),
        }

    def _run_batch(self, request: RouteBatchRequest, store: ScenarioStore):
        from repro.analysis.runner import parallel_map
        from repro.api.executors import _resolve_pairs

        network = store.network(request.scenario)
        pairs = _resolve_pairs(request, network)
        workers = max(1, min(self._workers, len(pairs)))
        # One contiguous chunk per worker preserves pair order on reassembly.
        chunk_size = max(1, (len(pairs) + workers - 1) // workers)
        chunks = [
            pairs[start : start + chunk_size]
            for start in range(0, len(pairs), chunk_size)
        ]
        tasks = [(request.scenario, chunk, request.size_bound) for chunk in chunks]
        payloads = [
            payload
            for group in parallel_map(_route_chunk_task, tasks, workers)
            for payload in group
        ]
        return assemble_route_batch(request, pairs, payloads)
