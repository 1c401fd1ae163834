"""Admission control and accounting for the routing daemon.

The daemon's concurrency story is deliberately simple: every accepted task
becomes a :class:`Job` in one bounded :class:`TaskQueue`; a fixed set of
dispatch threads takes jobs straight from it (:meth:`TaskQueue.take`) and
runs :meth:`repro.api.Session.submit`.  Admission is all-or-nothing at the
queue — when the bound is reached the HTTP layer answers ``429
Retry-After`` immediately, so overload is *visible to clients* instead of
accumulating as unbounded buffering or silent latency (real backpressure,
in the spirit of serving heterogeneous client populations).

:class:`LatencyHistogram` records per-task-type end-to-end latency (enqueue
to completion) in fixed logarithmic buckets — constant memory however much
traffic passes — and estimates p50/p99 from the bucket counts for the
``/metrics`` endpoint.  All counters live here so ``handlers``/``app`` stay
free of bookkeeping.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Job", "LatencyHistogram", "QueueFull", "TaskQueue"]

#: Upper bounds of the latency buckets, in seconds; the last bucket is open.
LATENCY_BUCKET_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class QueueFull(Exception):
    """Raised on admission when the queue is at capacity (HTTP layer -> 429)."""


@dataclass
class Job:
    """One accepted task: the decoded request plus its completion future."""

    request: object
    backend: Optional[str]
    future: "asyncio.Future"
    enqueued_at: float = field(default_factory=time.perf_counter)

    @property
    def task_name(self) -> str:
        """The task-type label metrics are keyed by (``route``, ``sweep``, ...)."""
        return getattr(self.request, "task", type(self.request).__name__)


class LatencyHistogram:
    """Fixed-bucket latency record with percentile estimates.

    Percentiles are read from the bucket cumulative counts: the reported
    value is the upper bound of the first bucket reaching the rank, i.e. a
    guaranteed *over*-estimate within one bucket width — the right bias for
    an alerting surface.
    """

    __slots__ = ("count", "total_seconds", "max_seconds", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.buckets = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        """Record one task's end-to-end latency."""
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        for index, bound in enumerate(LATENCY_BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def quantile_seconds(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 when empty)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            cumulative += bucket
            if cumulative >= rank:
                if index < len(LATENCY_BUCKET_BOUNDS):
                    return LATENCY_BUCKET_BOUNDS[index]
                return self.max_seconds
        return self.max_seconds

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view for ``/metrics`` (milliseconds for the headline numbers)."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "mean_ms": round(mean * 1000, 3),
            "p50_ms": round(self.quantile_seconds(0.50) * 1000, 3),
            "p99_ms": round(self.quantile_seconds(0.99) * 1000, 3),
            "max_ms": round(self.max_seconds * 1000, 3),
            "bucket_bounds_ms": [b * 1000 for b in LATENCY_BUCKET_BOUNDS],
            "bucket_counts": list(self.buckets),
        }


class TaskQueue:
    """The bounded admission queue plus every counter ``/metrics`` reports.

    ``capacity`` bounds accepted-but-unfinished jobs — queued *and*
    executing — so a task taken by a dispatch thread still holds its
    admission slot until it completes; that is what makes the 429 threshold
    meaningful to a client measuring outstanding requests.  Admission
    (``try_admit``) and completion (``job_done``) run on the event loop and
    never await, so a batch admission of N jobs is atomic with respect to
    other connections; only :meth:`take` runs on the dispatch threads.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._pending: "queue.SimpleQueue[Optional[Job]]" = queue.SimpleQueue()
        self._closed = False
        # ``executing`` is the one counter both sides change.
        self._lock = threading.Lock()
        self.outstanding = 0  # admitted, not yet completed (queued + executing)
        self.executing = 0
        self.peak_outstanding = 0
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.latency: Dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------ #
    # Admission / dispatch
    # ------------------------------------------------------------------ #

    def room_for(self, jobs: int) -> bool:
        """Whether ``jobs`` more admissions fit under the capacity bound."""
        return self.outstanding + jobs <= self.capacity

    def try_admit(self, job: Job) -> None:
        """Admit one job or raise :class:`QueueFull`; never blocks."""
        if not self.room_for(1):
            self.rejected += 1
            raise QueueFull(
                f"queue at capacity ({self.outstanding}/{self.capacity} outstanding)"
            )
        self.outstanding += 1
        self.accepted += 1
        if self.outstanding > self.peak_outstanding:
            self.peak_outstanding = self.outstanding
        self._pending.put(job)

    def note_rejected(self, jobs: int) -> None:
        """Record ``jobs`` rejections that bypassed :meth:`try_admit`.

        The batch endpoint pre-checks :meth:`room_for` so a batch is
        admitted all-or-nothing; when it does not fit, every task in it
        counts as rejected here.
        """
        self.rejected += jobs

    def take(self) -> Optional[Job]:
        """Dispatch-thread side: block for the next job (``None`` = stop)."""
        job = self._pending.get()
        if job is None or self._closed:
            return None
        with self._lock:
            self.executing += 1
        return job

    async def next_job(self) -> Optional[Job]:
        """:meth:`take` for a caller on an event loop (blocks a worker thread)."""
        return await asyncio.to_thread(self.take)

    def close(self, consumers: int) -> None:
        """Hand out no more jobs: the next :meth:`take` of each of
        ``consumers`` threads returns ``None``, whatever is still queued."""
        self._closed = True
        for _ in range(consumers):
            self._pending.put(None)

    def job_done(self, job: Job, ok: bool) -> None:
        """Release the admission slot and record the job's latency."""
        with self._lock:
            self.executing -= 1
        self.outstanding -= 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        name = job.task_name
        histogram = self.latency.get(name)
        if histogram is None:
            histogram = self.latency[name] = LatencyHistogram()
        histogram.observe(time.perf_counter() - job.enqueued_at)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet taken by a dispatch thread."""
        return self.outstanding - self.executing

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe queue view for ``/metrics``."""
        return {
            "capacity": self.capacity,
            "depth": self.depth,
            "executing": self.executing,
            "outstanding": self.outstanding,
            "peak_outstanding": self.peak_outstanding,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
        }
