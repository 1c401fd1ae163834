"""In-memory span tracing installed around the package's layer boundaries.

Nothing here edits ``src/``: :func:`install` replaces public functions and
methods of each layer with timing wrappers, in place, for the life of the
process.  A span is ``(id, name, start, end, parent, request, pid)``; the
parent is the innermost open span of the same thread or asyncio task (kept
in a context variable), and ``request`` is the identifier the benchmark (or
the traced daemon) gave the operation the span belongs to.  Spans and
counters stay in memory and are written out once, as JSON lines, when the
process (or, for pool workers, the shard group) finishes.

:func:`layer_metrics` turns the spans of one traced phase into the
per-layer metrics: self time (a span's duration minus the part its direct
children cover) summed per layer, plus the counters recorded at the same
boundaries.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_STACK: "contextvars.ContextVar[Tuple[int, ...]]" = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_REQUEST: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Span name of the benchmark's own operation; its self time is the part of
#: an operation no layer span covers.
ROOT = "bench.op"


class Tracer:
    """Collects spans and counters for one process (reset in forked children)."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        #: The process that created the tracer; forked pool workers differ.
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.RLock()
        self._flushes = 0

    # -- recording ------------------------------------------------------ #

    def _own(self) -> None:
        # A forked pool worker inherits the parent's spans; it reports only
        # its own, so the first record in a new process starts empty.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = {}
            self._flushes = 0

    def record(self, span_id: int, name: str, start: float, end: float,
               parent: Optional[int], request: Optional[int]) -> None:
        with self._lock:
            self._own()
            self.spans.append((span_id, name, start, end, parent, request, self.pid))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._own()
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self._own()
            self.counts[name] = max(self.counts.get(name, 0), value)

    def new_request(self) -> int:
        """A fresh request identifier, made current for this context."""
        request = next(self._requests)
        _REQUEST.set(request)
        return request

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result, state)`` counts.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after`` (used to see whether a call was a cache miss).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    # -- output --------------------------------------------------------- #

    def dump(self, path: str) -> None:
        """Write this process's spans and counters as JSON lines."""
        with self._lock:
            self._own()
            spans, counts = list(self.spans), dict(self.counts)
            self.spans, self.counts = [], {}
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(["span", *span]) + "\n")
            handle.write(json.dumps(["counts", self.pid, counts]) + "\n")

    def flush_worker(self) -> None:
        """Pool workers write their spans out per process, per shard group."""
        if self.out_dir is None:
            return
        self._flushes += 1
        self.dump(os.path.join(self.out_dir, f"spans-{os.getpid()}-{self._flushes}.jsonl"))

    def take(self) -> Tuple[List[Tuple], Dict[str, float]]:
        """Remove and return this process's spans and counters."""
        with self._lock:
            self._own()
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], {}
        return spans, counts


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "token", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = _STACK.get()
        self.span_id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        self.token = _STACK.set(stack + (self.span_id,))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _STACK.reset(self.token)
        self.tracer.record(self.span_id, self.name, self.start, end,
                           self.parent, _REQUEST.get())


def read_dump(path: str) -> Tuple[List[Tuple], Dict[str, float]]:
    """Spans and summed counters from a file written by :meth:`Tracer.dump`."""
    spans: List[Tuple] = []
    counts: Dict[str, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry[0] == "span":
                spans.append(tuple(entry[1:]))
            else:
                merge_counts(counts, entry[2])
    return spans, counts


def merge_counts(into: Dict[str, float], other: Dict[str, float]) -> None:
    for name, value in other.items():
        if name.endswith(".peak"):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


# --------------------------------------------------------------------------- #
# Installation: wrap each layer's public calls in place
# --------------------------------------------------------------------------- #


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _wrap_function(tracer: Tracer, module, attribute: str, name: str, **hooks) -> None:
    original = getattr(module, attribute)
    _replace_everywhere(original, tracer.wrap(original, name, **hooks))


def _wrap_method(tracer: Tracer, cls, attribute: str, name: str, **hooks) -> None:
    setattr(cls, attribute, tracer.wrap(getattr(cls, attribute), name, **hooks))


def install(tracer: Tracer) -> None:
    """Wrap the library layers (everything but the daemon) for ``tracer``."""
    import repro.analysis.experiments as experiments
    import repro.analysis.runner as runner
    import repro.api.envelope as envelope
    import repro.api.executors as executors
    import repro.api.session as session
    import repro.core.batch_kernel as batch_kernel
    import repro.core.counting as counting
    import repro.core.engine as engine
    import repro.core.kernel_store as kernel_store
    import repro.core.reliable_broadcast as reliable_broadcast
    import repro.core.universal as universal
    import repro.provenance.log as provenance_log

    _wrap_function(tracer, experiments, "build_scenario", "experiments.build_scenario")

    def compiles_before(args):
        return args[0].kernel_compiles

    def compiles_after(args, _result, before):
        tracer.count("kernel_store.compiles", args[0].kernel_compiles - before)

    _wrap_method(tracer, kernel_store.KernelStore, "kernel_for", "kernel_store.kernel_for",
                 before=compiles_before, after=compiles_after)

    def sequence_miss(args):
        provider, n = args[0], args[1]
        return n not in provider._cache

    def sequence_after(_args, result, missed):
        if missed:
            tracer.count("universal.offsets_materialised", len(result))

    _wrap_method(tracer, universal.RandomSequenceProvider, "sequence_for",
                 "universal.sequence_for", before=sequence_miss, after=sequence_after)

    def scalar_route(_args, result, _state):
        tracer.count("engine.scalar_pairs")
        tracer.count("engine.virtual_steps",
                     result.forward_virtual_steps + result.backward_virtual_steps)

    def schedule_route(_args, result, _state):
        tracer.count("engine.scalar_pairs")
        tracer.count("engine.virtual_steps", result.steps_taken)

    _wrap_method(tracer, engine.PreparedNetwork, "route", "engine.route", after=scalar_route)
    _wrap_method(tracer, engine.PreparedSchedule, "route", "engine.route", after=schedule_route)
    _wrap_method(tracer, engine.PreparedNetwork, "reference_route_many",
                 "engine.reference_route_many")
    _wrap_method(tracer, engine.PreparedSchedule, "reference_route_many",
                 "engine.reference_route_many")

    def static_accounts(accounts) -> None:
        tracer.count("batch_kernel.virtual_steps", sum(
            account.forward_steps + account.backward_steps for account in accounts.values()))

    def batched_after(args, result, _state):
        tracer.count("batch_kernel.lockstep_pairs", len(args[1]))
        static_accounts(result[0])

    def multigraph_after(args, result, _state):
        tracer.count("batch_kernel.lockstep_pairs", sum(len(job[1]) for job in args[1]))
        static_accounts(result[0])

    def schedule_after(args, result, _state):
        tracer.count("batch_kernel.lockstep_pairs", len(args[1]))
        tracer.count("batch_kernel.virtual_steps", sum(a.steps_taken for a in result))

    _wrap_method(tracer, batch_kernel.BatchedWalk, "run", "batch_kernel.batched_run",
                 after=batched_after)
    _wrap_method(tracer, batch_kernel.MultiGraphWalk, "run", "batch_kernel.multigraph_run",
                 after=multigraph_after)
    _wrap_method(tracer, batch_kernel.ScheduleBatchedWalk, "run", "batch_kernel.schedule_run",
                 after=schedule_after)

    _wrap_function(tracer, counting, "count_nodes", "counting.count_nodes")
    _wrap_function(tracer, reliable_broadcast, "broadcast_reliably", "reliable_broadcast.run")

    _wrap_method(tracer, session.Session, "submit", "api.submit")
    _wrap_function(tracer, executors, "result_provenance", "api.result_provenance")
    _wrap_function(tracer, envelope, "to_wire", "api.to_wire")

    def log_size(args):
        return os.path.getsize(args[0].path)

    def appended(args, _result, before):
        tracer.count("provenance.records")
        tracer.count("provenance.append_bytes", os.path.getsize(args[0].path) - before)

    _wrap_method(tracer, provenance_log.ResultLog, "append_task", "provenance.append_task",
                 before=log_size, after=appended)
    _wrap_function(tracer, provenance_log, "read_log", "provenance.read_log")

    _wrap_function(tracer, runner, "run_sweep", "runner.run_sweep")
    _wrap_function(tracer, runner, "evaluate_shards", "runner.evaluate_shards")
    group = getattr(runner, "_evaluate_shard_group")
    traced_group = tracer.wrap(group, "runner.worker_group")

    @functools.wraps(group)
    def group_and_flush(*args, **kwargs):
        try:
            return traced_group(*args, **kwargs)
        finally:
            if os.getpid() != tracer.main_pid:
                tracer.flush_worker()

    _replace_everywhere(group, group_and_flush)


def install_server(tracer: Tracer) -> None:
    """Additionally wrap the daemon's decode, queue and dispatch boundaries."""
    import repro.server.app as app
    import repro.server.handlers as handlers
    import repro.server.queueing as queueing

    for attribute in ("decode_task_body", "decode_batch_body"):
        _wrap_function(tracer, handlers, attribute, "server.decode")

    job_requests: Dict[int, Optional[int]] = {}
    server_cls = app.RoutingServer

    original_handle = server_cls._handle_task

    @functools.wraps(original_handle)
    async def handle_task(self, request):
        tracer.new_request()
        return await original_handle(self, request)

    server_cls._handle_task = handle_task

    original_admit = server_cls._admit

    @functools.wraps(original_admit)
    def admit(self, request_obj, backend):
        job = original_admit(self, request_obj, backend)
        job_requests[id(job)] = _REQUEST.get()
        tracer.maximum("server.outstanding.peak", self.queue.outstanding)
        return job

    server_cls._admit = admit

    original_next = queueing.TaskQueue.next_job

    @functools.wraps(original_next)
    async def next_job(self):
        job = await original_next(self)
        if job is not None:
            tracer.record(next(tracer._ids), "server.queue_wait", job.enqueued_at,
                          time.perf_counter(), None, job_requests.get(id(job)))
        return job

    queueing.TaskQueue.next_job = next_job

    traced_run = tracer.wrap(server_cls._run_job, "server.dispatch")

    @functools.wraps(server_cls._run_job)
    def run_job(self, job):
        _REQUEST.set(job_requests.pop(id(job), None))
        return traced_run(self, job)

    server_cls._run_job = run_job


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

#: Span names whose summed self time is a per-layer metric (name + ``_s``).
TIMED_LAYERS = (
    "experiments.build_scenario",
    "kernel_store.kernel_for",
    "universal.sequence_for",
    "engine.route",
    "engine.reference_route_many",
    "batch_kernel.batched_run",
    "batch_kernel.multigraph_run",
    "batch_kernel.schedule_run",
    "counting.count_nodes",
    "reliable_broadcast.run",
    "api.result_provenance",
    "api.to_wire",
    "provenance.append_task",
    "provenance.read_log",
    "server.decode",
    "server.queue_wait",
    "server.dispatch",
    "runner.run_sweep",
    "runner.evaluate_shards",
)


def self_times(spans: Iterable[Tuple]) -> Dict[str, float]:
    """Summed self time per span name (children are matched per process)."""
    spans = list(spans)
    covered: Dict[Tuple[int, int], float] = {}
    for span_id, _name, start, end, parent, _request, pid in spans:
        if parent is not None:
            key = (pid, parent)
            covered[key] = covered.get(key, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _parent, _request, pid in spans:
        own = (end - start) - covered.get((pid, span_id), 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def layer_metrics(spans: List[Tuple], counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values of one traced phase."""
    own = self_times(spans)
    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        metrics[name + "_s"] = own.get(name, 0.0)
    metrics["api.submit_self_s"] = own.get("api.submit", 0.0)
    metrics["bench.unattributed_s"] = own.get(ROOT, 0.0)
    metrics["runner.worker_busy_s"] = sum(
        end - start for _i, name, start, end, _p, _r, _pid in spans
        if name == "runner.worker_group"
    )
    for name in (
        "kernel_store.compiles",
        "universal.offsets_materialised",
        "engine.virtual_steps",
        "engine.scalar_pairs",
        "batch_kernel.virtual_steps",
        "batch_kernel.lockstep_pairs",
        "provenance.records",
        "provenance.append_bytes",
    ):
        metrics[name] = counts.get(name, 0)
    metrics["server.peak_outstanding"] = counts.get("server.outstanding.peak", 0)
    walked = metrics["engine.virtual_steps"] + metrics["batch_kernel.virtual_steps"]
    materialised = metrics["universal.offsets_materialised"]
    metrics["universal.offsets_used_ratio"] = walked / materialised if materialised else 0.0
    pairs = metrics["batch_kernel.lockstep_pairs"] + metrics["engine.scalar_pairs"]
    metrics["batch_kernel.lockstep_pair_share"] = (
        metrics["batch_kernel.lockstep_pairs"] / pairs if pairs else 0.0
    )
    return metrics


# --------------------------------------------------------------------------- #
# The traced run's report
# --------------------------------------------------------------------------- #

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name + "_s": "s" for name in TIMED_LAYERS},
    "api.submit_self_s": "s",
    "bench.unattributed_s": "s",
    "runner.worker_busy_s": "s",
    "runner.pool_overhead_s": "s",
    "server.http_overhead_s": "s",
    "server.peak_outstanding": "count",
    "server.queue_depth_end": "count",
    "kernel_store.compiles": "count",
    "universal.offsets_materialised": "count",
    "universal.offsets_used_ratio": "ratio",
    "engine.virtual_steps": "count",
    "engine.scalar_pairs": "count",
    "batch_kernel.virtual_steps": "count",
    "batch_kernel.lockstep_pairs": "count",
    "batch_kernel.lockstep_pair_share": "ratio",
    "provenance.records": "count",
    "provenance.append_bytes": "bytes",
    "loadgen.late_ms": "ms",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.selfcheck_gap_s": "s",
    "trace.catch_all_share": "ratio",
}

#: Share of the untraced wall time the self-check tolerates beyond the
#: measured tracing overhead.
SELFCHECK_SLACK = 0.10

#: Spans whose self time is the catch-all of a timeline: the benchmark's own
#: operation, ``Session.submit`` (the outermost library call) and a pool
#: worker's shard group.  Their self time is whatever the narrower layer
#: spans under them leave uncovered, so it is not counted as a layer.
CATCH_ALL = (ROOT, "api.submit", "runner.worker_group")

#: Largest share of the traced wall time the catch-all may take.  A layer
#: left unwrapped shows up as catch-all time and fails the check.
CATCH_ALL_CEILING = 0.10


def top_level_seconds(spans: Iterable[Tuple]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _i, _n, start, end, parent, _r, _pid in spans if parent is None)


def summarise(spans: List[Tuple], counts: Dict[str, float], untraced_wall: float,
              traced_wall: float, extra: Optional[Dict[str, float]] = None,
              residual: Optional[str] = None, critical: Optional[List[Tuple]] = None):
    """Per-layer metrics, report lines and self-check problems of a traced run.

    ``critical`` are the spans that lie on the run's timeline (all of them
    unless the layers ran in parallel, as pool workers do).  Their self time
    splits into the named layers and the catch-all (``CATCH_ALL``).  With
    ``residual`` (``server.http_overhead_s`` or ``runner.pool_overhead_s``)
    part of the timeline is not spanned: that metric is the traced wall time
    minus the spans laid on it, and it counts as a named layer.

    The self-check fails when any of these does not hold:

    * coverage: the named layers add up to the untraced wall time, within
      the tracing overhead plus ``SELFCHECK_SLACK``;
    * the catch-all takes at most ``CATCH_ALL_CEILING`` of the traced wall
      (an unwrapped layer lands there);
    * all self times together fit in the traced wall, within the slack (a
      span that escapes its parent is counted twice);
    * the residual, if any, is not negative beyond the slack (a span lies
      outside the wall time it is subtracted from).
    """
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(layer_metrics(spans, counts))
    metrics.update(extra or {})
    own = self_times(spans if critical is None else critical)
    catch_all = sum(own.get(name, 0.0) for name in CATCH_ALL)
    named = sum(value for name, value in own.items() if name not in CATCH_ALL)
    if residual is not None:
        named += metrics[residual]
    overhead = traced_wall - untraced_wall
    slack = SELFCHECK_SLACK * untraced_wall
    gap = untraced_wall - named
    share = catch_all / traced_wall if traced_wall > 0 else 0.0
    checks = [
        (abs(gap) <= abs(overhead) + slack,
         f"named layers {named:.4f} s vs untraced wall {untraced_wall:.4f} s: "
         f"gap {gap:+.4f} s, allowed +/-{abs(overhead) + slack:.4f} s"),
        (share <= CATCH_ALL_CEILING,
         f"catch-all self time {catch_all:.4f} s is {share:.1%} of the traced wall, "
         f"ceiling {CATCH_ALL_CEILING:.0%}"),
        (named + catch_all <= traced_wall + slack,
         f"all self times {named + catch_all:.4f} s vs traced wall {traced_wall:.4f} s"),
    ]
    if residual is not None:
        checks.append((metrics[residual] >= -slack,
                       f"{residual} = {metrics[residual]:.4f} s is not negative"))
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.selfcheck_gap_s": gap,
        "trace.catch_all_share": share,
    })
    report = [f"  {'layer self time':<34} {'seconds':>14}  share of traced wall"]
    for name in sorted(PER_LAYER_UNITS):
        if PER_LAYER_UNITS[name] == "s" and not name.startswith("trace."):
            part = metrics[name] / traced_wall if traced_wall > 0 else 0.0
            report.append(f"  {name:<34} {metrics[name]:>14.6f}  {part:6.1%}")
    for name in sorted(PER_LAYER_UNITS):
        if PER_LAYER_UNITS[name] != "s" or name.startswith("trace."):
            report.append(f"  {name:<34} {metrics[name]:>14.6g} {PER_LAYER_UNITS[name]}")
    for ok, basis in checks:
        report.append(f"  self-check {'ok' if ok else 'FAILED'}: {basis}")
    report.append(f"  tracing overhead {overhead:+.4f} s")
    problems = [f"trace self-check failed: {basis}" for ok, basis in checks if not ok]
    return metrics, report, problems
