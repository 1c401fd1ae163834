"""``serve-mixed``: the HTTP daemon under a fixed mix, open and closed loop.

A real ``python -m repro.server --concurrency 2 --result-log ...`` daemon is
started and warmed (every distinct request once) during set-up.  The load
generator then sends, over two keep-alive connections, a seeded mix of
single routes, node counts, connectivity decisions, 8-pair batches and
small reliable broadcasts, with a few ``GET /v1/log`` and ``GET /metrics``
reads, at each rate of a fixed ladder.  Latency runs from each request's
due time, so a stall also delays the requests queued behind it.  A rate is
met when its p99 stays under ``LIMIT_MS``, nothing fails, and the backlog
at the end of the rate (client side and the daemon's queue depth from
``/metrics``) is no larger than the two connections can hold.

Two closed loops over the tasks alone then give the gated figures: one
request at a time on one connection (the service latency, ``op_p50_ms``)
and both connections back to back (requests per daemon CPU second,
``work_per_s``).  Both are scaled to a reference core.

Checks: every served envelope equals the inline ``Session.submit`` result
of the same request, with timing and chain position stripped; any non-200
answer counts as failed.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    SETUP_REPEATS,
    Outcome,
    ReferenceClock,
    child_env,
    median,
    note,
    note_scale,
    percentile,
    rng_for,
    stripped_wire,
)

CONCURRENCY = 2
#: The daemon runs on the last core and the load generator on the first, so
#: the generator never takes the daemon's core.
DAEMON_CORE = max(os.sched_getaffinity(0))
CLIENT_CORE = min(os.sched_getaffinity(0))
#: Requests per second of each open-loop step; the first is the reference.
#: The rungs bracket the rate the mix saturates at (about 100-150 rps: each
#: ``GET /v1/log`` re-reads the whole log), so ``serve_max_rps`` can move
#: both ways; the closed-loop capacity of the tasks alone is far higher.
LADDER = (25, 50, 100, 150, 200, 300)
#: Shares of the run's seconds: the reference rate, each higher rate of the
#: ladder, one request at a time (``op_p50_ms``) and both connections back
#: to back (``work_per_s``).
REFERENCE_SHARE = 0.15
LADDER_SHARE = 0.04
SERVICE_SHARE = 0.35
CAPACITY_SHARE = 0.3
#: p99 latency limit a rate must meet.
LIMIT_MS = 100.0
#: Kind of each open-loop slot, with its weight.  The five task kinds take
#: equal shares, as route, count and connectivity do in the load phase of
#: ``benchmarks/bench_server.py``; one slot in ten is a read, split evenly
#: between ``GET /v1/log`` and ``GET /metrics``.
MIX = (("route", 18), ("count", 18), ("connectivity", 18), ("batch", 18),
       ("broadcast", 18), ("log", 5), ("metrics", 5))
#: asyncio's timers round up to whole milliseconds and a sleeping core wakes
#: late, so the generator sleeps until this long before a due time and spins
#: the rest.
SPIN_S = 0.002
#: Seconds of the reference rate in each half of a traced run.
TRACE_SECONDS = 4.0


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


def _pool(seed: int) -> Dict[str, list]:
    """The distinct requests of the mix, by kind (all on small networks)."""
    from repro.analysis.experiments import ScenarioSpec, build_scenario
    from repro.api import (
        BroadcastReliableRequest,
        ConnectivityRequest,
        CountRequest,
        RouteBatchRequest,
        RouteRequest,
    )

    rng = rng_for(seed, "serve-pool")
    specs = [
        ScenarioSpec(name="serve-grid-16", family="grid", size=16),
        ScenarioSpec(name="serve-torus-16", family="torus", size=16),
        ScenarioSpec(name="serve-ring-12", family="ring", size=12),
        ScenarioSpec(name="serve-prism-12", family="prism", size=12),
    ]
    vertices = {spec.name: sorted(build_scenario(spec).graph.vertices) for spec in specs}
    small = ScenarioSpec(name="serve-ring-7", family="ring", size=7)
    pool: Dict[str, list] = {kind: [] for kind, _ in MIX}
    for spec in specs:
        names = vertices[spec.name]
        for _ in range(3):
            source, target = rng.sample(names, 2)
            pool["route"].append(RouteRequest(scenario=spec, source=source, target=target))
        source, target = rng.sample(names, 2)
        pool["connectivity"].append(
            ConnectivityRequest(scenario=spec, source=source, target=target))
        # A count costs up to 5x more from some sources than from others, so
        # every vertex is a source: a seeded few would move the cost of the
        # mix with the seed.
        pool["count"] += [CountRequest(scenario=spec, source=name) for name in names]
        pool["batch"].append(RouteBatchRequest(scenario=spec, num_pairs=8,
                                               pair_seed=rng.randrange(1 << 20)))
    for _ in range(3):
        pool["broadcast"].append(BroadcastReliableRequest(
            scenario=small, source=rng.randrange(7), num_byzantine=1,
            fault_seed=rng.randrange(1 << 20)))
    return pool


def _mix(seed: int, pool, count: int, label: object, reads: bool = True):
    """``count`` ``(kind, request)`` slots in the exact proportions of ``MIX``.

    Each kind's requests take equal turns, so only the order depends on the
    seed: a seeded share of kinds or requests would move the latency median
    from seed to seed.
    """
    rng = rng_for(seed, "serve-mix", label)
    weights = [(kind, weight) for kind, weight in MIX if reads or pool[kind]]
    total = sum(weight for _kind, weight in weights)
    slots: List[Tuple[str, object]] = []
    for kind, weight in weights:
        # Each request of a kind fills its share of the kind's slots.
        requests = list(pool[kind]) or [None]
        rng.shuffle(requests)
        share = int(round(count * weight / total))
        slots += [(kind, requests[index % len(requests)]) for index in range(share)]
    slots = (slots + slots[:1] * count)[:count]
    rng.shuffle(slots)
    return slots


def _schedule(seed: int, pool, rate: float, seconds: float, label: object):
    """Open-loop slots ``(offset_s, kind, request)``; a final ``/metrics`` read."""
    count = max(1, int(round(rate * seconds)))
    slots = [(index / rate, kind, request)
             for index, (kind, request) in enumerate(_mix(seed, pool, count, label))]
    slots.append((count / rate, "metrics", None))
    return slots


# --------------------------------------------------------------------------- #
# HTTP
# --------------------------------------------------------------------------- #


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
        if method == "POST":
            head += [f"Content-Length: {len(body)}", "Content-Type: application/json"]
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@functools.lru_cache(maxsize=None)
def _call(kind: str, request) -> Tuple[str, str, bytes]:
    """Method, path and body of a slot; each body is encoded once, in warm-up,
    so the timed requests carry no client-side ``to_wire``."""
    if kind == "log":
        return "GET", "/v1/log?limit=50", b""
    if kind == "metrics":
        return "GET", "/metrics", b""
    from repro.api.envelope import to_wire

    return "POST", "/v1/task", json.dumps(to_wire(request)).encode("utf-8")


class Sample:
    """One request of the load: when it was due, sent and answered."""

    __slots__ = ("kind", "request", "due", "late", "sent", "done", "status", "body")

    def __init__(self, kind: str, request, due: float) -> None:
        self.kind, self.request, self.due = kind, request, due
        self.late = self.sent = self.done = 0.0
        self.status, self.body = 0, b""

    @property
    def latency(self) -> float:
        return self.done - self.due


async def _exchange(connections: "asyncio.Queue", sample: Sample) -> None:
    connection = await connections.get()
    try:
        method, path, body = _call(sample.kind, sample.request)
        sample.sent = time.perf_counter()
        sample.status, sample.body = await connection.request(method, path, body)
        sample.done = time.perf_counter()
    finally:
        connections.put_nowait(connection)


async def _open_loop(port: int, slots) -> Tuple[List[Sample], int]:
    """Send every slot at its due time; returns samples and end-of-rate backlog."""
    connections: "asyncio.Queue" = asyncio.Queue()
    opened = [await Connection.open(port) for _ in range(CONCURRENCY)]
    for connection in opened:
        connections.put_nowait(connection)
    samples: List[Sample] = []
    tasks = []
    start = time.perf_counter() + 0.05
    for offset, kind, request in slots:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > SPIN_S:
            await asyncio.sleep(delay - SPIN_S)
        while time.perf_counter() < due:
            pass
        sample = Sample(kind, request, due)
        sample.late = time.perf_counter() - due
        samples.append(sample)
        tasks.append(asyncio.ensure_future(_exchange(connections, sample)))
    backlog = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    for connection in opened:
        await connection.close()
    return samples, backlog


async def _closed_loop(port: int, cursor, seconds: float,
                       connections: int) -> Tuple[List[Sample], float]:
    """``connections`` connections back to back for ``seconds``.

    Each connection takes the next ``(kind, request)`` from ``cursor``.
    """
    samples: List[Sample] = []
    stop = time.perf_counter() + seconds

    async def client() -> None:
        connection = await Connection.open(port)
        try:
            while time.perf_counter() < stop:
                kind, request = next(cursor)
                sample = Sample(kind, request, time.perf_counter())
                method, path, body = _call(kind, request)
                sample.sent = sample.due
                sample.status, sample.body = await connection.request(method, path, body)
                sample.done = time.perf_counter()
                samples.append(sample)
        finally:
            await connection.close()

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    return samples, time.perf_counter() - started


# --------------------------------------------------------------------------- #
# The daemon
# --------------------------------------------------------------------------- #


class Daemon:
    """A daemon subprocess (plain or span-traced) with its result log."""

    def __init__(self, root: str, scratch: str, name: str, traced: bool) -> None:
        self.log_path = os.path.join(scratch, f"{name}.log")
        self.spans_path = os.path.join(scratch, f"{name}.spans") if traced else None
        flags = ["--host", "127.0.0.1", "--port", "0", "--concurrency", str(CONCURRENCY),
                 "--result-log", self.log_path]
        if traced:
            command = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                    "serve_launcher.py"),
                       "--spans", self.spans_path] + flags
        else:
            command = [sys.executable, "-m", "repro.server"] + flags
        self.process = subprocess.Popen(
            command, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {DAEMON_CORE}))
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used, all threads."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def pin(self, core: int) -> None:
        """Move every thread of the daemon to ``core``."""
        for thread in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(thread), {core})

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


#: Windows of each closed loop; the cores swap between them.
WINDOWS = 12


def _windows(daemon: Daemon, clock: ReferenceClock, requests, seconds: float,
             connections: int, shared: bool) -> List[Tuple[List[Sample], float, float]]:
    """A closed loop over ``requests`` in windows that alternate the cores.

    The host's cores drift in speed independently; a figure taken on one
    core measures that core's luck.  With ``shared`` the daemon and the
    generator take the same core, alternating, so no request waits for a
    sleeping core to wake; otherwise they swap cores between windows.  The
    reference snippet is timed on every core before and after each window.
    Returns each window's samples, wall and daemon CPU seconds.
    """
    cores = (DAEMON_CORE, CLIENT_CORE)
    cursor = itertools.cycle(requests)
    windows = []
    try:
        for window in range(WINDOWS):
            _probe(clock)
            daemon_core = cores[window % 2]
            daemon.pin(daemon_core)
            os.sched_setaffinity(0, {daemon_core if shared else cores[1 - window % 2]})
            cpu_before = daemon.cpu_seconds()
            samples, wall = asyncio.run(_closed_loop(
                daemon.port, cursor, seconds / WINDOWS, connections))
            windows.append((samples, wall, daemon.cpu_seconds() - cpu_before))
        _probe(clock)
    finally:
        daemon.pin(DAEMON_CORE)
        os.sched_setaffinity(0, {CLIENT_CORE})
    return windows


def _probe(clock: ReferenceClock) -> None:
    for core in (DAEMON_CORE, CLIENT_CORE):
        os.sched_setaffinity(0, {core})
        clock.probe()


def _warm(port: int, pool) -> None:
    """Every distinct request once, then one log and one metrics read."""
    async def go() -> None:
        connection = await Connection.open(port)
        try:
            for kind, requests in pool.items():
                for request in requests:
                    status, _body = await connection.request(*_call(kind, request))
                    if status != 200:
                        raise RuntimeError(f"warm-up {kind} answered {status}")
            for kind in ("log", "metrics"):
                await connection.request(*_call(kind, None))
        finally:
            await connection.close()

    asyncio.run(go())


def _start(root: str, scratch: str, pool, name: str, traced: bool = False) -> Tuple[float, Daemon]:
    started = time.perf_counter()
    daemon = Daemon(root, scratch, name, traced)
    try:
        _warm(daemon.port, pool)
    except BaseException:
        daemon.stop()
        raise
    return time.perf_counter() - started, daemon


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #


class Verifier:
    """Inline ``Session.submit`` results of the pool, keyed by request."""

    def __init__(self) -> None:
        from repro.api import Session

        self.session = Session()
        self.expected: Dict[object, dict] = {}

    def check(self, samples: List[Sample], problems: List[str]) -> int:
        from repro.api.envelope import from_wire

        failed = 0
        for sample in samples:
            if sample.status != 200:
                failed += 1
                problems.append(f"{sample.kind} answered HTTP {sample.status}")
                continue
            if sample.request is None:
                continue
            if sample.request not in self.expected:
                self.expected[sample.request] = stripped_wire(self.session.submit(sample.request))
            served = stripped_wire(from_wire(json.loads(sample.body)))
            if served != self.expected[sample.request]:
                failed += 1
                problems.append(f"served {sample.kind} differs from inline Session.submit")
        return failed


def _metrics_body(samples: List[Sample]) -> dict:
    return json.loads(samples[-1].body) if samples and samples[-1].status == 200 else {}


def _met(samples: List[Sample], backlog: int, failed: int) -> bool:
    """A rate is met: nothing failed, p99 within the limit, no growing backlog."""
    tasks = [s.latency * 1000.0 for s in samples if s.request is not None]
    depth = _metrics_body(samples).get("queue", {}).get("depth", -1)
    return (failed == 0 and percentile(tasks, 99) <= LIMIT_MS
            and backlog <= 2 * CONCURRENCY and 0 <= depth <= CONCURRENCY)


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #


def run(root: str, seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    pool = _pool(seed)
    if trace:
        return _traced(root, scratch, seed, pool)

    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CLIENT_CORE})
    try:
        return _measured(root, scratch, seed, seconds, pool)
    finally:
        os.sched_setaffinity(0, original)


def _measured(root: str, scratch: str, seed: int, seconds: float, pool) -> Outcome:
    setups = []
    daemon: Optional[Daemon] = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
            os.remove(daemon.log_path)
        elapsed, daemon = _start(root, scratch, pool, "serve")
        setups.append(elapsed)
    clock = ReferenceClock()
    # Every task request equally often: enough slots that each kind's share
    # is a whole number of turns of every kind's requests.
    tasks = [kind for kind, _ in MIX if pool[kind]]
    turns = math.lcm(*(len(pool[kind]) for kind in tasks))
    closed_requests = _mix(seed, pool, len(tasks) * turns, "closed", reads=False)
    try:
        # The open loop runs first, while the log its reads load is short.
        phases = []
        for rate in LADDER:
            share = REFERENCE_SHARE if rate == LADDER[0] else LADDER_SHARE
            slots = _schedule(seed, pool, rate, share * seconds, rate)
            samples, backlog = asyncio.run(_open_loop(daemon.port, slots))
            phases.append((rate, samples, backlog))
            if rate == LADDER[0]:
                # Taken after the same work in every run: how far the ladder
                # climbs sets how long the log the later reads load is.
                rss = daemon.peak_rss_mb()
            if not _met(samples, backlog, sum(s.status != 200 for s in samples)):
                break  # no higher rate can count toward serve_max_rps
        service = _windows(daemon, clock, closed_requests, SERVICE_SHARE * seconds, 1,
                           shared=True)
        capacity = _windows(daemon, clock, closed_requests, CAPACITY_SHARE * seconds,
                            CONCURRENCY, shared=False)
    finally:
        daemon.stop()

    problems: List[str] = []
    verifier = Verifier()
    service_samples = [s for samples, _wall, _cpu in service for s in samples]
    capacity_samples = [s for samples, _wall, _cpu in capacity for s in samples]
    failed = verifier.check(service_samples + capacity_samples, problems)
    attempted = len(service_samples) + len(capacity_samples)
    report: List[str] = []
    max_rps = 0
    all_met = True
    log_reads: List[float] = []
    reference = None
    for rate, samples, backlog in phases:
        attempted += len(samples)
        rate_failed = verifier.check(samples, problems)
        failed += rate_failed
        task_ms = [s.latency * 1000.0 for s in samples if s.request is not None]
        depth = _metrics_body(samples).get("queue", {}).get("depth", -1)
        p50, p99 = median(task_ms), percentile(task_ms, 99)
        late = percentile([s.late * 1000.0 for s in samples], 99)
        met = _met(samples, backlog, rate_failed)
        if met:
            log_reads += [(s.done - s.sent) * 1000.0 for s in samples if s.kind == "log"]
        report.append(
            f"  rate {rate:>4} rps: p50 {p50:7.2f} ms  p99 {p99:7.2f} ms (n={len(task_ms)})  "
            f"late p99 {late:6.2f} ms  backlog {backlog}  queue depth {depth}  "
            f"{'met' if met else 'NOT met'}")
        all_met = all_met and met
        if all_met:
            max_rps = rate
        if reference is None:
            reference = (p50, p99, len(task_ms), late)

    service_ms, by_kind = _typical_latency(service_samples)
    served = len(capacity_samples)
    capacity_wall = sum(wall for _samples, wall, _cpu in capacity)
    capacity_cpu = sum(cpu for _samples, _wall, cpu in capacity)
    # Requests per second of daemon CPU: what one fully busy daemon core
    # serves.  The wall-clock rate also moves with the time the host gives
    # the daemon's core to other work.
    per_cpu_s = served / capacity_cpu
    scale = clock.scale
    p50, p99, count, late = reference
    outcome = Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": median(setups),
            "op_p50_ms": service_ms * scale,
            "work_per_s": per_cpu_s / scale,
            "peak_rss_mb": rss,
        },
        problems=problems,
    )
    lines = outcome.report
    note(lines, "setup_s", median(setups), "s",
         f"median of {SETUP_REPEATS}: daemon start + warm-up of "
         f"{sum(map(len, pool.values()))} requests")
    note(lines, "service_ms", service_ms, "ms",
         f"one task at a time on 1 connection, n={len(service_samples)}: mean over the kinds "
         f"of their requests' median latency")
    for kind, value in by_kind.items():
        note(lines, f"service_ms.{kind}", value, "ms")
    note(lines, "serve_p50_ms", p50, "ms", f"at the reference {LADDER[0]} rps, n={count}")
    note(lines, "serve_p99_ms", p99, "ms", f"at the reference {LADDER[0]} rps, n={count}")
    note(lines, "serve_max_rps", max_rps, "1/s",
         f"highest of {LADDER} with p99 <= {LIMIT_MS:g} ms and no growing backlog")
    note(lines, "serve_capacity_rps", served / capacity_wall, "1/s",
         f"closed loop on {CONCURRENCY} connections, {served} requests")
    note(lines, "serve_per_cpu_s", per_cpu_s, "1/s",
         f"the same requests over {capacity_cpu:.2f} s of daemon CPU")
    note(lines, "log_read_p50_ms", median(log_reads) if log_reads else 0.0, "ms",
         f"GET /v1/log round trip at the rates met, n={len(log_reads)}")
    note(lines, "loadgen.late_ms", late, "ms", "p99 generator lateness at the reference rate")
    note(lines, "peak_rss_mb", rss, "MB", f"daemon, after warm-up and the {LADDER[0]} rps rate")
    note_scale(lines, clock)
    lines.extend(report)
    return outcome


def _typical_latency(samples: List[Sample]) -> Tuple[float, Dict[str, float]]:
    """Mean over the task kinds of the mean of their requests' median latency.

    The kinds' latencies lie in separate clusters (a route takes a third of
    a broadcast), and the median of all samples sits on the edge of one, so
    it jumps between runs; each request's own median does not.
    """
    by_request: Dict[object, List[float]] = {}
    kinds: Dict[object, str] = {}
    for sample in samples:
        by_request.setdefault(sample.request, []).append((sample.done - sample.sent) * 1000.0)
        kinds[sample.request] = sample.kind
    by_kind: Dict[str, List[float]] = {}
    for request, values in by_request.items():
        by_kind.setdefault(kinds[request], []).append(median(values))
    means = {kind: sum(values) / len(values) for kind, values in sorted(by_kind.items())}
    return sum(means.values()) / len(means), means


def _traced(root: str, scratch: str, seed: int, pool) -> Outcome:
    """The reference rate for ``TRACE_SECONDS`` on a plain, then a traced daemon."""
    import spans

    slots = _schedule(seed, pool, LADDER[0], TRACE_SECONDS, "trace")
    runs = []
    for traced in (False, True):
        _elapsed, daemon = _start(root, scratch, pool, f"trace-{int(traced)}", traced=traced)
        try:
            if traced:
                # Drop the spans of the warm-up traffic.
                daemon.signal(signal.SIGUSR1)
            samples, _backlog = asyncio.run(_open_loop(daemon.port, slots))
        finally:
            daemon.stop()
        runs.append(samples)

    problems: List[str] = []
    verifier = Verifier()
    failed = sum(verifier.check(samples, problems) for samples in runs)
    plain, traced_samples = runs

    def round_trips(samples):
        return sum(s.done - s.sent for s in samples)

    # Every daemon span without a parent (decode, queue wait, dispatch,
    # to_wire, log read) lies inside the round trip of the request it
    # served; what the round trips hold beyond them is the HTTP front end.
    recorded, counts = spans.read_dump(daemon.spans_path)
    extra = {
        "server.http_overhead_s": round_trips(traced_samples) - spans.top_level_seconds(recorded),
        "server.queue_depth_end": _metrics_body(traced_samples).get("queue", {}).get("depth", 0),
        "loadgen.late_ms": percentile([s.late * 1000.0 for s in traced_samples], 99),
    }
    metrics, report, trace_problems = spans.summarise(
        recorded, counts, round_trips(plain), round_trips(traced_samples),
        extra=extra, residual="server.http_overhead_s")
    return Outcome(attempted=len(plain) + len(traced_samples), failed=failed,
                   metrics=metrics, report=report, problems=problems + trace_problems)
