"""E-SERVER: the routing daemon under concurrent load, overload and shutdown.

Routing-as-a-service only earns its keep if the daemon holds up under the
client populations the paper's setting implies — many independent devices
firing requests at once.  This harness spawns the real daemon
(``python -m repro.server``) as a subprocess and drives it through four
phases, each pinning one acceptance property:

* **load** — hundreds of concurrent single-shot clients plus one large
  streamed batch (thousands of tasks in flight overall).  Every response
  must be a parseable ``TaskResult`` envelope: zero dropped, zero corrupted.
  Client-side p50/p99 latency and the server's ``peak_outstanding`` (the
  concurrent in-flight high-water mark, >= 500 in full mode) are reported.
* **backpressure** — a daemon with a tiny queue is deliberately overloaded;
  every overflow must be an *immediate* structured ``429`` with
  ``Retry-After`` (never a hang), and accepted work still completes.
* **drain** — SIGTERM lands while a batch is streaming; the daemon must
  finish the in-flight work, close cleanly and exit 0.
* **parity** — served results are bit-identical (timing stripped) to
  ``Session.submit`` inline in this process.

Emits ``benchmarks/output/BENCH_server.json`` for ``tools/check_bench.py``.
Run standalone (CI smoke mode) with::

    PYTHONPATH=src SERVER_BENCH_SMOKE=1 python benchmarks/bench_server.py
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

from bench_utils import emit_bench_json, emit_table
from repro.analysis.experiments import ScenarioSpec
from repro.api.envelope import to_json
from repro.api.requests import ConnectivityRequest, CountRequest, RouteBatchRequest, RouteRequest
from repro.api.session import Session
from repro.server.client import ServerError, TaskClient, http_request

SMOKE = os.environ.get("SERVER_BENCH_SMOKE", "") not in ("", "0") or os.environ.get(
    "ENGINE_BENCH_SMOKE", ""
) not in ("", "0")

#: Load-phase shape.  Full mode: 600 concurrent single-shot clients + a
#: 1200-task streamed batch = 1800 tasks, with the batch alone guaranteeing a
#: >= 500 concurrent in-flight high-water mark (admission is atomic).
CLIENTS = 60 if SMOKE else 600
BATCH_TASKS = 120 if SMOKE else 1200
MIN_IN_FLIGHT = 50 if SMOKE else 500
OVERLOAD_ATTEMPTS = 12 if SMOKE else 40

SPEC = ScenarioSpec(name="bench-srv", family="grid", size=16, seed=0)
RING = ScenarioSpec(name="bench-srv-ring", family="ring", size=12, seed=1)
#: Backpressure tasks are deliberately slower (larger batch routes) so the
#: single-dispatcher daemon cannot drain its 2-slot queue between arrivals.
SLOW = ScenarioSpec(name="bench-srv-slow", family="grid", size=100, seed=2)

_READY = re.compile(r"listening on http://([\d.]+):(\d+)")


class Daemon:
    """One ``python -m repro.server`` subprocess and its parsed address."""

    def __init__(self, *args: str) -> None:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        deadline = time.monotonic() + 30
        line = ""
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            match = _READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                break
        raise RuntimeError(f"daemon did not come up (last line: {line!r})")

    def client(self) -> TaskClient:
        return TaskClient(self.host, self.port)

    def sigterm_and_wait(self, timeout: float = 30) -> int:
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


# --------------------------------------------------------------------------- #
# Phase 1: concurrent load
# --------------------------------------------------------------------------- #


def _mixed_request(index: int):
    if index % 3 == 0:
        return RouteRequest(scenario=SPEC, source=0, target=(index % 15) + 1)
    if index % 3 == 1:
        return CountRequest(scenario=RING, source=index % 12)
    return ConnectivityRequest(scenario=SPEC, source=index % 16, target=(index * 7) % 16)


def run_load_phase() -> dict:
    daemon = Daemon("--queue-capacity", "4096", "--concurrency", "4")
    try:

        async def drive():
            client = daemon.client()
            latencies = []
            dropped = corrupted = 0

            async def single(index: int):
                nonlocal dropped, corrupted
                started = time.perf_counter()
                try:
                    result = await client.submit(_mixed_request(index))
                except (ServerError, ConnectionError, OSError):
                    dropped += 1
                    return
                latencies.append(time.perf_counter() - started)
                # The status vocabulary is per-task ("success", "ok",
                # "connected", ...); corruption means the envelope did not
                # survive the wire, not a particular outcome.
                if not isinstance(result.status, str) or not result.status:
                    corrupted += 1

            async def batch():
                nonlocal dropped, corrupted
                requests = [
                    RouteRequest(scenario=SPEC, source=index % 16, target=(index * 5 + 1) % 16)
                    for index in range(BATCH_TASKS)
                ]
                try:
                    results = await client.submit_many(requests)
                except (ServerError, ConnectionError, OSError):
                    dropped += BATCH_TASKS
                    return
                for result in results:
                    if result is None or not result.status:
                        corrupted += 1

            started = time.perf_counter()
            await asyncio.gather(batch(), *(single(index) for index in range(CLIENTS)))
            elapsed = time.perf_counter() - started
            metrics = await client.metrics()
            return latencies, dropped, corrupted, elapsed, metrics

        latencies, dropped, corrupted, elapsed, metrics = asyncio.run(drive())
    finally:
        daemon.kill()

    latencies.sort()
    total = CLIENTS + BATCH_TASKS

    def quantile(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "total_requests": total,
        "ok": total - dropped - corrupted,
        "dropped": dropped,
        "corrupted": corrupted,
        "peak_in_flight": metrics["queue"]["peak_outstanding"],
        "completed": metrics["queue"]["completed"],
        "p50_ms": round(quantile(0.50) * 1000, 3),
        "p99_ms": round(quantile(0.99) * 1000, 3),
        "elapsed_seconds": elapsed,
        "throughput_rps": round(total / elapsed, 1) if elapsed > 0 else 0.0,
        "server_route_p99_ms": metrics["latency"].get("route", {}).get("p99_ms"),
    }


# --------------------------------------------------------------------------- #
# Phase 2: backpressure — overload answers 429 immediately, never hangs
# --------------------------------------------------------------------------- #


def run_backpressure_phase() -> dict:
    daemon = Daemon("--queue-capacity", "2", "--concurrency", "1")
    try:

        async def drive():
            body = to_json(
                RouteBatchRequest(scenario=SLOW, num_pairs=16, pair_seed=9)
            ).encode()

            async def attempt():
                started = time.perf_counter()
                reply = await http_request(
                    daemon.host, daemon.port, "POST", "/v1/task", body=body
                )
                return reply, time.perf_counter() - started

            replies = await asyncio.gather(*(attempt() for _ in range(OVERLOAD_ATTEMPTS)))
            metrics = await daemon.client().metrics()
            return replies, metrics

        replies, metrics = asyncio.run(drive())
    finally:
        daemon.kill()

    accepted = sum(1 for reply, _ in replies if reply.status == 200)
    rejected = [reply for reply, _ in replies if reply.status == 429]
    other = OVERLOAD_ATTEMPTS - accepted - len(rejected)
    reject_latencies = sorted(
        elapsed for reply, elapsed in replies if reply.status == 429
    )
    return {
        "attempts": OVERLOAD_ATTEMPTS,
        "accepted": accepted,
        "rejected_429": len(rejected),
        "other_status": other,
        "retry_after_on_all_429s": all(
            "retry-after" in reply.headers for reply in rejected
        ),
        "server_rejected": metrics["queue"]["rejected"],
        "max_429_latency_ms": round(reject_latencies[-1] * 1000, 1)
        if reject_latencies
        else None,
    }


# --------------------------------------------------------------------------- #
# Phase 3: SIGTERM drain with a batch in flight
# --------------------------------------------------------------------------- #


def run_drain_phase() -> dict:
    daemon = Daemon("--queue-capacity", "512", "--concurrency", "2")
    tasks = 24 if SMOKE else 96

    async def drive():
        client = daemon.client()
        requests = [
            RouteBatchRequest(scenario=SLOW, num_pairs=4, pair_seed=index)
            for index in range(tasks)
        ]
        in_flight = asyncio.ensure_future(client.submit_many(requests))
        await asyncio.sleep(0.3)  # let the batch start executing
        daemon.process.send_signal(signal.SIGTERM)
        try:
            results = await in_flight
            completed = sum(1 for result in results if result.status == "ok")
        except (ServerError, ConnectionError, OSError):
            completed = -1
        return completed

    try:
        completed = asyncio.run(drive())
        exit_code = daemon.process.wait(timeout=60)
    finally:
        daemon.kill()
    return {
        "tasks": tasks,
        "batch_completed": completed == tasks,
        "exit_code": exit_code,
        "clean": exit_code == 0 and completed == tasks,
    }


# --------------------------------------------------------------------------- #
# Phase 4: parity — served == inline, bit for bit (timing stripped)
# --------------------------------------------------------------------------- #


def run_parity_phase() -> dict:
    requests = [
        RouteRequest(scenario=SPEC, source=0, target=15),
        CountRequest(scenario=RING, source=2),
        ConnectivityRequest(scenario=SPEC, source=0, target=9),
        RouteBatchRequest(scenario=SPEC, num_pairs=4, pair_seed=3),
    ]
    reference = Session()
    expected = [to_json(reference.submit(request).replace_timing(0.0)) for request in requests]

    daemon = Daemon()
    try:

        async def drive():
            client = daemon.client()
            return [
                to_json((await client.submit(request)).replace_timing(0.0))
                for request in requests
            ]

        served = asyncio.run(drive())
    finally:
        daemon.kill()
    return {"checked": len(requests), "identical": served == expected}


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #


def run_server_benchmark() -> dict:
    return {
        "load": run_load_phase(),
        "backpressure": run_backpressure_phase(),
        "drain": run_drain_phase(),
        "parity": run_parity_phase(),
    }


def _emit(report: dict) -> None:
    load = report["load"]
    pressure = report["backpressure"]
    rows = [
        [
            "concurrent load",
            f"{load['total_requests']} tasks",
            f"peak in-flight {load['peak_in_flight']}",
            f"p50 {load['p50_ms']} ms / p99 {load['p99_ms']} ms",
        ],
        [
            "backpressure",
            f"{pressure['attempts']} attempts",
            f"{pressure['rejected_429']} x 429",
            f"accepted {pressure['accepted']}, other {pressure['other_status']}",
        ],
        [
            "SIGTERM drain",
            f"{report['drain']['tasks']} tasks in flight",
            f"exit {report['drain']['exit_code']}",
            "clean" if report["drain"]["clean"] else "NOT CLEAN",
        ],
        [
            "parity",
            f"{report['parity']['checked']} request types",
            "bit-identical" if report["parity"]["identical"] else "DIVERGED",
            "timing stripped",
        ],
    ]
    emit_table(
        "E_server_routing_as_a_service",
        f"E-SERVER — routing daemon under load ({'smoke' if SMOKE else 'full'} mode)",
        ["phase", "scale", "outcome", "detail"],
        rows,
        notes=(
            "The daemon is the real subprocess entry point "
            "(python -m repro.server); all clients are concurrent asyncio "
            "connections.  Overload is answered with structured 429 + "
            "Retry-After, never buffered or hung."
        ),
    )
    emit_bench_json(
        "server",
        {
            "mode": "smoke" if SMOKE else "full",
            "config": {
                "clients": CLIENTS,
                "batch_tasks": BATCH_TASKS,
                "min_in_flight": MIN_IN_FLIGHT,
                "overload_attempts": OVERLOAD_ATTEMPTS,
            },
            **report,
        },
    )


def _check(report: dict) -> str:
    """Return an error message, or '' when the report meets the bar."""
    load = report["load"]
    if load["dropped"] or load["corrupted"]:
        return (
            f"load phase lost envelopes: {load['dropped']} dropped, "
            f"{load['corrupted']} corrupted"
        )
    if load["peak_in_flight"] < MIN_IN_FLIGHT:
        return (
            f"peak in-flight {load['peak_in_flight']} is below the "
            f"{MIN_IN_FLIGHT} bar"
        )
    if report["backpressure"]["rejected_429"] < 1:
        return "overload never produced a 429 — the queue bound is not enforced"
    if report["backpressure"]["other_status"]:
        return "overload produced a status other than 200/429"
    if not report["backpressure"]["retry_after_on_all_429s"]:
        return "a 429 response was missing its Retry-After header"
    if not report["drain"]["clean"]:
        return (
            f"SIGTERM drain was not clean (exit {report['drain']['exit_code']}, "
            f"batch completed: {report['drain']['batch_completed']})"
        )
    if not report["parity"]["identical"]:
        return "served results are not bit-identical to the inline session"
    return ""


def main() -> int:
    """Standalone entry point (no pytest needed; used by the CI smoke step)."""
    report = run_server_benchmark()
    _emit(report)
    error = _check(report)
    if error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    load = report["load"]
    print(
        f"ok: {load['total_requests']} tasks, peak in-flight "
        f"{load['peak_in_flight']}, p99 {load['p99_ms']} ms, "
        f"{report['backpressure']['rejected_429']} structured 429s, "
        "drain clean, parity bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
