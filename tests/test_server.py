"""The routing daemon: wire format, parity, backpressure, drain, metrics.

The server is an HTTP skin over :class:`repro.api.Session`, so the contract
under test is three-fold:

* **Parity** — a result served over the wire is bit-identical (modulo the
  timing field) to the same request submitted inline; the daemon may add
  transport, never semantics.
* **Structured failure** — every client mistake (malformed JSON, unknown
  task kind, oversized body, wrong method/path) is a typed JSON 4xx
  envelope; a Python traceback must never reach the wire.
* **Bounded overload** — when the queue is at capacity the daemon answers
  ``429`` + ``Retry-After`` immediately (never hangs), and a SIGTERM drain
  finishes in-flight work while rejecting new work with ``503``.

Each test runs a real server on an ephemeral port inside ``asyncio.run`` and
talks to it through :class:`repro.server.client.TaskClient` (or raw
:func:`~repro.server.client.http_request` for the malformed-input cases).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import threading

import pytest

from repro.analysis.experiments import ScenarioSpec
from repro.api.backends import Backend
from repro.api.envelope import TaskResult, to_json, to_wire
from repro.api.requests import (
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    SweepRequest,
)
from repro.api.session import Session
from repro.errors import TaskError
from repro.server.app import RoutingServer
from repro.server.client import ServerError, TaskClient, http_request
from repro.server.config import ServerConfig
from repro.server.handlers import HttpError, decode_batch_body, decode_task_body
from repro.server.queueing import LatencyHistogram, TaskQueue

SPEC = ScenarioSpec(name="srv", family="grid", size=16, seed=0)
GRID_144 = ScenarioSpec(name="srv-grid-144", family="grid", size=144, seed=0)
RING = ScenarioSpec(name="srv-ring", family="ring", size=10, seed=1)
DYN = ScenarioSpec(
    name="srv-dyn-ring",
    family="ring",
    size=10,
    seed=1,
    extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 4)),
)


@contextlib.asynccontextmanager
async def running_server(config=None, session=None):
    server = RoutingServer(
        config=config
        if config is not None
        else ServerConfig(port=0, queue_capacity=64, concurrency=2),
        session=session,
    )
    await server.start()
    try:
        yield server
    finally:
        await server.drain_and_stop()


def client_for(server: RoutingServer) -> TaskClient:
    host, port = server.address
    return TaskClient(host, port)


async def raw(server: RoutingServer, method: str, path: str, body=None, headers=None):
    host, port = server.address
    return await http_request(server.config.host, port, method, path, body=body, headers=headers)


# --------------------------------------------------------------------------- #
# Controllable backends for overload/failure scenarios
# --------------------------------------------------------------------------- #


def _stub_result(request, backend: str) -> TaskResult:
    return TaskResult(
        task=getattr(request, "task", "stub"),
        status="success",
        backend=backend,
        payload={"ok": True},
        physical_steps=0,
        virtual_steps=0,
        seed=0,
        elapsed_seconds=0.0,
    )


class GateBackend(Backend):
    """Blocks every task until the test releases the gate."""

    name = "gate"

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()

    def handles(self, request) -> bool:  # noqa: D102 - test stub
        return True

    def run(self, request, store) -> TaskResult:  # noqa: D102 - test stub
        self.started.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("gate was never released")
        return _stub_result(request, self.name)


class SelectiveGateBackend(Backend):
    """Blocks only tasks whose ``target`` is 1; everything else is instant."""

    name = "gate"

    def __init__(self) -> None:
        self.release = threading.Event()

    def handles(self, request) -> bool:  # noqa: D102 - test stub
        return True

    def run(self, request, store) -> TaskResult:  # noqa: D102 - test stub
        if getattr(request, "target", None) == 1:
            if not self.release.wait(timeout=30):
                raise RuntimeError("gate was never released")
        return _stub_result(request, self.name)


class BoomBackend(Backend):
    """Fails every task with an internal error (not a ReproError)."""

    name = "boom"

    def run(self, request, store) -> TaskResult:  # noqa: D102 - test stub
        raise RuntimeError("kaboom — this text may appear, a traceback may not")


class MisuseBackend(Backend):
    """Fails every task with API misuse (a ReproError subclass)."""

    name = "misuse"

    def run(self, request, store) -> TaskResult:  # noqa: D102 - test stub
        raise TaskError("this request/backend combination is invalid")


# --------------------------------------------------------------------------- #
# Happy paths + parity with the inline Session
# --------------------------------------------------------------------------- #


def test_healthz_and_metrics_shapes():
    async def scenario():
        async with running_server() as server:
            client = client_for(server)
            health = await client.healthz()
            assert health == {"status": "ok", "draining": False}
            metrics = await client.metrics()
            assert metrics["server"]["draining"] is False
            assert metrics["server"]["queue_capacity"] == 64
            assert metrics["queue"]["capacity"] == 64
            assert "kernel_compiles" in metrics["cache"]
            assert "session_tasks" in metrics["cache"]

    asyncio.run(scenario())


#: The parity matrix: every request type the inline backend serves, over two
#: topology families.  Kept deliberately small — parity is about *identity*,
#: not coverage of routing behaviour (the executor tests own that).
PARITY_REQUESTS = [
    RouteRequest(scenario=SPEC, source=0, target=15),
    RouteRequest(scenario=RING, source=0, target=7),
    BroadcastRequest(scenario=SPEC, source=0),
    CountRequest(scenario=RING, source=2),
    ConnectivityRequest(scenario=SPEC, source=0, target=9),
    CompareRequest(scenario=RING, num_pairs=2, pair_seed=3),
    RouteBatchRequest(scenario=SPEC, num_pairs=3, pair_seed=1),
    # A lockstep batch whose target is no vertex: a failure result, not the
    # 500 its int32 overflow used to produce.
    RouteBatchRequest(scenario=GRID_144, pairs=((0, 2**40),) * 64, size_bound=8),
    BroadcastReliableRequest(scenario=SPEC, source=0, num_byzantine=2, fault_seed=5),
    BroadcastReliableRequest(
        scenario=RING,
        source=1,
        num_byzantine=1,
        behaviors=("forge",),
        fault_seed=2,
        crashes=(7,),
    ),
]


def _canonical(result: TaskResult) -> str:
    """The timing-stripped canonical JSON used for bit-identity comparison."""
    return to_json(result.replace_timing(0.0))


def test_served_results_bit_identical_to_inline_session():
    reference = Session()
    expected = [_canonical(reference.submit(request)) for request in PARITY_REQUESTS]

    async def scenario():
        async with running_server() as server:
            client = client_for(server)
            return [await client.submit(request) for request in PARITY_REQUESTS]

    served = asyncio.run(scenario())
    assert [_canonical(result) for result in served] == expected


def test_legacy_schedule_backend_query_is_served_inline():
    request = ScheduleRouteRequest(scenario=DYN, num_pairs=2, pair_seed=1)
    expected = _canonical(Session().submit(request))

    async def scenario():
        async with running_server() as server:
            return await client_for(server).submit(request, backend="schedule")

    served = asyncio.run(scenario())
    assert served.backend == "inline"
    assert _canonical(served) == expected


def test_served_reliable_broadcast_reports_the_invariants():
    request = BroadcastReliableRequest(
        scenario=SPEC, source=0, num_byzantine=2, fault_seed=5
    )

    async def scenario():
        async with running_server() as server:
            return await client_for(server).submit(request)

    result = asyncio.run(scenario())
    assert result.task == "broadcast-reliable"
    assert result.status in ("agreed", "diverged")
    payload = result.payload
    assert payload["agreement"] is True
    assert payload["totality"] is True
    assert payload["no_false_delivery"] is True
    assert len(payload["byzantine"]) == 2
    # f = 2 is below the N/3 threshold for the 16-node grid: guarantees hold.
    assert result.status == "agreed"


def test_batch_endpoint_matches_single_shot_and_preserves_order():
    requests = [RouteRequest(scenario=SPEC, source=0, target=t) for t in (15, 3, 9, 12)]

    async def scenario():
        async with running_server() as server:
            client = client_for(server)
            singles = [await client.submit(request) for request in requests]
            batch = await client.submit_many(requests)
            return singles, batch

    singles, batch = asyncio.run(scenario())
    assert [_canonical(r) for r in batch] == [_canonical(r) for r in singles]


def test_batch_streams_ndjson_lines_with_indices():
    requests = [RouteRequest(scenario=SPEC, source=0, target=t) for t in (5, 10)]

    async def scenario():
        async with running_server() as server:
            body = json.dumps([to_wire(r) for r in requests]).encode()
            return await raw(server, "POST", "/v1/tasks", body=body)

    reply = asyncio.run(scenario())
    assert reply.status == 200
    assert reply.headers["content-type"] == "application/x-ndjson"
    assert reply.headers.get("transfer-encoding") == "chunked"
    lines = reply.ndjson()
    assert sorted(line["index"] for line in lines) == [0, 1]
    assert all(line["result"]["kind"] == "TaskResult" for line in lines)


def test_results_stream_in_completion_order_not_submission_order():
    # Task 0 (target=1) blocks on the gate; task 1 completes immediately.
    # Its NDJSON line must arrive *before* task 0 finishes — the stream is
    # completion-ordered, not head-of-line blocked by submission order.
    gate = SelectiveGateBackend()
    session = Session(backends={"gate": gate})

    async def scenario():
        config = ServerConfig(port=0, queue_capacity=8, concurrency=2)
        async with running_server(config, session=session) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            requests = [RouteRequest(scenario=SPEC, source=0, target=t) for t in (1, 2)]
            body = json.dumps([to_wire(r) for r in requests]).encode()
            head = (
                f"POST /v1/tasks?backend=gate HTTP/1.1\r\nHost: h\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            writer.write(head + body)
            await writer.drain()
            early = b""
            while b'"index": 1' not in early:
                chunk = await reader.read(4096)
                assert chunk, "stream ended before the unblocked task's line"
                early += chunk
            gate.release.set()
            rest = await reader.read()
            writer.close()
            return early, rest

    early, rest = asyncio.run(scenario())
    assert b'"index": 0' not in early  # the blocked task had not completed yet
    assert b'"index": 0' in rest


# --------------------------------------------------------------------------- #
# Validation: every malformed input is a structured 4xx, never a traceback
# --------------------------------------------------------------------------- #


def _error_of(reply):
    document = reply.json()
    assert set(document) == {"error"}
    assert "Traceback" not in reply.body.decode()
    return document["error"]


def test_malformed_json_is_structured_400():
    async def scenario():
        async with running_server() as server:
            return await raw(server, "POST", "/v1/task", body=b"{not json")

    reply = asyncio.run(scenario())
    assert reply.status == 400
    assert _error_of(reply)["code"] == "invalid-json"


def test_non_utf8_body_is_structured_400():
    async def scenario():
        async with running_server() as server:
            return await raw(server, "POST", "/v1/task", body=b"\xff\xfe{}")

    reply = asyncio.run(scenario())
    assert reply.status == 400
    assert _error_of(reply)["code"] == "invalid-json"


def test_unknown_task_kind_is_structured_400():
    async def scenario():
        async with running_server() as server:
            body = json.dumps({"kind": "FrobnicateRequest", "fields": {}}).encode()
            return await raw(server, "POST", "/v1/task", body=body)

    reply = asyncio.run(scenario())
    assert reply.status == 400
    error = _error_of(reply)
    assert error["code"] == "unknown-task"
    assert "RouteRequest" in error["message"]  # the known kinds are listed


def test_result_kind_is_not_a_submittable_task():
    # TaskResult is a wire kind, but only *requests* may be submitted.
    async def scenario():
        async with running_server() as server:
            body = json.dumps({"kind": "TaskResult", "fields": {}}).encode()
            return await raw(server, "POST", "/v1/task", body=body)

    reply = asyncio.run(scenario())
    assert reply.status == 400
    assert _error_of(reply)["code"] == "unknown-task"


def test_untagged_and_bad_field_bodies_are_structured_400():
    async def scenario():
        async with running_server() as server:
            untagged = await raw(server, "POST", "/v1/task", body=b'["not", "tagged"]')
            bad_fields = await raw(
                server,
                "POST",
                "/v1/task",
                body=json.dumps({"kind": "RouteRequest", "fields": {"bogus": 1}}).encode(),
            )
            return untagged, bad_fields

    untagged, bad_fields = asyncio.run(scenario())
    assert untagged.status == 400
    assert _error_of(untagged)["code"] == "invalid-envelope"
    assert bad_fields.status == 400
    assert _error_of(bad_fields)["code"] == "invalid-request"


def test_hostile_sizes_and_boolean_integers_are_structured_400():
    # Before validation: size -4 crashed the executor (500 internal-error),
    # size 0 routed on a default-size grid, and ``"source": true`` routed
    # from vertex 1.
    # A string field given a number used to be coerced, and an unknown key
    # was dropped: both routed.
    def body(size=16, source=0, name=SPEC.name, **unknown):
        wire = to_wire(RouteRequest(scenario=SPEC, source=0, target=1))
        wire["fields"]["scenario"].update(size=size, name=name)
        wire["fields"]["source"] = source
        wire["fields"].update(unknown)
        return json.dumps(wire).encode()

    async def scenario():
        async with running_server() as server:
            return [
                await raw(server, "POST", "/v1/task", body=payload)
                for payload in (
                    body(size=-4),
                    body(size=0),
                    body(source=True),
                    body(name=7),
                    body(sizebound=3),
                )
            ]

    negative, zero, boolean, string, unknown = asyncio.run(scenario())
    for reply in (negative, zero):
        assert reply.status == 400
        error = _error_of(reply)
        assert error["code"] == "task-error" and "size must be >= 1" in error["message"]
    for reply, words in (
        (boolean, "must be an integer"),
        (string, "'name' must be a string"),
        (unknown, "unknown field 'sizebound'"),
    ):
        assert reply.status == 400
        error = _error_of(reply)
        assert error["code"] == "invalid-request" and words in error["message"]


def test_start_port_outside_0_to_2_is_structured_400():
    # Before the engine checked it, ``"start_port": 7`` was decoded and routed.
    wire = to_wire(RouteRequest(scenario=SPEC, source=0, target=1))
    wire["fields"]["start_port"] = 7

    async def scenario():
        async with running_server() as server:
            return await raw(server, "POST", "/v1/task", body=json.dumps(wire).encode())

    reply = asyncio.run(scenario())
    assert reply.status == 400
    error = _error_of(reply)
    assert error["code"] == "task-error" and "start_port" in error["message"]


def test_hostile_optional_numeric_fields_are_structured_400():
    # Before strict decoding: ``"size_bound": 2.5`` and ``"7"`` crashed the
    # executor and ``"namespace_size": "x"`` too (500 internal-error), while
    # ``"size_bound": true`` routed with bound 1.
    def body(kind="size_bound", value=None):
        wire = to_wire(RouteRequest(scenario=SPEC, source=0, target=1))
        holder = wire["fields"] if kind == "size_bound" else wire["fields"]["scenario"]
        holder[kind] = value
        return json.dumps(wire).encode()

    bodies = [
        body(value=2.5),
        body(value="7"),
        body(value=True),
        body("namespace_size", "x"),
        body("radius", True),
    ]

    async def scenario():
        async with running_server() as server:
            replies = [await raw(server, "POST", "/v1/task", body=payload) for payload in bodies]
            good = await raw(server, "POST", "/v1/task", body=body(value=16))
            return replies, good

    replies, good = asyncio.run(scenario())
    for reply in replies:
        assert reply.status == 400
        error = _error_of(reply)
        assert error["code"] == "invalid-request"
        assert "must be an integer or null" in error["message"] or (
            "must be a real number or null" in error["message"]
        )
    assert good.status == 200


def test_batch_validation_is_atomic_and_indexed():
    async def scenario():
        async with running_server() as server:
            good = to_wire(RouteRequest(scenario=SPEC, source=0, target=1))
            body = json.dumps([good, {"kind": "NopeRequest", "fields": {}}]).encode()
            reply = await raw(server, "POST", "/v1/tasks", body=body)
            metrics = await client_for(server).metrics()
            return reply, metrics

    reply, metrics = asyncio.run(scenario())
    assert reply.status == 400
    error = _error_of(reply)
    assert error["code"] == "unknown-task"
    assert "batch item 1" in error["message"]
    # Atomicity: the valid item 0 must not have been admitted or executed.
    assert metrics["queue"]["accepted"] == 0


def test_empty_and_non_array_batches_are_structured_400():
    async def scenario():
        async with running_server() as server:
            empty = await raw(server, "POST", "/v1/tasks", body=b"[]")
            non_array = await raw(server, "POST", "/v1/tasks", body=b"{}")
            return empty, non_array

    empty, non_array = asyncio.run(scenario())
    assert empty.status == 400 and _error_of(empty)["code"] == "invalid-batch"
    assert non_array.status == 400 and _error_of(non_array)["code"] == "invalid-batch"


def test_oversized_body_is_413_and_oversized_batch_is_413():
    config = ServerConfig(port=0, queue_capacity=8, concurrency=1, max_body_bytes=256, max_batch_tasks=2)

    async def scenario():
        async with running_server(config) as server:
            too_big = await raw(server, "POST", "/v1/task", body=b"x" * 512)
            # Three tasks but only two allowed (minimal envelopes keep the
            # body itself under the 256-byte cap).
            batch = json.dumps([{"kind": "RouteRequest", "fields": {}}] * 3).encode()
            too_many = await raw(server, "POST", "/v1/tasks", body=batch)
            return too_big, too_many

    too_big, too_many = asyncio.run(scenario())
    assert too_big.status == 413
    assert _error_of(too_big)["code"] == "body-too-large"
    assert too_many.status == 413
    assert _error_of(too_many)["code"] == "batch-too-large"


def test_wrong_method_and_unknown_path_are_structured():
    async def scenario():
        async with running_server() as server:
            get_task = await raw(server, "GET", "/v1/task")
            post_metrics = await raw(server, "POST", "/metrics", body=b"{}")
            nowhere = await raw(server, "GET", "/v2/everything")
            return get_task, post_metrics, nowhere

    get_task, post_metrics, nowhere = asyncio.run(scenario())
    assert get_task.status == 405 and _error_of(get_task)["code"] == "method-not-allowed"
    assert post_metrics.status == 405
    assert nowhere.status == 404 and _error_of(nowhere)["code"] == "not-found"


def test_post_without_content_length_is_411():
    async def scenario():
        async with running_server() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /v1/task HTTP/1.1\r\nHost: h\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return status_line

    status_line = asyncio.run(scenario())
    assert b"411" in status_line


def test_backend_crash_is_structured_500_and_misuse_is_400():
    session = Session(backends={"boom": BoomBackend(), "misuse": MisuseBackend()})

    async def scenario():
        async with running_server(session=session) as server:
            body = to_json(RouteRequest(scenario=SPEC, source=0, target=1)).encode()
            crash = await raw(server, "POST", "/v1/task?backend=boom", body=body)
            misuse = await raw(server, "POST", "/v1/task?backend=misuse", body=body)
            metrics = await client_for(server).metrics()
            return crash, misuse, metrics

    crash, misuse, metrics = asyncio.run(scenario())
    assert crash.status == 500
    error = _error_of(crash)
    assert error["code"] == "internal-error" and "kaboom" in error["message"]
    assert misuse.status == 400
    assert _error_of(misuse)["code"] == "task-error"
    assert metrics["queue"]["failed"] == 2
    # The admission slots were released despite both failures.
    assert metrics["queue"]["outstanding"] == 0


# --------------------------------------------------------------------------- #
# Backpressure: a full queue answers 429 immediately, then recovers
# --------------------------------------------------------------------------- #


def test_queue_full_returns_429_with_retry_after_and_recovers():
    gate = GateBackend()
    session = Session(backends={"gate": gate})
    config = ServerConfig(port=0, queue_capacity=1, concurrency=1, retry_after_seconds=7)

    async def scenario():
        async with running_server(config, session=session) as server:
            client = client_for(server)
            body = to_json(RouteRequest(scenario=SPEC, source=0, target=1)).encode()
            blocked = asyncio.ensure_future(
                raw(server, "POST", "/v1/task?backend=gate", body=body)
            )
            while not gate.started.is_set():  # the slot is now held
                await asyncio.sleep(0.01)
            overflow = await raw(server, "POST", "/v1/task?backend=gate", body=body)
            batch_body = json.dumps(
                [to_wire(RouteRequest(scenario=SPEC, source=0, target=1))] * 2
            ).encode()
            overflow_batch = await raw(server, "POST", "/v1/tasks?backend=gate", body=batch_body)
            gate.release.set()
            first = await blocked
            recovered = await raw(server, "POST", "/v1/task?backend=gate", body=body)
            metrics = await client.metrics()
            return overflow, overflow_batch, first, recovered, metrics

    overflow, overflow_batch, first, recovered, metrics = asyncio.run(scenario())
    assert overflow.status == 429
    assert _error_of(overflow)["code"] == "queue-full"
    assert overflow.headers["retry-after"] == "7"
    assert overflow_batch.status == 429  # all-or-nothing batch admission
    assert first.status == 200 and recovered.status == 200
    assert metrics["queue"]["rejected"] >= 3  # 1 single + 2 batch tasks
    assert metrics["queue"]["completed"] == 2
    assert metrics["queue"]["peak_outstanding"] == 1


# --------------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------------- #


def test_drain_finishes_in_flight_work_and_rejects_new_work():
    gate = GateBackend()
    session = Session(backends={"gate": gate})
    config = ServerConfig(port=0, queue_capacity=8, concurrency=1, drain_timeout_seconds=10)

    async def scenario():
        server = RoutingServer(config, session=session)
        await server.start()
        client = client_for(server)
        in_flight = asyncio.ensure_future(
            client.submit(RouteRequest(scenario=SPEC, source=0, target=1), backend="gate")
        )
        while not gate.started.is_set():
            await asyncio.sleep(0.01)
        server.begin_drain()
        health = await client.healthz()
        body = to_json(RouteRequest(scenario=SPEC, source=0, target=1)).encode()
        host, port = server.address
        rejected = await http_request(config.host, port, "POST", "/v1/task", body=body)
        # Release the gate *while* the drain loop is waiting for quiescence.
        drain = asyncio.ensure_future(server.drain_and_stop())
        await asyncio.sleep(0.05)
        gate.release.set()
        await drain
        result = await in_flight
        return health, rejected, result, server

    health, rejected, result, server = asyncio.run(scenario())
    assert health == {"status": "draining", "draining": True}
    assert rejected.status == 503
    assert _error_of(rejected)["code"] == "draining"
    assert result.status == "success"  # the in-flight task completed
    assert server.queue.outstanding == 0


# --------------------------------------------------------------------------- #
# Metrics accounting
# --------------------------------------------------------------------------- #


def test_metrics_latency_histograms_and_counters():
    async def scenario():
        async with running_server() as server:
            client = client_for(server)
            for target in (1, 5, 9):
                await client.submit(RouteRequest(scenario=SPEC, source=0, target=target))
            await client.submit(CountRequest(scenario=RING, source=0))
            return await client.metrics()

    metrics = asyncio.run(scenario())
    queue = metrics["queue"]
    assert queue["accepted"] == queue["completed"] == 4
    assert queue["outstanding"] == queue["executing"] == queue["depth"] == 0
    latency = metrics["latency"]
    assert set(latency) == {"route", "count"}
    route = latency["route"]
    assert route["count"] == 3
    assert sum(route["bucket_counts"]) == 3
    assert 0 <= route["p50_ms"] <= route["p99_ms"]
    assert metrics["cache"]["session_tasks"] == 4


def test_latency_histogram_quantiles_are_upper_bounds():
    histogram = LatencyHistogram()
    for _ in range(99):
        histogram.observe(0.002)  # lands in the <=0.0025 bucket
    histogram.observe(4.0)  # one outlier in the <=5.0 bucket
    snap = histogram.snapshot()
    assert snap["count"] == 100
    assert snap["p50_ms"] == 2.5  # bucket upper bound: a guaranteed over-estimate
    assert snap["p99_ms"] == 2.5
    assert snap["max_ms"] == 4000.0
    assert histogram.quantile_seconds(1.0) == 5.0


def test_task_queue_accounting_without_a_server():
    async def scenario():
        queue = TaskQueue(capacity=2)
        loop = asyncio.get_running_loop()
        from repro.server.queueing import Job, QueueFull

        jobs = [
            Job(request=RouteRequest(scenario=SPEC, source=0, target=1), backend=None, future=loop.create_future())
            for _ in range(3)
        ]
        queue.try_admit(jobs[0])
        queue.try_admit(jobs[1])
        with pytest.raises(QueueFull):
            queue.try_admit(jobs[2])
        assert queue.rejected == 1 and queue.outstanding == 2 and queue.depth == 2
        picked = await queue.next_job()
        assert picked is jobs[0]
        assert queue.executing == 1 and queue.depth == 1
        queue.job_done(picked, ok=True)
        assert queue.outstanding == 1 and queue.completed == 1
        assert "route" in queue.latency

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# Dispatch threads
# --------------------------------------------------------------------------- #


class CountingGateBackend(GateBackend):
    """A gate that also records how many tasks run at once."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self.running = 0
        self.most_running = 0

    def run(self, request, store) -> TaskResult:  # noqa: D102 - test stub
        with self._lock:
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        try:
            return super().run(request, store)
        finally:
            with self._lock:
                self.running -= 1


def _dispatch_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-dispatch")
    }


def test_dispatch_threads_bound_execution_and_keep_the_queue_counters_exact():
    gate = CountingGateBackend()
    session = Session(backends={"gate": gate})
    config = ServerConfig(port=0, queue_capacity=8, concurrency=2)

    async def scenario():
        async with running_server(config, session=session) as server:
            client = client_for(server)
            submitted = [
                asyncio.ensure_future(
                    client.submit(
                        RouteRequest(scenario=SPEC, source=0, target=target), backend="gate"
                    )
                )
                for target in range(1, 6)
            ]
            while True:
                queue = (await client.metrics())["queue"]
                if queue["outstanding"] == 5 and queue["executing"] == 2:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # give a third thread the chance to misbehave
            during = (await client.metrics())["queue"]
            gate.release.set()
            results = await asyncio.gather(*submitted)
            after = (await client.metrics())["queue"]
            return during, results, after

    during, results, after = asyncio.run(scenario())
    assert gate.most_running == 2
    assert (during["executing"], during["depth"], during["outstanding"]) == (2, 3, 5)
    assert [result.status for result in results] == ["success"] * 5
    assert (after["executing"], after["depth"], after["outstanding"]) == (0, 0, 0)
    assert after["completed"] == 5 and after["failed"] == 0


def test_queue_counters_survive_many_dispatch_threads_under_fast_switching():
    """``executing`` is changed by the dispatch threads and the loop; a lost
    update under contention would leave it (or ``depth``) off zero."""
    session = Session(backends={"gate": SelectiveGateBackend()})
    config = ServerConfig(port=0, queue_capacity=800, concurrency=8)
    body = json.dumps(
        [to_wire(RouteRequest(scenario=SPEC, source=0, target=2))] * 200
    ).encode()

    async def scenario():
        async with running_server(config, session=session) as server:
            replies = await asyncio.wait_for(
                asyncio.gather(
                    *(raw(server, "POST", "/v1/tasks?backend=gate", body=body) for _ in range(4))
                ),
                timeout=60,
            )
            return replies, server.queue.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies, queue = asyncio.run(scenario())
    finally:
        sys.setswitchinterval(interval)
    assert all(reply.status == 200 for reply in replies)
    lines = [json.loads(line) for reply in replies for line in reply.body.splitlines()]
    assert len(lines) == 800 and all("result" in line for line in lines)
    assert (queue["executing"], queue["depth"], queue["outstanding"]) == (0, 0, 0)
    assert queue["completed"] == 800 and queue["failed"] == 0


def test_drain_with_a_wedged_task_returns_within_the_drain_timeout():
    gate = GateBackend()
    session = Session(backends={"gate": gate})
    config = ServerConfig(port=0, queue_capacity=8, concurrency=1, drain_timeout_seconds=0.3)
    before = _dispatch_threads()

    async def scenario():
        server = RoutingServer(config, session=session)
        await server.start()
        body = to_json(RouteRequest(scenario=SPEC, source=0, target=1)).encode()
        wedged = asyncio.ensure_future(raw(server, "POST", "/v1/task?backend=gate", body=body))
        queued = asyncio.ensure_future(raw(server, "POST", "/v1/task?backend=gate", body=body))
        while server.queue.outstanding < 2:
            await asyncio.sleep(0.01)
        started = asyncio.get_running_loop().time()
        await server.drain_and_stop()
        elapsed = asyncio.get_running_loop().time() - started
        for request in (wedged, queued):
            request.cancel()
        await asyncio.gather(wedged, queued, return_exceptions=True)
        return elapsed

    elapsed = asyncio.run(scenario())
    # The wedged thread is abandoned, not waited for.
    assert elapsed < config.drain_timeout_seconds + 0.25
    stranded = _dispatch_threads() - before
    gate.release.set()
    for thread in stranded:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert gate.started.is_set()


def test_repeated_start_and_drain_leaves_no_dispatch_thread():
    before = _dispatch_threads()

    async def scenario():
        for _ in range(3):
            config = ServerConfig(port=0, queue_capacity=8, concurrency=3)
            async with running_server(config) as server:
                result = await client_for(server).submit(
                    RouteRequest(scenario=SPEC, source=0, target=15)
                )
                assert result.status == "success"
                assert len(_dispatch_threads() - before) == 3

    asyncio.run(scenario())
    assert _dispatch_threads() - before == set()


def test_a_closed_queue_hands_out_no_more_jobs():
    async def scenario():
        queue = TaskQueue(capacity=4)
        loop = asyncio.get_running_loop()
        from repro.server.queueing import Job

        queue.try_admit(
            Job(request=RouteRequest(scenario=SPEC, source=0, target=1), backend=None,
                future=loop.create_future())
        )
        queue.close(consumers=2)
        assert queue.take() is None and queue.take() is None
        assert queue.executing == 0 and queue.depth == 1

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# Client-side error surface
# --------------------------------------------------------------------------- #


def test_task_client_raises_typed_server_errors():
    async def scenario():
        async with running_server() as server:
            client = client_for(server)
            with pytest.raises(ServerError) as excinfo:
                await client.submit(
                    RouteRequest(scenario=SPEC, source=0, target=1), backend="no-such"
                )
            return excinfo.value

    error = asyncio.run(scenario())
    assert error.status == 400
    assert error.code == "task-error"
    assert "no-such" in error.server_message


# --------------------------------------------------------------------------- #
# Shared provenance log (--result-log / GET /v1/log)
# --------------------------------------------------------------------------- #


def test_log_endpoint_is_404_when_no_log_is_configured():
    async def scenario():
        async with running_server() as server:
            reply = await raw(server, "GET", "/v1/log")
            assert reply.status == 404
            assert _error_of(reply)["code"] == "log-disabled"
            metrics = await client_for(server).metrics()
            assert metrics["log"] == {"enabled": False}

    asyncio.run(scenario())


def test_served_tasks_append_to_the_shared_log(tmp_path):
    log_path = str(tmp_path / "served.log")
    config = ServerConfig(
        port=0, queue_capacity=64, concurrency=2, result_log_path=log_path
    )

    async def scenario():
        async with running_server(config=config) as server:
            client = client_for(server)
            first = await client.submit(RouteRequest(scenario=SPEC, source=0, target=15))
            second = await client.submit(CountRequest(scenario=RING, source=2))
            assert first.provenance["parent"] is not None
            assert second.provenance["parent"] is not None

            page = (await raw(server, "GET", "/v1/log")).json()
            assert page["total"] == 2 and page["offset"] == 0
            assert [record["task"] for record in page["records"]] == ["route", "count"]
            assert page["head"] == page["records"][-1]["record_hash"]

            paged = (await raw(server, "GET", "/v1/log?offset=1&limit=1")).json()
            assert paged["total"] == 2 and paged["offset"] == 1
            assert [record["task"] for record in paged["records"]] == ["count"]

            bad = await raw(server, "GET", "/v1/log?offset=nope")
            assert bad.status == 400
            posted = await raw(server, "POST", "/v1/log", body=b"{}")
            assert posted.status == 405

            metrics = await client_for(server).metrics()
            assert metrics["log"]["enabled"] is True
            assert metrics["log"]["records"] == 2
            assert metrics["log"]["head"] == page["head"]

    asyncio.run(scenario())
    # After drain the on-disk chain verifies end to end.
    from repro.provenance.log import verify_log

    report = verify_log(log_path)
    assert report.ok and len(report.records) == 2
    assert [record["task"] for record in report.records] == ["route", "count"]


def test_a_log_page_read_does_not_stall_the_event_loop(tmp_path, monkeypatch):
    import repro.provenance.log as provenance_log

    log_path = str(tmp_path / "served.log")
    config = ServerConfig(port=0, queue_capacity=8, concurrency=1, result_log_path=log_path)
    entered, release = threading.Event(), threading.Event()
    real_read_log = provenance_log.read_log

    def blocking_read_log(path):
        entered.set()
        if not release.wait(timeout=30):
            raise RuntimeError("the read was never released")
        return real_read_log(path)

    monkeypatch.setattr(provenance_log, "read_log", blocking_read_log)

    async def scenario():
        async with running_server(config=config) as server:
            client = client_for(server)
            await client.submit(RouteRequest(scenario=SPEC, source=0, target=15))
            page = asyncio.ensure_future(raw(server, "GET", "/v1/log"))
            while not entered.is_set():
                await asyncio.sleep(0.01)
            health = await asyncio.wait_for(client.healthz(), timeout=5)
            assert not page.done()
            release.set()
            return health, (await page).json(), server.result_log.head

    health, page, head = asyncio.run(scenario())
    assert health == {"status": "ok", "draining": False}
    assert page["total"] == 1 and page["head"] == head
    assert [record["task"] for record in page["records"]] == ["route"]


# --------------------------------------------------------------------------- #
# Served sweeps write no client-chosen file
# --------------------------------------------------------------------------- #


def _sweep_body(**fields) -> bytes:
    return to_json(SweepRequest(scenarios=(RING,), pairs=2, **fields)).encode()


def test_sweep_out_path_and_resume_are_refused_at_decode(tmp_path):
    target = str(tmp_path / "stream.jsonl")
    for body in (_sweep_body(out_path=target), _sweep_body(out_path=target, resume=True)):
        with pytest.raises(HttpError) as refused:
            decode_task_body(body)
        assert (refused.value.status, refused.value.code) == (400, "field-not-served")
    with pytest.raises(HttpError) as refused:
        decode_batch_body(b"[" + _sweep_body(out_path=target) + b"]", max_tasks=4)
    assert refused.value.code == "field-not-served"
    assert refused.value.message.startswith("batch item 0:")
    assert decode_task_body(_sweep_body()) == SweepRequest(scenarios=(RING,), pairs=2)
    assert not (tmp_path / "stream.jsonl").exists()


def test_served_sweep_cannot_overwrite_the_result_log(tmp_path):
    log_path = str(tmp_path / "served.log")
    config = ServerConfig(
        port=0, queue_capacity=64, concurrency=2, result_log_path=log_path
    )

    async def scenario():
        async with running_server(config=config) as server:
            client = client_for(server)
            await client.submit(RouteRequest(scenario=SPEC, source=0, target=15))
            replies = [
                await raw(server, "POST", "/v1/task", body=_sweep_body(out_path=path))
                for path in (log_path, str(tmp_path / "elsewhere.jsonl"))
            ]
            await client.submit(CountRequest(scenario=RING, source=2))
            return replies

    for reply in asyncio.run(scenario()):
        assert reply.status == 400
        assert _error_of(reply)["code"] == "field-not-served"
    assert not (tmp_path / "elsewhere.jsonl").exists()
    from repro.provenance.log import verify_log

    report = verify_log(log_path)
    assert report.ok, report.issues
    assert [record["task"] for record in report.records] == ["route", "count"]


@pytest.mark.parametrize(
    "name",
    [
        "REPRO_SERVER_CONCURENCY",  # a typo of CONCURRENCY
        "REPRO_SERVER_KERNEL_CACHE_DIR",  # a retired setting
    ],
)
def test_unknown_server_environment_variable_is_refused(monkeypatch, name):
    monkeypatch.setenv(name, "8")
    with pytest.raises(TaskError, match=name):
        ServerConfig.from_env()


def test_server_environment_overrides_known_fields(monkeypatch):
    monkeypatch.setenv("REPRO_SERVER_CONCURRENCY", "8")
    monkeypatch.setenv("REPRO_SERVER_RESULT_LOG_PATH", "served.log")
    config = ServerConfig.from_env(port=0)
    assert config.concurrency == 8
    assert config.result_log_path == "served.log"
    assert config.port == 0
