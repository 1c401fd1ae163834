"""The routing daemon: an asyncio HTTP/JSON front end over one shared Session.

Routing-as-a-service for the unified task API.  One process holds one
:class:`repro.api.Session` — so every client shares the prepared-scenario and
kernel caches — and exposes it over four endpoints:

``POST /v1/task``
    One tagged request (``repro.api.envelope`` wire format) in, one tagged
    :class:`~repro.api.envelope.TaskResult` out.
``POST /v1/tasks``
    A JSON array of tagged requests in; results stream back as NDJSON lines
    ``{"index": i, "result": ...}`` *in completion order* (chunked
    transfer-encoding), so fast tasks are not head-of-line blocked by slow
    ones.  Admission is all-or-nothing: the whole batch is queued or the
    whole batch is 429'd.
``GET /metrics``
    Queue depth / in-flight counts, per-task-type latency histograms, the
    full Session cache counters (including ``kernel_compiles``) and the
    provenance-log counters when a log is configured.
``GET /healthz``
    Liveness plus the draining flag.
``GET /v1/log``
    Paged view over the shared provenance log (``?offset=&limit=``): with
    ``--result-log PATH`` every served task is appended to one hash-chained
    :class:`repro.provenance.log.ResultLog` shared by all dispatch
    threads, so any client-visible result can later be audited with
    ``repro log verify`` / ``replay``.  The page is read off the event
    loop.  404 when no log is configured.

Execution model: the event loop only parses, validates and streams; admitted
jobs go into one bounded :class:`~repro.server.queueing.TaskQueue`, and
``config.concurrency`` dispatch threads take them straight from it and run
``Session.submit``.  A finished job comes back to the loop in one
``call_soon_threadsafe``, which releases its queue slot and resolves the
waiting request's future.  When the queue bound is hit the daemon
answers ``429`` with ``Retry-After`` immediately — overload is pushed back to
clients, never buffered silently.  ``SIGTERM``/``SIGINT`` trigger a graceful
drain: stop accepting, reject new work with ``503 draining``, let in-flight
tasks finish (up to ``drain_timeout_seconds``), then exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
import time
from typing import Dict, List, Optional, Set

from repro.api.envelope import to_wire
from repro.api.session import Session
from repro.errors import ReproError
from repro.server.config import ServerConfig
from repro.server.handlers import (
    HttpError,
    HttpRequest,
    HttpResponse,
    decode_batch_body,
    decode_task_body,
    error_response,
    json_response,
    read_http_request,
)
from repro.server.queueing import Job, QueueFull, TaskQueue

__all__ = ["RoutingServer", "serve"]

#: How often the drain loop re-checks for quiescence, in seconds.
_DRAIN_POLL_SECONDS = 0.02


class RoutingServer:
    """The daemon: bounded queue + dispatch threads + HTTP front end.

    Lifecycle: :meth:`start` binds the socket and starts the dispatch threads
    (tests drive the server in-process this way), :meth:`drain_and_stop`
    performs the graceful shutdown, and :meth:`run_until_signal` is the
    production path — serve until SIGTERM/SIGINT, then drain.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        session: Optional[Session] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig.from_env()
        self.result_log = None
        if self.config.result_log_path:
            from repro.provenance.log import ResultLog

            # Opened append-mode: a restarted daemon keeps extending the
            # chain of its previous life instead of truncating it.
            self.result_log = ResultLog(self.config.result_log_path, "a")
        if session is not None:
            self.session = session
        else:
            self.session = Session(result_log=self.result_log)
        self.queue = TaskQueue(self.config.queue_capacity)
        self.draining = False
        self._server: Optional["asyncio.base_events.Server"] = None
        self._threads: List[threading.Thread] = []
        self._writers: Set["asyncio.StreamWriter"] = set()
        self._active_requests = 0
        self._requests_handled = 0
        self._started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Optional[tuple]:
        """The bound ``(host, port)``, once started (port 0 is resolved)."""
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def start(self) -> None:
        """Bind, start the dispatch threads, start accepting connections."""
        loop = asyncio.get_running_loop()
        self._threads = [
            threading.Thread(
                target=self._dispatch,
                args=(loop,),
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            for index in range(self.config.concurrency)
        ]
        for thread in self._threads:
            thread.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started_monotonic = time.monotonic()

    def begin_drain(self) -> None:
        """Flip to draining: new task submissions get ``503`` from now on.

        The listener stays open so clients (and health checks) receive the
        structured ``503 draining`` answer instead of a connection refusal;
        :meth:`drain_and_stop` closes the socket once the queue is quiet.
        """
        self.draining = True

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: finish in-flight work, then tear everything down.

        Waits up to ``drain_timeout_seconds`` for the queue to empty and every
        in-progress HTTP exchange to finish writing its response; whatever is
        still queued or running after the deadline is abandoned (the dispatch
        threads are daemon threads and are not waited for), so a wedged task
        cannot hold the process hostage.
        """
        self.begin_drain()
        deadline = time.monotonic() + self.config.drain_timeout_seconds
        while (self.queue.outstanding > 0 or self._active_requests > 0) and (
            time.monotonic() < deadline
        ):
            await asyncio.sleep(_DRAIN_POLL_SECONDS)
        if self._server is not None:
            self._server.close()
        quiet = self.queue.outstanding == 0
        self.queue.close(len(self._threads))
        if quiet:
            # Every thread is idle or about to take its stop sentinel.
            for thread in self._threads:
                thread.join()
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
        if self.result_log is not None:
            self.result_log.close()

    async def run_until_signal(self, ready_stream=None) -> int:
        """Serve until SIGTERM/SIGINT, drain, return the exit status (0).

        Prints ``repro-server listening on http://HOST:PORT`` to
        ``ready_stream`` (default stdout) once bound — subprocess harnesses
        parse it to learn the ephemeral port.
        """
        await self.start()
        host, port = self.address
        stream = ready_stream if ready_stream is not None else sys.stdout
        print(f"repro-server listening on http://{host}:{port}", file=stream, flush=True)
        loop = asyncio.get_running_loop()
        stop: "asyncio.Future" = loop.create_future()

        def _on_signal() -> None:
            if not stop.done():
                stop.set_result(None)

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, _on_signal)
        try:
            await stop
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
        await self.drain_and_stop()
        return 0

    # ------------------------------------------------------------------ #
    # Dispatch (queue -> Session.submit on the dispatch threads)
    # ------------------------------------------------------------------ #

    def _run_job(self, job: Job):
        return self.session.submit(job.request, backend=job.backend)

    def _dispatch(self, loop: "asyncio.AbstractEventLoop") -> None:
        """One dispatch thread: run jobs from the queue until told to stop.

        ``self._run_job`` is looked up for every job, so a wrapper installed
        on the class reaches a running daemon too.
        """
        while True:
            job = self.queue.take()
            if job is None:
                return
            try:
                result, error = self._run_job(job), None
            except Exception as exc:
                result, error = None, exc
            try:
                loop.call_soon_threadsafe(self._finish, job, result, error)
            except RuntimeError:  # the loop has closed: a drain gave up on us
                return

    def _finish(self, job: Job, result, error: Optional[Exception]) -> None:
        """On the loop: release the job's slot and resolve its future."""
        self.queue.job_done(job, ok=error is None)
        if job.future.done():  # the client went away mid-task
            return
        if error is None:
            job.future.set_result(result)
        else:
            job.future.set_exception(error)

    def _admit(self, request_obj, backend: Optional[str]) -> Job:
        job = Job(
            request=request_obj,
            backend=backend,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self.queue.try_admit(job)
        except QueueFull as error:
            raise HttpError(
                429,
                "queue-full",
                str(error),
                retry_after=self.config.retry_after_seconds,
            )
        return job

    @staticmethod
    async def _await_result(job: Job):
        """A job's TaskResult, with execution failures mapped to HttpError."""
        try:
            return await job.future
        except ReproError as error:
            raise HttpError(400, "task-error", str(error))
        except Exception as error:
            raise HttpError(500, "internal-error", f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------ #
    # HTTP front end
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_http_request(reader, self.config.max_body_bytes)
                except HttpError as error:
                    await self._send(writer, error.to_response())
                    break
                if request is None:
                    break
                self._active_requests += 1
                try:
                    response = await self._route(request, writer)
                except HttpError as error:
                    response = error.to_response()
                except ConnectionError:
                    break
                except Exception as error:
                    # Whatever went wrong, the wire gets a structured
                    # envelope — a traceback is never a valid response body.
                    response = error_response(
                        500, "internal-error", f"{type(error).__name__}: {error}"
                    )
                finally:
                    self._active_requests -= 1
                    self._requests_handled += 1
                if response is not None:
                    await self._send(writer, response)
                    if response.close:
                        break
                if request.wants_close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer, response: HttpResponse) -> None:
        writer.write(response.head_bytes())
        if not response.chunked:
            writer.write(response.body)
        await writer.drain()

    async def _route(self, request: HttpRequest, writer) -> Optional[HttpResponse]:
        """Dispatch one parsed request; ``None`` means the handler streamed."""
        if request.path == "/healthz":
            if request.method != "GET":
                raise HttpError(405, "method-not-allowed", "healthz is GET-only")
            return json_response(
                200, {"status": "draining" if self.draining else "ok", "draining": self.draining}
            )
        if request.path == "/metrics":
            if request.method != "GET":
                raise HttpError(405, "method-not-allowed", "metrics is GET-only")
            return json_response(200, self.metrics())
        if request.path == "/v1/log":
            if request.method != "GET":
                raise HttpError(405, "method-not-allowed", "the log view is GET-only")
            return await self._handle_log(request)
        if request.path == "/v1/task":
            if request.method != "POST":
                raise HttpError(405, "method-not-allowed", "submit tasks with POST")
            return await self._handle_task(request)
        if request.path == "/v1/tasks":
            if request.method != "POST":
                raise HttpError(405, "method-not-allowed", "submit batches with POST")
            return await self._handle_batch(request, writer)
        raise HttpError(404, "not-found", f"no such endpoint: {request.path}")

    def _reject_if_draining(self) -> None:
        if self.draining:
            raise HttpError(
                503,
                "draining",
                "server is draining and no longer accepts new tasks",
                retry_after=self.config.retry_after_seconds,
            )

    async def _handle_log(self, request: HttpRequest) -> HttpResponse:
        """Paged read over the shared provenance log (tolerant view).

        The read runs in a worker thread: it parses and hashes the whole
        file, and the loop keeps serving (``/healthz`` included) meanwhile.
        """
        if self.result_log is None:
            raise HttpError(
                404,
                "log-disabled",
                "no result log is configured; start the daemon with --result-log PATH",
            )
        from repro.provenance.log import read_log

        def int_param(name: str, default: int, low: int, high: int) -> int:
            raw = request.query_value(name)
            if raw is None:
                return default
            try:
                value = int(raw)
            except ValueError:
                raise HttpError(400, "bad-request", f"{name} must be an integer")
            return max(low, min(high, value))

        offset = int_param("offset", 0, 0, 10 ** 9)
        limit = int_param("limit", 50, 1, 500)
        # Re-read from disk rather than caching: appends are flushed whole
        # lines, so the tolerant reader always sees a consistent prefix.
        records, _issues = await asyncio.to_thread(read_log, self.result_log.path)
        return json_response(
            200,
            {
                "total": len(records),
                "offset": offset,
                "limit": limit,
                "head": self.result_log.head,
                "records": records[offset : offset + limit],
            },
        )

    async def _handle_task(self, request: HttpRequest) -> HttpResponse:
        self._reject_if_draining()
        decoded = decode_task_body(request.body)
        job = self._admit(decoded, backend=request.query_value("backend"))
        result = await self._await_result(job)
        return json_response(200, to_wire(result))

    async def _handle_batch(self, request: HttpRequest, writer) -> None:
        self._reject_if_draining()
        requests = decode_batch_body(request.body, self.config.max_batch_tasks)
        backend = request.query_value("backend")
        # All-or-nothing admission.  The event loop is single-threaded and
        # nothing awaits between this check and the final try_admit, so the
        # batch cannot be half-admitted by a concurrent connection.
        if not self.queue.room_for(len(requests)):
            self.queue.note_rejected(len(requests))
            raise HttpError(
                429,
                "queue-full",
                f"batch of {len(requests)} does not fit "
                f"({self.queue.outstanding}/{self.queue.capacity} outstanding)",
                retry_after=self.config.retry_after_seconds,
            )
        jobs = [self._admit(entry, backend) for entry in requests]

        response = HttpResponse(status=200, chunked=True, content_type="application/x-ndjson")
        writer.write(response.head_bytes())
        pending = {
            asyncio.get_running_loop().create_task(self._indexed_line(index, job))
            for index, job in enumerate(jobs)
        }
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                line = (json.dumps(task.result(), sort_keys=True) + "\n").encode("utf-8")
                writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return None

    async def _indexed_line(self, index: int, job: Job) -> Dict[str, object]:
        """One NDJSON line: the job's result (or structured error) plus index."""
        try:
            result = await self._await_result(job)
        except HttpError as error:
            return {
                "index": index,
                "error": {"code": error.code, "message": error.message, "status": error.status},
            }
        return {"index": index, "result": to_wire(result)}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def metrics(self) -> Dict[str, object]:
        """The full ``/metrics`` document (JSON-safe)."""
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "server": {
                "uptime_seconds": round(uptime, 3),
                "draining": self.draining,
                "concurrency": self.config.concurrency,
                "queue_capacity": self.config.queue_capacity,
                "connections_open": len(self._writers),
                "requests_handled": self._requests_handled,
                "active_requests": self._active_requests,
            },
            "queue": self.queue.snapshot(),
            "cache": dict(self.session.cache_info()),
            "log": (
                {
                    "enabled": True,
                    "records": self.result_log.count,
                    "head": self.result_log.head,
                }
                if self.result_log is not None
                else {"enabled": False}
            ),
            "latency": {
                name: histogram.snapshot()
                for name, histogram in sorted(self.queue.latency.items())
            },
        }


def serve(
    config: Optional[ServerConfig] = None,
    session: Optional[Session] = None,
    ready_stream=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; the blocking production entry."""
    server = RoutingServer(config=config, session=session)
    return asyncio.run(server.run_until_signal(ready_stream=ready_stream))
