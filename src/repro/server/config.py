"""Server configuration: one frozen dataclass, environment + CLI sourced.

Every knob of the routing daemon lives in :class:`ServerConfig` so the whole
deployment surface is visible in one place and every entry point — the
``repro serve`` subcommand, ``python -m repro.server``, the test fixtures and
the load-test harness — constructs the daemon the same way.  Defaults are
conservative; ``from_env`` reads ``REPRO_SERVER_*`` overrides so container
deployments configure the daemon without flags, and the CLI flags (declared
once in :func:`add_server_arguments`, shared by ``repro serve`` and
``python -m repro.server``) win over both.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import TaskError

__all__ = ["ServerConfig", "add_server_arguments", "config_from_args"]

#: Environment prefix for every override (``REPRO_SERVER_PORT=9000`` etc.).
_ENV_PREFIX = "REPRO_SERVER_"


@dataclass(frozen=True)
class ServerConfig:
    """Everything the routing daemon needs to know, in one immutable record.

    ``queue_capacity`` bounds the number of accepted-but-unfinished tasks
    (queued + executing); past it the server answers 429 with a
    ``Retry-After`` header instead of buffering without limit — that bound
    *is* the backpressure contract.  ``concurrency`` sizes the dispatch
    thread pool (how many tasks run at once); ``max_body_bytes`` and
    ``max_batch_tasks`` cap a single request's cost before it is parsed.
    ``drain_timeout_seconds`` limits how long a SIGTERM-initiated drain waits
    for in-flight work before shutting down anyway.  ``result_log_path``
    names the shared provenance log (:mod:`repro.provenance`): when set,
    every served task is appended as one hash-chained record, ``GET /v1/log``
    pages over it and ``/metrics`` reports its counters.
    """

    host: str = "127.0.0.1"
    port: int = 8421
    queue_capacity: int = 1024
    concurrency: int = 4
    max_body_bytes: int = 8 * 1024 * 1024
    max_batch_tasks: int = 4096
    retry_after_seconds: int = 1
    drain_timeout_seconds: float = 30.0
    result_log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise TaskError("server queue_capacity must be >= 1")
        if self.concurrency < 1:
            raise TaskError("server concurrency must be >= 1")
        if self.max_body_bytes < 1 or self.max_batch_tasks < 1:
            raise TaskError("server body/batch limits must be >= 1")
        if not 0 <= self.port <= 65535:
            raise TaskError("server port must be in [0, 65535] (0 = ephemeral)")

    @classmethod
    def from_env(cls, **overrides) -> "ServerConfig":
        """Defaults, patched by ``REPRO_SERVER_*`` variables, then ``overrides``.

        Environment values that fail to parse, and ``REPRO_SERVER_*``
        variables that name no field (a typo, a retired setting), raise
        :class:`TaskError`: a daemon must not silently run with a default it
        was asked to change.
        """
        known = {_ENV_PREFIX + field.name.upper() for field in fields(cls)}
        unknown = sorted(
            name for name in os.environ if name.startswith(_ENV_PREFIX) and name not in known
        )
        if unknown:
            raise TaskError(
                f"unknown server setting {', '.join(unknown)}: "
                f"expected one of {', '.join(sorted(known))}"
            )
        values = {}
        for field in fields(cls):
            raw = os.environ.get(_ENV_PREFIX + field.name.upper())
            if raw is None:
                continue
            try:
                if field.type in ("int", int):
                    values[field.name] = int(raw)
                elif field.type in ("float", float):
                    values[field.name] = float(raw)
                else:
                    values[field.name] = raw or None
            except ValueError:
                raise TaskError(
                    f"invalid {_ENV_PREFIX}{field.name.upper()}={raw!r}: "
                    f"expected {field.type}"
                )
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def add_server_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the daemon's CLI flags (shared by every serve entry point)."""
    parser.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=None, help="bind port; 0 picks an ephemeral port"
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="max accepted-but-unfinished tasks before 429 backpressure",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="dispatch threads (tasks executing at once)",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=None, help="largest accepted request body"
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        dest="drain_timeout",
        help="seconds a SIGTERM drain waits for in-flight work",
    )
    parser.add_argument(
        "--result-log",
        default=None,
        dest="result_log",
        help=(
            "append every served task to this hash-chained provenance log "
            "(JSONL); browse it with GET /v1/log, audit it with "
            "'repro log verify/replay'"
        ),
    )


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    """The :class:`ServerConfig` described by parsed serve arguments."""
    return ServerConfig.from_env(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        concurrency=args.concurrency,
        max_body_bytes=args.max_body_bytes,
        drain_timeout_seconds=args.drain_timeout,
        result_log_path=args.result_log,
    )
