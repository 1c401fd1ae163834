"""HTTP wire handling and request validation for the routing daemon.

Zero-dependency HTTP/1.1, just deep enough for a JSON task API: request-line
+ headers + ``Content-Length`` bodies in, fixed-length or chunked responses
out, keep-alive by default.  Everything client-facing is structured JSON —
validation failures are typed 4xx envelopes (``{"error": {"code": ...,
"message": ...}}``), never tracebacks — and every body limit is enforced
*before* the body is parsed, so an oversized or malformed request costs the
daemon almost nothing.

The task-decoding half (:func:`decode_task_body`, :func:`decode_batch_body`)
is pure and synchronous: bytes in, validated request objects (from
:mod:`repro.api.envelope`'s tagged wire format) or :class:`HttpError` out.
The tests drive it directly; :mod:`repro.server.app` wires it to sockets.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from urllib.parse import parse_qs

from repro.api.envelope import from_wire
from repro.api.requests import REQUEST_TYPES, SweepRequest
from repro.errors import ReproError

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "decode_task_body",
    "decode_batch_body",
    "json_response",
    "error_response",
    "read_http_request",
]

#: Reason phrases for the statuses the daemon actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request kinds a client may submit (every tagged request type, not results).
_REQUEST_KINDS = {cls.__name__ for cls in REQUEST_TYPES}

#: Ceiling on one header block; a daemon should not buffer arbitrary headers.
MAX_HEADER_BYTES = 32 * 1024


class HttpError(Exception):
    """A client-visible HTTP failure with a structured JSON body.

    ``close`` asks the connection loop to drop the connection after
    responding (set when the request body was not fully read, so the stream
    position is unrecoverable).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[int] = None,
        close: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.close = close

    def to_response(self) -> "HttpResponse":
        """The structured 4xx/5xx response for this error."""
        return error_response(
            self.status, self.code, self.message, retry_after=self.retry_after, close=self.close
        )


@dataclass
class HttpRequest:
    """One parsed request: method, split target, lowered headers, raw body."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes

    def query_value(self, name: str) -> Optional[str]:
        """Last value of a query parameter, or ``None``."""
        values = self.query.get(name)
        return values[-1] if values else None

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


@dataclass
class HttpResponse:
    """One response: status, extra headers, body — or a chunked stream."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False
    chunked: bool = False

    def head_bytes(self) -> bytes:
        """Serialize the status line and headers (body/chunks follow)."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.append(f"Content-Type: {self.content_type}")
        if self.chunked:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {len(self.body)}")
        lines.append(f"Connection: {'close' if self.close else 'keep-alive'}")
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(status: int, payload: object, close: bool = False) -> HttpResponse:
    """A fixed-length JSON response (canonical key order, trailing newline)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return HttpResponse(status=status, body=body, close=close)


def error_response(
    status: int,
    code: str,
    message: str,
    retry_after: Optional[int] = None,
    close: bool = False,
) -> HttpResponse:
    """The uniform structured error envelope (never a traceback)."""
    response = json_response(
        status, {"error": {"code": code, "message": message, "status": status}}, close=close
    )
    if retry_after is not None:
        response.headers["Retry-After"] = str(retry_after)
    return response


# --------------------------------------------------------------------------- #
# Request parsing
# --------------------------------------------------------------------------- #


async def read_http_request(
    reader: "asyncio.StreamReader", max_body_bytes: int
) -> Optional[HttpRequest]:
    """Read one request off the stream; ``None`` on a cleanly closed connection.

    Raises :class:`HttpError` for protocol problems the client should hear
    about (absurd request line, missing ``Content-Length`` on a body method,
    oversized body).  Oversized bodies are rejected *without reading them*;
    the error carries ``close=True`` because the unread body poisons the
    stream for keep-alive.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError, ValueError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "bad-request-line", "malformed HTTP request line", close=True)
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(431, "headers-too-large", "header block too large", close=True)
        name, _, value = line.decode("latin-1", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if method in ("POST", "PUT"):
        if "content-length" not in headers:
            if headers.get("transfer-encoding"):
                raise HttpError(
                    411, "length-required", "chunked request bodies are not supported", close=True
                )
            raise HttpError(411, "length-required", "POST requires Content-Length", close=True)
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad-content-length", "unparseable Content-Length", close=True)
        if length < 0:
            raise HttpError(400, "bad-content-length", "negative Content-Length", close=True)
        if length > max_body_bytes:
            raise HttpError(
                413,
                "body-too-large",
                f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit",
                close=True,
            )
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None

    path, _, query_string = target.partition("?")
    return HttpRequest(
        method=method,
        path=path,
        query=parse_qs(query_string, keep_blank_values=True),
        headers=headers,
        body=body,
    )


# --------------------------------------------------------------------------- #
# Task decoding (the structured-4xx validation layer)
# --------------------------------------------------------------------------- #


def _decode_one(data: object) -> object:
    """One tagged wire object -> request instance, with typed 400s."""
    if not isinstance(data, dict) or "kind" not in data:
        raise HttpError(
            400,
            "invalid-envelope",
            'a task must be a tagged object: {"kind": "<RequestType>", "fields": {...}}',
        )
    kind = data["kind"]
    if kind not in _REQUEST_KINDS:
        known = ", ".join(sorted(_REQUEST_KINDS))
        raise HttpError(400, "unknown-task", f"unknown task kind {kind!r} (known: {known})")
    fields_value = data.get("fields", {})
    if not isinstance(fields_value, dict):
        raise HttpError(400, "invalid-envelope", "'fields' must be a JSON object")
    try:
        request = from_wire({"kind": kind, "fields": fields_value})
    except ReproError as error:
        raise HttpError(400, "invalid-request", f"invalid {kind}: {error}")
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise HttpError(400, "invalid-request", f"invalid {kind} fields: {error!r}")
    if isinstance(request, SweepRequest) and request.out_path is not None:
        # A served sweep would open a client-chosen path for writing (and
        # truncate it), the daemon's own result log included.  Resume needs
        # out_path, so it is refused with it.
        raise HttpError(
            400,
            "field-not-served",
            "SweepRequest.out_path (and resume) are not served: the daemon "
            "writes only its own result log; submit the sweep without them",
        )
    return request


def _parse_json(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise HttpError(400, "invalid-json", f"request body is not valid JSON: {error}")


def decode_task_body(body: bytes) -> object:
    """``POST /v1/task`` body -> one validated request object."""
    return _decode_one(_parse_json(body))


def decode_batch_body(body: bytes, max_tasks: int) -> List[object]:
    """``POST /v1/tasks`` body -> a non-empty list of validated requests.

    The whole batch validates before anything is admitted, so a batch is
    atomic: either every task is queued or none is (a malformed entry cannot
    leave half a batch running).
    """
    data = _parse_json(body)
    if not isinstance(data, list):
        raise HttpError(400, "invalid-batch", "a batch must be a JSON array of tagged tasks")
    if not data:
        raise HttpError(400, "invalid-batch", "a batch must contain at least one task")
    if len(data) > max_tasks:
        raise HttpError(
            413,
            "batch-too-large",
            f"batch of {len(data)} tasks exceeds the {max_tasks}-task limit",
        )
    requests = []
    for index, entry in enumerate(data):
        try:
            requests.append(_decode_one(entry))
        except HttpError as error:
            raise HttpError(
                error.status, error.code, f"batch item {index}: {error.message}"
            )
    return requests
