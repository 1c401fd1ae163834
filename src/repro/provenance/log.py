""":class:`ResultLog` — the append-only, hash-chained JSONL result log.

One log is one JSONL file: each line is a sealed record
(:func:`repro.provenance.records.seal_record`) whose ``parent`` is the
previous line's ``record_hash``.  Three access modes share the format:

* **Append** — :meth:`ResultLog.append` seals the record against the current
  chain head and writes one flushed line under a lock, so concurrent
  dispatcher threads (the routing daemon) interleave whole records and a
  crash loses at most the line in flight — the same atomicity contract the
  sweep JSONL stream always had.  Opening an existing log in append mode
  adopts its chain head and heals a partial trailing line (a killed writer)
  by terminating it, exactly like the sweep runner's resume path.
* **Tolerant read** — :func:`read_log` returns every record whose line
  parses and whose ``record_hash`` verifies, skipping anything else.  This
  is the crash-safe view resume and the daemon's ``GET /v1/log`` use: a
  corrupt tail (or a tampered record) surfaces as *missing work*, never as
  poisoned data.
* **Strict verify** — :func:`verify_log` walks the whole chain and reports
  every anomaly by record index: unparseable lines, record-hash mismatches,
  lines that are not byte for byte ``canonical_json(record) + "\\n"``, chain
  breaks, unknown schema versions.  A single flipped byte anywhere in the
  file trips at least one of these checks (swept exhaustively over a
  two-record log in ``tests/test_provenance.py``).

Record schema and chain rules are documented in ``docs/provenance.md``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TaskError
from repro.provenance.records import (
    GENESIS_PARENT,
    PROVENANCE_SCHEMA_VERSION,
    canonical_json,
    record_digest,
    sealed_line,
    task_address,
)

__all__ = ["ResultLog", "VerifyReport", "read_log", "verify_log"]


def _parse_line(line: bytes) -> Optional[Dict[str, object]]:
    """The dict a JSONL line carries, or ``None`` when it is not one."""
    import json

    try:
        # A corrupted byte must surface as an unparseable *record* (named by
        # index), never as a decoding crash of the whole scan;
        # UnicodeDecodeError is a ValueError.
        record = json.loads(line.decode("utf-8"))
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _scan(path: str) -> Tuple[List[Dict[str, object]], List[str]]:
    """The tolerant :func:`_scan_data` over the bytes of the file at ``path``."""
    with open(path, "rb") as handle:
        return _scan_data(handle.read())


def _scan_data(
    data: bytes, strict: bool = False
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Shared pass over a log's bytes: hash-valid records plus anomaly notes.

    ``data`` is split on ``b"\\n"`` only.  ``issues`` names every skipped
    line by record index (the index the line *would* have had) and 1-based
    line number, so both the tolerant reader and the strict verifier
    describe the same file the same way.  ``strict`` additionally
    requires every line to be exactly ``canonical_json(record) + "\\n"``: a
    blank line, a missing final newline or any byte the record's hash does
    not cover (whitespace, a different terminator) is an issue too.
    """
    records: List[Dict[str, object]] = []
    issues: List[str] = []
    lines = data.split(b"\n")
    # A terminated log ends in b"\n", which leaves one empty piece behind.
    terminated = len(lines) - 1
    if not lines[-1]:
        lines.pop()
    for line_number, line in enumerate(lines, start=1):
        index = len(records)
        if not line.strip():
            if strict:
                issues.append(f"record {index}: blank line {line_number}")
            continue
        record = _parse_line(line)
        if record is None:
            issues.append(
                f"record {index}: unparseable line {line_number} "
                "(truncated or corrupt)"
            )
            continue
        stored = record.get("record_hash")
        if stored != record_digest(record):
            issues.append(
                f"record {index}: record_hash mismatch on line {line_number} "
                f"(stored {str(stored)[:16]!r}...)"
            )
            continue
        if strict and (
            line_number > terminated
            or line != canonical_json(record).encode("utf-8")
        ):
            issues.append(
                f"record {index}: line {line_number} is not the record's "
                "canonical encoding plus a newline"
            )
            continue
        records.append(record)
    return records, issues


def read_log(path: str) -> Tuple[List[Dict[str, object]], List[str]]:
    """Tolerantly read a log: hash-valid records in file order, plus issues.

    Chain linkage is *not* enforced here — a record after a tampered one is
    still individually valid and resume must keep skipping its shard; the
    linkage check belongs to :func:`verify_log`.
    """
    return _scan(path)


@dataclass
class VerifyReport:
    """What a strict chain walk found: every record, every anomaly."""

    path: str
    ok: bool
    head: str
    records: List[Dict[str, object]] = field(default_factory=list)
    issues: List[str] = field(default_factory=list)


def verify_log(path: str) -> VerifyReport:
    """Walk the whole chain strictly; any anomaly makes the report not-ok.

    Beyond the per-record checks of :func:`read_log`, every line must be
    byte for byte ``canonical_json(record) + "\\n"``, every record's
    ``parent`` must equal the previous record's ``record_hash`` (the first
    record's must be :data:`~repro.provenance.records.GENESIS_PARENT`) and
    its ``schema_version`` must be known.
    """
    with open(path, "rb") as handle:
        return _verify_data(handle.read(), path)


def _verify_data(data: bytes, path: str) -> VerifyReport:
    """:func:`verify_log` over a log's bytes (``path`` only names it)."""
    records, issues = _scan_data(data, strict=True)
    head = GENESIS_PARENT
    for index, record in enumerate(records):
        if record.get("parent") != head:
            issues.append(
                f"record {index}: chain break: parent "
                f"{str(record.get('parent'))[:16]!r}... does not match the "
                f"previous record_hash {head[:16]!r}..."
            )
        if record.get("schema_version") != PROVENANCE_SCHEMA_VERSION:
            issues.append(
                f"record {index}: unknown schema_version "
                f"{record.get('schema_version')!r} "
                f"(this reader supports {PROVENANCE_SCHEMA_VERSION})"
            )
        head = str(record.get("record_hash"))
    issues.sort(key=lambda issue: int(issue.split(":")[0].split()[1]))
    return VerifyReport(
        path=path, ok=not issues, head=head, records=records, issues=issues
    )


def _missing_final_newline(path: str) -> bool:
    with open(path, "rb") as peek:
        peek.seek(0, os.SEEK_END)
        if peek.tell() == 0:
            return False
        peek.seek(-1, os.SEEK_END)
        return peek.read(1) != b"\n"


class ResultLog:
    """Append sealed records to one JSONL file; track the chain head.

    ``mode="a"`` (default) continues an existing log: the constructor scans
    the file tolerantly, adopts the last hash-valid record's hash as the
    chain head, and terminates a partial trailing line so the next append
    cannot concatenate onto it.  ``mode="w"`` truncates and starts a fresh
    chain at :data:`~repro.provenance.records.GENESIS_PARENT`.

    Appends are serialised by an internal lock and flushed line-by-line, so
    the log is safe to share across the daemon's dispatcher threads and a
    crash can only lose the record in flight.
    """

    def __init__(self, path: str, mode: str = "a") -> None:
        if mode not in ("a", "w"):
            raise TaskError(f"ResultLog mode must be 'a' or 'w', not {mode!r}")
        self._path = path
        self._lock = threading.Lock()
        self._head = GENESIS_PARENT
        self._count = 0
        if mode == "a" and os.path.exists(path):
            records, _issues = _scan(path)
            if records:
                self._head = str(records[-1]["record_hash"])
            self._count = len(records)
        self._handle = open(path, mode, encoding="utf-8")
        if mode == "a" and _missing_final_newline(path):
            # The previous writer died mid-line; terminate the partial record
            # now (and flush, in case a process pool forks later) so the
            # first append starts on its own line.
            self._handle.write("\n")
            self._handle.flush()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> str:
        """The JSONL file this log appends to."""
        return self._path

    @property
    def head(self) -> str:
        """The current chain head (the last appended ``record_hash``)."""
        return self._head

    @property
    def count(self) -> int:
        """Hash-valid records adopted at open plus records appended since."""
        return self._count

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append(
        self,
        kind: str,
        body: Dict[str, object],
        address: Optional[str] = None,
    ) -> Dict[str, object]:
        """Seal ``body`` against the chain head and write one flushed line."""
        with self._lock:
            return self._append_locked(kind, body, address)

    def _append_locked(
        self, kind: str, body: Dict[str, object], address: Optional[str]
    ) -> Dict[str, object]:
        record, line = sealed_line(kind, body, parent=self._head, address=address)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._head = str(record["record_hash"])
        self._count += 1
        return record

    def append_task(self, request, result):
        """Record one task submission; return the result with its chain link.

        The returned :class:`~repro.api.envelope.TaskResult` is the input
        with ``provenance["parent"]`` patched to the record's parent hash —
        the stored result and the returned result are the same bytes, which
        is what lets ``repro log replay`` compare them bit-for-bit later.
        """
        from repro.api.envelope import to_wire

        wire_request = to_wire(request)
        with self._lock:
            provenance = result.provenance
            if provenance is not None:
                provenance = dict(provenance)
                provenance["parent"] = self._head
                result = dataclasses.replace(result, provenance=provenance)
                address = str(provenance.get("address"))
            else:
                address = task_address(request)
            self._append_locked(
                "task",
                {"task": request.task, "request": wire_request, "result": to_wire(result)},
                address,
            )
        return result

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the underlying file handle (appends after this raise)."""
        self._handle.close()

    def __enter__(self) -> "ResultLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
