"""Canonical encoding, content addresses and hash-chain sealing rules.

A provenance record is a flat JSON object.  Three field groups make it
accountable:

* **Identity** — ``kind`` (``"task"``, ``"shard"``, ``"plan"``, ``"bench"``),
  ``schema_version`` (:data:`PROVENANCE_SCHEMA_VERSION`) and ``address``:
  the sha256 content address of a canonical encoding of *what was asked* —
  the request envelope / scenario spec / seeds plus the code and schema
  version — never of what was produced.  Two runs of the same code over the
  same request share an address; the address is how ``repro log replay``
  finds the record to re-execute.
* **Chain** — ``parent`` is the previous record's ``record_hash``
  (:data:`GENESIS_PARENT` for the first record) and ``record_hash`` is the
  sha256 of the canonical encoding of the record *minus* ``record_hash``.
  Appends therefore commit to the entire history: flipping a single byte
  anywhere in the log breaks a record hash or a parent link, which
  :func:`repro.provenance.log.verify_log` reports by record index.
* **Body** — the record kind's own fields (the wire-encoded request and
  result for tasks, the rows for sweep shards, the report for benchmarks).

Canonical encoding is :func:`canonical_json`: sorted keys, no whitespace,
NaN rejected — the same canonical form the task envelope codec
(:mod:`repro.api.envelope`) uses, so equal records always hash equally.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.errors import TaskError

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "GENESIS_PARENT",
    "canonical_json",
    "content_address",
    "code_version",
    "task_address",
    "seal_record",
    "sealed_line",
    "record_digest",
]

#: Version of the provenance record schema; bumped on incompatible changes.
PROVENANCE_SCHEMA_VERSION = 1

#: The ``parent`` of the first record of a log (no predecessor to commit to).
GENESIS_PARENT = "0" * 64

#: Fields every sealed record carries besides its kind-specific body.
_ENVELOPE_FIELDS = ("kind", "schema_version", "parent", "address", "record_hash")


#: What ``json.dumps(obj, sort_keys=True, separators=(",", ":"),
#: allow_nan=False)`` builds on every call; it keeps no state between calls.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj: object) -> str:
    """The one canonical JSON encoding: sorted keys, compact, no NaN."""
    try:
        return _CANONICAL.encode(obj)
    except (TypeError, ValueError) as error:
        raise TaskError(
            f"cannot canonically encode this object ({error}); provenance "
            "records must carry only JSON-safe values"
        )


def content_address(obj: object) -> str:
    """sha256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def code_version() -> str:
    """The repository version that produced a record (``repro.__version__``)."""
    import repro

    return repro.__version__


def task_address(request) -> str:
    """Content address of one task submission: request + code/schema version.

    The request's tagged wire envelope already nails down the scenario spec
    and every seed (see :mod:`repro.api.envelope`), so hashing it alongside
    the code and schema version keys the record by everything replay needs.
    """
    from repro.api.envelope import to_wire

    return content_address(
        {
            "request": to_wire(request),
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "code_version": code_version(),
        }
    )


def seal_record(
    kind: str,
    body: Dict[str, object],
    parent: str,
    address: Optional[str] = None,
) -> Dict[str, object]:
    """Build one chain-sealed record: envelope + body + ``record_hash``.

    ``body`` must not shadow the envelope fields — the seal would otherwise
    be ambiguous about which value was hashed.
    """
    record = _unsealed(kind, body, parent, address)
    record["record_hash"] = record_digest(record)
    return record


def _unsealed(
    kind: str, body: Dict[str, object], parent: str, address: Optional[str]
) -> Dict[str, object]:
    """A record's envelope fields and body, before ``record_hash``."""
    clash = sorted(set(body) & set(_ENVELOPE_FIELDS))
    if clash:
        raise TaskError(f"record body may not use the envelope fields {clash}")
    record: Dict[str, object] = {
        "kind": kind,
        "schema_version": PROVENANCE_SCHEMA_VERSION,
        "parent": parent,
    }
    if address is not None:
        record["address"] = address
    record.update(body)
    return record


def sealed_line(
    kind: str,
    body: Dict[str, object],
    parent: str,
    address: Optional[str] = None,
) -> Tuple[Dict[str, object], str]:
    """:func:`seal_record` and the record's :func:`canonical_json`, encoded once.

    Each top-level value is encoded once, and the ``"key":value`` members are
    joined in sorted-key order twice: without ``record_hash`` (the bytes
    hashed) and with it (the bytes written).  A compact sorted-key object is
    exactly that join, so the line equals ``canonical_json(seal_record(...))``
    byte for byte; ``tests/test_provenance.py`` checks it over drawn bodies.
    """
    record = _unsealed(kind, body, parent, address)
    if not all(type(key) is str for key in record):
        # json.dumps turns other key types into strings of its own; leave
        # that to the spec.
        record = seal_record(kind, body, parent, address)
        return record, canonical_json(record)
    members = {
        key: f"{canonical_json(key)}:{canonical_json(value)}"
        for key, value in record.items()
    }
    hashed = "{" + ",".join(members[key] for key in sorted(members)) + "}"
    digest = hashlib.sha256(hashed.encode("utf-8")).hexdigest()
    record["record_hash"] = digest
    members["record_hash"] = f'"record_hash":"{digest}"'
    return record, "{" + ",".join(members[key] for key in sorted(members)) + "}"


def record_digest(record: Dict[str, object]) -> str:
    """What ``record_hash`` must equal: the address of the rest of the record."""
    return content_address(
        {key: value for key, value in record.items() if key != "record_hash"}
    )
