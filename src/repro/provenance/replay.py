"""Replay recorded results through the live code and compare bit-for-bit.

A provenance record stores *what was asked* (the tagged request envelope, or
a sweep shard's spec/router/pairs/seed) next to *what was produced*.  Replay
closes the loop: it re-executes the recorded ask through exactly the public
execution paths — :meth:`repro.api.session.Session.submit` for ``task``
records, :func:`repro.analysis.runner.evaluate_shard` for ``shard`` records
— and asserts the fresh payload is byte-identical to the recorded one under
the canonical encoding.  That equality is the refactor-safety argument the
log exists for: any change that alters a published number breaks replay.

Two recorded fields are legitimately run-dependent and are masked before
comparison: ``elapsed_seconds`` (wall clock) and ``provenance.parent`` (the
chain position of the *recorded* run).  Replayed sweep tasks additionally
run without their ``out_path``/``resume`` side effects, so the bookkeeping
payload keys those options feed (``out_path``, ``shards_executed``,
``shards_skipped``) are masked too — the table rows themselves are always
compared exactly.  A result recorded under a retired backend id
(``"schedule"``, see :func:`repro.api.session.resolve_backend`) replays on,
and compares as, the backend that serves it now (``"inline"``).  ``plan``
and ``bench`` records are descriptive, not executable, and are skipped.

The CLI front ends (``repro log verify`` / ``replay`` / ``diff``) dispatch
into :func:`run_log_command`; see ``docs/cli.md`` and ``docs/provenance.md``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TaskError
from repro.provenance.log import read_log, verify_log
from repro.provenance.records import canonical_json

__all__ = [
    "ReplayOutcome",
    "replay_record",
    "select_records",
    "diff_logs",
    "run_log_command",
]

#: Record kinds that carry something executable.
REPLAYABLE_KINDS = ("task", "shard")

#: Sweep-task payload keys fed by out_path/resume (masked, see module doc).
_SWEEP_BOOKKEEPING_KEYS = ("out_path", "shards_executed", "shards_skipped")


@dataclass
class ReplayOutcome:
    """One record's replay verdict."""

    index: int
    kind: str
    address: Optional[str]
    ok: bool
    detail: str


def _normalised_result_wire(result) -> Dict[str, object]:
    """A result's wire form with the run-dependent fields masked."""
    from repro.api.envelope import to_wire

    result = result.replace_timing(0.0)
    if result.provenance is not None:
        provenance = dict(result.provenance)
        provenance["parent"] = None
        result = dataclasses.replace(result, provenance=provenance)
    wire = to_wire(result)
    if result.task == "sweep":
        fields = dict(wire["fields"])
        payload = dict(fields["payload"])
        for key in _SWEEP_BOOKKEEPING_KEYS:
            payload[key] = None
        fields["payload"] = payload
        wire = {"kind": wire["kind"], "fields": fields}
    return wire


def _replay_task(record: Dict[str, object], session) -> Tuple[bool, str]:
    from repro.api.envelope import from_wire
    from repro.api.requests import SweepRequest
    from repro.api.session import Session, resolve_backend

    request = from_wire(record["request"])
    recorded = from_wire(record["result"])
    # A retired backend id replays on, and compares as, its successor.
    recorded = dataclasses.replace(
        recorded, backend=resolve_backend(recorded.backend, request)
    )
    if isinstance(request, SweepRequest) and (request.out_path or request.resume):
        # Replay must not overwrite the recorded run's shard stream (or any
        # other file); the rows are identical either way.
        request = dataclasses.replace(request, out_path=None, resume=False)
    if session is None:
        session = Session()
    # Honour the recorded backend routing when the replaying session knows
    # it (an explicit backend= override is part of what was asked).
    backend = recorded.backend if recorded.backend in session.backends else None
    fresh = session.submit(request, backend=backend)
    recorded_wire = _normalised_result_wire(recorded)
    fresh_wire = _normalised_result_wire(fresh)
    if canonical_json(recorded_wire) == canonical_json(fresh_wire):
        return True, f"task {recorded.task!r} reproduced bit-for-bit"
    mismatched = sorted(
        key
        for key in set(recorded_wire["fields"]) | set(fresh_wire["fields"])
        if recorded_wire["fields"].get(key) != fresh_wire["fields"].get(key)
    )
    return False, (
        f"task {recorded.task!r} diverged from the recorded result "
        f"(fields: {', '.join(mismatched)})"
    )


def _replay_shard(record: Dict[str, object]) -> Tuple[bool, str]:
    from repro.analysis.runner import SweepShard, evaluate_shard
    from repro.api.envelope import _spec_from_wire

    shard = SweepShard(
        index=int(record["index"]),
        spec=_spec_from_wire(record["spec"]),
        router=str(record["router"]),
        pairs=int(record["pairs"]),
        seed=int(record["seed"]),
    )
    fresh = evaluate_shard(shard)
    if canonical_json(fresh) == canonical_json(record["rows"]):
        return True, f"shard {shard.key!r} reproduced {len(fresh)} rows bit-for-bit"
    return False, f"shard {shard.key!r} rows diverged from the recorded rows"


def replay_record(
    record: Dict[str, object], session=None, index: int = 0
) -> ReplayOutcome:
    """Re-execute one record; compare against its recorded result."""
    kind = str(record.get("kind"))
    address = record.get("address")
    address = str(address) if address is not None else None
    if kind == "task":
        ok, detail = _replay_task(record, session)
    elif kind == "shard":
        ok, detail = _replay_shard(record)
    else:
        return ReplayOutcome(
            index=index,
            kind=kind,
            address=address,
            ok=False,
            detail=f"record kind {kind!r} is not replayable",
        )
    return ReplayOutcome(index=index, kind=kind, address=address, ok=ok, detail=detail)


def select_records(
    records: List[Dict[str, object]],
    address: Optional[str] = None,
    index: Optional[int] = None,
    sample: Optional[int] = None,
) -> List[Tuple[int, Dict[str, object]]]:
    """The ``(index, record)`` pairs a replay invocation asks for.

    ``address`` matches a record's content address or its ``record_hash``
    (every match replays); ``index`` picks one record by position; ``sample``
    picks that many evenly spaced *replayable* records (deterministically —
    CI uses this to spot-check a fresh log).  With no selector, every
    replayable record is selected.
    """
    if sum(selector is not None for selector in (address, index, sample)) > 1:
        raise TaskError("pick one of: an address, --index, --sample")
    if address is not None:
        matches = [
            (position, record)
            for position, record in enumerate(records)
            if address in (record.get("address"), record.get("record_hash"))
        ]
        if not matches:
            raise TaskError(f"no record with address or hash {address!r}")
        return matches
    if index is not None:
        if not 0 <= index < len(records):
            raise TaskError(
                f"--index {index} out of range (log holds {len(records)} records)"
            )
        return [(index, records[index])]
    replayable = [
        (position, record)
        for position, record in enumerate(records)
        if record.get("kind") in REPLAYABLE_KINDS
    ]
    if sample is None:
        return replayable
    if sample < 1:
        raise TaskError("--sample must be >= 1")
    if not replayable:
        return []
    count = min(sample, len(replayable))
    return [replayable[position * len(replayable) // count] for position in range(count)]


def diff_logs(left: str, right: str) -> Tuple[bool, List[str]]:
    """Compare two logs record by record; ``(identical, difference notes)``."""
    left_records, left_issues = read_log(left)
    right_records, right_issues = read_log(right)
    lines = [f"{left}: {issue}" for issue in left_issues]
    lines += [f"{right}: {issue}" for issue in right_issues]
    for position, (a, b) in enumerate(zip(left_records, right_records)):
        if a.get("record_hash") != b.get("record_hash"):
            lines.append(
                f"record {position}: chains diverge — "
                f"{a.get('kind')} {str(a.get('record_hash'))[:16]}... vs "
                f"{b.get('kind')} {str(b.get('record_hash'))[:16]}..."
            )
            break
    else:
        if len(left_records) != len(right_records):
            shorter, longer = (
                (left, right)
                if len(left_records) < len(right_records)
                else (right, left)
            )
            lines.append(
                f"{shorter} is a strict prefix of {longer} "
                f"({len(left_records)} vs {len(right_records)} records)"
            )
    return (not lines, lines)


# --------------------------------------------------------------------------- #
# CLI entry (`repro log ...` dispatches here)
# --------------------------------------------------------------------------- #


def run_log_command(args, out=None) -> int:
    """Body of the ``repro log`` subcommand family; returns the exit status."""
    out = out if out is not None else sys.stdout
    paths = (
        (args.left, args.right)
        if args.log_command == "diff"
        else (args.path,)
    )
    for path in paths:
        if not os.path.isfile(path):
            raise TaskError(f"no such result log: {path}")
    if args.log_command == "verify":
        report = verify_log(args.path)
        if report.ok:
            print(
                f"ok: {len(report.records)} records, chain verified "
                f"(head {report.head[:16]}...)",
                file=out,
            )
            return 0
        print(
            f"FAIL: {len(report.issues)} issues in {args.path}",
            file=out,
        )
        for issue in report.issues:
            print(f"  {issue}", file=out)
        return 1
    if args.log_command == "replay":
        records, issues = read_log(args.path)
        for issue in issues:
            print(f"[skipped] {issue}", file=out)
        selected = select_records(
            records, address=args.address, index=args.index, sample=args.sample
        )
        if not selected:
            print(f"no replayable records in {args.path}", file=out)
            return 1
        from repro.api.session import Session

        session = Session()
        failures = 0
        for position, record in selected:
            outcome = replay_record(record, session=session, index=position)
            status = "ok" if outcome.ok else "FAIL"
            print(f"record {position} [{outcome.kind}] {status}: {outcome.detail}", file=out)
            failures += 0 if outcome.ok else 1
        if failures:
            print(f"FAIL: {failures}/{len(selected)} replays diverged", file=out)
            return 1
        print(f"ok: {len(selected)} records replayed bit-for-bit", file=out)
        return 0
    if args.log_command == "diff":
        identical, lines = diff_logs(args.left, args.right)
        if identical:
            print("ok: logs are identical record-for-record", file=out)
            return 0
        for line in lines:
            print(line, file=out)
        return 1
    raise TaskError(f"unknown log subcommand {args.log_command!r}")
