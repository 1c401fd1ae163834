"""The provenance layer's core contracts: sealing, chaining, tamper evidence.

Covers the record rules of :mod:`repro.provenance.records` (canonical
encoding, content addresses, chain sealing), the three access modes of
:mod:`repro.provenance.log` (locked append, tolerant read, strict verify),
and — with hypothesis — the two properties the accountability story rests
on: an appended log always reloads to the identical verified chain, and a
single flipped byte *anywhere* in the file is detected and named by record
index.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RouteRequest, Session
from repro.analysis.experiments import ScenarioSpec
from repro.errors import TaskError
from repro.provenance import (
    GENESIS_PARENT,
    PROVENANCE_SCHEMA_VERSION,
    ResultLog,
    canonical_json,
    content_address,
    read_log,
    record_digest,
    seal_record,
    task_address,
    verify_log,
)

_RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: JSON-safe record bodies (keys kept clear of the envelope fields).
_BODIES = st.dictionaries(
    keys=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
    ).filter(
        lambda k: k not in ("kind", "schema_version", "parent", "address", "record_hash")
    ),
    values=st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=20),
        st.lists(st.integers(min_value=0, max_value=99), max_size=4),
    ),
    max_size=5,
)


def _write_chain(path, bodies):
    with ResultLog(str(path), "w") as log:
        for position, body in enumerate(bodies):
            log.append("test", dict(body), address=content_address(position))
    return str(path)


# --------------------------------------------------------------------------- #
# Canonical encoding and sealing
# --------------------------------------------------------------------------- #


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_canonical_json_rejects_nan_and_non_json_values():
    with pytest.raises(TaskError):
        canonical_json({"x": float("nan")})
    with pytest.raises(TaskError):
        canonical_json({"x": object()})


def test_seal_record_round_trips_through_digest():
    record = seal_record("test", {"value": 7}, parent=GENESIS_PARENT, address="ab" * 32)
    assert record["kind"] == "test"
    assert record["schema_version"] == PROVENANCE_SCHEMA_VERSION
    assert record["parent"] == GENESIS_PARENT
    assert record["address"] == "ab" * 32
    assert record["record_hash"] == record_digest(record)


def test_seal_record_rejects_envelope_field_shadowing():
    with pytest.raises(TaskError, match="envelope fields"):
        seal_record("test", {"parent": "oops"}, parent=GENESIS_PARENT)


def test_task_address_is_deterministic_and_request_sensitive():
    spec = ScenarioSpec(name="prov-grid", family="grid", size=9, seed=0)
    first = RouteRequest(scenario=spec, source=0, target=8)
    second = RouteRequest(scenario=spec, source=0, target=7)
    assert task_address(first) == task_address(first)
    assert task_address(first) != task_address(second)


# --------------------------------------------------------------------------- #
# ResultLog append / reload / verify
# --------------------------------------------------------------------------- #


def test_fresh_log_chains_from_genesis(tmp_path):
    path = str(tmp_path / "chain.log")
    with ResultLog(path, "w") as log:
        first = log.append("test", {"value": 1})
        second = log.append("test", {"value": 2})
        assert log.count == 2
        assert log.head == second["record_hash"]
    assert first["parent"] == GENESIS_PARENT
    assert second["parent"] == first["record_hash"]
    report = verify_log(path)
    assert report.ok and report.head == second["record_hash"]
    assert [record["value"] for record in report.records] == [1, 2]


def test_write_mode_truncates_and_restarts_the_chain(tmp_path):
    path = _write_chain(tmp_path / "w.log", [{"value": 1}, {"value": 2}])
    with ResultLog(path, "w") as log:
        assert log.count == 0
        record = log.append("test", {"value": 3})
    assert record["parent"] == GENESIS_PARENT
    records, issues = read_log(path)
    assert issues == []
    assert [record["value"] for record in records] == [3]


def test_append_mode_adopts_the_existing_head(tmp_path):
    path = _write_chain(tmp_path / "a.log", [{"value": 1}])
    before = verify_log(path)
    with ResultLog(path, "a") as log:
        assert log.count == 1
        assert log.head == before.head
        appended = log.append("test", {"value": 2})
    assert appended["parent"] == before.head
    after = verify_log(path)
    assert after.ok and len(after.records) == 2


def test_append_mode_heals_a_partial_trailing_line(tmp_path):
    path = _write_chain(tmp_path / "partial.log", [{"value": 1}])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "test", "tru')  # killed writer: no newline
    with ResultLog(path, "a") as log:
        assert log.count == 1  # the partial line is not a record
        log.append("test", {"value": 2})
    records, issues = read_log(path)
    assert [record["value"] for record in records] == [1, 2]
    assert len(issues) == 1 and "unparseable" in issues[0]
    assert not verify_log(path).ok  # strict view still names the corruption


def test_verify_names_an_unknown_schema_version(tmp_path):
    path = str(tmp_path / "schema.log")
    record = {
        "kind": "test",
        "schema_version": PROVENANCE_SCHEMA_VERSION + 1,
        "parent": GENESIS_PARENT,
        "value": 1,
    }
    record["record_hash"] = record_digest(record)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(record) + "\n")
    report = verify_log(path)
    assert not report.ok
    assert any("unknown schema_version" in issue for issue in report.issues)


def test_truncated_tail_is_skipped_tolerantly_and_flagged_strictly(tmp_path):
    path = _write_chain(tmp_path / "trunc.log", [{"value": 1}, {"value": 2}])
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-10])  # cut the last record mid-line
    records, issues = read_log(path)
    assert [record["value"] for record in records] == [1]
    assert len(issues) == 1 and issues[0].startswith("record 1:")
    report = verify_log(path)
    assert not report.ok and report.issues[0].startswith("record 1:")


def test_read_log_does_not_enforce_linkage_but_verify_does(tmp_path):
    # Two individually-sealed records that both claim the genesis parent:
    # the tolerant reader accepts both, the strict verifier names the break.
    path = str(tmp_path / "forked.log")
    with open(path, "w", encoding="utf-8") as handle:
        for value in (1, 2):
            record = seal_record("test", {"value": value}, parent=GENESIS_PARENT)
            handle.write(canonical_json(record) + "\n")
    records, issues = read_log(path)
    assert len(records) == 2 and issues == []
    report = verify_log(path)
    assert not report.ok
    assert any("chain break" in issue for issue in report.issues)


def test_append_task_links_the_result_into_the_chain(tmp_path):
    spec = ScenarioSpec(name="prov-grid-16", family="grid", size=16, seed=0)
    path = str(tmp_path / "tasks.log")
    with ResultLog(path, "w") as log:
        session = Session(result_log=log)
        first = session.submit(RouteRequest(scenario=spec, source=0, target=15))
        second = session.submit(RouteRequest(scenario=spec, source=1, target=14))
    assert first.provenance["parent"] == GENESIS_PARENT
    report = verify_log(path)
    assert report.ok and len(report.records) == 2
    # The chain position of the second record is the first record's hash.
    assert second.provenance["parent"] == report.records[0]["record_hash"]
    # Stored result == returned result: replay's bit-for-bit premise.
    from repro.api.envelope import to_wire

    assert report.records[0]["result"] == to_wire(first)
    assert report.records[0]["address"] == first.provenance["address"]


# --------------------------------------------------------------------------- #
# Properties: round-trip determinism and single-byte tamper evidence
# --------------------------------------------------------------------------- #


@_RELAXED
@given(bodies=st.lists(_BODIES, min_size=1, max_size=6))
def test_append_reload_verify_is_the_identity(tmp_path_factory, bodies):
    path = str(tmp_path_factory.mktemp("prov") / "roundtrip.log")
    appended = []
    with ResultLog(path, "w") as log:
        for body in bodies:
            appended.append(log.append("test", dict(body)))
        head = log.head
    report = verify_log(path)
    assert report.ok
    assert report.records == appended
    assert report.head == head == appended[-1]["record_hash"]
    # Reopening for append adopts exactly the verified chain state.
    with ResultLog(path, "a") as reopened:
        assert reopened.head == head and reopened.count == len(appended)


@_RELAXED
@given(
    bodies=st.lists(_BODIES, min_size=1, max_size=4),
    position=st.integers(min_value=0, max_value=10 ** 9),
    flip=st.integers(min_value=1, max_value=255),
)
def test_any_single_flipped_byte_is_detected_by_record_index(
    tmp_path_factory, bodies, position, flip
):
    path = str(tmp_path_factory.mktemp("prov") / "tamper.log")
    _write_chain(path, bodies)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    offset = position % len(data)
    data[offset] ^= flip
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    report = verify_log(path)
    assert not report.ok
    assert report.issues, "a flipped byte must surface at least one issue"
    for issue in report.issues:
        assert issue.startswith("record "), issue
        int(issue.split(":")[0].split()[1])  # the index is a real number



def test_every_single_byte_flip_of_a_two_record_log_is_detected(tmp_path):
    # Exhaustive over offset x flip.  The sampled property above once missed
    # the ten flips that turn a record terminator into other whitespace,
    # because the verifier re-parsed lines instead of checking their bytes.
    # The sweep runs on the verifier's in-memory core (~10^5 variants; a
    # file write each would dominate); the two historical misses also go
    # through verify_log on disk.
    from repro.provenance.log import _verify_data

    path = _write_chain(tmp_path / "sweep.log", [{"value": 1}, {"value": 2}])
    with open(path, "rb") as handle:
        original = handle.read()
    assert verify_log(path).ok and _verify_data(original, path).ok
    undetected = []
    for offset in range(len(original)):
        data = bytearray(original)
        for flip in range(1, 256):
            data[offset] = original[offset] ^ flip
            report = _verify_data(bytes(data), path)
            if report.ok or not report.issues:
                undetected.append((offset, flip))
    assert undetected == []

    final_newline = len(original) - 1
    between_records = original.index(b"\n")
    for offset, replacement in ((final_newline, b"\t"), (between_records, b"\r")):
        tampered = original[:offset] + replacement + original[offset + 1 :]
        with open(path, "wb") as handle:
            handle.write(tampered)
        report = verify_log(path)
        assert not report.ok and report.issues[0].startswith("record ")
