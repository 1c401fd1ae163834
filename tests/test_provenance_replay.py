"""Replay, diff and the sweep stream's provenance-log refactor.

The contract: a record in a provenance log is *sufficient to reproduce its
result* — ``repro log replay`` re-executes the recorded ask through the
public execution paths and the fresh payload matches the recorded one
bit-for-bit (modulo the masked run-dependent fields).  Alongside replay this
file pins the sweep runner's migration to :class:`repro.provenance.log.ResultLog`:
the CLI acceptance path (2-worker sweep → verify → replay → tamper →
verify fails), resume over hash-tampered records, and record/record diffing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.experiments import ScenarioSpec, structured_scenarios
from repro.analysis.runner import plan_sweep, run_sweep
from repro.api import (
    BroadcastRequest,
    ConformanceRequest,
    CountRequest,
    RouteRequest,
    ScheduleRouteRequest,
    Session,
)
from repro.cli import main
from repro.provenance import (
    ResultLog,
    diff_logs,
    read_log,
    replay_record,
    verify_log,
)
from repro.provenance.replay import select_records

GRID = ScenarioSpec(name="replay-grid-16", family="grid", size=16, seed=0)
RING = ScenarioSpec(name="replay-ring-8", family="ring", size=8, seed=1)
DYN = ScenarioSpec(
    name="replay-dyn-ring-8",
    family="ring",
    size=8,
    seed=0,
    extra=(("mutation", "drop-edge"), ("snapshots", 3), ("switch_every", 4)),
)


def _small_plan(master_seed: int = 7, pairs: int = 3):
    scenarios = structured_scenarios("grid", [9]) + structured_scenarios("ring", [6])
    return plan_sweep(
        scenarios, routers=("ues-engine", "flooding"), pairs=pairs, master_seed=master_seed
    )


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[offset % len(data)] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))


# --------------------------------------------------------------------------- #
# Task-record replay through the public Session path
# --------------------------------------------------------------------------- #


def test_logged_tasks_replay_bit_for_bit_across_request_types(tmp_path):
    path = str(tmp_path / "tasks.log")
    with ResultLog(path, "w") as log:
        session = Session(result_log=log)
        session.submit(RouteRequest(scenario=GRID, source=0, target=15))
        session.submit(CountRequest(scenario=RING, source=2))
        session.submit(BroadcastRequest(scenario=GRID, source=3))
    records, issues = read_log(path)
    assert issues == [] and len(records) == 3
    fresh = Session()
    for position, record in enumerate(records):
        outcome = replay_record(record, session=fresh, index=position)
        assert outcome.ok, outcome.detail
        assert outcome.kind == "task"
        assert outcome.address == record["address"]


def test_legacy_schedule_backend_record_replays_as_inline(tmp_path):
    # Logs written while schedule routes had their own backend carry
    # backend="schedule"; they must still verify and replay as reproduced.
    path = str(tmp_path / "legacy.log")
    request = ScheduleRouteRequest(scenario=DYN, num_pairs=3, pair_seed=2)
    result = Session().submit(request)
    assert result.backend == "inline"
    with ResultLog(path, "w") as log:
        log.append_task(request, dataclasses.replace(result, backend="schedule"))
    assert verify_log(path).ok
    records, _issues = read_log(path)
    assert records[0]["result"]["fields"]["backend"] == "schedule"
    outcome = replay_record(records[0], session=Session())
    assert outcome.ok, outcome.detail
    assert "reproduced" in outcome.detail


def test_conformance_record_replays_over_explicit_scenarios(tmp_path):
    path = str(tmp_path / "conf.log")
    request = ConformanceRequest(
        scenarios=(GRID, RING), pairs_per_scenario=2, seed=0, workers=1
    )
    with ResultLog(path, "w") as log:
        recorded = Session(result_log=log).submit(request, backend="inline")
    assert recorded.status == "ok"
    records, _issues = read_log(path)
    outcome = replay_record(records[0], session=Session())
    assert outcome.ok, outcome.detail


def test_plan_and_bench_records_are_not_replayable(tmp_path):
    path = str(tmp_path / "plan.log")
    with ResultLog(path, "w") as log:
        log.append("plan", {"experiment": "x", "fingerprint": "f"})
        log.append("bench", {"report": {"benchmark": "b"}})
    records, _issues = read_log(path)
    assert select_records(records) == []
    outcome = replay_record(records[0])
    assert not outcome.ok and "not replayable" in outcome.detail


def test_select_records_selectors_are_mutually_exclusive(tmp_path):
    from repro.errors import TaskError

    with pytest.raises(TaskError, match="pick one of"):
        select_records([], address="ab", index=0)


# --------------------------------------------------------------------------- #
# The acceptance path: sweep → verify → replay → tamper → verify fails
# --------------------------------------------------------------------------- #


def test_two_worker_sweep_log_verifies_replays_and_detects_tampering(tmp_path):
    out = str(tmp_path / "sweep.log")
    run_sweep(_small_plan(), workers=2, out_path=out)

    assert main(["log", "verify", out]) == 0
    assert main(["log", "replay", out, "--sample", "2"]) == 0
    assert main(["log", "replay", out]) == 0  # every shard record reproduces

    # Replay by address and by index agree with the full pass.
    records, _issues = read_log(out)
    shard = next(record for record in records if record["kind"] == "shard")
    assert main(["log", "replay", out, shard["address"]]) == 0
    assert main(["log", "replay", out, "--index", "1"]) == 0

    # A single flipped byte makes verification fail.
    _flip_byte(out, 100)
    assert main(["log", "verify", out]) == 1


def test_verify_fails_for_a_flip_in_every_region_of_the_log(tmp_path):
    out = str(tmp_path / "regions.log")
    run_sweep(_small_plan(), workers=1, out_path=out)
    with open(out, "rb") as handle:
        size = len(handle.read())
    for offset in (0, size // 4, size // 2, (3 * size) // 4, size - 2):
        tampered = str(tmp_path / f"tampered-{offset}.log")
        with open(out, "rb") as src, open(tampered, "wb") as dst:
            dst.write(src.read())
        _flip_byte(tampered, offset)
        report = verify_log(tampered)
        assert not report.ok, f"flip at byte {offset} went undetected"
        assert main(["log", "verify", tampered]) == 1


def test_resume_reexecutes_hash_tampered_shards_and_reproduces_the_table(tmp_path):
    plan = _small_plan()
    serial = run_sweep(plan, workers=1)
    out = str(tmp_path / "resume.log")
    run_sweep(plan, workers=1, out_path=out)

    # Tamper one shard record's rows without resealing: its hash no longer
    # verifies, so resume must treat the shard as missing and re-execute it.
    records, _issues = read_log(out)
    victim = next(record for record in records if record["kind"] == "shard")
    with open(out, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for position, line in enumerate(lines):
        if victim["record_hash"] in line:
            lines[position] = line.replace('"rows":[[', '"rows":[[999999,', 1)
            break
    with open(out, "w", encoding="utf-8") as handle:
        handle.writelines(lines)

    resumed = run_sweep(plan, workers=2, out_path=out, resume=True)
    assert resumed.shards_executed >= 1
    assert resumed.table.rows == serial.table.rows


# --------------------------------------------------------------------------- #
# Log diffing
# --------------------------------------------------------------------------- #


def test_diff_distinguishes_identical_prefix_and_diverged_logs(tmp_path):
    left = str(tmp_path / "left.log")
    right = str(tmp_path / "right.log")
    diverged = str(tmp_path / "diverged.log")
    for path, values in ((left, [1, 2]), (right, [1, 2]), (diverged, [1, 3])):
        with ResultLog(path, "w") as log:
            for value in values:
                log.append("test", {"value": value})

    identical, lines = diff_logs(left, right)
    assert identical and lines == []
    assert main(["log", "diff", left, right]) == 0

    identical, lines = diff_logs(left, diverged)
    assert not identical and any("diverge" in line for line in lines)
    assert main(["log", "diff", left, diverged]) == 1

    with ResultLog(right, "a") as log:
        log.append("test", {"value": 4})
    identical, lines = diff_logs(left, right)
    assert not identical and any("strict prefix" in line for line in lines)
    assert main(["log", "diff", left, right]) == 1
