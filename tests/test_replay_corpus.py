"""The committed replay corpus replays bit-for-bit through the live code.

``tests/data/replay_corpus.jsonl`` (task submissions) and
``tests/data/replay_sweep_stream.jsonl`` (the shard stream of a 2-worker
sweep) were recorded by ``tools/record_replay_corpus.py`` from an earlier
version of the code.  Unlike
the record-then-replay tests of ``test_provenance_replay.py``, which record
and replay in one process, this pins results across versions: a change that
alters any recorded result fails here and names the record.  A change that
alters one on purpose re-records the corpus and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import ScenarioSpec
from repro.analysis.runner import SweepPlan, SweepShard, run_sweep
from repro.api import Session
from repro.api.envelope import decode
from repro.provenance.log import read_log, verify_log
from repro.provenance.replay import replay_record

CORPUS = os.path.join(os.path.dirname(__file__), "data", "replay_corpus.jsonl")
SWEEP_STREAM = os.path.join(os.path.dirname(__file__), "data", "replay_sweep_stream.jsonl")


def test_replay_corpus_chain_verifies():
    report = verify_log(CORPUS)
    assert report.ok, report.issues
    assert len(report.records) >= 20


def test_replay_corpus_replays_every_record_bit_for_bit():
    records, issues = read_log(CORPUS)
    assert issues == []
    session = Session()
    diverged = []
    for position, record in enumerate(records):
        outcome = replay_record(record, session=session, index=position)
        if not outcome.ok:
            task = record["result"]["fields"]["task"]
            diverged.append(f"record {position} ({task}): {outcome.detail}")
    assert diverged == []


def test_sweep_stream_holds_one_record_per_shard_and_replays_bit_for_bit():
    report = verify_log(SWEEP_STREAM)
    assert report.ok, report.issues
    header, *shard_records = report.records
    assert header["kind"] == "plan"
    assert all(record["kind"] == "shard" for record in shard_records)
    assert sorted(record["index"] for record in shard_records) == list(
        range(header["shards"])
    )
    diverged = [
        f"record {position}: {outcome.detail}"
        for position, record in enumerate(shard_records, start=1)
        for outcome in [replay_record(record, index=position)]
        if not outcome.ok
    ]
    assert diverged == []


def test_sweep_stream_rows_match_a_fresh_pooled_run():
    records, issues = read_log(SWEEP_STREAM)
    assert issues == []
    header = records[0]
    by_index = {record["index"]: record for record in records[1:]}
    shards = tuple(
        SweepShard(
            index=index,
            spec=decode(ScenarioSpec, record["spec"]),
            router=record["router"],
            pairs=record["pairs"],
            seed=record["seed"],
        )
        for index, record in sorted(by_index.items())
    )
    # The master seed only feeds the fingerprint; each shard carries its seed.
    plan = SweepPlan(
        experiment=header["experiment"],
        headers=tuple(header["headers"]),
        shards=shards,
        master_seed=0,
    )
    recorded = [row for _, record in sorted(by_index.items()) for row in record["rows"]]
    assert run_sweep(plan, workers=2).table.rows == recorded
