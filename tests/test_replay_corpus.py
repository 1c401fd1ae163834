"""The committed replay corpus replays bit-for-bit through the live code.

``tests/data/replay_corpus.jsonl`` was recorded by
``tools/record_replay_corpus.py`` from an earlier version of the code.  Unlike
the record-then-replay tests of ``test_provenance_replay.py``, which record
and replay in one process, this pins results across versions: a change that
alters any recorded result fails here and names the record.  A change that
alters one on purpose re-records the corpus and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import os

from repro.api import Session
from repro.provenance import read_log, replay_record, verify_log

CORPUS = os.path.join(os.path.dirname(__file__), "data", "replay_corpus.jsonl")


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
