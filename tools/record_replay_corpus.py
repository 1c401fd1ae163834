#!/usr/bin/env python3
"""Record the committed replay corpus under ``tests/data/``.

The corpus is two hash-chained provenance logs:

* ``replay_corpus.jsonl``: small task submissions made through
  :class:`repro.api.Session`;
* ``replay_sweep_stream.jsonl``: the plan and shard records a 2-worker
  :func:`repro.analysis.runner.run_sweep` streams to its ``out_path``.

``tests/test_replay_corpus.py`` verifies both chains and replays every record
through the live code, so a change that alters any recorded result fails
tier-1 and names the record.

A change that alters a recorded result *on purpose* re-records the corpus
with this script and says why in ``CHANGES.md``; the corpus diff is then the
visible record of the contract change.  Usage::

    PYTHONPATH=src python tools/record_replay_corpus.py [--out PATH] [--sweep-out PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.experiments import ScenarioSpec  # noqa: E402
from repro.analysis.runner import plan_sweep, run_sweep  # noqa: E402
from repro.api import (  # noqa: E402
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    Session,
    SweepRequest,
)
from repro.provenance.log import ResultLog, read_log  # noqa: E402

DEFAULT_OUT = os.path.join(ROOT, "tests", "data", "replay_corpus.jsonl")
DEFAULT_SWEEP_OUT = os.path.join(ROOT, "tests", "data", "replay_sweep_stream.jsonl")

GRID = ScenarioSpec(name="corpus-grid-16", family="grid", size=16)
GRID_9 = ScenarioSpec(name="corpus-grid-9", family="grid", size=9)
#: 64 pairs on its ~530-vertex kernel clear the lockstep batch thresholds.
GRID_144 = ScenarioSpec(name="corpus-grid-144", family="grid", size=144)
RING = ScenarioSpec(name="corpus-ring-12", family="ring", size=12)
RING_7 = ScenarioSpec(name="corpus-ring-7", family="ring", size=7)
PRISM = ScenarioSpec(name="corpus-prism-12", family="prism", size=12)
#: Components of 11, 2 and 1 vertices (9 is in the 11, 10 in the 2, 12 is
#: isolated).
DISK = ScenarioSpec(
    name="corpus-disk-14", family="unit-disk", size=14, radius=0.3, seed=2
)
TWO_RINGS = ScenarioSpec(name="corpus-two-rings-10", family="two-rings", size=10)
DYN = ScenarioSpec(
    name="corpus-dyn-ring-8",
    family="ring",
    size=8,
    extra=(("mutation", "drop-edge"), ("snapshots", 3), ("switch_every", 4)),
)


def corpus_requests():
    """The submissions the corpus records, in order, as ``(request, backend)``.

    ``backend`` ``None`` takes the request type's default backend.
    """
    submissions = [
        CountRequest(scenario=RING, source=0),
        CountRequest(scenario=GRID, source=5),
        CountRequest(scenario=PRISM, source=3),
        CountRequest(scenario=DISK, source=9),
        CountRequest(scenario=DISK, source=10),
        CountRequest(scenario=DISK, source=12),
        BroadcastReliableRequest(
            scenario=RING_7, source=2, num_byzantine=1, fault_seed=11
        ),
        BroadcastReliableRequest(
            scenario=GRID_9, source=0, byzantine=((4, "equivocate"), (7, "delay"))
        ),
        BroadcastReliableRequest(scenario=RING_7, source=5, crashes=(1, 3)),
        BroadcastReliableRequest(scenario=DISK, source=9, value="v"),
        ConnectivityRequest(scenario=GRID, source=0, target=15),
        ConnectivityRequest(scenario=TWO_RINGS, source=0, target=9),
        RouteRequest(scenario=GRID, source=0, target=15),
        RouteRequest(scenario=DISK, source=9, target=10),
        RouteBatchRequest(scenario=PRISM, pairs=((0, 7), (3, 11), (5, 2), (8, 8))),
        RouteBatchRequest(scenario=GRID_144, num_pairs=64, pair_seed=3),
        ScheduleRouteRequest(scenario=DYN, num_pairs=3, pair_seed=2),
        BroadcastRequest(scenario=RING_7, source=1),
        CompareRequest(scenario=RING_7, num_pairs=2, pair_seed=4),
        ConformanceRequest(scenarios=(RING_7,), pairs_per_scenario=1, seed=0),
        SweepRequest(scenarios=(GRID_9, RING_7), pairs=2, master_seed=1, workers=2),
    ]
    inline = [
        ConformanceRequest(scenarios=(GRID_9,), pairs_per_scenario=1, seed=3),
        SweepRequest(scenarios=(RING_7,), pairs=2, master_seed=2),
    ]
    return [(request, None) for request in submissions] + [
        (request, "inline") for request in inline
    ]


def sweep_plan():
    """The pooled sweep the stream records: engine, baseline and schedule shards.

    Every scenario has at most 16 nodes.  The unit-disk deployment admits the
    position-based ``greedy`` router; the dynamic ring is routed by the
    schedule walker.
    """
    return plan_sweep(
        (GRID, RING, PRISM, DISK, DYN),
        routers=("ues-engine", "random-walk", "greedy"),
        pairs=4,
        master_seed=5,
        experiment="corpus-sweep",
    )


def record_sweep(path: str) -> int:
    """Stream a 2-worker run of :func:`sweep_plan` to ``path``; returns its records."""
    run_sweep(sweep_plan(), workers=2, out_path=path)
    records, _issues = read_log(path)
    return len(records)


def record(path: str) -> int:
    """Write the corpus to ``path``; returns the number of records."""
    with ResultLog(path, "w") as log:
        session = Session(result_log=log)
        for request, backend in corpus_requests():
            session.submit(request, backend=backend)
        # A log written while schedule routes had their own backend.
        legacy = ScheduleRouteRequest(scenario=DYN, num_pairs=2, pair_seed=5)
        log.append_task(legacy, dataclasses.replace(Session().submit(legacy), backend="schedule"))
        return log.count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="corpus path (overwritten)")
    parser.add_argument(
        "--sweep-out", default=DEFAULT_SWEEP_OUT, help="sweep stream path (overwritten)"
    )
    args = parser.parse_args(argv)
    count = record(args.out)
    print(f"recorded {count} records to {args.out}")
    count = record_sweep(args.sweep_out)
    print(f"recorded {count} records to {args.sweep_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
