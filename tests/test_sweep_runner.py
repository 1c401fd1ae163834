"""Tests for the sharded parallel sweep orchestrator (``repro.analysis.runner``).

The contract under test: a parallel sweep is an *optimisation only* — for any
worker count, any completion order, and any resume point, the aggregated
table is row-for-row identical to the serial reference with the same master
seed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.analysis.runner as runner

from repro.analysis.conformance import conformance_pass, default_conformance_matrix
from repro.analysis.experiments import (
    ScenarioSpec,
    dynamic_schedule_scenarios,
    reference_run_parameter_sweep,
    structured_scenarios,
    unit_disk_scenarios,
)
from repro.analysis.runner import (
    SCHEDULE_ROUTER,
    SWEEP_HEADERS,
    evaluate_shard,
    parallel_map,
    plan_sweep,
    run_sweep,
    shard_seed,
)
from repro.core.engine import (
    clear_prepared_caches,
    prepare,
    prepare_schedule,
    prepared_cache_info,
)
from repro.core.universal import RandomSequenceProvider
from repro.errors import ExperimentError
from repro.graphs import generators
from repro.network.dynamics import TopologySchedule
from repro.provenance.log import verify_log


def _small_plan(master_seed: int = 7, pairs: int = 3):
    scenarios = (
        structured_scenarios("grid", [9])
        + structured_scenarios("ring", [6])
        + structured_scenarios("two-rings", [8])
    )
    return plan_sweep(
        scenarios, routers=("ues-engine", "flooding"), pairs=pairs, master_seed=master_seed
    )


# --------------------------------------------------------------------------- #
# Planning and seeding
# --------------------------------------------------------------------------- #


def test_shard_seed_is_deterministic_and_identity_sensitive():
    assert shard_seed(0, "a", "b") == shard_seed(0, "a", "b")
    assert shard_seed(0, "a", "b") != shard_seed(1, "a", "b")
    assert shard_seed(0, "a", "b") != shard_seed(0, "a", "c")
    assert shard_seed(0, "a", "b") >= 0


def test_plan_sweep_expands_the_grid_deterministically():
    plan = _small_plan()
    assert plan.headers == SWEEP_HEADERS
    assert [shard.index for shard in plan.shards] == list(range(6))
    assert [shard.key for shard in plan.shards] == [
        "grid-n9-s0:ues-engine",
        "grid-n9-s0:flooding",
        "ring-n6-s0:ues-engine",
        "ring-n6-s0:flooding",
        "two-rings-n8-s0:ues-engine",
        "two-rings-n8-s0:flooding",
    ]
    assert plan.fingerprint() == _small_plan().fingerprint()
    assert plan.fingerprint() != _small_plan(master_seed=8).fingerprint()
    # One-shot iterables plan identically to sequences.
    from_iterator = plan_sweep(
        iter(structured_scenarios("grid", [9])), routers=("ues-engine", "flooding")
    )
    assert [shard.key for shard in from_iterator.shards] == [
        "grid-n9-s0:ues-engine",
        "grid-n9-s0:flooding",
    ]


def test_plan_sweep_validates_routers_and_pairs():
    scenarios = structured_scenarios("grid", [9])
    with pytest.raises(ExperimentError):
        plan_sweep(scenarios, routers=("no-such-router",))
    with pytest.raises(ExperimentError):
        plan_sweep(scenarios, pairs=0)
    with pytest.raises(ExperimentError):
        plan_sweep([])


def test_plan_sweep_rejects_duplicate_scenario_names():
    # Same name, different network: the shard seed would collide silently.
    duplicated = unit_disk_scenarios([12], radius=0.3) + unit_disk_scenarios(
        [12], radius=0.5
    )
    with pytest.raises(ExperimentError, match="unique"):
        plan_sweep(duplicated)


def test_plan_sweep_skips_inapplicable_routers():
    # Position-based routers have nothing to run on a purely topological grid.
    plan = plan_sweep(structured_scenarios("grid", [9]), routers=("ues-engine", "greedy"))
    assert [shard.router for shard in plan.shards] == ["ues-engine"]
    # ... but apply on unit-disk deployments.
    plan = plan_sweep(
        unit_disk_scenarios([12], radius=0.5), routers=("ues-engine", "greedy")
    )
    assert [shard.router for shard in plan.shards] == ["ues-engine", "greedy"]


def test_plan_sweep_routes_dynamic_scenarios_with_the_schedule_walker():
    specs = dynamic_schedule_scenarios(families=("grid",), sizes=(9,), snapshot_count=2)
    plan = plan_sweep(specs, routers=("ues-engine", "flooding"))
    assert [shard.router for shard in plan.shards] == [SCHEDULE_ROUTER]
    # The exported SCHEDULE_ROUTER constant is a valid router name: it
    # selects the dynamic scenarios of a mixed grid and nothing else.
    mixed = specs + structured_scenarios("grid", [9])
    explicit = plan_sweep(mixed, routers=(SCHEDULE_ROUTER,))
    assert [shard.router for shard in explicit.shards] == [SCHEDULE_ROUTER]
    assert explicit.shards[0].spec == specs[0]
    rows = evaluate_shard(plan.shards[0])
    assert len(rows) == plan.shards[0].pairs
    assert all(row[3] == SCHEDULE_ROUTER for row in rows)


# --------------------------------------------------------------------------- #
# Parallel == serial, bit for bit
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_sweep_matches_serial_reference(workers):
    plan = _small_plan()
    serial = run_sweep(plan, workers=1)
    parallel = run_sweep(plan, workers=workers)
    assert parallel.table.headers == serial.table.headers
    assert parallel.table.rows == serial.table.rows
    assert parallel.shards_executed == serial.shards_total
    assert parallel.shards_skipped == 0


def test_parallel_sweep_matches_serial_on_dynamic_scenarios():
    specs = dynamic_schedule_scenarios(
        families=("grid", "ring"), sizes=(9,), snapshot_count=2, switch_every=4
    )
    plan = plan_sweep(specs, pairs=3, master_seed=5)
    serial = run_sweep(plan, workers=1)
    parallel = run_sweep(plan, workers=2)
    assert parallel.table.rows == serial.table.rows


def test_run_sweep_matches_the_declared_reference_sweep():
    # reference_run_parameter_sweep is the executable spec of sweep
    # aggregation: one process, scenarios in order, rows in order.  Its
    # evaluate yields each shard's rows for the spec, in plan order.
    plan = _small_plan()
    specs = list(dict.fromkeys(shard.spec for shard in plan.shards))
    assert len(specs) == 3 and {shard.router for shard in plan.shards} == {
        "ues-engine",
        "flooding",
    }

    def evaluate(spec, _network):
        for shard in plan.shards:
            if shard.spec == spec:
                yield from evaluate_shard(shard)

    reference = reference_run_parameter_sweep(plan.experiment, plan.headers, specs, evaluate)
    assert reference.rows
    for workers in (1, 2):
        table = run_sweep(plan, workers=workers).table
        assert (table.experiment, table.headers) == (reference.experiment, reference.headers)
        assert table.rows == reference.rows


def test_same_spec_shards_share_one_materialised_network():
    # The per-process scenario cache is what lets prepare()'s identity-keyed
    # cache hit across shards of one scenario; and it must be an optimisation
    # only — rows identical with the cache cleared between shards.
    from repro.analysis import runner

    plan = plan_sweep(
        structured_scenarios("grid", [9]), routers=("ues-engine", "flooding"), pairs=2
    )
    runner._SCENARIOS.clear()
    try:
        first = runner._SCENARIOS.network(plan.shards[0].spec)
        second = runner._SCENARIOS.network(plan.shards[1].spec)
        assert first is second
    finally:
        runner._SCENARIOS.clear()

    warm = [evaluate_shard(shard) for shard in plan.shards]
    cold = []
    for shard in plan.shards:
        runner._SCENARIOS.clear()
        clear_prepared_caches()
        cold.append(evaluate_shard(shard))
    assert warm == cold


def test_rows_are_json_primitives():
    plan = _small_plan()
    for shard in plan.shards[:2]:
        for row in evaluate_shard(shard):
            assert row == json.loads(json.dumps(row))


# --------------------------------------------------------------------------- #
# JSONL streaming, crash safety, resume
# --------------------------------------------------------------------------- #


def test_run_sweep_streams_one_record_per_shard(tmp_path):
    plan = _small_plan()
    out = tmp_path / "sweep.jsonl"
    outcome = run_sweep(plan, workers=1, out_path=str(out))
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["kind"] == "plan"
    assert lines[0]["fingerprint"] == plan.fingerprint()
    shard_records = [record for record in lines if record["kind"] == "shard"]
    assert sorted(record["index"] for record in shard_records) == list(range(6))
    assert outcome.shards_executed == 6


def test_resume_skips_completed_shards_and_reproduces_the_table(tmp_path):
    plan = _small_plan()
    serial = run_sweep(plan, workers=1)
    out = tmp_path / "sweep.jsonl"
    run_sweep(plan, workers=1, out_path=str(out))

    # Simulate a mid-sweep kill: keep the plan header and the first two shard
    # records, then a partially written line with no trailing newline.
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:3]) + "\n" + '{"kind": "shard", "index": 5, "ro')

    resumed = run_sweep(plan, workers=2, out_path=str(out), resume=True)
    assert resumed.shards_skipped == 2
    assert resumed.shards_executed == 4
    assert resumed.table.rows == serial.table.rows

    # A second resume finds everything on disk and executes nothing.
    replay = run_sweep(plan, workers=4, out_path=str(out), resume=True)
    assert replay.shards_skipped == 6
    assert replay.shards_executed == 0
    assert replay.table.rows == serial.table.rows


def test_resume_requires_an_out_path():
    with pytest.raises(ExperimentError, match="out_path"):
        run_sweep(_small_plan(), workers=1, resume=True)


def test_streaming_needs_json_serializable_specs(tmp_path):
    # A non-JSON extra would fingerprint differently per process (repr embeds
    # a memory address), so streaming refuses it loudly; an in-memory sweep
    # of the same plan never fingerprints and still works.
    spec = ScenarioSpec(name="g", family="grid", size=9, extra=(("tag", object()),))
    plan = plan_sweep([spec], pairs=2)
    with pytest.raises(ExperimentError, match="JSON-serializable"):
        run_sweep(plan, workers=1, out_path=str(tmp_path / "out.jsonl"))
    assert len(run_sweep(plan, workers=1).table.rows) == 2


def test_resume_reexecutes_shards_with_corrupt_row_shapes(tmp_path):
    # A parseable record whose rows have the wrong width must count as
    # missing (its shard re-executes, the file self-heals), not poison
    # aggregation on every later resume.
    plan = _small_plan()
    serial = run_sweep(plan, workers=1)
    out = tmp_path / "sweep.jsonl"
    run_sweep(plan, workers=1, out_path=str(out))
    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    record["rows"] = [["too", "short"]]
    lines[1] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")

    resumed = run_sweep(plan, workers=1, out_path=str(out), resume=True)
    assert resumed.shards_skipped == 5
    assert resumed.shards_executed == 1
    assert resumed.table.rows == serial.table.rows


def test_resume_rejects_a_file_from_a_different_plan(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(_small_plan(master_seed=7), workers=1, out_path=str(out))
    with pytest.raises(ExperimentError):
        run_sweep(_small_plan(master_seed=8), workers=1, out_path=str(out), resume=True)


def test_resume_refuses_to_truncate_a_headerless_file(tmp_path):
    # Resuming must never destroy a file that is not a sweep stream (or whose
    # plan header line was corrupted by a crash).
    out = tmp_path / "precious.jsonl"
    out.write_text('{"unrelated": "data"}\n')
    with pytest.raises(ExperimentError):
        run_sweep(_small_plan(), workers=1, out_path=str(out), resume=True)
    assert out.read_text() == '{"unrelated": "data"}\n'

    # An empty file (crash before the header write) is a fresh start.
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    outcome = run_sweep(_small_plan(), workers=1, out_path=str(empty), resume=True)
    assert outcome.shards_skipped == 0 and outcome.shards_executed == 6


def test_without_resume_an_existing_file_is_overwritten(tmp_path):
    plan = _small_plan()
    out = tmp_path / "sweep.jsonl"
    run_sweep(plan, workers=1, out_path=str(out))
    outcome = run_sweep(plan, workers=1, out_path=str(out))
    assert outcome.shards_skipped == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for record in lines if record["kind"] == "plan") == 1


# --------------------------------------------------------------------------- #
# Conformance sharding
# --------------------------------------------------------------------------- #


def test_conformance_parallel_matches_serial():
    scenarios = default_conformance_matrix()[:4]
    serial = conformance_pass(scenarios=scenarios, pairs_per_scenario=2)
    parallel = conformance_pass(scenarios=scenarios, pairs_per_scenario=2, workers=2)
    assert parallel.rows == serial.rows
    assert parallel.checks == serial.checks
    assert parallel.violations == serial.violations
    assert parallel.ok


def test_conformance_parallel_accepts_an_explicit_provider():
    # The provider travels to the pool workers inside every task, so it must
    # pickle; its lazily filled stream cache must not get in the way.
    scenarios = default_conformance_matrix()[:2]
    provider = RandomSequenceProvider(seed=5)
    serial = conformance_pass(scenarios=scenarios, pairs_per_scenario=2, provider=provider)
    parallel = conformance_pass(
        scenarios=scenarios, pairs_per_scenario=2, provider=provider, workers=2
    )
    assert parallel.rows == serial.rows
    assert parallel.violations == serial.violations
    assert parallel.ok


def test_parallel_map_preserves_order():
    assert parallel_map(len, ["a", "bbb", "cc"], workers=1) == [1, 3, 2]
    assert parallel_map(len, ["a", "bbb", "cc"], workers=2) == [1, 3, 2]


# --------------------------------------------------------------------------- #
# Engine cache hooks (worker cold start)
# --------------------------------------------------------------------------- #


def test_prepared_cache_hooks_track_and_reset():
    clear_prepared_caches()
    graph = generators.grid_graph(3, 3)
    prepare(graph)
    prepare(graph)
    prepare_schedule(TopologySchedule.static(generators.cycle_graph(5)))
    info = prepared_cache_info()
    assert info["engines"] >= 1
    assert info["engine_hits"] >= 1
    assert info["engine_misses"] >= 1
    assert info["schedules"] == 1 and info["kernel_compiles"] >= 2
    clear_prepared_caches()
    info = prepared_cache_info()
    assert info["engines"] == 0 and info["schedules"] == 0
    assert info["engine_hits"] == 0 and info["engine_misses"] == 0
    assert info["schedule_misses"] == 0 and info["kernel_compiles"] == 0


def test_clear_prepared_caches_does_not_change_results():
    graph = generators.grid_graph(4, 4)
    before = prepare(graph).route(0, 15)
    clear_prepared_caches()
    after = prepare(graph).route(0, 15)
    assert before == after


def test_sweep_table_is_identical_across_a_cache_clear():
    scenarios = list(structured_scenarios("grid", (16, 25), seeds=(0,)))
    scenarios += list(structured_scenarios("ring", (12,), seeds=(0,)))
    plan = plan_sweep(scenarios, routers=("ues-engine",), pairs=4, master_seed=7)
    tables = []
    for _ in range(2):
        clear_prepared_caches()
        tables.append(run_sweep(plan).table)
        # Each run compiles its kernels afresh; nothing carries over.
        assert prepared_cache_info()["kernel_compiles"] >= 1
    cold, recompiled = tables
    assert cold.rows
    assert (cold.headers, cold.rows) == (recompiled.headers, recompiled.rows)


# --------------------------------------------------------------------------- #
# Crash resilience: a SIGKILLed worker must not lose results
# --------------------------------------------------------------------------- #


def _square_or_die(item):
    """Kill the *worker* for value 3; compute normally everywhere else.

    The parent pid rides inside the item so the serial retry (which runs in
    the parent after the pool breaks) takes the compute path — only a pool
    worker ever dies.  Module-level for picklability.
    """
    import os
    import signal

    value, parent_pid = item
    if value == 3 and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def test_parallel_map_recovers_from_sigkilled_worker():
    import os

    parent = os.getpid()
    items = [(value, parent) for value in range(8)]
    expected = [value * value for value in range(8)]
    # The worker handling value 3 is SIGKILLed, which breaks the whole pool
    # (BrokenProcessPool); the lost items must be re-run serially, in order,
    # with bit-identical results.
    assert parallel_map(_square_or_die, items, workers=2) == expected


_EVALUATE_SHARD_GROUP = runner._evaluate_shard_group
_TEST_PID = os.getpid()


def _group_or_die(shards):
    """Kill the *worker* that draws the plan's first shard; evaluate elsewhere.

    Stands in for ``runner._evaluate_shard_group``; the parent's re-run of
    the lost group takes the evaluate path.  Module-level for picklability.
    """
    import signal

    if shards[0].index == 0 and os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _EVALUATE_SHARD_GROUP(shards)


def _pretend_cpus(monkeypatch, count: int) -> None:
    """Make the pool-width cap see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_run_sweep_recovers_from_sigkilled_worker(tmp_path, monkeypatch):
    _pretend_cpus(monkeypatch, 2)
    plan = _small_plan()
    serial = run_sweep(plan).table.rows
    monkeypatch.setattr(runner, "_evaluate_shard_group", _group_or_die)
    out = str(tmp_path / "sweep.jsonl")
    # The worker running the first group is SIGKILLed, which breaks the pool
    # (BrokenProcessPool); the lost group re-runs in the parent.
    outcome = run_sweep(plan, workers=2, out_path=out)
    assert outcome.table.rows == serial
    assert outcome.shards_executed == len(plan.shards)
    report = verify_log(out)
    assert report.ok, report.issues
    shard_records = [record for record in report.records if record["kind"] == "shard"]
    assert sorted(record["index"] for record in shard_records) == list(
        range(len(plan.shards))
    )


def test_pool_width_is_capped_at_the_usable_cpus(monkeypatch):
    widths = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    plan = _small_plan()
    serial = run_sweep(plan).table.rows
    _pretend_cpus(monkeypatch, 2)
    assert run_sweep(plan, workers=100_000).table.rows == serial
    assert parallel_map(len, ["a", "bb", "ccc", "dddd"], workers=100_000) == [1, 2, 3, 4]
    # Without CPU affinity the cap falls back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_sweep(plan, workers=100_000).table.rows == serial
    # One usable CPU: the pool cannot help, so none is started.
    _pretend_cpus(monkeypatch, 1)
    assert run_sweep(plan, workers=4).table.rows == serial
    assert parallel_map(len, ["a", "bb"], workers=4) == [1, 2]
    assert widths == [2, 2, 3]


#: Runs one pooled task in a fresh interpreter and reports, per worker, the
#: ``repro`` and ``numpy`` modules the worker imported that its parent had not
#: loaded when it forked.  A fresh interpreter, because earlier tests load
#: modules into the test process that a real parent would not hold.
_WORKER_IMPORTS_SCRIPT = """
import json, multiprocessing.util, os, sys

# Two usable CPUs, so the pools fork even on a one-CPU machine.
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2

import repro.analysis.runner as runner
from repro.analysis.experiments import ScenarioSpec
from repro.api import ConformanceRequest, RouteBatchRequest, Session, SweepRequest

case, out_dir = sys.argv[1:]
worker_init = runner._worker_init


def recording_init():
    forked_with = set(sys.modules)

    def report():
        imported = sorted(
            name for name in set(sys.modules) - forked_with
            if name.split(".")[0] in ("repro", "numpy")
        )
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as handle:
            json.dump(imported, handle)

    # Runs as the worker process exits, after its last task.
    multiprocessing.util.Finalize(None, report, exitpriority=0)
    worker_init()


runner._worker_init = recording_init
grids = tuple(
    ScenarioSpec(name=f"grid-{seed}", family="grid", size=16, seed=seed) for seed in range(4)
)
request = {
    "sweep": SweepRequest(scenarios=grids, pairs=4, workers=2),
    "conformance": ConformanceRequest(pairs_per_scenario=1, workers=2),
    "route-batch": RouteBatchRequest(scenario=grids[0], num_pairs=8),
}[case]
backend = "process-pool" if case == "route-batch" else None
assert Session().submit(request, backend=backend).ok
"""


@pytest.mark.parametrize("case", ["sweep", "conformance", "route-batch"])
def test_pool_workers_fork_with_every_repro_module_they_use(case, tmp_path):
    # The interpreter imports the same sources as this test process.
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(runner.__file__)))
    environment = dict(os.environ, PYTHONPATH=source_root)
    subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORTS_SCRIPT, case, str(tmp_path)],
        check=True,
        env=environment,
    )
    imported = {
        name: json.loads((tmp_path / name).read_text()) for name in os.listdir(tmp_path)
    }
    assert imported, "no pool worker reported"
    assert {name: modules for name, modules in imported.items() if modules} == {}


#: Starts a 2-worker pool four times while another thread holds, in turn, a
#: lock that every worker's initialiser takes when it clears the caches, and
#: the lock of a stream that every worker's task extends.  A fork copies a
#: held lock but not the thread that would release it.
_HELD_LOCK_SCRIPT = """
import os, threading

# Two usable CPUs, so the pools fork even on a one-CPU machine.
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2

from repro.analysis.runner import parallel_map
from repro.core import batch_kernel
from repro.core.engine import prepare
from repro.core.kernel_store import kernel_store
from repro.core.routing import default_provider
from repro.core.universal import RandomSequenceProvider
from repro.graphs import generators

stream = RandomSequenceProvider(seed=5).sequence_for(64)
twin = RandomSequenceProvider(seed=5).sequence_for(64)


def steps(side):
    engine = prepare(generators.grid_graph(side, side))
    return engine.route(0, side * side - 1).forward_virtual_steps


def task(side):
    return steps(side), stream.extend_to(1000 * side)[: 1000 * side]


sides = [3, 4, 5, 6]
expected = [(steps(side), twin.extend_to(1000 * side)[: 1000 * side]) for side in sides]
locks = {
    "kernel store": kernel_store().engines._lock,
    "batch cache": batch_kernel._BATCH_CACHE._lock,
    "stream cache": default_provider()._cache._lock,
    "offset stream": stream._lock,
}
for name, lock in locks.items():
    held, release = threading.Event(), threading.Event()

    def hold(lock=lock):
        with lock:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait()
    try:
        assert parallel_map(task, sides, workers=2) == expected, name
    finally:
        release.set()
        holder.join()
    print("ok:", name, flush=True)
"""


def test_pool_workers_start_while_another_thread_holds_a_cache_lock():
    # A subprocess: a hang fails this test on a timeout instead of blocking
    # the suite, and the warning some Pythons raise when a threaded process
    # forks stays out of this process's warning filters.
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(runner.__file__)))
    process = subprocess.Popen(
        [sys.executable, "-c", _HELD_LOCK_SCRIPT],
        env=dict(os.environ, PYTHONPATH=source_root),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # one process group: the script and its workers
    )
    try:
        output, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        output, _ = process.communicate()
        pytest.fail(f"a pool started beside a held lock did not finish:\n{output}")
    assert process.returncode == 0, output
    assert output.splitlines() == [
        "ok: kernel store", "ok: batch cache", "ok: stream cache", "ok: offset stream"
    ]


#: The process's first sweep (a 2-worker pool) and first route, submitted at
#: once by two threads of one ``Session``.  Both reach modules that load on
#: first use (the pool, the provenance stamp, the engine), so an import cycle
#: or a lock held across the fork shows as an ``ImportError`` or a hang.
_CONCURRENT_FIRST_TASKS_SCRIPT = """
import os, sys, threading

# Two usable CPUs, so the pool forks even on a one-CPU machine.
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2
sys.setswitchinterval(1e-6)

from repro.analysis.experiments import ScenarioSpec
from repro.api import RouteRequest, Session, SweepRequest

grids = tuple(
    ScenarioSpec(name=f"grid-{seed}", family="grid", size=16, seed=seed) for seed in range(4)
)
requests = {
    "sweep": SweepRequest(scenarios=grids, pairs=4, workers=2),
    "route": RouteRequest(scenario=grids[0], source=0, target=15),
}
session = Session()
barrier = threading.Barrier(len(requests))
results = {}


def submit(name):
    barrier.wait()
    try:
        results[name] = session.submit(requests[name]).status
    except Exception as error:
        results[name] = repr(error)


threads = [threading.Thread(target=submit, args=(name,)) for name in requests]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(results["sweep"], results["route"], flush=True)
"""


def test_first_sweep_and_first_route_run_concurrently_in_a_fresh_interpreter():
    # A subprocess per run (its own process group, killed on a timeout):
    # only a fresh interpreter has every first-use import still ahead of it.
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(runner.__file__)))
    for _ in range(3):
        process = subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_FIRST_TASKS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=source_root),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            output, _ = process.communicate()
            pytest.fail(f"a concurrent first sweep and route did not finish:\n{output}")
        assert process.returncode == 0, output
        assert "ImportError" not in output, output
        assert output.splitlines()[-1] == "ok success", output


def _always_raises(item):
    raise ExperimentError(f"bad shard {item}")


def test_parallel_map_still_propagates_real_task_exceptions():
    # Crash recovery is for *dead workers* only: an exception raised by the
    # task function itself is a genuine failure and must surface unchanged.
    with pytest.raises(ExperimentError, match="bad shard"):
        parallel_map(_always_raises, [1, 2, 3], workers=2)
    with pytest.raises(ExperimentError, match="bad shard"):
        parallel_map(_always_raises, [1, 2, 3], workers=1)
