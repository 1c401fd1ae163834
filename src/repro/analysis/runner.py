"""Sharded parallel sweep orchestrator over the scenario × router grid.

:func:`repro.analysis.experiments.reference_run_parameter_sweep` walks its
scenario grid one instance at a time in one process; for the repeated-route
workloads the repository targets, the grid is embarrassingly parallel: every
(scenario, router) cell builds its own network and routes its own pairs, and
nothing flows between cells until the report table is assembled.  This module
shards that grid across a process pool:

* :func:`plan_sweep` expands scenarios × routers into a deterministic tuple
  of :class:`SweepShard` descriptors.  Each shard carries its *own* trial
  seed, derived from the master seed and the shard identity with
  :func:`shard_seed`, so the rows a shard produces do not depend on which
  worker runs it or in which order shards complete.
* :func:`evaluate_shard` is the worker body: it builds the shard's scenario
  locally (specs are tiny and picklable; graphs are not shipped between
  processes).  A per-process
  :class:`~repro.analysis.experiments.ScenarioStore` plus the shared
  :func:`repro.core.engine.prepare` / ``prepare_schedule`` engine caches mean
  that shards over the same spec — one scenario routed by several routers —
  build and compile their graph once per worker process.
* :func:`evaluate_shards` is the batched worker body: all static
  engine-router shards of a group are aggregated into **one**
  :func:`repro.core.engine.route_many_multi` call, so a group whose
  aggregate batch clears the lockstep thresholds advances every scenario's
  pairs together over the stacked multi-graph block table
  (:class:`repro.core.batch_kernel.MultiGraphWalk`) — an entire sweep group
  becomes a handful of NumPy calls instead of a per-scenario Python loop.
  Rows are bitwise identical to :func:`evaluate_shard` (asserted by tests
  and ``benchmarks/bench_multigraph.py``); schedule and baseline shards run
  through :func:`evaluate_shard` unchanged.
* :func:`run_sweep` executes a plan.  ``workers <= 1`` runs the shards
  serially in-process — this is the executable reference the parallel path
  must match row for row.  ``workers > 1`` splits the shards into contiguous
  groups, submits the groups to a ``ProcessPoolExecutor`` (each worker runs
  its group through :func:`evaluate_shards`) and streams each shard's rows
  as its group completes (one flushed line per shard).  The stream is a
  :class:`repro.provenance.log.ResultLog`: a hash-chained JSONL log whose
  ``plan``/``shard`` records carry the legacy keys plus content addresses,
  so ``repro log verify``/``replay`` work on any sweep stream.  Rerunning
  with ``resume=True`` skips every shard whose record is on disk *and*
  passes its record-hash check — a tampered or truncated record (including
  the partial trailing line of a killed run) counts as missing and its
  shard re-executes.  Aggregation always replays the shards in plan order,
  so the resulting :class:`~repro.analysis.experiments.ExperimentResult` is
  row-for-row identical to a serial run with the same master seed, whatever
  the worker count or completion order was.

The CLI front end is ``python -m repro sweep`` (see ``docs/cli.md``);
``benchmarks/bench_sweep.py`` measures the scaling and asserts aggregate
equality with the serial reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.analysis.experiments import (
    POSITIONAL_FAMILIES,
    ExperimentResult,
    ScenarioSpec,
    ScenarioStore,
    build_scenario,
    is_dynamic_scenario,
    is_streamed_scenario,
    pick_source_target_pairs,
)
from repro.baselines import ALL_ROUTER_SPECS, router_applies
from repro.core.engine import (
    clear_prepared_caches,
    prepare,
    prepare_schedule,
    route_many_multi,
)
from repro.core.routing import RouteOutcome
from repro.errors import ExperimentError
from repro.network.dynamics import DynamicOutcome

__all__ = [
    "ENGINE_ROUTER",
    "SCHEDULE_ROUTER",
    "SWEEP_HEADERS",
    "SWEEP_ROUTERS",
    "SweepShard",
    "SweepPlan",
    "SweepOutcome",
    "shard_seed",
    "plan_sweep",
    "evaluate_shard",
    "evaluate_shards",
    "run_sweep",
    "parallel_map",
    "map_scenario_rows",
]

#: Router name of the prepared engine (the guaranteed router's fast path).
ENGINE_ROUTER = "ues-engine"

#: Router name used for dynamic-schedule scenarios (the extension's walker).
SCHEDULE_ROUTER = "ues-schedule"

#: Columns of the standard sweep table, in row order.
SWEEP_HEADERS: Tuple[str, ...] = (
    "scenario",
    "family",
    "size",
    "router",
    "source",
    "target",
    "delivered",
    "detected",
    "hops",
    "steps",
)

#: Every router name :func:`plan_sweep` accepts for static scenarios.
SWEEP_ROUTERS: Tuple[str, ...] = (ENGINE_ROUTER,) + tuple(
    spec.name for spec in ALL_ROUTER_SPECS
)

_T = TypeVar("_T")
_R = TypeVar("_R")


def shard_seed(master_seed: int, *labels: object) -> int:
    """Deterministic per-shard trial seed: hash of master seed + identity.

    A stable cryptographic digest (not Python's randomised ``hash``) keyed by
    the shard's identity labels, so every process — serial reference, any
    worker, any rerun — derives the identical seed for the same shard.
    """
    payload = repr((master_seed,) + labels).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SweepShard:
    """One cell of the sweep grid: a scenario routed by one router.

    ``seed`` is the shard's private trial seed (pair selection, randomised
    baselines), already derived from the plan's master seed — workers never
    see the master seed and cannot depend on global RNG state.
    """

    index: int
    spec: ScenarioSpec
    router: str
    pairs: int
    seed: int

    @property
    def key(self) -> str:
        """Human-readable shard label (for JSONL records and progress)."""
        return f"{self.spec.name}:{self.router}"


@dataclass(frozen=True)
class SweepPlan:
    """A fully expanded sweep: the shard tuple plus the table schema."""

    experiment: str
    headers: Tuple[str, ...]
    shards: Tuple[SweepShard, ...]
    master_seed: int

    def fingerprint(self) -> str:
        """Stable digest of the whole plan (used to guard ``--resume``).

        Two plans fingerprint equally iff they would execute the same shards
        and produce the same table schema, so resuming against a JSONL file
        written by a *different* sweep is rejected instead of silently
        merging unrelated rows.  Streaming/resume therefore needs every
        scenario parameter to be JSON-serializable — an unstable fallback
        repr (memory addresses change per process) would make a plan reject
        its own stream on every rerun, so non-serializable extras raise
        instead.
        """
        payload = {
            "experiment": self.experiment,
            "headers": list(self.headers),
            "master_seed": self.master_seed,
            "shards": [
                {
                    "index": shard.index,
                    "spec": dataclasses.asdict(shard.spec),
                    "router": shard.router,
                    "pairs": shard.pairs,
                    "seed": shard.seed,
                }
                for shard in self.shards
            ],
        }
        try:
            canonical = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError) as error:
            raise ExperimentError(
                "cannot fingerprint this sweep plan: streaming/resume needs "
                f"JSON-serializable scenario parameters ({error})"
            )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` did: the aggregated table plus shard accounting."""

    table: ExperimentResult
    shards_total: int
    shards_skipped: int
    shards_executed: int
    out_path: Optional[str] = None


def _router_by_name(name: str):
    for router in ALL_ROUTER_SPECS:
        if router.name == name:
            return router
    raise ExperimentError(f"unknown sweep router {name!r}")


def _router_applies(name: str, spec: ScenarioSpec) -> bool:
    """Static applicability check — no scenario is built at planning time.

    Delegates to the shared policy :func:`repro.baselines.router_applies`;
    only the "does this scenario have positions" question is answered from
    the spec (the :data:`~repro.analysis.experiments.POSITIONAL_FAMILIES`
    deploy nodes) instead of from a built network.
    """
    if name == ENGINE_ROUTER:
        return True
    return router_applies(
        _router_by_name(name), spec.family in POSITIONAL_FAMILIES, spec.dimension
    )


def plan_sweep(
    scenarios: Sequence[ScenarioSpec],
    routers: Sequence[str] = (ENGINE_ROUTER,),
    pairs: int = 8,
    master_seed: int = 0,
    experiment: str = "sweep",
) -> SweepPlan:
    """Expand scenarios × routers into a deterministic :class:`SweepPlan`.

    Static scenarios are paired with every requested router that applies to
    them (position-based baselines are skipped off unit-disk deployments,
    planar-only routers off 3D ones).  Dynamic-schedule scenarios are always
    routed by :data:`SCHEDULE_ROUTER` — the baselines have no dynamic
    contract to check.  Shard indices follow the given scenario order, which
    is the row order of the aggregated table.
    """
    for router in routers:
        if router not in SWEEP_ROUTERS and router != SCHEDULE_ROUTER:
            raise ExperimentError(
                f"unknown sweep router {router!r}; expected one of "
                f"{SWEEP_ROUTERS + (SCHEDULE_ROUTER,)}"
            )
    if pairs < 1:
        raise ExperimentError("a sweep needs at least one pair per shard")
    scenarios = list(scenarios)  # tolerate one-shot iterables; iterated twice
    # Shard identity (and thus the trial seed) is (spec.name, router): two
    # distinct scenarios sharing a name would collide silently, so refuse.
    name_counts = Counter(spec.name for spec in scenarios)
    duplicates = sorted(name for name, count in name_counts.items() if count > 1)
    if duplicates:
        raise ExperimentError(
            f"scenario names must be unique within a sweep; duplicated: {duplicates}"
        )
    shards: List[SweepShard] = []
    for spec in scenarios:
        if is_dynamic_scenario(spec):
            shard_routers = (SCHEDULE_ROUTER,)
        elif is_streamed_scenario(spec):
            # Streamed scenarios are routed shard by shard without ever
            # materialising the union, which only the prepared engine can do;
            # the baselines would need the whole graph resident.
            shard_routers = tuple(r for r in routers if r == ENGINE_ROUTER)
        else:
            # The schedule walker has no static contract; requesting it (the
            # exported SCHEDULE_ROUTER constant is a valid router name) only
            # selects the dynamic scenarios of a mixed grid.
            shard_routers = tuple(r for r in routers if r != SCHEDULE_ROUTER)
        for router in shard_routers:
            if router != SCHEDULE_ROUTER and not _router_applies(router, spec):
                continue
            shards.append(
                SweepShard(
                    index=len(shards),
                    spec=spec,
                    router=router,
                    pairs=pairs,
                    seed=shard_seed(master_seed, spec.name, router),
                )
            )
    if not shards:
        raise ExperimentError("sweep plan is empty: no (scenario, router) cell applies")
    return SweepPlan(
        experiment=experiment,
        headers=SWEEP_HEADERS,
        shards=tuple(shards),
        master_seed=master_seed,
    )


#: Per-process cache of materialised scenarios.  Shards with the same spec —
#: one scenario routed by several routers — then share one graph/schedule
#: *object*, which is exactly what lets the identity-keyed
#: :func:`repro.core.engine.prepare` / ``prepare_schedule`` caches hit across
#: shards within a worker.
_SCENARIOS = ScenarioStore()


def _row(
    spec: ScenarioSpec,
    router: str,
    source: int,
    target: int,
    delivered: bool,
    detected: bool,
    hops: Optional[int],
    steps: Optional[int],
) -> List[object]:
    # Cells are JSON primitives only, so a row survives the JSONL round trip
    # bit for bit and resumed shards aggregate identically to fresh ones.
    return [
        spec.name,
        spec.family,
        spec.size,
        router,
        source,
        target,
        bool(delivered),
        bool(detected),
        hops,
        steps,
    ]


def _engine_rows(
    spec: ScenarioSpec,
    router: str,
    pairs: Sequence[Tuple[int, int]],
    results: Sequence[object],
) -> List[List[object]]:
    """Table rows of one engine-router shard from its ``RouteResult`` list.

    Shared by the per-shard path (:func:`evaluate_shard`) and the batched
    multi-graph path (:func:`evaluate_shards`), so the two cannot disagree
    on how a result becomes a row.
    """
    return [
        _row(
            spec,
            router,
            source,
            target,
            delivered=result.delivered,
            detected=result.outcome is RouteOutcome.FAILURE,
            hops=result.physical_hops,
            steps=result.total_virtual_steps,
        )
        for (source, target), result in zip(pairs, results)
    ]


def evaluate_shard(shard: SweepShard) -> List[List[object]]:
    """Build the shard's scenario locally and produce its table rows.

    Runs in a worker process (or inline on the serial path — same code, same
    rows).  Scenarios are materialised through the per-process
    :class:`~repro.analysis.experiments.ScenarioStore` and all topology
    state goes through the shared per-process engine caches
    (:func:`repro.core.engine.prepare` / ``prepare_schedule``), so a worker
    that receives several shards over the same spec builds and compiles its
    graph exactly once.  The engine and schedule shards route their pairs in
    one ``route_many`` call, so an engine shard whose batch is large enough
    rides the lockstep batched walk kernel (:mod:`repro.core.batch_kernel`)
    inside its worker; small shards take the scalar reference loop — rows
    are identical either way.  Caching is an optimisation only: scenario
    construction is deterministic per spec, so the rows are identical with
    the caches cleared.
    """
    spec = shard.spec
    if shard.router == SCHEDULE_ROUTER:
        schedule = _SCENARIOS.schedule(spec)
        engine = prepare_schedule(schedule)
        pairs = pick_source_target_pairs(schedule.snapshots[0], shard.pairs, seed=shard.seed)
        return [
            _row(
                spec,
                shard.router,
                source,
                target,
                delivered=result.outcome is DynamicOutcome.DELIVERED,
                detected=result.outcome is DynamicOutcome.REPORTED_FAILURE,
                hops=None,
                steps=result.steps_taken,
            )
            for (source, target), result in zip(pairs, engine.route_many(pairs))
        ]
    if is_streamed_scenario(spec):
        # Shard-local routing: pairs are drawn inside shards and routed on
        # the local shard graphs — the union is never materialised, so the
        # worker's resident memory is bounded by the shard size.
        from repro.scenarios.streaming import (
            family_from_spec,
            pick_streamed_pairs,
            route_streamed_pairs,
        )

        family = family_from_spec(spec)
        pairs = pick_streamed_pairs(family, shard.pairs, seed=shard.seed)
        results = route_streamed_pairs(family, pairs)
        return _engine_rows(spec, shard.router, pairs, results)
    network = _SCENARIOS.network(spec)
    pairs = pick_source_target_pairs(network, shard.pairs, seed=shard.seed)
    if shard.router == ENGINE_ROUTER:
        engine = prepare(network.graph)
        results = engine.route_many(pairs, namespace_size=network.namespace_size)
        return _engine_rows(spec, shard.router, pairs, results)
    router = _router_by_name(shard.router)
    rows: List[List[object]] = []
    for source, target in pairs:
        attempt = router.run(network.graph, network.deployment, source, target, shard.seed)
        rows.append(
            _row(
                spec,
                shard.router,
                source,
                target,
                delivered=attempt.delivered,
                detected=attempt.detected_failure,
                hops=attempt.hops,
                steps=None,
            )
        )
    return rows


def evaluate_shards(shards: Sequence[SweepShard]) -> List[List[List[object]]]:
    """Evaluate several shards at once; returns rows per shard, in order.

    All static engine-router shards are aggregated into one
    :func:`repro.core.engine.route_many_multi` call: every scenario's graph
    is prepared (once, via the shared kernel-store caches), and when the
    aggregate batch clears the lockstep thresholds all scenarios' pairs
    advance together over the stacked multi-graph block table — a
    handful of NumPy calls for the whole group, instead of re-entering
    Python per scenario; smaller groups run the scalar reference per
    scenario.  Schedule and baseline shards run through
    :func:`evaluate_shard` unchanged.  Rows are bitwise identical to one
    :func:`evaluate_shard` call per shard.
    """
    shards = list(shards)
    rows_by_index: Dict[int, List[List[object]]] = {}
    engine_shards: List[SweepShard] = []
    for shard in shards:
        if shard.router == ENGINE_ROUTER and not is_streamed_scenario(shard.spec):
            engine_shards.append(shard)
        else:
            rows_by_index[shard.index] = evaluate_shard(shard)
    if engine_shards:
        tasks = []
        shard_pairs: List[List[Tuple[int, int]]] = []
        for shard in engine_shards:
            network = _SCENARIOS.network(shard.spec)
            pairs = pick_source_target_pairs(network, shard.pairs, seed=shard.seed)
            shard_pairs.append(pairs)
            tasks.append((prepare(network.graph), pairs, network.namespace_size))
        batched = route_many_multi(tasks)
        for shard, pairs, results in zip(engine_shards, shard_pairs, batched):
            rows_by_index[shard.index] = _engine_rows(
                shard.spec, shard.router, pairs, results
            )
    return [rows_by_index[shard.index] for shard in shards]


def _evaluate_shard_group(
    shards: Tuple[SweepShard, ...]
) -> List[Tuple[int, List[List[object]]]]:
    """Picklable pool task: one worker's shard group through ``evaluate_shards``."""
    rows = evaluate_shards(shards)
    return [(shard.index, shard_rows) for shard, shard_rows in zip(shards, rows)]


# --------------------------------------------------------------------------- #
# Result-log streaming and resume
# --------------------------------------------------------------------------- #


def _plan_record_address(fingerprint: Optional[str]) -> str:
    from repro.provenance.records import (
        PROVENANCE_SCHEMA_VERSION,
        code_version,
        content_address,
    )

    return content_address(
        {
            "kind": "plan",
            "fingerprint": fingerprint,
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "code_version": code_version(),
        }
    )


def _shard_record_address(fingerprint: Optional[str], shard: SweepShard) -> str:
    """Content address of one shard cell: spec + router + pair count + seed."""
    from repro.provenance.records import (
        PROVENANCE_SCHEMA_VERSION,
        code_version,
        content_address,
    )

    return content_address(
        {
            "kind": "shard",
            "fingerprint": fingerprint,
            "index": shard.index,
            "spec": dataclasses.asdict(shard.spec),
            "router": shard.router,
            "pairs": shard.pairs,
            "seed": shard.seed,
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "code_version": code_version(),
        }
    )


def _worker_init() -> None:
    # A forked worker inherits the parent's warm scenario and prepared-engine
    # caches; dropping them makes worker behaviour identical across start
    # methods and keeps the parent's graphs from being pinned in every worker.
    _SCENARIOS.clear()
    clear_prepared_caches()


def run_sweep(
    plan: SweepPlan,
    workers: int = 1,
    out_path: Optional[str] = None,
    resume: bool = False,
) -> SweepOutcome:
    """Execute a sweep plan; return the deterministic aggregated table.

    ``workers <= 1`` runs every pending shard in-process through one
    :func:`evaluate_shards` call, so all static engine shards share one
    multi-graph lockstep run — the executable reference.  ``workers > 1``
    splits the pending shards into contiguous groups and fans the groups out
    over a process pool; each worker batches its group the same way.  Either
    way, when ``out_path`` is given each completed shard is appended to it
    as one hash-chained :class:`repro.provenance.log.ResultLog` record, and
    with ``resume=True`` shards whose records are already on disk (from a
    previous, possibly killed, run of the *same* plan) *and* pass their
    record-hash check are skipped — the chain seal, not just the plan
    fingerprint, decides what counts as done.

    Rows are bitwise identical for every worker count: aggregation replays
    the shards in plan order, so the returned table matches the serial
    reference regardless of completion order or how many shards were
    resumed.
    """
    if resume and out_path is None:
        raise ExperimentError("resume=True needs an out_path: there is no shard stream to resume from")
    # Only the log header and the resume guard read the fingerprint; pure
    # in-memory sweeps skip the O(shards) serialise-and-hash entirely.
    fingerprint = plan.fingerprint() if out_path is not None else None
    completed: Dict[int, List[List[object]]] = {}
    mode = "w"
    if out_path is not None and resume and os.path.exists(out_path):
        # Hash-validated view: a record whose seal does not verify — tampered
        # bytes, a truncated tail, or a legacy unsealed record — is invisible
        # here, so its shard re-executes and the stream self-heals.
        from repro.provenance.log import read_log

        records, _issues = read_log(out_path)
        header = next(
            (record for record in records if record.get("kind") == "plan"), None
        )
        if header is None:
            # A non-empty file without a chain-valid plan header is not ours
            # to overwrite — it is either unrelated data or a sweep stream
            # whose header was corrupted; truncating it would destroy rows.
            # (An empty file — e.g. a crash before the header write — is a
            # fresh start.)
            if os.path.getsize(out_path) > 0:
                raise ExperimentError(
                    f"cannot resume {out_path!r}: no sweep plan header found "
                    "(not a sweep stream, or its header line is corrupted) — "
                    "move the file aside or rerun without resume"
                )
        else:
            if header.get("fingerprint") != fingerprint:
                raise ExperimentError(
                    f"cannot resume {out_path!r}: it records a different sweep plan"
                )
            mode = "a"
        for record in records:
            if record.get("kind") != "shard":
                continue
            index = record.get("index")
            rows = record.get("rows")
            if (
                isinstance(index, int)
                and record.get("fingerprint") == fingerprint
                and 0 <= index < len(plan.shards)
                and isinstance(rows, list)
                # Belt and braces under the hash check: a record whose rows
                # do not match the plan's table schema is treated as missing
                # so its shard re-executes instead of poisoning aggregation.
                and all(
                    isinstance(row, list) and len(row) == len(plan.headers)
                    for row in rows
                )
            ):
                completed[index] = rows

    pending = [shard for shard in plan.shards if shard.index not in completed]
    skipped = len(plan.shards) - len(pending)

    # The log heals a partial trailing line at open (flushing before the pool
    # forks, so no worker inherits a non-empty write buffer) and chains new
    # records onto the last hash-valid record already on disk.
    log = None
    if out_path is not None:
        from repro.provenance.log import ResultLog

        log = ResultLog(out_path, mode)
    try:
        if log is not None and mode == "w":
            log.append(
                "plan",
                {
                    "experiment": plan.experiment,
                    "fingerprint": fingerprint,
                    "headers": list(plan.headers),
                    "shards": len(plan.shards),
                },
                address=_plan_record_address(fingerprint),
            )

        def record_shard(shard: SweepShard, rows: List[List[object]]) -> None:
            completed[shard.index] = rows
            if log is not None:
                log.append(
                    "shard",
                    {
                        "fingerprint": fingerprint,
                        "index": shard.index,
                        "shard": shard.key,
                        "spec": dataclasses.asdict(shard.spec),
                        "router": shard.router,
                        "pairs": shard.pairs,
                        "seed": shard.seed,
                        "rows": rows,
                    },
                    address=_shard_record_address(fingerprint, shard),
                )

        if workers <= 1 or len(pending) <= 1:
            for shard, rows in zip(pending, evaluate_shards(pending)):
                record_shard(shard, rows)
        elif pending:
            # Contiguous groups preserve plan locality (shards over the same
            # spec land in the same worker) and let each worker batch its
            # whole group through one multi-graph lockstep run.
            group_count = min(workers, len(pending))
            base, extra = divmod(len(pending), group_count)
            groups: List[Tuple[SweepShard, ...]] = []
            cursor = 0
            for group_index in range(group_count):
                size = base + (1 if group_index < extra else 0)
                groups.append(tuple(pending[cursor : cursor + size]))
                cursor += size
            shard_of = {shard.index: shard for shard in pending}
            with ProcessPoolExecutor(
                max_workers=group_count, initializer=_worker_init
            ) as pool:
                futures = [pool.submit(_evaluate_shard_group, group) for group in groups]
                for future in as_completed(futures):
                    for index, rows in future.result():
                        record_shard(shard_of[index], rows)
    finally:
        if log is not None:
            log.close()

    table = ExperimentResult(experiment=plan.experiment, headers=list(plan.headers))
    for shard in plan.shards:
        for row in completed[shard.index]:
            table.add_row(row)
    return SweepOutcome(
        table=table,
        shards_total=len(plan.shards),
        shards_skipped=skipped,
        shards_executed=len(pending),
        out_path=out_path,
    )


# --------------------------------------------------------------------------- #
# Generic process-pool helpers (parameter sweeps, conformance)
# --------------------------------------------------------------------------- #


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], workers: int
) -> List[_R]:
    """Order-preserving map over a process pool (serial when it cannot help).

    ``fn`` and every item must be picklable (module-level functions, plain
    data).  With ``workers <= 1`` or fewer than two items this degenerates to
    a plain in-process loop, which is also the executable reference for what
    the pool must produce.

    A worker killed mid-task (OOM killer, SIGKILL) breaks the whole pool:
    every pending future raises :class:`BrokenProcessPool`, which used to lose
    the entire batch.  The map recovers by re-running exactly the items whose
    futures produced no result serially in the parent — ``fn`` is
    deterministic per item, so the recovered results are order- and
    bit-identical to an undisturbed run.  Exceptions raised by ``fn`` itself
    are not retried; they propagate as before.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    completed: Dict[int, _R] = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)), initializer=_worker_init
        ) as pool:
            futures = {}
            try:
                for index, item in enumerate(items):
                    futures[index] = pool.submit(fn, item)
            except BrokenProcessPool:
                pass  # pool died during submission; unsubmitted items retry below
            for index, future in futures.items():
                try:
                    completed[index] = future.result()
                except BrokenProcessPool:
                    continue  # lost with the crashed worker; retry below
    except BrokenProcessPool:
        pass  # broke while shutting the pool down; survivors are in `completed`
    return [
        completed[index] if index in completed else fn(item)
        for index, item in enumerate(items)
    ]


def _scenario_rows_task(task: Tuple[Callable[..., Iterable[Sequence[object]]], ScenarioSpec]):
    evaluate, spec = task
    network = build_scenario(spec)
    return [list(row) for row in evaluate(spec, network)]


def map_scenario_rows(
    evaluate: Callable[..., Iterable[Sequence[object]]],
    scenarios: Sequence[ScenarioSpec],
    workers: int,
) -> List[List[List[object]]]:
    """Evaluate every scenario in parallel; rows grouped per scenario, in order.

    The worker body is exactly the reference sweep's loop body: build the
    scenario, materialise ``evaluate``'s rows.  ``evaluate`` must be
    picklable (a module-level function) and deterministic per ``(spec,
    network)`` — cross-call state does not survive the process boundary.
    """
    return parallel_map(
        _scenario_rows_task, [(evaluate, spec) for spec in scenarios], workers
    )
