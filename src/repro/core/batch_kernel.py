"""Lockstep batched walk kernel — NumPy vectorization over ``CompiledWalk`` arrays.

Every batch workload in the repository (sweeps, conformance, ``route-many``,
the ProcessPool chunk path) routes *sets* of pairs over prepared graphs.
This module advances all in-flight walks in synchronous lockstep — the
round-based, full-information view of the walk — over the flat arrays of
:class:`repro.core.walk_kernel.CompiledWalk`.  The walk is a deterministic
function of the state ``3 * vertex + entry_port`` and the next offset, so
:data:`BLOCK_STEPS` consecutive steps compose into one lookup keyed by
(block offsets, state): a *block table* (:func:`_block_table`) moves a walk
a whole block per gather, ``block[code * num_states + state]``.

**One loop for static batches.**  :func:`_run_lockstep` is the only
stepping loop; ``batch-parity`` compares it with the scalar realisation
``reference_route_many``.  It takes *jobs* — ``(state base, kernel, pairs,
stream)`` — and groups their pairs into (job, source) *fronts*: walks that
share a start state and a sequence share their whole forward trajectory,
so only fronts are stepped.  Fronts advance in doubling chunks; after each
chunk every open pair is compared with its front's owner row (in bounded
slices, clamped to the pair's own sequence horizon), fronts without open
pairs retire, and a run that would out-grow the trajectory buffer hands
its open pairs back for the scalar kernel.  Each front is then accounted
once, for all its pairs, by :func:`_account_from_trajectory`: the backward
phase retraces the forward walk exactly (reversibility, Section 2 of the
paper), so its accounting is a pure function of the forward owner
sequence.  The numbers produced are identical, walk for walk, to
:meth:`repro.core.engine.PreparedNetwork.route`.

Two table builders feed the loop:

:class:`BatchedWalk` (one graph)
    Fuses the rotation map into three transition arrays ``step[o]`` (one
    per offset value) and composes them into its own block table on its
    first :meth:`~BatchedWalk.run`, a one-job call of the loop.

:class:`MultiGraphWalk` (several graphs at once)
    Stacks the transition arrays of several :class:`BatchedWalk` steppers
    with cumulative per-graph state bases into one block table over the
    global state space, so walks over *different* graphs, with *different*
    sequence lengths, advance in one run — an entire sweep shard (all
    scenarios x all pairs) in a handful of NumPy calls
    (:func:`repro.core.engine.route_many_multi`,
    :func:`repro.analysis.runner.evaluate_shards`).

The loop makes one selection, from its input alone: when every job reads
the same stream object, one block code serves all fronts and each block is
a gather from that code's plane of the table; otherwise each front's table
rows are formed from its own job's codes, one gather over the whole table.

:class:`ScheduleBatchedWalk` (dynamic-topology extension, on no engine path)
    Literal lockstep state vectors with one global clock; snapshot
    switch-overs translate every in-flight walk between kernels through a
    precomputed :func:`translation_table`.  Semantics are tick-for-tick
    those of :meth:`repro.core.engine.PreparedSchedule.route`.

**NumPy is optional, and loaded only when a lockstep batch first needs it.**
Importing this module does not import NumPy: :data:`HAVE_NUMPY` only says
whether it is installed, and the first table builder constructed (the first
lockstep batch of the process) imports it.  A process that routes scalar
walks alone never holds it.  A process pool's parent loads it before it
forks (``repro.analysis.runner._pool_results``), so workers do not import
it again.  When NumPy is not installed, :data:`HAVE_NUMPY` is False, the
classes raise on construction, and the engine's ``route_many`` entry points
fall back to their scalar reference loops (``reference_route_many``)
automatically — results are identical either way, only the constant factor
differs.
"""

from __future__ import annotations

import importlib.util
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph  # noqa: F401  (doc references)
from repro.core.kernel_store import LRUCache
from repro.core.universal import OffsetStream
from repro.core.walk_kernel import CompiledWalk

#: NumPy, once :func:`_require_numpy` has imported it.
_np = None

__all__ = [
    "HAVE_NUMPY",
    "BatchedWalk",
    "MultiGraphWalk",
    "ScheduleBatchedWalk",
    "StaticWalkAccount",
    "ScheduleWalkAccount",
    "batched_walk_for",
    "multigraph_walk_for",
    "clear_batch_caches",
    "batch_cache_info",
    "translation_table",
]

#: True when NumPy is installed; the engine consults this before routing a
#: batch through the lockstep kernels.  Finding the package imports nothing.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Trajectory rows recorded per lockstep chunk before termination checks run.
#: Chunks start small and double up to the cap: short walks (small graphs,
#: nearby targets) terminate within the first few chunks instead of paying
#: thousands of wasted lockstep iterations, while long walks quickly reach
#: the large chunk size that amortises detection.  The cap stays at 1024:
#: each chunk costs only a few extra calls, while doubling further lets the
#: last chunk overshoot the longest walk by thousands of stepped rows.
_CHUNK_ROWS_MIN = 64
_CHUNK_ROWS_MAX = 1024

#: Walk steps one gather advances: the steppers look up a block of
#: ``BLOCK_STEPS`` consecutive steps in one row of a :func:`_block_table`,
#: which costs ``3**BLOCK_STEPS * BLOCK_STEPS * 4`` bytes per walk state.
#: Each step costs a few microseconds of NumPy call overhead whatever the
#: front count, so larger blocks pay until the table's memory shows.  On
#: the ``batch-warm`` benchmark (2 cores, NumPy 2.4), 3 took the round p50
#: from ~162 to ~100 ms at 324 B per state (1.2 MB for its stacked sweep)
#: and left peak RSS at 57.5-58 MB; 4 was a few ms faster but, at 1,296 B
#: per state, raised peak RSS to 61.7 MB.
BLOCK_STEPS = 3

#: Cap on buffered trajectory elements per batch (int32 each).  A batch whose
#: walks out-run the cap — pathologically long failure walks under a huge
#: size bound — hands its unresolved pairs back to the scalar kernel instead
#: of exhausting memory; results are identical either way.
_MAX_BUFFER_ELEMENTS = 1 << 26

#: Elements one hit-detection comparison of :func:`_run_lockstep` covers at
#: most: each chunk compares its open pairs' owner rows with their targets
#: in slices of about this many elements, so the temporaries stay small
#: whatever the batch size.
_DETECT_SLICE_ELEMENTS = 1 << 16

#: Outcome codes of :class:`ScheduleBatchedWalk` (mirroring DynamicOutcome,
#: which lives above this module in the layer order).
SCHEDULE_DELIVERED = 0
SCHEDULE_REPORTED_FAILURE = 1
SCHEDULE_STRANDED_DEGREE = 2
SCHEDULE_STRANDED_BUDGET = 3


def _require_numpy() -> None:
    """Import NumPy into :data:`_np` on first use; raise when it is missing.

    Every table builder calls this on construction, and every function of
    this module that touches ``_np`` runs after one was constructed.
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            raise RoutingError(
                "the lockstep batch kernel needs NumPy; install it or use the "
                "scalar reference_route_many path"
            ) from None
        _np = numpy


def _block_table(step: "_np.ndarray") -> "_np.ndarray":
    """Compose the ``(3, num_states)`` transitions into :data:`BLOCK_STEPS` steps.

    Row ``code * num_states + s`` holds the states after each of the
    :data:`BLOCK_STEPS` steps that start in state ``s`` and take the
    offsets written base 3 in ``code`` (first offset most significant), so
    one row gather advances a front a whole block.
    """
    num_states = step.shape[1]
    table = _np.empty((3**BLOCK_STEPS, num_states, BLOCK_STEPS), dtype=_np.int32)
    # level[c] is the state reached from every state under the offsets of
    # the length-j code c; one more offset digit extends c to 3 * c + d.
    level = _np.arange(num_states, dtype=_np.int32)[None, :]
    for j in range(BLOCK_STEPS):
        level = step[:, level].transpose(1, 0, 2).reshape(-1, num_states)
        table[:, :, j] = _np.repeat(level, 3 ** (BLOCK_STEPS - 1 - j), axis=0)
    return table.reshape(-1, BLOCK_STEPS)


def _block_codes(windows: "_np.ndarray") -> "_np.ndarray":
    """Block codes of each row of an ``int8`` offsets matrix (``intp``).

    Each row is zero-padded to a whole number of blocks; offset 0 keeps the
    padded steps' states valid, and callers never read past a row's real
    length.
    """
    count, rows = windows.shape
    blocks = -(-rows // BLOCK_STEPS)
    padded = _np.zeros((count, blocks * BLOCK_STEPS), dtype=_np.intp)
    padded[:, :rows] = windows
    place_values = 3 ** _np.arange(BLOCK_STEPS - 1, -1, -1, dtype=_np.intp)
    return padded.reshape(count, blocks, BLOCK_STEPS) @ place_values


@dataclass(frozen=True)
class StaticWalkAccount:
    """Per-walk accounting of one static batched route (scalar-identical)."""

    success: bool
    forward_steps: int
    backward_steps: int
    physical_hops: int
    target_found_at: Optional[int]


def _account_from_trajectory(
    trajectory: "_np.ndarray",
    source: int,
    sequence_length: int,
    found: Sequence[Optional[int]],
) -> List[StaticWalkAccount]:
    """Recover the accounting of every pair of one front from its owner trajectory.

    ``trajectory`` is the front's recorded owner sequence (position 0 is the
    source) and ``found`` holds each of the front's pairs' hit step, or
    ``None`` for a pair whose target the whole sequence never met.  The
    backward phase retraces the forward walk exactly (reversibility,
    Section 2 of the paper), so every reported number is a function of the
    forward owner sequence: a pair's walk runs ``forward_steps`` steps (its
    hit step, or the whole sequence on failure), backtracks to the *last*
    visit of the source at or before that step, and counts a physical hop at
    every owner change in both directions.  The front's owner-change mask
    and the positions of its source visits are computed once, up to its last
    hit; each pair then takes one binary search (``bisect``, the scalar
    ``searchsorted``) for its last source visit at or before its hit step
    and two counts on the mask: the changes before the hit, and those
    between that visit and the hit.  (Vectorised lookups, or a ``cumsum``
    over the walk, were faster on ``BatchedWalk``'s fronts of a dozen pairs
    but slower than the per-pair reduction they replace on the one- and
    two-pair fronts a sweep mostly has.)  :func:`_run_lockstep` calls it once
    per front; a front may carry a padded tail past its own sequence, which
    no ``found`` step and no failure's ``sequence_length`` reaches.
    """
    steps = [sequence_length if hit is None else hit for hit in found]
    walk = trajectory[: max(steps) + 1]
    # changed[k]: the owner changes on step k + 1.
    changed = walk[1:] != walk[:-1]
    # Position 0 is the source's gateway, so every pair has a visit to find.
    source_visits = (walk == source).nonzero()[0].tolist()
    count = _np.count_nonzero
    accounts: List[StaticWalkAccount] = []
    for hit, step in zip(found, steps):
        visit = source_visits[bisect_right(source_visits, step) - 1]
        # NumPy counts come back as NumPy integers; results carry plain ints.
        hops = int(count(changed[:step]) + count(changed[visit:step]))
        accounts.append(StaticWalkAccount(hit is not None, step, step - visit, hops, hit))
    return accounts


#: One job of :func:`_run_lockstep`: ``(state base, kernel, pairs, stream)``.
_LockstepJob = Tuple[int, CompiledWalk, Sequence[Tuple[int, int]], OffsetStream]


def _run_lockstep(
    block: "_np.ndarray",
    num_states: int,
    owner_state: "_np.ndarray",
    jobs: Sequence[_LockstepJob],
    start_port: int,
    max_buffer_elements: int,
) -> Tuple[List[Dict[int, StaticWalkAccount]], List[Tuple[int, int]]]:
    streams = [stream for _base, _kernel, _pairs, stream in jobs]
    lengths = [len(stream) for stream in streams]
    max_length = max(lengths, default=0)
    # When every front reads one stream, one block code serves all fronts
    # and each block is a gather from that code's plane of the table.
    shared = all(stream is streams[0] for stream in streams)
    takes = [plane.take for plane in block.reshape(-1, num_states, BLOCK_STEPS)]

    # Group pairs into (job, source, pair indices) fronts: walks sharing a
    # start state and a sequence share their whole forward trajectory.
    fronts: List[Tuple[int, int, List[int]]] = []
    for job, (_base, _kernel, pairs, _stream) in enumerate(jobs):
        by_source: Dict[int, List[int]] = {}
        for index, (source, _target) in enumerate(pairs):
            bucket = by_source.get(source)
            if bucket is None:
                by_source[source] = bucket = []
            bucket.append(index)
        fronts.extend((job, source, indices) for source, indices in by_source.items())

    # A target that is not a vertex of its job's graph enters the open-pair
    # arrays as one less than the smallest owner, which no owner equals, so
    # its walk fails as the scalar one does.
    no_vertex = int(owner_state.min(initial=0)) - 1
    # Pair ids run over all jobs: pair i of job j is ``first_id[j] + i``.
    first_id = [0]
    for _base, _kernel, pairs, _stream in jobs:
        first_id.append(first_id[-1] + len(pairs))
    # found[id]: the pair's hit step; a self-pair's walk succeeds before
    # taking a single step (owner(start state) == source).
    found: List[Optional[int]] = [None] * first_id[-1]
    # The open pairs as parallel arrays: pair id, target, and the column of
    # the pair's front among the active fronts.
    open_id: List[int] = []
    open_target: List[int] = []
    open_column: List[int] = []
    active: List[int] = []  # positions in ``fronts``
    for front, (job, source, indices) in enumerate(fronts):
        _base, kernel, pairs, _stream = jobs[job]
        for index in indices:
            target = pairs[index][1]
            if target == source:
                found[first_id[job] + index] = 0
            elif lengths[job]:
                open_id.append(first_id[job] + index)
                open_target.append(target if target in kernel.gateway_of else no_vertex)
                open_column.append(len(active))
        if open_column and open_column[-1] == len(active):
            active.append(front)
    front_job = _np.array([fronts[front][0] for front in active], dtype=_np.int64)
    pair_id = _np.array(open_id, dtype=_np.int64)
    pair_target = _np.array(open_target, dtype=_np.int32)
    pair_column = _np.array(open_column, dtype=_np.int64)
    pair_horizon = _np.array(lengths, dtype=_np.int64)[front_job[pair_column]]

    # Lockstep-advance the active fronts in doubling chunks, recording each
    # front's owner trajectory (one row per chunk), with hit detection and
    # front compaction per chunk.
    trajectory_rows: List[List["_np.ndarray"]] = [
        [_np.array([source], dtype=_np.int32)] for _job, source, _indices in fronts
    ]
    state = _np.array(
        [
            jobs[job][0] + 3 * jobs[job][1].gateway(source) + start_port
            for job, source, _indices in (fronts[front] for front in active)
        ],
        dtype=_np.int32,
    )
    buffered_elements = 0
    global_step = 0
    truncated = False
    chunk_rows = _CHUNK_ROWS_MIN
    while active and global_step < max_length:
        rows = min(chunk_rows, max_length - global_step)
        chunk_rows = min(2 * chunk_rows, _CHUNK_ROWS_MAX)
        if buffered_elements + len(active) * rows > max_buffer_elements:
            truncated = True
            break
        # Each job's window of the chunk (one window when the stream is
        # shared), zero-padded past its horizon (offset 0 keeps padded
        # states valid; detection and accounting never read them).
        windows = _np.zeros((1 if shared else len(jobs), rows), dtype=_np.int8)
        for job, window in enumerate(windows):
            usable = min(rows, lengths[job] - global_step)
            if usable > 0:
                window[:usable] = _np.frombuffer(
                    streams[job].extend_to(global_step + usable),
                    dtype=_np.int8,
                    count=usable,
                    offset=global_step,
                )
        codes = _block_codes(windows)
        # buffer[b, f] holds front f's states over the steps of block b.
        buffer = _np.empty((codes.shape[1], len(active), BLOCK_STEPS), dtype=_np.int32)
        if shared:
            for out, code in zip(buffer, codes[0].tolist()):
                state = takes[code](state, 0, out)[:, -1]
        else:
            # Each front's table rows, premultiplied per chunk; the state is
            # added in place, so each block is still one gather.
            table_rows = _np.ascontiguousarray(codes[front_job].T) * num_states
            for out, indices in zip(buffer, table_rows):
                indices += state
                state = block.take(indices, 0, out)[:, -1]
        trajectory = buffer.transpose(1, 0, 2).reshape(len(active), -1)
        # The state after the chunk's last real step, not a padded one.
        state = trajectory[:, rows - 1]
        owners = owner_state[trajectory[:, :rows]]
        buffered_elements += owners.size
        for front, row in zip(active, owners):
            trajectory_rows[front].append(row)
        # Every open pair against its front's owner row, in slices of
        # bounded size: a pair's first match is its hit, unless it lies past
        # the pair's own horizon.
        first = _np.empty(len(pair_id), dtype=_np.int64)
        hit = _np.empty(len(pair_id), dtype=bool)
        per_slice = max(1, _DETECT_SLICE_ELEMENTS // rows)
        for start in range(0, len(pair_id), per_slice):
            span = slice(start, start + per_slice)
            matches = owners[pair_column[span]] == pair_target[span, None]
            first[span] = matches.argmax(axis=1)
            hit[span] = matches.any(axis=1)
        hit &= first < pair_horizon - global_step
        for pair, step in zip(pair_id[hit].tolist(), (first[hit] + global_step + 1).tolist()):
            found[pair] = step
        global_step += rows
        still_open = ~hit & (pair_horizon > global_step)
        pair_id = pair_id[still_open]
        pair_target = pair_target[still_open]
        pair_column = pair_column[still_open]
        pair_horizon = pair_horizon[still_open]
        walking = _np.zeros(len(active), dtype=bool)
        walking[pair_column] = True
        if not walking.all():
            pair_column = (_np.cumsum(walking) - 1)[pair_column]
            survivors = _np.flatnonzero(walking)
            state = state[survivors]
            front_job = front_job[survivors]
            active = [active[column] for column in survivors.tolist()]

    # Account each front once over its recorded trajectory, into one dict
    # per job keyed by pair index.  Pairs still open after a truncated run
    # go back to the caller's scalar kernel; after a complete run they are
    # failures.
    left_open = list(zip(front_job[pair_column].tolist(), pair_id.tolist())) if truncated else []
    unresolved = [(job, pair - first_id[job]) for job, pair in left_open]
    skipped = {pair for _job, pair in left_open}
    accounts: List[Dict[int, StaticWalkAccount]] = [{} for _job in jobs]
    for front, (job, source, indices) in enumerate(fronts):
        base = first_id[job]
        if skipped:
            indices = [index for index in indices if base + index not in skipped]
            if not indices:
                continue
        rows = trajectory_rows[front]
        front_accounts = _account_from_trajectory(
            rows[0] if len(rows) == 1 else _np.concatenate(rows),
            source,
            lengths[job],
            [found[base + index] for index in indices],
        )
        accounts[job].update(zip(indices, front_accounts))
    return accounts, unresolved


@dataclass(frozen=True)
class ScheduleWalkAccount:
    """Per-walk accounting of one batched schedule route (scalar-identical)."""

    code: int
    steps_taken: int
    switches_survived: int
    stranded_owner: int
    status_failure: bool


class BatchedWalk:
    """NumPy view of one :class:`CompiledWalk`: its tables for the lockstep loop.

    Construction fuses the rotation map into per-offset transition arrays:

    ``step[o][3 * v + p] = 3 * next_vertex[e] + next_port[e]`` with
    ``e = 3 * v + (p + o) % 3`` — one gather advances every walk by one step.
    :meth:`run` composes them further into the :func:`_block_table` of
    :data:`BLOCK_STEPS` steps, built on the first run only, so a stepper
    that serves only as a member of a :class:`MultiGraphWalk` never holds
    one.

    ``owner_state`` maps a walk state to the original vertex its virtual
    vertex simulates; ``back_v3`` / ``back_port`` are the backward-step
    tables used by the schedule stepper (a backward step leaves through the
    entry edge, which *is* the state index).
    """

    __slots__ = (
        "kernel",
        "step",
        "block",
        "owner_state",
        "back_v3",
        "back_port",
        "num_states",
    )

    def __init__(self, kernel: CompiledWalk) -> None:
        _require_numpy()
        self.kernel = kernel
        next_vertex = _np.asarray(kernel.next_vertex, dtype=_np.int64)
        next_port = _np.asarray(kernel.next_port, dtype=_np.int64)
        owner = _np.asarray(kernel.owner, dtype=_np.int64)
        n3 = next_vertex.shape[0]
        self.num_states = n3
        states = _np.arange(n3)
        base = 3 * (states // 3)
        port = states % 3
        fused: List["_np.ndarray"] = []
        for offset in range(3):
            exit_edge = base + (port + offset) % 3
            fused.append(
                (3 * next_vertex[exit_edge] + next_port[exit_edge]).astype(_np.int32)
            )
        self.step = fused
        #: The block table, built by the first :meth:`run`.
        self.block: Optional["_np.ndarray"] = None
        self.owner_state = _np.repeat(owner, 3).astype(_np.int32)
        self.back_v3 = (3 * next_vertex).astype(_np.int32)
        self.back_port = next_port.astype(_np.int32)

    def run(
        self,
        pairs: Sequence[Tuple[int, int]],
        offsets: OffsetStream,
        start_port: int = 0,
        max_buffer_elements: int = _MAX_BUFFER_ELEMENTS,
    ) -> Tuple[Dict[int, StaticWalkAccount], List[int]]:
        """Route ``pairs`` in lockstep; return per-index accounts + unresolved.

        ``pairs`` are ``(source, target)`` original-vertex pairs (duplicates
        and self-pairs allowed); ``offsets`` is the exploration sequence.
        This is :func:`_run_lockstep` with one job over this kernel's own
        block table, built on the first run.  Returns a mapping from pair
        index to its :class:`StaticWalkAccount` plus the list of indices the
        stepper did not resolve because the trajectory buffer cap was reached
        — the caller finishes those on the scalar kernel (identical results).
        """
        if self.block is None:
            # Dispatch threads share cached steppers; two first runs may both
            # build the table, but they build identical ones.
            self.block = _block_table(_np.stack(self.step))
        [accounts], unresolved = _run_lockstep(
            self.block,
            self.num_states,
            self.owner_state,
            [(0, self.kernel, pairs, offsets)],
            start_port,
            max_buffer_elements,
        )
        return accounts, [index for _job, index in unresolved]


# Nothing in ``src/`` calls ScheduleBatchedWalk, ScheduleWalkAccount,
# translation_table or the SCHEDULE_* codes any more: schedule batches run
# the scalar PreparedSchedule.reference_route_many, which measured faster on
# every batch tried.  They remain only because ``perfbench/spans.py`` wraps
# ``ScheduleBatchedWalk.run`` by name; they go once that wrap is dropped.
class ScheduleBatchedWalk:
    """Lockstep stepper for routing one pair batch over a topology schedule.

    All walks share one global clock: snapshot switch-overs apply to every
    in-flight walk at the same tick, forward walks advance with the shared
    sequence index (a walk is forward exactly while ``steps == time``), and
    backward walks gather their per-walk ``offsets[steps - 1]``.  Stranding,
    failure reporting and the tick budget reproduce
    :meth:`repro.core.engine.PreparedSchedule.route` decision for decision.
    """

    def __init__(
        self,
        steppers: Sequence[BatchedWalk],
        snapshots: Sequence[object],
        switch_times: Sequence[int],
        gateway_of: Dict[int, int],
    ) -> None:
        _require_numpy()
        self._steppers = list(steppers)
        self._snapshots = list(snapshots)
        self._switch_times = list(switch_times)
        #: Gateway map of the *first* kernel only: every walk starts on
        #: snapshot 0, and post-switch placement goes through the translation
        #: tables, never through a later kernel's gateways.
        self._gateway_of = dict(gateway_of)
        #: index -> translation array (or None when the snapshot object does
        #: not change); built lazily, once per real switch.
        self._translations: Dict[int, Optional["_np.ndarray"]] = {}

    def _translation_into(self, index: int) -> Optional["_np.ndarray"]:
        table = self._translations.get(index)
        if table is None and index not in self._translations:
            table = translation_table(
                self._steppers[index - 1].kernel, self._steppers[index].kernel
            )
            self._translations[index] = table
        return table

    def run(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        offsets: OffsetStream,
    ) -> List[ScheduleWalkAccount]:
        """Route every pair over the schedule in lockstep; return accounts.

        Forward walks all sit at the shared index ``time``, so the sequence's
        generated prefix is extended (and its ``int8`` view refreshed) only
        when the clock reaches its end; backward walks read behind it.
        """
        length = len(offsets)
        prefix = offsets.prefix
        np_offsets = _np.frombuffer(prefix, dtype=_np.int8)
        count = len(sources)
        steppers = self._steppers
        snapshots = self._snapshots
        switch_times = self._switch_times
        num_snapshots = len(snapshots)

        source_arr = _np.asarray(sources, dtype=_np.int32)
        target_arr = _np.asarray(targets, dtype=_np.int32)
        gateway_of = self._gateway_of
        state = _np.array(
            [3 * gateway_of[source] for source in sources], dtype=_np.int32
        )
        steps = _np.zeros(count, dtype=_np.int64)
        switches = _np.zeros(count, dtype=_np.int64)
        forward = _np.ones(count, dtype=bool)
        status_failure = _np.zeros(count, dtype=bool)
        done = _np.zeros(count, dtype=bool)
        code = _np.full(count, -1, dtype=_np.int8)
        stranded_owner = _np.full(count, -1, dtype=_np.int64)
        current_owner = source_arr.copy()

        active_index = 0
        active_graph = snapshots[0]
        stepper = steppers[0]

        for time in range(2 * length + 2):
            # Activate every snapshot whose switch time has passed; a switch
            # to a different graph object translates every in-flight walk.
            while (
                active_index + 1 < num_snapshots
                and time >= switch_times[active_index + 1]
            ):
                active_index += 1
                new_graph = snapshots[active_index]
                if new_graph is active_graph:
                    continue
                live_indices = _np.nonzero(~done)[0]
                switches[live_indices] += 1
                table = self._translation_into(active_index)
                live_states = state[live_indices]
                translated = table[live_states // 3]
                stranded_local = translated < 0
                if stranded_local.any():
                    stranded_indices = live_indices[stranded_local]
                    code[stranded_indices] = SCHEDULE_STRANDED_DEGREE
                    stranded_owner[stranded_indices] = current_owner[stranded_indices]
                    done[stranded_indices] = True
                surviving = ~stranded_local
                surviving_indices = live_indices[surviving]
                state[surviving_indices] = (
                    3 * translated[surviving] + live_states[surviving] % 3
                )
                active_graph = new_graph
                stepper = steppers[active_index]

            if done.all():
                break

            in_flight = ~done
            fwd = in_flight & forward
            delivered = fwd & (current_owner == target_arr)
            if delivered.any():
                code[delivered] = SCHEDULE_DELIVERED
                done |= delivered
                fwd &= ~delivered
            flipped = fwd & (steps >= length)
            if flipped.any():
                forward[flipped] = False
                status_failure[flipped] = True
                fwd &= ~flipped  # the flip consumes this tick without a step
            if fwd.any():
                # Forward walks stepped on every previous tick, so they all
                # sit at the shared index ``time`` (< length here).
                if time >= len(prefix):
                    prefix = offsets.extend_to(time + 1)
                    np_offsets = _np.frombuffer(prefix, dtype=_np.int8)
                state[fwd] = stepper.step[prefix[time]][state[fwd]]
                steps[fwd] += 1
                current_owner[fwd] = stepper.owner_state[state[fwd]]

            bwd = in_flight & ~forward & ~flipped & ~done
            reported = bwd & ((current_owner == source_arr) | (steps == 0))
            if reported.any():
                code[reported] = SCHEDULE_REPORTED_FAILURE
                done |= reported
                bwd &= ~reported
            if bwd.any():
                back_state = state[bwd]
                back_offset = np_offsets[steps[bwd] - 1]
                new_port = (stepper.back_port[back_state] - back_offset) % 3
                state[bwd] = stepper.back_v3[back_state] + new_port
                steps[bwd] -= 1
                current_owner[bwd] = stepper.owner_state[state[bwd]]

        budget = ~done
        if budget.any():
            code[budget] = SCHEDULE_STRANDED_BUDGET

        return [
            ScheduleWalkAccount(
                code=int(code[i]),
                steps_taken=int(steps[i]),
                switches_survived=int(switches[i]),
                stranded_owner=int(stranded_owner[i]),
                status_failure=bool(status_failure[i]),
            )
            for i in range(count)
        ]


def translation_table(
    source_kernel: CompiledWalk, target_kernel: CompiledWalk
) -> "_np.ndarray":
    """Vectorizable form of :meth:`CompiledWalk.translate_virtual`.

    ``table[v]`` is the virtual vertex of ``target_kernel`` corresponding to
    virtual vertex ``v`` of ``source_kernel`` (same owner, same carried
    physical port), or ``-1`` when the owner's degree differs between the two
    reductions — the walk is stranded there.  Built once per real switch of a
    schedule and gathered per tick for the whole batch.
    """
    _require_numpy()
    count = source_kernel.num_vertices
    table = _np.empty(count, dtype=_np.int32)
    for vertex in range(count):
        translated = source_kernel.translate_virtual(target_kernel, vertex)
        table[vertex] = -1 if translated is None else translated
    return table


class MultiGraphWalk:
    """Lockstep stepper over *several* compiled graphs stacked into one table.

    Construction concatenates the per-offset transition arrays of the given
    :class:`BatchedWalk` steppers with cumulative state bases::

        step[o][base_g + s] = base_g + stepper_g.step[o][s]

    and composes them into one :func:`_block_table` over the global state
    space, so a global walk state carries its graph implicitly and one
    gather advances walks over different graphs :data:`BLOCK_STEPS` steps at
    once.  The members' own block tables are never built.  ``owner_state``
    is concatenated the same way and yields *graph-local* original vertex
    ids — each front only ever compares owners against targets of its own
    graph, so overlapping id ranges between graphs are harmless.

    :meth:`run` takes *jobs* — ``(stepper index, pairs, offsets)`` triples,
    one per (graph, size-bound) group, whose sequences may have different
    lengths — and runs them through :func:`_run_lockstep` over the stacked
    table, so results are bitwise identical to running each job through
    :class:`BatchedWalk` alone.
    """

    __slots__ = (
        "steppers",
        "block",
        "owner_state",
        "state_base",
        "num_states",
    )

    def __init__(self, steppers: Sequence[BatchedWalk]) -> None:
        _require_numpy()
        if not steppers:
            raise RoutingError("MultiGraphWalk needs at least one stepper")
        self.steppers = list(steppers)
        bases: List[int] = []
        total = 0
        for stepper in self.steppers:
            bases.append(total)
            total += stepper.num_states
        self.state_base = bases
        self.num_states = total
        # Row o of the stacked transition is the offset-o step of every
        # graph, shifted into the global state space.
        step = _np.stack(
            [
                _np.concatenate(
                    [
                        stepper.step[offset] + base
                        for stepper, base in zip(self.steppers, bases)
                    ]
                ).astype(_np.int32)
                for offset in range(3)
            ]
        )
        self.block = _block_table(step)
        self.owner_state = _np.concatenate(
            [stepper.owner_state for stepper in self.steppers]
        )

    def run(
        self,
        jobs: Sequence[Tuple[int, Sequence[Tuple[int, int]], OffsetStream]],
        start_port: int = 0,
        max_buffer_elements: int = _MAX_BUFFER_ELEMENTS,
    ) -> Tuple[Dict[Tuple[int, int], StaticWalkAccount], List[Tuple[int, int]]]:
        """Route every job's pairs in one lockstep run over the stacked table.

        ``jobs`` is a sequence of ``(stepper_index, pairs, offsets)``: the
        pairs are graph-local ``(source, target)`` originals routed over
        ``self.steppers[stepper_index]`` with that job's exploration
        sequence.  Returns accounts keyed ``(job index, pair index)`` plus
        the keys left unresolved by the trajectory buffer cap — the caller
        finishes those on the scalar kernel (identical results).
        """
        accounts, unresolved = _run_lockstep(
            self.block,
            self.num_states,
            self.owner_state,
            [
                (self.state_base[slot], self.steppers[slot].kernel, pairs, offsets)
                for slot, pairs, offsets in jobs
            ],
            start_port,
            max_buffer_elements,
        )
        keyed = {
            (job, index): account
            for job, job_accounts in enumerate(accounts)
            for index, account in job_accounts.items()
        }
        return keyed, unresolved


# --------------------------------------------------------------------------- #
# Shared caches (mirroring the engine's per-process caches)
# --------------------------------------------------------------------------- #

#: Batched steppers keyed by ``id(kernel)``; entries hold the kernel strongly
#: so an id cannot be recycled while its entry lives.
_BATCH_CACHE = LRUCache(64)

#: Stacked multi-graph steppers keyed by the tuple of member stepper ids;
#: entries hold the steppers strongly so the ids stay valid.
_MULTI_CACHE = LRUCache(8)


def batched_walk_for(kernel: CompiledWalk) -> BatchedWalk:
    """The shared :class:`BatchedWalk` for a kernel (built on demand)."""
    key = id(kernel)
    entry = _BATCH_CACHE.peek(key)
    if entry is not None and entry.kernel is kernel:
        _BATCH_CACHE.touch(key)
        return entry
    _BATCH_CACHE.record_miss()
    entry = BatchedWalk(kernel)
    _BATCH_CACHE.put(key, entry)
    return entry


def multigraph_walk_for(steppers: Sequence[BatchedWalk]) -> MultiGraphWalk:
    """The shared :class:`MultiGraphWalk` for an ordered stepper set.

    Keyed by the member steppers' identities (held strongly by the entry),
    so repeated sweep shards over the same compiled graphs reuse one stacked
    block table instead of rebuilding it per call.
    """
    members = tuple(steppers)
    key = tuple(id(stepper) for stepper in members)
    entry = _MULTI_CACHE.peek(key)
    if entry is not None and all(a is b for a, b in zip(entry[0], members)):
        _MULTI_CACHE.touch(key)
        return entry[1]
    _MULTI_CACHE.record_miss()
    multi = MultiGraphWalk(members)
    _MULTI_CACHE.put(key, (members, multi))
    return multi


def clear_batch_caches() -> None:
    """Drop every cached batched stepper (worker cold start)."""
    _BATCH_CACHE.clear()
    _MULTI_CACHE.clear()


def batch_cache_info() -> Dict[str, int]:
    """Sizes of the batch-kernel caches, for this process (diagnostics only)."""
    return {
        "batched_kernels": len(_BATCH_CACHE),
        "multigraph_kernels": len(_MULTI_CACHE),
    }
