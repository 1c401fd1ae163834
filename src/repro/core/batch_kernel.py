"""Lockstep batched walk kernel — NumPy vectorization over ``CompiledWalk`` arrays.

Every batch workload in the repository (sweeps, conformance, ``route-many``,
the ProcessPool chunk path) routes *sets* of pairs over one prepared graph,
and until this module existed :meth:`repro.core.engine.PreparedNetwork.route_many`
simply looped the scalar walk per pair.  This module advances all in-flight
walks in synchronous lockstep — the round-based, full-information view of
the walk — over the flat arrays of
:class:`repro.core.walk_kernel.CompiledWalk`.  The walk is a deterministic
function of the state and the next offset, so :data:`BLOCK_STEPS`
consecutive steps compose into one lookup keyed by (block offsets, state):
the static steppers move every front a whole block per gather through a
*block table* (:func:`_block_table`).

Three steppers are provided:

:class:`BatchedWalk` (static networks)
    Walk state is a single integer ``state = 3 * vertex + entry_port``; the
    rotation map is pre-fused into three transition arrays ``step[o]`` (one
    per offset value), and :meth:`BatchedWalk.run` composes them into the
    block table, so a block of steps for *all* walks is the one row gather
    ``block[code * num_states + state]``.  Walks that share a start state
    share their entire forward trajectory (the walk is deterministic per
    start state), so the stepper advances only the *distinct source fronts*
    in lockstep while recording the owner trajectory; each pair's
    termination step, backward
    phase and physical/virtual step accounting are then recovered from that
    trajectory by vectorized reductions — the backward phase retraces the
    forward walk exactly (reversibility, Section 2 of the paper), so its
    accounting is a pure function of the forward owner sequence.  The numbers
    produced are identical, walk for walk, to the scalar kernel in
    :meth:`repro.core.engine.PreparedNetwork.route`.

:class:`ScheduleBatchedWalk` (dynamic-topology extension)
    Literal lockstep state vectors ``(vertex, entry_port, phase)`` with
    per-walk active/terminated masks: all walks share one global clock (the
    schedule's switch times are global), forward walks advance with a shared
    sequence index, backward walks carry per-walk indices, and snapshot
    switch-overs translate every in-flight walk between kernels through a
    precomputed translation table (:func:`translation_table`).  Semantics are
    tick-for-tick those of :meth:`repro.core.engine.PreparedSchedule.route`.

:class:`MultiGraphWalk` (static networks, several graphs at once)
    The per-graph transition tables of several :class:`BatchedWalk` steppers
    are stacked with cumulative per-graph state bases and composed into one
    block table over the global state space, and each distinct exploration
    sequence becomes a row of one zero-padded offsets matrix — so walks over
    *different* compiled graphs, with *different* sequence lengths, all
    advance a block per gather (``state = block[code * num_states + state]``
    where ``code`` is gathered per front from the offsets matrix).  Per-front
    sequence-length clamps keep termination detection and accounting exactly
    those of :class:`BatchedWalk`; the accounting reductions are literally
    shared (:func:`_account_from_trajectory`), so the multi-graph path is
    bitwise identical to running each graph's batch alone — which is itself
    bitwise identical to the scalar walk.  This is what lets an entire sweep
    shard (all scenarios x all pairs) execute as a handful of NumPy calls in
    :func:`repro.core.engine.route_many_multi` /
    :func:`repro.analysis.runner.evaluate_shards`.

**NumPy is optional.**  When it is not importable, :data:`HAVE_NUMPY` is
False, the classes raise on construction, and the engine's ``route_many``
entry points fall back to their scalar reference loops
(``reference_route_many``) automatically — results are identical either way,
only the constant factor differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RoutingError
from repro.graphs.labeled_graph import LabeledGraph  # noqa: F401  (doc references)
from repro.core.kernel_store import LRUCache
from repro.core.universal import OffsetStream
from repro.core.walk_kernel import CompiledWalk

try:  # pragma: no cover - exercised by the no-NumPy CI job
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
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

#: True when NumPy imported successfully; the engine consults this before
#: routing a batch through the lockstep kernels.
HAVE_NUMPY = _np is not None

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

#: Outcome codes of :class:`ScheduleBatchedWalk` (mirroring DynamicOutcome,
#: which lives above this module in the layer order).
SCHEDULE_DELIVERED = 0
SCHEDULE_REPORTED_FAILURE = 1
SCHEDULE_STRANDED_DEGREE = 2
SCHEDULE_STRANDED_BUDGET = 3


def _require_numpy() -> None:
    if _np is None:
        raise RoutingError(
            "the lockstep batch kernel needs NumPy; install it or use the "
            "scalar reference_route_many path"
        )


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
    target_found: Optional[int],
) -> StaticWalkAccount:
    """Recover one pair's full accounting from its recorded owner trajectory.

    The backward phase retraces the forward walk exactly (reversibility,
    Section 2 of the paper), so every reported number is a function of the
    forward owner sequence: the walk runs ``forward_steps`` steps (the hit
    step, or the whole sequence on failure), backtracks to the *last* visit
    of the source, and counts a physical hop at every owner change in both
    directions.  Shared verbatim by :class:`BatchedWalk` and
    :class:`MultiGraphWalk`, so the single- and multi-graph lockstep paths
    cannot drift apart.
    """
    forward_steps = sequence_length if target_found is None else target_found
    owner_walk = trajectory[: forward_steps + 1]
    changes = owner_walk[1:] != owner_walk[:-1]
    source_visits = _np.nonzero(owner_walk == source)[0]
    if not source_visits.size:  # pragma: no cover - impossible:
        # position 0 is the source's gateway.
        raise RoutingError("backtracking failed to return to the source")
    last_visit = int(source_visits[-1])
    return StaticWalkAccount(
        success=target_found is not None,
        forward_steps=int(forward_steps),
        backward_steps=int(forward_steps - last_visit),
        physical_hops=int(
            _np.count_nonzero(changes) + _np.count_nonzero(changes[last_visit:])
        ),
        target_found_at=target_found,
    )


@dataclass(frozen=True)
class ScheduleWalkAccount:
    """Per-walk accounting of one batched schedule route (scalar-identical)."""

    code: int
    steps_taken: int
    switches_survived: int
    stranded_owner: int
    status_failure: bool


class BatchedWalk:
    """NumPy view of one :class:`CompiledWalk` plus the static lockstep stepper.

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

    # ------------------------------------------------------------------ #
    # Static batch routing
    # ------------------------------------------------------------------ #

    def run(
        self,
        pairs: Sequence[Tuple[int, int]],
        offsets: OffsetStream,
        start_port: int = 0,
        max_buffer_elements: int = _MAX_BUFFER_ELEMENTS,
    ) -> Tuple[Dict[int, StaticWalkAccount], List[int]]:
        """Route ``pairs`` in lockstep; return per-index accounts + unresolved.

        ``pairs`` are ``(source, target)`` original-vertex pairs (duplicates
        and self-pairs allowed); ``offsets`` is the exploration sequence,
        extended one chunk window at a time.  Every front advances
        :data:`BLOCK_STEPS` steps per gather.  Returns a mapping from pair
        index to its :class:`StaticWalkAccount` plus the list of indices the
        stepper did not resolve because the trajectory buffer cap was reached
        — the caller finishes those on the scalar kernel (identical results).
        """
        kernel = self.kernel
        length = len(offsets)
        owner_state = self.owner_state
        if self.block is None:
            # Dispatch threads share cached steppers; two first runs may both
            # build the table, but they build identical ones.
            self.block = _block_table(_np.stack(self.step))
        # The row gather of each offset code's (num_states, BLOCK_STEPS) plane.
        takes = [
            plane.take
            for plane in self.block.reshape(-1, self.num_states, BLOCK_STEPS)
        ]

        # Group pairs by source: walks sharing a start state share their
        # whole forward trajectory, so only distinct fronts are stepped.
        order: List[int] = []
        by_source: Dict[int, List[int]] = {}
        for index, (source, _target) in enumerate(pairs):
            bucket = by_source.get(source)
            if bucket is None:
                by_source[source] = bucket = []
                order.append(source)
            bucket.append(index)

        accounts: Dict[int, StaticWalkAccount] = {}
        found_at: Dict[int, int] = {}
        # remaining[source] -> [(pair index, target), ...] not yet terminated.
        remaining: Dict[int, List[Tuple[int, int]]] = {}
        for source in order:
            open_pairs: List[Tuple[int, int]] = []
            for index in by_source[source]:
                target = pairs[index][1]
                if target == source:
                    # owner(start state) == source: the scalar walk succeeds
                    # before taking a single step.
                    found_at[index] = 0
                else:
                    open_pairs.append((index, target))
            remaining[source] = open_pairs

        # --- stage 1: lockstep-advance the distinct fronts, recording the
        # owner trajectory chunk by chunk (one contiguous row per front),
        # with termination detection and front compaction per chunk.
        chunks: List[Tuple[Dict[int, int], "_np.ndarray"]] = []
        active: List[int] = [source for source in order if remaining[source]]
        state = _np.array(
            [3 * kernel.gateway(source) + start_port for source in active],
            dtype=_np.int32,
        )
        buffered_elements = 0
        global_step = 0
        truncated = False
        chunk_rows = _CHUNK_ROWS_MIN
        while active and global_step < length:
            rows = min(chunk_rows, length - global_step)
            chunk_rows = min(2 * chunk_rows, _CHUNK_ROWS_MAX)
            if buffered_elements + len(active) * rows > max_buffer_elements:
                truncated = True
                break
            window = _np.frombuffer(
                offsets.extend_to(global_step + rows),
                dtype=_np.int8,
                count=rows,
                offset=global_step,
            )
            codes = _block_codes(window[None, :])[0].tolist()
            # buffer[b, f] holds front f's states over the steps of block b.
            buffer = _np.empty((len(codes), len(active), BLOCK_STEPS), dtype=_np.int32)
            for out, code in zip(buffer, codes):
                state = takes[code](state, 0, out)[:, -1]
            trajectory = buffer.transpose(1, 0, 2).reshape(len(active), -1)
            # The state after the chunk's last real step, not a padded one.
            state = trajectory[:, rows - 1]
            owners = owner_state[trajectory[:, :rows]]
            buffered_elements += owners.size
            column_of = {source: column for column, source in enumerate(active)}
            chunks.append((column_of, owners))
            for source in active:
                row_owners = owners[column_of[source]]
                still_open: List[Tuple[int, int]] = []
                for index, target in remaining[source]:
                    hits = _np.nonzero(row_owners == target)[0]
                    if hits.size:
                        found_at[index] = global_step + int(hits[0]) + 1
                    else:
                        still_open.append((index, target))
                remaining[source] = still_open
            global_step += rows
            survivors = [source for source in active if remaining[source]]
            if len(survivors) != len(active):
                keep = _np.array(
                    [column_of[source] for source in survivors], dtype=_np.int64
                )
                state = state[keep]
                active = survivors

        # --- stage 2: per-pair accounting by vectorized reductions over the
        # recorded owner trajectory (the backward phase retraces the forward
        # walk, so its step/hop counts are functions of that trajectory).
        unresolved: List[int] = []
        for source in order:
            if truncated and remaining[source]:
                # This front was still walking when the buffer cap hit: every
                # unfinished pair goes back to the scalar kernel.
                unresolved.extend(index for index, _ in remaining[source])
            trajectory_rows: List["_np.ndarray"] = [
                _np.array([source], dtype=_np.int32)
            ]
            for column_of, owners in chunks:
                column = column_of.get(source)
                if column is None:
                    break
                trajectory_rows.append(owners[column])
            trajectory = _np.concatenate(trajectory_rows)
            for index in by_source[source]:
                target_found = found_at.get(index)
                if target_found is None and truncated:
                    continue  # already queued as unresolved
                accounts[index] = _account_from_trajectory(
                    trajectory, source, length, target_found
                )
        return accounts, unresolved


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
    one per (graph, size-bound) group — whose exploration sequences may have
    different lengths: per chunk window, each job contributes a row of a
    zero-padded ``int8`` offsets matrix (an ``np.frombuffer`` view of its
    stream's prefix, extended to cover the window), fronts gather their
    current block code from their row, and a per-front sequence-length clamp
    ignores any trajectory recorded past the front's own horizon.
    Accounting is the shared :func:`_account_from_trajectory` reduction, so
    results are bitwise identical to running each job through
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
        take = self.block.take
        num_states = self.num_states
        owner_state = self.owner_state
        state_base = self.state_base
        steppers = self.steppers

        # The hot loop reads each job's walked window per chunk instead of
        # materialising a padded jobs x max_length matrix — sequences run to
        # millions of entries while typical batches resolve within a few
        # thousand steps.
        streams = [offsets for _stepper, _pairs, offsets in jobs]
        lengths = [len(offsets) for offsets in streams]
        max_length = max(lengths, default=0)

        # Group each job's pairs by source: within one job, walks sharing a
        # start state share their whole forward trajectory (same graph, same
        # sequence), exactly as in BatchedWalk.
        accounts: Dict[Tuple[int, int], StaticWalkAccount] = {}
        found_at: Dict[Tuple[int, int], int] = {}
        front_order: List[Tuple[int, int]] = []  # (job, source)
        members: Dict[Tuple[int, int], List[int]] = {}
        remaining: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for job_index, (_stepper_index, pairs, _offsets) in enumerate(jobs):
            for pair_index, (source, target) in enumerate(pairs):
                front = (job_index, source)
                if front not in members:
                    members[front] = []
                    remaining[front] = []
                    front_order.append(front)
                members[front].append(pair_index)
                if target == source:
                    # owner(start state) == source: success before any step.
                    found_at[(job_index, pair_index)] = 0
                else:
                    remaining[front].append((pair_index, target))

        # --- stage 1: advance all distinct fronts of all jobs in lockstep,
        # recording the owner trajectory chunk by chunk (one contiguous row
        # per front).
        chunks: List[Tuple[Dict[Tuple[int, int], int], "_np.ndarray"]] = []
        active: List[Tuple[int, int]] = [
            front
            for front in front_order
            if remaining[front] and lengths[front[0]] > 0
        ]
        state = _np.array(
            [
                state_base[jobs[job][0]]
                + 3 * steppers[jobs[job][0]].kernel.gateway(source)
                + start_port
                for job, source in active
            ],
            dtype=_np.int32,
        )
        front_rows = _np.array([job for job, _source in active], dtype=_np.int64)
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
            # Per-chunk window of every job's sequence, zero-padded past each
            # job's horizon (offset 0 keeps padded states valid; accounting
            # clamps to the real horizon below), turned into block codes,
            # gathered per active front and premultiplied into table rows.
            off_jobs = _np.zeros((len(jobs), rows), dtype=_np.int8)
            for job, stream in enumerate(streams):
                usable_rows = min(rows, lengths[job] - global_step)
                if usable_rows > 0:
                    off_jobs[job, :usable_rows] = _np.frombuffer(
                        stream.extend_to(global_step + usable_rows),
                        dtype=_np.int8,
                        count=usable_rows,
                        offset=global_step,
                    )
            bases = _np.ascontiguousarray(_block_codes(off_jobs)[front_rows].T) * num_states
            # buffer[b, f] holds front f's states over the steps of block b.
            buffer = _np.empty(
                (bases.shape[0], len(active), BLOCK_STEPS), dtype=_np.int32
            )
            for out, indices in zip(buffer, bases):
                # The one gather per block: bases is per-chunk scratch, so
                # the table row is formed in place and the next states land
                # directly in the trajectory buffer.
                indices += state
                state = take(indices, 0, out)[:, -1]
            trajectory = buffer.transpose(1, 0, 2).reshape(len(active), -1)
            # The state after the chunk's last real step, not a padded one.
            state = trajectory[:, rows - 1]
            owners = owner_state[trajectory[:, :rows]]
            buffered_elements += owners.size
            column_of = {front: column for column, front in enumerate(active)}
            chunks.append((column_of, owners))
            for front in active:
                job, source = front
                # Clamp to this front's own horizon: trajectory recorded past
                # its sequence length came from padded offsets and is never
                # part of this front's walk.
                usable = min(rows, lengths[job] - global_step)
                if usable <= 0:
                    continue
                row_owners = owners[column_of[front], :usable]
                still_open: List[Tuple[int, int]] = []
                for pair_index, target in remaining[front]:
                    hits = _np.nonzero(row_owners == target)[0]
                    if hits.size:
                        found_at[(job, pair_index)] = (
                            global_step + int(hits[0]) + 1
                        )
                    else:
                        still_open.append((pair_index, target))
                remaining[front] = still_open
            global_step += rows
            survivors = [
                front
                for front in active
                if remaining[front] and lengths[front[0]] > global_step
            ]
            if len(survivors) != len(active):
                keep = _np.array(
                    [column_of[front] for front in survivors], dtype=_np.int64
                )
                state = state[keep]
                front_rows = front_rows[keep]
                active = survivors

        # --- stage 2: shared per-pair accounting over recorded trajectories.
        unresolved: List[Tuple[int, int]] = []
        truncated_fronts = set(active) if truncated else set()
        for front in front_order:
            job, source = front
            if front in truncated_fronts:
                # Still walking when the buffer cap hit: every unfinished
                # pair goes back to the scalar kernel.
                unresolved.extend(
                    (job, pair_index) for pair_index, _ in remaining[front]
                )
            trajectory_rows: List["_np.ndarray"] = [
                _np.array([source], dtype=_np.int32)
            ]
            for column_of, owners in chunks:
                column = column_of.get(front)
                if column is None:
                    break
                trajectory_rows.append(owners[column])
            trajectory = _np.concatenate(trajectory_rows)
            for pair_index in members[front]:
                key = (job, pair_index)
                target_found = found_at.get(key)
                if target_found is None and front in truncated_fronts:
                    continue  # already queued as unresolved
                accounts[key] = _account_from_trajectory(
                    trajectory, source, lengths[job], target_found
                )
        return accounts, unresolved


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
