"""Block stepping in the lockstep kernels, against the scalar specification.

Both lockstep steppers advance every front :data:`BLOCK_STEPS` walk steps
per gather, through a block table composed from the per-offset transition
arrays.  Chunk windows are zero-padded to whole blocks, so a chunk end, a
job's sequence horizon and a buffer-cap truncation can all fall inside a
block.  The properties here drive exactly those cases — explicit offset
sequences of every length modulo the block size, chunk sizes patched small,
jobs of different lengths, jobs that share one stream object, truncating
buffer caps, hit-detection slices patched small — together with fronts
that carry many pairs (repeated targets, self-pairs and targets that are
no vertex among them, since each front's accounting is computed once for
all its pairs) — and require that

* every resolved account equals the scalar ``reference_route_many`` run on
  the same sequence, and
* the unresolved set equals the one a pure-Python replay of the chunk
  schedule derives from the reference results.

An exhaustive test checks every row of the block table against single-step
gathers, and a guard pins that stacking graphs never builds the members'
own tables (the memory claim).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import batch_kernel
from repro.core.batch_kernel import (
    BLOCK_STEPS,
    HAVE_NUMPY,
    BatchedWalk,
    MultiGraphWalk,
    batched_walk_for,
    clear_batch_caches,
)
from repro.core.engine import _route_lockstep, prepare
from repro.core.universal import OffsetStream, RandomSequenceProvider, SequenceProvider
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="NumPy unavailable: the lockstep kernel cannot run"
)

_RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _FixedSequence(SequenceProvider):
    """Hands out one explicit offset sequence whatever the size bound."""

    def __init__(self, offsets: bytes) -> None:
        self._stream = OffsetStream(offsets)

    def sequence_for(self, n: int) -> OffsetStream:  # noqa: D102 - test stub
        return self._stream


def _random_graph(n: int, p: float, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabeledGraph.from_edges(edges, vertices=range(n))


@st.composite
def _jobs(draw, max_graphs: int):
    """Graphs plus jobs of explicit offsets (any length) and pairs."""
    graphs = [
        _random_graph(
            draw(st.integers(min_value=2, max_value=9)),
            draw(st.floats(min_value=0.1, max_value=0.9)),
            draw(st.integers(min_value=0, max_value=10_000)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=max_graphs)))
    ]
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slot = draw(st.integers(min_value=0, max_value=len(graphs) - 1))
        vertices = list(graphs[slot].vertices)
        offsets = bytes(
            draw(st.lists(st.integers(min_value=0, max_value=2), max_size=40))
        )
        # A target that is no vertex of the graph (here one past int32)
        # must fail like any unreachable target.
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(vertices), st.sampled_from(vertices + [2**40])),
                min_size=1,
                max_size=8,
            )
        )
        # Fronts carrying many pairs: one source with up to a dozen
        # targets, repeated targets and the source itself among them.
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            source = draw(st.sampled_from(vertices))
            targets = draw(
                st.lists(st.sampled_from(vertices + [source]), min_size=1, max_size=12)
            )
            pairs += [(source, target) for target in targets]
        jobs.append((slot, draw(st.permutations(pairs)), offsets))
    return graphs, jobs


_CHUNKS = st.tuples(
    st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=16)
).map(lambda pair: (pair[0], max(pair)))
_CAPS = st.one_of(st.just(batch_kernel._MAX_BUFFER_ELEMENTS), st.integers(1, 60))


def _reference(graph: LabeledGraph, pairs, offsets: bytes, start_port: int):
    return prepare(graph).reference_route_many(
        pairs, provider=_FixedSequence(offsets), start_port=start_port
    )


def _assert_plain(account: batch_kernel.StaticWalkAccount) -> None:
    # Accounts end up in JSON results and provenance records: NumPy scalars
    # compare equal to ints but do not serialize.
    assert type(account.success) is bool
    for value in (account.forward_steps, account.backward_steps, account.physical_hops):
        assert type(value) is int
    assert account.target_found_at is None or type(account.target_found_at) is int


def _as_account(result) -> batch_kernel.StaticWalkAccount:
    return batch_kernel.StaticWalkAccount(
        success=result.delivered,
        forward_steps=result.forward_virtual_steps,
        backward_steps=result.backward_virtual_steps,
        physical_hops=result.physical_hops,
        target_found_at=result.target_found_at_step,
    )


def _spec_unresolved(
    jobs: Sequence[Tuple[Sequence[Tuple[int, int]], int]],
    references: Sequence[Sequence[object]],
    chunk_min: int,
    chunk_max: int,
    cap: int,
) -> List[Tuple[int, int]]:
    """The pairs a chunked lockstep run hands back, replayed in pure Python.

    ``jobs`` holds each job's pairs and sequence length.  A front is one
    (job, source) with a pair still walking; a pair stops walking in the
    chunk that holds its reference hit step.  Chunk sizes double from
    ``chunk_min`` to ``chunk_max``; a chunk that would take the buffer past
    ``cap`` elements truncates the run, and every still-walking pair of a
    still-active front is unresolved.
    """
    # front -> [(job, pair index, hit step or None), ...] of non-self pairs.
    fronts: Dict[Tuple[int, int], List[Tuple[int, int, object]]] = {}
    for job, ((pairs, _length), results) in enumerate(zip(jobs, references)):
        for index, ((source, target), result) in enumerate(zip(pairs, results)):
            hit = result.target_found_at_step if result.delivered else None
            fronts.setdefault((job, source), [])
            if source != target:
                fronts[(job, source)].append((job, index, hit))

    def walking(front, step):
        return [entry for entry in fronts[front] if entry[2] is None or entry[2] > step]

    lengths = [length for _pairs, length in jobs]
    active = [f for f in fronts if fronts[f] and lengths[f[0]] > 0]
    buffered, step, rows = 0, 0, chunk_min
    max_length = max(lengths)
    while active and step < max_length:
        chunk = min(rows, max_length - step)
        rows = min(2 * rows, chunk_max)
        if buffered + len(active) * chunk > cap:
            return sorted(
                (job, index) for front in active for job, index, _hit in walking(front, step)
            )
        buffered += len(active) * chunk
        step += chunk
        active = [f for f in active if walking(f, step) and lengths[f[0]] > step]
    return []


@needs_numpy
@_RELAXED
@given(
    case=_jobs(max_graphs=1),
    chunks=_CHUNKS,
    cap=_CAPS,
    start_port=st.integers(0, 2),
    detect_slice=st.integers(1, 48),
)
def test_batched_block_stepping_equals_reference(case, chunks, cap, start_port, detect_slice):
    # The hit detection's slices are patched small too, so a slice boundary
    # can split the open pairs of one front.
    graphs, jobs = case
    kernel = prepare(graphs[0]).kernel
    for _slot, pairs, offsets in jobs:
        with mock.patch.object(batch_kernel, "_CHUNK_ROWS_MIN", chunks[0]), \
                mock.patch.object(batch_kernel, "_CHUNK_ROWS_MAX", chunks[1]), \
                mock.patch.object(batch_kernel, "_DETECT_SLICE_ELEMENTS", detect_slice):
            accounts, unresolved = BatchedWalk(kernel).run(
                pairs, OffsetStream(offsets), start_port=start_port, max_buffer_elements=cap
            )
        reference = _reference(graphs[0], pairs, offsets, start_port)
        expected = _spec_unresolved([(pairs, len(offsets))], [reference], *chunks, cap)
        assert sorted(unresolved) == [index for _job, index in expected]
        assert set(accounts) | set(unresolved) == set(range(len(pairs)))
        for index, account in accounts.items():
            assert account == _as_account(reference[index])
            _assert_plain(account)


@needs_numpy
@_RELAXED
@given(
    case=_jobs(max_graphs=3),
    chunks=_CHUNKS,
    cap=_CAPS,
    start_port=st.integers(0, 2),
    detect_slice=st.integers(1, 48),
    share_stream=st.booleans(),
)
def test_multigraph_block_stepping_equals_reference(
    case, chunks, cap, start_port, detect_slice, share_stream
):
    # With ``share_stream`` every job reads one stream object, so the run
    # takes the shared-code gather; otherwise each job has its own stream
    # (equal bytes or not) and fronts gather their own codes.
    graphs, jobs = case
    if share_stream:
        jobs = [(slot, pairs, jobs[0][2]) for slot, pairs, _offsets in jobs]
        shared = OffsetStream(jobs[0][2])
    multi = MultiGraphWalk([BatchedWalk(prepare(graph).kernel) for graph in graphs])
    with mock.patch.object(batch_kernel, "_CHUNK_ROWS_MIN", chunks[0]), \
            mock.patch.object(batch_kernel, "_CHUNK_ROWS_MAX", chunks[1]), \
            mock.patch.object(batch_kernel, "_DETECT_SLICE_ELEMENTS", detect_slice):
        accounts, unresolved = multi.run(
            [
                (slot, pairs, shared if share_stream else OffsetStream(offsets))
                for slot, pairs, offsets in jobs
            ],
            start_port=start_port,
            max_buffer_elements=cap,
        )
    references = [
        _reference(graphs[slot], pairs, offsets, start_port) for slot, pairs, offsets in jobs
    ]
    expected = _spec_unresolved(
        [(pairs, len(offsets)) for _slot, pairs, offsets in jobs], references, *chunks, cap
    )
    assert sorted(unresolved) == expected
    every_key = {
        (job, index) for job, (_slot, pairs, _offsets) in enumerate(jobs)
        for index in range(len(pairs))
    }
    assert set(accounts) | set(unresolved) == every_key
    for (job, index), account in accounts.items():
        assert account == _as_account(references[job][index])
        _assert_plain(account)


def _walk_block(step: Sequence[Sequence[int]], code: int, state: int) -> List[int]:
    """The states after each step of block ``code`` from ``state``, one gather at a time."""
    digits = [(code // 3 ** (BLOCK_STEPS - 1 - j)) % 3 for j in range(BLOCK_STEPS)]
    states = []
    for offset in digits:
        state = int(step[offset][state])
        states.append(state)
    return states


@needs_numpy
@pytest.mark.parametrize(
    "graphs",
    [
        [generators.grid_graph(3, 3)],
        [generators.cycle_graph(5), generators.complete_graph(4), generators.path_graph(3)],
    ],
)
def test_every_block_table_row_is_block_steps_single_gathers(graphs):
    steppers = [BatchedWalk(prepare(graph).kernel) for graph in graphs]
    multi = MultiGraphWalk(steppers)
    steppers[0].run([(0, 0)], OffsetStream(b""))  # builds its table
    tables = [(steppers[0].block, steppers[0].step, steppers[0].num_states)]
    stacked_step = [
        [
            state + base
            for stepper, base in zip(steppers, multi.state_base)
            for state in stepper.step[offset]
        ]
        for offset in range(3)
    ]
    tables.append((multi.block, stacked_step, multi.num_states))
    for table, step, num_states in tables:
        assert table.shape == (3**BLOCK_STEPS * num_states, BLOCK_STEPS)
        for code in range(3**BLOCK_STEPS):
            for state in range(num_states):
                row = table[code * num_states + state].tolist()
                assert row == _walk_block(step, code, state)


@needs_numpy
def test_stacked_runs_leave_member_block_tables_unbuilt():
    # A stack holds one table over all its graphs; building each member's
    # own table as well would double the memory the stack costs.
    clear_batch_caches()
    engines = [prepare(generators.grid_graph(5, 5)), prepare(generators.cycle_graph(20))]
    provider = RandomSequenceProvider(seed=3)
    tasks = [(engine, [(0, 7), (3, 12), (1, 1)], None) for engine in engines]
    _route_lockstep(tasks, provider=provider)
    assert all(batched_walk_for(engine.kernel).block is None for engine in engines)
    # A single-graph batch builds its stepper's table on first use.
    _route_lockstep(tasks[:1], provider=provider)
    assert batched_walk_for(engines[0].kernel).block is not None
    assert batched_walk_for(engines[1].kernel).block is None
