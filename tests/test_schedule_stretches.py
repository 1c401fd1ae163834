"""The fused schedule walk against the executable specification, on drawn schedules.

:meth:`repro.core.engine.PreparedSchedule.route` runs each forward stretch
between two switch times as one loop over fused state tables and tests the
target only when the owner changes.  The property here draws small
schedules (relabelled snapshots, snapshots that drop or add a link and so
change degrees, snapshot objects that come back, switch times close
together or far apart) and lazily generated exploration sequences whose
first extension is patched down to a few offsets, with the stretch window
patched small as well, so prefix extensions and window ends fall inside
forward stretches.  Every drawn route must equal
:func:`repro.network.dynamics.reference_route_over_schedule` result for
result: delivered, reported failure (sound and unsound) and stranded by a
degree change.

The fourth outcome, stranded by the tick budget, cannot occur in either
realisation: the budget of ``2 * len + 2`` ticks is exactly the longest walk
(``len`` forward ticks, the turn, ``len`` backward ticks and the report),
so the property asserts that no drawn route reports it.
"""

from __future__ import annotations

import random
from typing import List, Tuple
from unittest import mock

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import _mutate_snapshot
from repro.core import engine, universal
from repro.core.engine import PreparedSchedule
from repro.core.universal import OffsetStream, SequenceProvider
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.dynamics import (
    DynamicOutcome,
    TopologySchedule,
    reference_route_over_schedule,
)


class _SeededSequence(SequenceProvider):
    """A fresh, lazily generated stream of one declared length per call."""

    def __init__(self, length: int, seed: int) -> None:
        self._length = length
        self._seed = f"stretch-{seed}"

    def sequence_for(self, n: int) -> OffsetStream:  # noqa: D102 - test stub
        return OffsetStream(length=self._length, seed=self._seed)


def _base(kind: str, size: int, seed: int) -> LabeledGraph:
    if kind == "grid":
        return generators.grid_graph(2, size)
    if kind == "ring":
        return generators.cycle_graph(size + 1)
    if kind == "two-rings":
        return generators.disjoint_union(
            [generators.cycle_graph(3), generators.cycle_graph(size + 1)]
        )
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(size + 1) for j in range(i + 1, size + 1) if rng.random() < 0.5
    ]
    return LabeledGraph.from_edges(edges, vertices=range(size + 1))


def _with_extra_edge(graph: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """``graph`` plus one new link: its endpoints gain a degree."""
    vertices = list(graph.vertices)
    present = {frozenset((edge.u, edge.v)) for edge in graph.edges()}
    absent = [
        (u, v) for u in vertices for v in vertices if u < v and frozenset((u, v)) not in present
    ]
    if not absent:
        return graph
    kept = [(edge.u, edge.v) for edge in graph.edges()]
    return LabeledGraph.from_edges(kept + [rng.choice(absent)], vertices=vertices)


def _schedule(case) -> TopologySchedule:
    (kind, size, seed), steps, gaps = case[0], case[1], case[2]
    rng = random.Random(seed)
    snapshots: List[LabeledGraph] = [_base(kind, size, seed)]
    for step, back in steps:
        current = snapshots[-1]
        if step == "relabel":
            snapshots.append(current.with_relabeled_ports(rng))
        elif step == "drop-edge":
            snapshots.append(_mutate_snapshot(current, "drop-edge", rng))
        elif step == "add-edge":
            snapshots.append(_with_extra_edge(current, rng))
        else:  # an earlier snapshot object comes back
            snapshots.append(snapshots[back % len(snapshots)])
    times = [0]
    for gap in gaps[: len(snapshots) - 1]:
        times.append(times[-1] + gap)
    return TopologySchedule(snapshots=tuple(snapshots), switch_times=tuple(times))


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["relabel", "drop-edge", "add-edge", "repeat"]),
        st.integers(0, 5),
    ),
    max_size=4,
)

_CASES = st.tuples(
    st.tuples(
        st.sampled_from(["grid", "ring", "two-rings", "random"]),
        st.integers(2, 5),
        st.integers(0, 10_000),
    ),
    _STEPS,
    st.lists(st.integers(1, 30), min_size=4, max_size=4),
    st.tuples(st.integers(0, 160), st.integers(0, 10_000)),  # sequence length, seed
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=4),
    st.tuples(st.integers(1, 8), st.integers(1, 9)),  # first extension, stretch window
)


def _label(result) -> str:
    if result.outcome is DynamicOutcome.REPORTED_FAILURE:
        return "reported failure, " + ("sound" if result.sound else "unsound")
    if result.outcome is DynamicOutcome.STRANDED:
        return "stranded by " + ("budget" if "budget" in result.detail else "degree change")
    return result.outcome.value


def _routes(case) -> List[Tuple[object, object]]:
    schedule = _schedule(case)
    length, seed = case[3]
    first_extension, window = case[5]
    provider = _SeededSequence(length, seed)
    vertices = list(schedule.snapshots[0].vertices)
    prepared = PreparedSchedule(schedule, provider)
    out = []
    for source, target in case[4]:
        source = vertices[source % len(vertices)]
        with mock.patch.object(universal, "_FIRST_EXTENSION", first_extension), \
                mock.patch.object(engine, "_STRETCH_WINDOW", window):
            fused = prepared.route(source, target, provider=provider)
        spec = reference_route_over_schedule(schedule, source, target, provider=provider)
        out.append((fused, spec))
    return out


#: One case per outcome the drawn ones reach: a long sequence delivers, a
#: disconnected pair reports a sound failure, a sequence too short for a
#: connected pair reports an unsound one, and a dropped link strands.
_PINNED = [
    (("grid", 3, 1), [("relabel", 0)], [5, 5, 5, 5], (200, 1), [(0, 5)], (1, 2)),
    (("two-rings", 3, 1), [("relabel", 0)], [3, 5, 5, 5], (40, 2), [(0, 4)], (2, 3)),
    (("ring", 5, 1), [("relabel", 0), ("repeat", 0)], [2, 2, 5, 5], (3, 3), [(0, 3)], (1, 1)),
    (("ring", 4, 3), [("drop-edge", 0)], [1, 5, 5, 5], (60, 4), [(0, 2), (1, 3)], (3, 2)),
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=_CASES)
@example(case=_PINNED[0])
@example(case=_PINNED[1])
@example(case=_PINNED[2])
@example(case=_PINNED[3])
def test_fused_schedule_walk_equals_the_reference(case):
    for fused, spec in _routes(case):
        event(_label(spec))
        assert fused == spec
        assert "budget" not in spec.detail


def test_pinned_cases_reach_every_reachable_outcome():
    labels = {_label(spec) for case in _PINNED for _fused, spec in _routes(case)}
    assert labels == {
        "delivered",
        "reported failure, sound",
        "reported failure, unsound",
        "stranded by degree change",
    }
