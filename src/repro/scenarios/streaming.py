"""Streaming graph families: planet-scale graphs as lazily-yielded shards.

A :class:`StreamingGraphFamily` describes a 10^5–10^6-node graph as the
disjoint union of equal-shaped *shards* (small grid / torus / ring /
unit-disk instances).  Shards are generated lazily and routed one at a time,
so peak resident memory is bounded by the shard size, never the graph size:

- **structured kinds** (``grid`` / ``torus`` / ``ring``): every shard is the
  *same* local prototype graph (cached), so :func:`repro.core.engine.prepare`
  compiles exactly one kernel for the whole family, no matter how many
  shards it spans;
- **unit-disk shards** are seeded per-shard deployments, prepared through a
  throwaway :class:`~repro.core.engine.PreparedNetwork` that bypasses the
  engine cache, so each shard's kernel is released as soon as its pairs are
  routed.

Port assignment in :meth:`LabeledGraph.from_edges` is edge-supply-ordered,
so routing a pair inside its local shard is bit-identical (up to the global
id offset on ``source``/``target``) to routing it on the fully materialised
union — :func:`route_streamed_pairs` exploits that, and the conformance
harness's ``streamed-parity`` invariant re-checks it.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.geometry.deployment import random_deployment
from repro.geometry.unit_disk import unit_disk_graph
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.adhoc import AdHocNetwork, build_graph_network

__all__ = [
    "STREAMED_KINDS",
    "StreamingGraphFamily",
    "family_from_spec",
    "materialise_union",
    "streamed_network",
    "pick_streamed_pairs",
    "route_streamed_pairs",
]

#: Shard shapes a streaming family can be built from.
STREAMED_KINDS = ("grid", "torus", "ring", "unit-disk")

#: Sentinel local target for a pair whose target lives in another shard: no
#: local vertex owns it, so the walk exhausts the sequence and reports
#: FAILURE — exactly what routing to the (disconnected) real target on the
#: materialised union does.
_ABSENT_TARGET = -1


@dataclass(frozen=True)
class StreamingGraphFamily:
    """A huge graph described as a lazy stream of equal-shaped shards.

    ``size`` is the *requested* vertex count; the realised count
    (:attr:`total_vertices`) rounds it up to a whole number of shards, each
    holding :attr:`shard_vertex_count` vertices.  Global vertex ids are
    ``shard_index * shard_vertex_count + local_id``.
    """

    kind: str
    size: int
    shard_size: int = 1024
    seed: int = 0
    radius: Optional[float] = None
    dimension: int = 2

    def __post_init__(self) -> None:
        if self.kind not in STREAMED_KINDS:
            raise ExperimentError(
                f"unknown streamed kind {self.kind!r}; expected one of {STREAMED_KINDS}"
            )
        if self.size < 1:
            raise ExperimentError("a streaming family needs size >= 1")
        if self.shard_size < 1:
            raise ExperimentError("shard_size must be >= 1")
        if self.kind == "unit-disk" and self.radius is None:
            raise ExperimentError("streamed unit-disk families need a radius")

    @property
    def shard_vertex_count(self) -> int:
        """Realised vertices per shard (a grid/torus rounds to a square side)."""
        if self.kind in ("grid", "torus"):
            side = max(3 if self.kind == "torus" else 2, round(self.shard_size ** 0.5))
            return side * side
        if self.kind == "ring":
            return max(3, self.shard_size)
        return self.shard_size

    @property
    def shard_count(self) -> int:
        """Number of shards needed to cover the requested size."""
        return max(1, -(-self.size // self.shard_vertex_count))

    @property
    def total_vertices(self) -> int:
        """Realised vertex count of the full (never materialised) union."""
        return self.shard_count * self.shard_vertex_count

    def shard_offset(self, index: int) -> int:
        """Global id of local vertex 0 of shard ``index``."""
        if not 0 <= index < self.shard_count:
            raise ExperimentError(
                f"shard index {index} out of range 0..{self.shard_count - 1}"
            )
        return index * self.shard_vertex_count

    def shard_of(self, global_id: int) -> int:
        """Shard index holding ``global_id``."""
        if not 0 <= global_id < self.total_vertices:
            raise ExperimentError(
                f"vertex {global_id} outside 0..{self.total_vertices - 1}"
            )
        return global_id // self.shard_vertex_count

    def shard_graph(self, index: int) -> LabeledGraph:
        """The local graph of shard ``index`` (vertices ``0..m-1``).

        Structured kinds return one shared prototype object for every shard,
        which is what lets the prepared engine's identity-keyed cache serve
        the whole family from a single compiled kernel.
        """
        if not 0 <= index < self.shard_count:
            raise ExperimentError(
                f"shard index {index} out of range 0..{self.shard_count - 1}"
            )
        if self.kind == "unit-disk":
            return _unit_disk_shard(self, index)
        return _structured_prototype(self.kind, self.shard_vertex_count)

    def iter_shards(self) -> Iterator[Tuple[int, int, LabeledGraph]]:
        """Yield ``(index, offset, local_graph)`` lazily, one shard at a time."""
        for index in range(self.shard_count):
            yield index, self.shard_offset(index), self.shard_graph(index)


@functools.lru_cache(maxsize=8)
def _structured_prototype(kind: str, vertex_count: int) -> LabeledGraph:
    if kind == "grid":
        side = round(vertex_count ** 0.5)
        return generators.grid_graph(side, side)
    if kind == "torus":
        side = round(vertex_count ** 0.5)
        return generators.torus_graph(side, side)
    return generators.cycle_graph(vertex_count)


@functools.lru_cache(maxsize=8)
def _unit_disk_shard(family: StreamingGraphFamily, index: int) -> LabeledGraph:
    deployment = random_deployment(
        family.shard_vertex_count,
        dimension=family.dimension,
        seed=(family.seed, "streamed-shard", index).__repr__(),
    )
    return unit_disk_graph(deployment, family.radius)


def family_from_spec(spec) -> StreamingGraphFamily:
    """Decode a ``streamed-*`` :class:`ScenarioSpec` into its family."""
    prefix = "streamed-"
    if not spec.family.startswith(prefix):
        raise ExperimentError(f"{spec.family!r} is not a streamed scenario family")
    extra = dict(spec.extra)
    return StreamingGraphFamily(
        kind=spec.family[len(prefix):],
        size=spec.size,
        shard_size=int(extra.get("shard_size", 1024)),
        seed=spec.seed,
        radius=spec.radius,
        dimension=spec.dimension,
    )


def materialise_union(family: StreamingGraphFamily) -> LabeledGraph:
    """Build the full disjoint union with global ids — O(total) memory.

    Only meant for *small* streamed scenarios (conformance, parity tests):
    the whole point of the subsystem is that large families are routed shard
    by shard without ever calling this.
    """
    edges: List[Tuple[int, int]] = []
    for _, offset, local in family.iter_shards():
        edges.extend(
            (offset + edge.u, offset + edge.v) for edge in local.edges()
        )
    return LabeledGraph.from_edges(edges, vertices=range(family.total_vertices))


def streamed_network(spec) -> AdHocNetwork:
    """Materialise a streamed spec as a plain network (small sizes only)."""
    union = materialise_union(family_from_spec(spec))
    return build_graph_network(union, namespace_size=spec.namespace_size)


def pick_streamed_pairs(
    family: StreamingGraphFamily, pairs: int, seed: int = 0
) -> List[Tuple[int, int]]:
    """Deterministically choose same-shard global source/target pairs.

    Mirrors :func:`repro.analysis.experiments.pick_source_target_pairs` but
    draws a shard first and two distinct local vertices second, so every
    pair is routable without materialising the union (shards are mutually
    disconnected by construction).
    """
    if pairs < 0:
        raise ExperimentError("cannot pick a negative number of pairs")
    rng = random.Random(seed)
    vertex_count = family.shard_vertex_count
    chosen: List[Tuple[int, int]] = []
    for _ in range(pairs):
        offset = family.shard_offset(rng.randrange(family.shard_count))
        source = rng.randrange(vertex_count)
        target = rng.randrange(vertex_count)
        if vertex_count > 1:
            while target == source:
                target = rng.randrange(vertex_count)
        chosen.append((offset + source, offset + target))
    return chosen


def route_streamed_pairs(
    family: StreamingGraphFamily,
    pairs: List[Tuple[int, int]],
    provider=None,
) -> List["RouteResult"]:
    """Route global pairs shard-locally, bit-identical to the union.

    Pairs are grouped by the shard of their source and routed on the local
    shard graph; ``source``/``target`` of each result are then rewritten back
    to global ids.  A pair whose target lives in a different shard is routed
    to an absent-target sentinel, which walks (and fails) exactly as routing
    to the real, disconnected target would on the materialised union.

    Memory stays flat: at any moment only one shard's graph and kernel are
    resident (plus the single shared prototype kernel for structured kinds).
    """
    from repro.core.engine import PreparedNetwork, prepare

    vertex_count = family.shard_vertex_count
    namespace = family.total_vertices
    by_shard: Dict[int, List[int]] = {}
    for position, (source, target) in enumerate(pairs):
        by_shard.setdefault(family.shard_of(source), []).append(position)

    results: List[Optional[object]] = [None] * len(pairs)
    for shard_index in sorted(by_shard):
        offset = family.shard_offset(shard_index)
        local = family.shard_graph(shard_index)
        if family.kind == "unit-disk":
            # Throwaway engine: bypasses the identity-keyed engine cache so
            # the shard's kernel is collectable as soon as we move on.
            engine = PreparedNetwork(local)
        else:
            # Prototype shard: the cache compiles one kernel for the family.
            engine = prepare(local)
        positions = by_shard[shard_index]
        local_pairs = []
        for position in positions:
            source, target = pairs[position]
            local_target = (
                target - offset
                if offset <= target < offset + vertex_count
                else _ABSENT_TARGET
            )
            local_pairs.append((source - offset, local_target))
        routed = engine.route_many(
            local_pairs, provider=provider, namespace_size=namespace
        )
        for position, result in zip(positions, routed):
            source, target = pairs[position]
            results[position] = dataclasses.replace(
                result, source=source, target=target
            )
    return list(results)
