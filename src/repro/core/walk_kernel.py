"""Array-backed walk kernel for the degree-reduced (3-regular) graph.

The exploration walk of Section 2 needs exactly one primitive per step: the
rotation map of the reduced graph.  :mod:`repro.graphs.labeled_graph` stores
that map as a dict keyed by ``(vertex, port)`` tuples, which is convenient for
construction and verification but costs a tuple allocation plus a hash lookup
per step on the routing hot path.  Because the reduced graph is always
3-regular with contiguous vertex ids ``0..|V'|-1`` (that is how
:func:`repro.graphs.degree_reduction.reduce_to_three_regular` numbers its
output), the whole rotation map flattens into two parallel integer lists

    ``next_vertex[3 * v + p]``  — vertex reached by leaving ``v`` through ``p``
    ``next_port[3 * v + p]``    — arrival port at that vertex

and a walk step becomes two list indexes.  The kernel also flattens the
cluster bookkeeping of the reduction (``owner``, per-virtual-vertex physical
port, gateway per original vertex) and the per-component size table, so the
routing engine never touches a dict or recomputes a connected component while
stepping.

The kernel is a pure compilation of an existing
:class:`~repro.graphs.degree_reduction.DegreeReducedGraph`; it changes the
representation, never the walk semantics — ``step_forward``/``step_backward``
here agree state-for-state with :func:`repro.core.exploration.step_forward`
and :func:`repro.core.exploration.step_backward` on the same reduced graph.

**Serializable form.**  Everything a walk consults at run time is six integer
arrays (:meth:`CompiledWalk.to_arrays`), and a kernel can be reconstructed
from those arrays alone (:meth:`CompiledWalk.from_arrays`) without re-deriving
the degree reduction — the cluster bookkeeping (owner → virtual members in
physical-port order) is recovered from the ``owner``/``physical_port``
columns.  That is what lets the kernel store
(:mod:`repro.core.kernel_store`) persist compiled kernels to disk,
content-addressed by :func:`rotation_hash` of the *original* graph: the
reduction is deterministic per rotation map, so equal graphs share one
on-disk kernel across processes and restarts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import GraphStructureError
from repro.graphs.degree_reduction import DegreeReducedGraph

__all__ = ["CompiledWalk", "compile_reduction", "rotation_hash"]


def rotation_hash(graph) -> str:
    """Stable content address of a graph's rotation map (sha256 hex digest).

    Two graphs hash equally iff they are equal as port-labeled graphs — the
    same equivalence the walk itself observes (``LabeledGraph.__eq__`` is
    rotation-map equality).  The digest is computed over the sorted
    ``(vertex, port) -> (vertex, port)`` entries, so it is independent of
    insertion order, process, and ``PYTHONHASHSEED``; the degree reduction and
    its compiled kernel are deterministic functions of the rotation map, which
    is what makes this hash a sound content address for persisted kernels.
    """
    digest = hashlib.sha256()
    for (v, p), (w, q) in sorted(graph.rotation_map().items(), key=repr):
        digest.update(repr((v, p, w, q)).encode("utf-8"))
    return digest.hexdigest()


class CompiledWalk:
    """Flat-array view of a degree reduction, built once and reused forever.

    Attributes (all read-only by convention; lists are used instead of
    ``array('q')`` because CPython indexes plain lists slightly faster and the
    memory difference is irrelevant at reproduction scale):

    ``next_vertex`` / ``next_port``
        The flattened rotation map, indexed by ``3 * vertex + port``.
    ``owner``
        Original vertex simulated by each virtual vertex.
    ``physical_port``
        For each virtual vertex, the physical port of its owner whose external
        edge it carries (its position inside the owner's cluster) — the O(1)
        replacement for the protocol's old ``cluster.index`` linear scan.
    ``component_id`` / ``component_sizes``
        Connected-component partition of the reduced graph; the size of the
        component of virtual vertex ``v`` (what ``CountNodes`` would report,
        i.e. the routing size bound) is ``component_sizes[component_id[v]]``.
    """

    __slots__ = (
        "reduction",
        "num_vertices",
        "next_vertex",
        "next_port",
        "owner",
        "physical_port",
        "gateway_of",
        "clusters",
        "component_id",
        "component_sizes",
    )

    def __init__(self, reduction: DegreeReducedGraph) -> None:
        reduced = reduction.graph
        n = reduced.num_vertices
        if reduced.vertices != tuple(range(n)):
            raise GraphStructureError(
                "the reduced graph must use contiguous vertex ids 0..n-1"
            )
        reduced.require_regular(3)

        self.reduction = reduction
        self.num_vertices = n
        next_vertex: List[int] = [0] * (3 * n)
        next_port: List[int] = [0] * (3 * n)
        rotation = reduced.rotation_map()
        for (v, p), (w, q) in rotation.items():
            next_vertex[3 * v + p] = w
            next_port[3 * v + p] = q
        self.next_vertex = next_vertex
        self.next_port = next_port

        owner: List[int] = [0] * n
        physical_port: List[int] = [0] * n
        gateway_of: Dict[int, int] = {}
        clusters: Dict[int, Tuple[int, ...]] = {}
        for original, cluster in reduction.cluster_of.items():
            gateway_of[original] = cluster[0]
            clusters[original] = tuple(cluster)
            for offset, virtual in enumerate(cluster):
                owner[virtual] = original
                physical_port[virtual] = offset
        self.owner = owner
        self.physical_port = physical_port
        self.gateway_of = gateway_of
        self.clusters = clusters

        self.component_id, self.component_sizes = self._compute_components()

    # ------------------------------------------------------------------ #
    # Construction helpers / serialization
    # ------------------------------------------------------------------ #

    def to_arrays(self) -> Dict[str, List[int]]:
        """Flatten the kernel to plain integer lists for persistence.

        Six columns fully determine the kernel: the flattened rotation map
        (``next_vertex``/``next_port``), the cluster bookkeeping
        (``owner``/``physical_port`` — clusters and gateways are derivable),
        and the precomputed component partition
        (``component_id``/``component_sizes``).  The original
        :class:`DegreeReducedGraph` is *not* serialized; a kernel restored via
        :meth:`from_arrays` has ``reduction is None`` and callers that need
        the reduction object (e.g. the verbose route protocol) recompute it
        from the source graph.
        """
        return {
            "next_vertex": list(self.next_vertex),
            "next_port": list(self.next_port),
            "owner": list(self.owner),
            "physical_port": list(self.physical_port),
            "component_id": list(self.component_id),
            "component_sizes": list(self.component_sizes),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, Sequence[int]]) -> "CompiledWalk":
        """Rebuild a kernel from :meth:`to_arrays` output (e.g. a disk load).

        Validates the shape invariants (3-regular sizing, port range, cluster
        contiguity) and raises :class:`~repro.errors.GraphStructureError` on
        inconsistent input, so a corrupt cache file surfaces as a structured
        error the kernel store can translate into "recompile".
        """
        try:
            owner = [int(x) for x in arrays["owner"]]
            physical_port = [int(x) for x in arrays["physical_port"]]
            next_vertex = [int(x) for x in arrays["next_vertex"]]
            next_port = [int(x) for x in arrays["next_port"]]
            component_id = [int(x) for x in arrays["component_id"]]
            component_sizes = [int(x) for x in arrays["component_sizes"]]
        except (KeyError, TypeError, ValueError) as error:
            raise GraphStructureError(f"malformed kernel arrays: {error}") from None

        n = len(owner)
        if (
            len(physical_port) != n
            or len(component_id) != n
            or len(next_vertex) != 3 * n
            or len(next_port) != 3 * n
        ):
            raise GraphStructureError("kernel arrays have inconsistent lengths")
        if n and not all(0 <= v < n for v in next_vertex):
            raise GraphStructureError("kernel next_vertex out of range")
        if not all(0 <= p < 3 for p in next_port):
            raise GraphStructureError("kernel next_port out of range")
        num_components = len(component_sizes)
        if n and not all(0 <= c < num_components for c in component_id):
            raise GraphStructureError("kernel component_id out of range")

        grouped: Dict[int, List[int]] = {}
        for virtual in range(n):
            grouped.setdefault(owner[virtual], []).append(virtual)
        gateway_of: Dict[int, int] = {}
        frozen: Dict[int, Tuple[int, ...]] = {}
        for original, members in grouped.items():
            # A cluster's physical ports must enumerate 0..len-1; each member
            # sits at the slot named by its carried physical port.
            ordered: List[int] = [-1] * len(members)
            for virtual in members:
                slot = physical_port[virtual]
                if not (0 <= slot < len(members)) or ordered[slot] >= 0:
                    raise GraphStructureError(
                        f"kernel cluster for vertex {original!r} is not contiguous"
                    )
                ordered[slot] = virtual
            gateway_of[original] = ordered[0]
            frozen[original] = tuple(ordered)

        kernel = cls.__new__(cls)
        kernel.reduction = None
        kernel.num_vertices = n
        kernel.next_vertex = next_vertex
        kernel.next_port = next_port
        kernel.owner = owner
        kernel.physical_port = physical_port
        kernel.gateway_of = gateway_of
        kernel.clusters = frozen
        kernel.component_id = component_id
        kernel.component_sizes = component_sizes
        return kernel

    def _compute_components(self) -> Tuple[List[int], List[int]]:
        """Partition the reduced graph into components with an iterative DFS."""
        n = self.num_vertices
        next_vertex = self.next_vertex
        component_id = [-1] * n
        sizes: List[int] = []
        for start in range(n):
            if component_id[start] >= 0:
                continue
            cid = len(sizes)
            stack = [start]
            component_id[start] = cid
            size = 0
            while stack:
                v = stack.pop()
                size += 1
                base = 3 * v
                for p in range(3):
                    w = next_vertex[base + p]
                    if component_id[w] < 0:
                        component_id[w] = cid
                        stack.append(w)
            sizes.append(size)
        return component_id, sizes

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    def gateway(self, original_vertex: int) -> int:
        """Canonical virtual vertex of ``original_vertex`` (see the reduction)."""
        try:
            return self.gateway_of[original_vertex]
        except KeyError:
            raise GraphStructureError(
                f"unknown original vertex {original_vertex!r}"
            ) from None

    def component_size(self, virtual_vertex: int) -> int:
        """Size of the reduced component containing ``virtual_vertex``."""
        return self.component_sizes[self.component_id[virtual_vertex]]

    def neighbor(self, virtual_vertex: int, port: int) -> int:
        """Vertex reached by leaving ``virtual_vertex`` through ``port``."""
        return self.next_vertex[3 * virtual_vertex + port]

    def translate_virtual(
        self, other: "CompiledWalk", virtual_vertex: int
    ) -> Optional[int]:
        """Carry a walk position into another kernel over the same vertex set.

        A virtual position is meaningful across topology snapshots as the pair
        *(owner, carried physical port)*: the virtual node of the same original
        vertex that occupies the same offset inside its cluster.  Returns the
        corresponding virtual vertex of ``other``, or ``None`` when the owner's
        degree differs between the two reductions — the cluster shapes no
        longer correspond and the walk is stranded.  This is the O(1) switch-
        over primitive of the schedule-aware engine
        (:class:`repro.core.engine.PreparedSchedule`).  Uses the kernels' own
        cluster snapshots, so it works on kernels restored from disk whose
        ``reduction`` is ``None``.
        """
        original = self.owner[virtual_vertex]
        own_cluster = self.clusters[original]
        other_cluster = other.clusters.get(original)
        if other_cluster is None or len(own_cluster) != len(other_cluster):
            return None
        return other_cluster[self.physical_port[virtual_vertex]]

    # ------------------------------------------------------------------ #
    # Walk primitives (semantics identical to repro.core.exploration)
    # ------------------------------------------------------------------ #

    def step_forward(self, vertex: int, entry_port: int, offset: int) -> Tuple[int, int]:
        """One forward step; returns the new ``(vertex, entry_port)``."""
        e = 3 * vertex + (entry_port + offset) % 3
        return self.next_vertex[e], self.next_port[e]

    def step_backward(self, vertex: int, entry_port: int, offset: int) -> Tuple[int, int]:
        """Undo one step taken with ``offset``; returns the prior ``(vertex, entry_port)``."""
        e = 3 * vertex + entry_port
        return self.next_vertex[e], (self.next_port[e] - offset) % 3

    def walk_vertices(
        self,
        start_vertex: int,
        start_port: int,
        offsets: Sequence[int],
        max_steps: Optional[int] = None,
    ) -> List[int]:
        """Virtual vertices visited by the walk, starting vertex included."""
        next_vertex = self.next_vertex
        next_port = self.next_port
        v, p = start_vertex, start_port
        visited = [v]
        append = visited.append
        if max_steps is not None:
            offsets = offsets[:max_steps]
        for offset in offsets:
            e = 3 * v + (p + offset) % 3
            v = next_vertex[e]
            p = next_port[e]
            append(v)
        return visited


def compile_reduction(reduction: DegreeReducedGraph) -> CompiledWalk:
    """Compile a degree reduction into its flat-array walk kernel."""
    return CompiledWalk(reduction)
