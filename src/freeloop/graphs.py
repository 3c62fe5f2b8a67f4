"""Finite directed multigraphs: weak components, spanning forests, Euler
ranks, and pushouts over a shared vertex set.

Vertex and edge ids are opaque strings compared in code-point order (which
for UTF-8 encoded ids coincides with bytewise order).  That single total
order drives every deterministic choice in the library: component numbering,
default edge scan order, canonical output order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    BadId,
    DanglingEndpoint,
    DifferentTrees,
    DuplicateId,
    InternalInvariant,
    UnknownVertex,
    VertexSetMismatch,
)


def as_id(value) -> str:
    """Coerce a vertex/edge label to its canonical string form."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise BadId(f"id must be a string or integer label, got {type(value).__name__}")


def _collection(values: Iterable, what: str) -> Iterator:
    """An iterator over ``values``, a collection of ``what``; a bare
    ``str``, ``bytes`` or ``bytearray`` is refused rather than read as its
    characters or byte values, and so is anything ``iter`` refuses."""
    if isinstance(values, (str, bytes, bytearray)):
        raise BadId(f"expected a collection of {what}, got the {type(values).__name__} {values!r}")
    try:
        return iter(values)
    except TypeError:
        raise BadId(f"expected a collection of {what}, got {type(values).__name__}") from None


def as_ids(values: Iterable) -> list[str]:
    """:func:`as_id` of each of ``values``, a collection of labels."""
    return [as_id(v) for v in _collection(values, "ids")]


def _edge_entry(entry, n: int, where) -> list[str]:
    """The ``n`` ids of an edge entry, a tuple or list, coerced: an edge
    ``(id, source, target)``, or the ``(source, target)`` an id maps to."""
    if isinstance(entry, (tuple, list)) and len(entry) == n:
        return list(map(as_id, entry))
    if n == 3:
        raise BadId(f"edge #{where} must be an (id, source, target) tuple or list, got {entry!r}")
    raise BadId(f"edge {where!r} must map to a (source, target) tuple or list, got {entry!r}")


class DirectedGraph:
    """Immutable finite directed multigraph.

    Parallel edges and self-loops are permitted.  Vertices and edges are
    stored in canonical id order, so two graphs built from the same data in
    any input order compare (and print) identically.

    ``DirectedGraph(...)`` is the one validating build: it coerces every id
    with :func:`as_id`, then checks for duplicate vertices, duplicate edges
    and dangling endpoints, in that order.  An edge entry that is no (id,
    source, target) tuple or list, or in the mapping form no (source,
    target) one, is a ``BadId``.  Graphs freeloop derives from
    graphs it already holds are built by ``_trusted`` from index arrays.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Mapping[str, tuple] | Iterable[tuple] = (),
    ):
        if isinstance(edges, Mapping):
            items = ((as_id(e), *_edge_entry(ends, 2, e)) for e, ends in edges.items())
        else:
            entries = enumerate(_collection(edges, "edges"))
            items = (_edge_entry(entry, 3, i) for i, entry in entries)
        # ``items`` is lazy, so a duplicate vertex is reported before a bad edge.
        self._check(as_ids(vertices), items)

    @classmethod
    def _checked(cls, vertices: list[str], edges: Iterable[tuple[str, str, str]]) -> DirectedGraph:
        """``DirectedGraph(...)`` for ids that are already str: the same
        checks, errors and order, without the ``as_id`` pass."""
        return cls.__new__(cls)._check(vertices, edges)

    @classmethod
    def _trusted(
        cls,
        vertices: tuple[str, ...],
        edge_ids: tuple[str, ...],
        src_idx: list[int],
        tgt_idx: list[int],
    ) -> DirectedGraph:
        """``DirectedGraph(...)`` without its checks, for graphs freeloop
        derived itself: ``vertices`` and ``edge_ids`` canonical (str, sorted,
        distinct), ``src_idx``/``tgt_idx`` indexes into ``vertices``."""
        return cls.__new__(cls)._set(vertices, edge_ids, src_idx, tgt_idx)

    def _check(self, vertices: list[str], edges: Iterable[tuple[str, str, str]]) -> DirectedGraph:
        vertices.sort()
        for left, right in zip(vertices, vertices[1:]):
            if left == right:
                raise DuplicateId("vertex", left)
        items = sorted(edges, key=itemgetter(0))
        edge_ids = tuple(map(itemgetter(0), items))
        for left, right in zip(edge_ids, edge_ids[1:]):
            if left == right:
                raise DuplicateId("edge", left)
        # The one graph build that needs the vertex index, so it sets it.
        self._vindex = vindex = dict(zip(vertices, range(len(vertices))))
        src_idx = [vindex.get(s, -1) for _, s, _ in items]
        tgt_idx = [vindex.get(t, -1) for _, _, t in items]
        if -1 in src_idx or -1 in tgt_idx:
            for (e, s, t), i, j in zip(items, src_idx, tgt_idx):
                if i < 0:
                    raise DanglingEndpoint(e, s)
                if j < 0:
                    raise DanglingEndpoint(e, t)
        return self._set(tuple(vertices), edge_ids, src_idx, tgt_idx)

    def _set(
        self,
        vertices: tuple[str, ...],
        edge_ids: tuple[str, ...],
        src_idx: list[int],
        tgt_idx: list[int],
    ) -> DirectedGraph:
        self.vertices = vertices
        self.edge_ids = edge_ids
        self._src_idx = src_idx
        self._tgt_idx = tgt_idx
        self._components: VertexPartition | None = None
        return self

    @cached_property
    def _vindex(self) -> dict[str, int]:
        """Vertex id to index, built on first use."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def _eindex(self) -> dict[str, int]:
        """Edge id to index, built on first use."""
        return dict(zip(self.edge_ids, range(len(self.edge_ids))))

    @cached_property
    def _code_ends(self) -> list[int]:
        """The index of the vertex each signed edge code ``c`` ends at, at
        list index ``c`` of ``[-1, *heads, *reversed(tails)]``: a code ends
        where its edge's head is, or its tail for a negative code, and
        starts where its inverse ends.  Built on first use."""
        return [-1, *self._tgt_idx, *reversed(self._src_idx)]

    @cached_property
    def edge_ends(self) -> Mapping[str, tuple[str, str]]:
        """Read-only map of edge id to (source, target), built on first use."""
        vertex = self.vertices.__getitem__
        return MappingProxyType(
            dict(zip(self.edge_ids, zip(map(vertex, self._src_idx), map(vertex, self._tgt_idx))))
        )

    @property
    def v_count(self) -> int:
        return len(self.vertices)

    @property
    def e_count(self) -> int:
        return len(self.edge_ids)

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        # In canonical order, the index arrays determine the edge map.
        return (self.vertices, self.edge_ids, self._src_idx, self._tgt_idx) == (
            other.vertices, other.edge_ids, other._src_idx, other._tgt_idx)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edge_ids))

    def __repr__(self) -> str:
        return f"DirectedGraph(vertices={self.vertices!r}, edges={dict(self.edge_ends)!r})"


class VertexPartition:
    """Partition of a graph's vertices into weak-connectivity blocks, as a
    view over the scan :func:`components` keeps: the lex forest's edge
    indexes, and per vertex a label, the index of its block's first vertex.

    Blocks are numbered by their smallest vertex id; block contents are
    sorted.  ``len`` reads the scan and ``blocks`` is built on first read.
    Two vertices share a block when their labels agree: callers look the
    labels up by vertex index, through the graph's ``vertex_index``.  The
    view does not hold the graph, which holds the view."""

    def __init__(self, vertices: tuple[str, ...], forest: list[int], labels: list[int]):
        self._vertices, self._forest, self._labels = vertices, forest, labels

    @cached_property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        # Labels are smallest members, so a stable sort by label lists the
        # blocks by smallest vertex, each block in vertex order.
        label = self._labels.__getitem__
        vertex = self._vertices.__getitem__
        return tuple(
            tuple(map(vertex, block))
            for _, block in groupby(sorted(range(len(self._labels)), key=label), label)
        )

    def __len__(self) -> int:
        # A spanning forest has one edge fewer than vertices per block.
        return len(self._vertices) - len(self._forest)


def forest_scan(n, src, tgt, order):
    """Kruskal scan of the edges ``src[i] - tgt[i]`` for ``i`` in ``order``.

    Returns the accepted indexes, in scan order, and a label per vertex: the
    smallest member of its set once every scanned edge is merged.

    The union-find is inlined, so no step makes a Python call.  Finds use
    path halving (each visited node is relinked to its grandparent,
    ``parent[x] = x = parent[parent[x]]``), and a union always links the
    larger root under the smaller one.  So every parent index is at most its
    child's, and a root is the smallest member of its set: one ascending pass
    ``parent[i] = parent[parent[i]]`` then leaves each vertex labelled by
    that member.  Which edges a scan accepts depends only on whether their
    ends already share a set, never on which root survives a union.
    """
    parent = list(range(n))
    accepted = []
    for idx in order:
        a, b = src[idx], tgt[idx]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            accepted.append(idx)
    # parent[i] <= i, so parent[i]'s own root is already final when i is reached.
    for i in range(n):
        parent[i] = parent[parent[i]]
    return accepted, parent


def components(g: DirectedGraph) -> VertexPartition:
    """Weak-connectivity partition of ``g`` (edge direction ignored).

    The partition is a view over one scan of ``g``'s edges in index order,
    which yields the lex spanning forest and each vertex's label; it is
    cached on ``g``, so ``spanning_forest(g)`` scans nothing more.
    """
    if g._components is None:
        scan = forest_scan(g.v_count, g._src_idx, g._tgt_idx, range(g.e_count))
        g._components = VertexPartition(g.vertices, *scan)
    return g._components


class Forest:
    """A spanning forest of a host graph, as :func:`spanning_forest` builds it.

    The subgraph (all host vertices, the tree edges) is acyclic as an
    undirected graph and has the same components as the host, equivalently
    it has ``v - #components`` edges.  It holds host edge indexes, compares
    and hashes by them, and names them in ``tree_edge_ids`` on first read.
    Its scan's labels tell each vertex's tree.  Tree path queries fill its
    search tables in place, so one thread at a time may query a forest."""

    @classmethod
    def _accepted(cls, host: DirectedGraph, accepted: Iterable[int], labels: list[int]) -> Forest:
        """The forest of the edge indexes a greedy scan over every edge of
        ``host`` accepted, with its labels: acyclic and spanning by design."""
        forest = cls.__new__(cls)
        forest.host = host
        forest._tree_idx = sorted(accepted)
        forest._labels = labels
        forest._searches = {}
        return forest

    @cached_property
    def tree_edge_ids(self) -> tuple[str, ...]:
        # Host edge ids are sorted, so ascending indexes list the ids sorted.
        return tuple(map(self.host.edge_ids.__getitem__, self._tree_idx))

    def _off_idx(self) -> list[int]:
        """The host edge indexes off the forest, ascending."""
        return sorted(set(range(self.host.e_count)).difference(self._tree_idx))

    @cached_property
    def _nav(self) -> tuple[list[int], list[int], list[int]]:
        # Per-vertex navigation, indexed like ``host.vertices``: the parent
        # vertex, the signed edge code (sign * (edge index + 1)) of the step
        # to the parent, and the depth, 0 at a root.  Depth -1 marks a
        # vertex no search has reached yet (see ``_reach``).
        n = self.host.v_count
        return list(range(n)), [0] * n, [-1] * n

    @cached_property
    def _adj(self) -> list:
        # Per vertex, the codes of the tree edges leaving it (a code ends at
        # ``host._code_ends[code]``), emptied once ``_reach`` searches it.
        src, tgt = self.host._src_idx, self.host._tgt_idx
        adj = [[] for _ in range(self.host.v_count)]
        for i in self._tree_idx:
            adj[src[i]].append(i + 1)
            adj[tgt[i]].append(-1 - i)
        return adj

    def _reach(self, u: int, v: int) -> None:
        """Search the trees of vertex indexes u and v breadth first until
        both have a depth, each from the first vertex a query named in it.
        ``_searches`` keeps a tree's queue by label, with an iterator over
        it for later queries to resume: it reads items appended behind it."""
        parent, up, depth = self._nav
        adj, ends, searches = self._adj, self.host._code_ends, self._searches
        for x in (u, v):
            if depth[x] >= 0:
                continue
            search = searches.get(self._labels[x])
            if search is None:
                depth[x] = 0
                queue = [x]
                searches[self._labels[x]] = queue, iter(queue)
                continue
            queue, pending = search
            for p in pending:
                d = depth[p] + 1
                for code in adj[p]:
                    w = ends[code]
                    if depth[w] < 0:
                        depth[w] = d
                        parent[w] = p
                        up[w] = -code  # traversing w -> p inverts the step
                        queue.append(w)
                adj[p] = ()
                if depth[x] >= 0:
                    break
            else:
                raise InternalInvariant("a tree search ended before reaching a vertex of its tree")

    def _path_codes(self, u: int, v: int) -> list[int]:
        """Signed edge codes of the tree path between vertex indexes u and v,
        in a fresh list that the caller may extend in place."""
        parent, up, depth = self._nav
        du, dv = depth[u], depth[v]
        if du < 0 or dv < 0:
            self._reach(u, v)
            du, dv = depth[u], depth[v]
        i, j = u, v
        ascent: list[int] = []
        descent: list[int] = []
        while du > dv:
            ascent.append(up[i])
            i = parent[i]
            du -= 1
        while dv > du:
            descent.append(-up[j])
            j = parent[j]
            dv -= 1
        while i != j:
            if not depth[i]:  # both climbs reached their roots apart
                raise DifferentTrees(self.host.vertices[u], self.host.vertices[v])
            ascent.append(up[i])
            i = parent[i]
            descent.append(-up[j])
            j = parent[j]
        descent.reverse()
        ascent += descent
        return ascent

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        # Equal hosts list the same edge ids in the same order.
        return self.host == other.host and self._tree_idx == other._tree_idx

    def __hash__(self) -> int:
        return hash((self.host, tuple(self._tree_idx)))

    def __repr__(self) -> str:
        return f"Forest(tree_edges={self.tree_edge_ids!r})"


def edge_scan_order(g: DirectedGraph, tie_break: Sequence[str]) -> list[int]:
    """Edge indexes in scan order: listed ids first, the rest lexicographic.

    ``tie_break`` entries naming edges absent from ``g`` are skipped, so one
    priority list can serve several graphs.
    """
    eindex = g._eindex
    head = [eindex[e] for e in dict.fromkeys(as_ids(tie_break)) if e in eindex]
    return head + sorted(set(range(g.e_count)).difference(head))


def spanning_forest(g: DirectedGraph, tie_break: Sequence[str] | None = None) -> Forest:
    """Greedy spanning forest, scanning edges in tie-break order.

    Without a tie-break the scan is the one :func:`components` caches; a
    tie-break list runs a scan of its own.
    """
    if tie_break is None:
        parts = components(g)
        return Forest._accepted(g, parts._forest, parts._labels)
    order = edge_scan_order(g, tie_break)
    return Forest._accepted(g, *forest_scan(g.v_count, g._src_idx, g._tgt_idx, order))


def graph_pushout_with_origins(
    x: DirectedGraph | Forest,
    y: DirectedGraph | Forest,
    shared_vertices: Iterable[str],
) -> tuple[DirectedGraph, dict[str, tuple[str, str]]]:
    """Pushout of ``x <- Z -> y`` over the discrete graph on ``shared_vertices``,
    together with the origin of every output edge as ``(side, original id)``.

    Both inputs must have vertex set exactly ``shared_vertices``; a forest
    contributes its tree edges.  Edges are disjointly unioned: an id found on
    one side only keeps its name, and an id found on both sides gets its side
    tag ("A:" / "B:"), repeated while the result is an id found on one side
    only (``x`` -> ``A:x`` -> ``A:A:x`` ...).  No two edges share a name: a
    tagged name is never a one-sided id, and the chains of two two-sided ids
    such as ``x`` and ``A:x`` cannot meet, since the chain from ``x`` stops
    at ``A:x``, which is not one-sided.
    """
    shared = sorted(set(as_ids(shared_vertices)))
    sides = []
    for which, side, z in (("first", "A", x), ("second", "B", y)):
        if isinstance(z, Forest):
            host, ids, idxs = z.host, z.tree_edge_ids, z._tree_idx
        else:
            host, ids, idxs = z, z.edge_ids, range(z.e_count)
        if list(host.vertices) != shared:
            raise VertexSetMismatch(f"{which} input's vertex set is not the shared vertex set")
        sides.append((side, ids, idxs, host))
    ids_x, ids_y = set(sides[0][1]), set(sides[1][1])
    both = ids_x & ids_y
    one_side = ids_x ^ ids_y
    # Both hosts have the shared vertex set, so they index it alike.
    edges: list[tuple[str, int, int]] = []
    origins: dict[str, tuple[str, str]] = {}
    for side, ids, idxs, host in sides:
        src, tgt = host._src_idx, host._tgt_idx
        for e, i in zip(ids, idxs):
            out = e
            if e in both:
                out = f"{side}:{e}"
                while out in one_side:
                    out = f"{side}:{out}"
            edges.append((out, src[i], tgt[i]))
            origins[out] = (side, e)
    edges.sort()
    w = DirectedGraph._trusted(
        tuple(shared),
        tuple(e for e, _, _ in edges),
        [s for _, s, _ in edges],
        [t for _, _, t in edges],
    )
    return w, origins


def euler_ranks(g: DirectedGraph) -> list[tuple[tuple[str, ...], int]]:
    """Per-component cycle rank ``e - v + 1``, paired with the block's vertices."""
    parts = components(g)
    # Blocks are numbered by smallest vertex, so in ascending label order.
    edge_counts = Counter(map(parts._labels.__getitem__, g._src_idx))
    out = []
    for block, label in zip(parts.blocks, sorted(set(parts._labels))):
        rank = edge_counts[label] - len(block) + 1
        if rank < 0:
            raise InternalInvariant("weakly connected block has fewer than v-1 edges")
        out.append((block, rank))
    return out
