"""Finite 1-complex models: decompositions, separation predicates, and
Z-retract certificates.

A space is a finite graph.  A two-piece decomposition (induced subgraphs U, V
covering all vertices and edges) yields a pushout instance over basepoints,
one per component of U intersect V.  When the instance's free retract has a
witness loop, it translates back to an explicit reduced loop in the space,
certifying that the space's fundamental group retracts onto Z.  Only the
witness is translated: each side's table builds a generator's expansion from
its piece's spanning forest at each lookup, and the certificate reads the
few generators the witness names as signed space codes (``sign * (edge index
+ 1)``) and reduces them once into a word of those codes, which makes no
``Letter`` until one is read.  So a certificate costs time linear in the
space plus its loop, not one expansion per cycle of the space.

The Phragmen-Brouwer predicate feeds this pipeline: disjoint vertex sets D, E
give the complements U = X - D, V = X - E, and the property fails when a and
b share a component of U and one of V but lie apart in U intersect V.  That
decomposition's certificate is then guaranteed to exist.

The pipeline works in piece indexes.  Each vertex has a class byte (bit 0 in
U, bit 1 in V) and each edge the bits its two ends share, read once per end;
every check and every piece mask is a search or a ``translate`` of those two.
A vertex maps into a piece by the prefix count of the piece's mask,
components compare by scan labels, and connectivity comes from the pieces'
labels and block counts.  It scans no space, indexes no piece's ids, names no
piece forest's edges, and lists only the intersection's blocks, for the
certificate.  A piece forest is searched only as far as the tree paths the
certificate expands.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import neg

from .errors import (
    BadId,
    DeletedSetsAdjacent,
    Disconnected,
    EdgeAcrossPieces,
    EmptyIntersection,
    InternalInvariant,
    NotACover,
    NotDistinct,
    PbiHolds,
    PieceMissesIntersection,
    PointInDeletedSet,
    SetsNotDisjoint,
    UnknownVertex,
)
from .graphs import DirectedGraph, Forest, as_id, as_ids, components, forest_scan, spanning_forest
from .retract import PushoutInstance, RetractReport, build_retract, include_f, witness
from .words import Word, reduce_signed


def _vertex_mask(g: DirectedGraph, vs: Iterable[str]) -> int:
    """The big int of one byte per vertex of ``g``, in ``g.vertices`` order:
    1 for the members of ``vs``.  A bad id raises ``BadId`` at the first
    offender in ``vs``; then the smallest id that is not a vertex raises
    ``UnknownVertex``."""
    ids = set(as_ids(vs))
    index = g._vindex
    unknown = ids.difference(index)
    if unknown:
        raise UnknownVertex(min(unknown))
    mask = bytearray(g.v_count)
    for v in ids:
        mask[index[v]] = 1
    return int.from_bytes(mask, "big")


def _classes(space: DirectedGraph, in_u: int, in_v: int) -> tuple[bytes, bytes]:
    """Per vertex of ``space`` its class byte, bit 0 set in U and bit 1 in
    V, from the big ints of the sides' 0/1 masks (so ``&`` and ``|`` act byte
    by byte); and per edge the bits its ends share: bit 0 in U, bit 1 in V."""
    classes = (in_u | in_v << 1).to_bytes(space.v_count, "big")
    # A list's __getitem__ is a faster call than a bytes object's.
    at = list(classes).__getitem__
    at_src = int.from_bytes(bytes(map(at, space._src_idx)), "big")
    at_tgt = int.from_bytes(bytes(map(at, space._tgt_idx)), "big")
    return classes, (at_src & at_tgt).to_bytes(space.e_count, "big")


# Class bits to a 0/1 mask of U, of V, and of their intersection.
_IN_U = bytes(c & 1 for c in range(256))
_IN_V = bytes(c >> 1 & 1 for c in range(256))
_IN_BOTH = bytes(c == 3 for c in range(256))


def _induced(space: DirectedGraph, classes: bytes, shared: bytes, side: bytes) -> tuple:
    """The full subgraph on the vertices and edges whose ``_classes`` bits
    ``side``, one of the tables above, marks; the space index of each of its
    edges; and per space vertex the number of members before it, a member's
    index in the subgraph."""
    mask, keep = classes.translate(side), shared.translate(side)
    at = list(accumulate(mask, initial=0))
    sub = DirectedGraph._trusted(
        tuple(compress(space.vertices, mask)),
        tuple(compress(space.edge_ids, keep)),
        list(map(at.__getitem__, compress(space._src_idx, keep))),
        list(map(at.__getitem__, compress(space._tgt_idx, keep))),
    )
    return sub, list(compress(range(space.e_count), keep)), at


class Decomposition:
    """Two vertex subsets covering the space, with no edge straddling them.

    The pieces are the induced subgraphs on ``u_vertices`` and ``v_vertices``;
    the straddle rule makes them cover every edge, so the space is their
    union as a graph.
    """

    def __init__(self, space: DirectedGraph, u_vertices: Iterable[str], v_vertices: Iterable[str]):
        in_u, in_v = _vertex_mask(space, u_vertices), _vertex_mask(space, v_vertices)
        self._build(space, *_classes(space, in_u, in_v))

    def _build(self, space: DirectedGraph, classes: bytes, shared: bytes) -> Decomposition:
        """Every check and piece, from the ``_classes`` of ``space``:
        ``__init__`` marks them from ids, ``_complement`` passes a
        scenario's."""
        uncovered = classes.find(0)
        if uncovered >= 0:
            raise NotACover(f"vertex {space.vertices[uncovered]!r} is in neither piece")
        straddling = shared.find(0)
        if straddling >= 0:
            raise EdgeAcrossPieces(space.edge_ids[straddling])
        self.space = space
        # Each piece's space edge index per piece edge, and its prefix counts.
        self.piece_u, self._u_edges, self._u_at = _induced(space, classes, shared, _IN_U)
        self.piece_v, self._v_edges, self._v_at = _induced(space, classes, shared, _IN_V)
        self.intersection, self._i_edges, self._i_at = _induced(space, classes, shared, _IN_BOTH)
        self.u_vertices, self.v_vertices = self.piece_u.vertices, self.piece_v.vertices
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return (
            self.space == other.space
            and self.u_vertices == other.u_vertices
            and self.v_vertices == other.v_vertices
        )

    def __hash__(self) -> int:
        return hash((self.space, self.u_vertices, self.v_vertices))

    def __repr__(self) -> str:
        return (
            f"Decomposition(space={self.space.v_count}v/{self.space.e_count}e, "
            f"|u|={len(self.u_vertices)}, |v|={len(self.v_vertices)})"
        )


class PbpScenario:
    """Disjoint deleted vertex sets D, E and two marked points outside them.

    An edge joining D to E is rejected: subdividing that edge (inserting a
    midpoint vertex) produces an equivalent space where the sets have
    disjoint neighborhoods, which is what the complement construction needs.
    """

    def __init__(
        self, space: DirectedGraph, d_set: Iterable[str], e_set: Iterable[str], a: str, b: str
    ):
        d, e, n = _vertex_mask(space, d_set), _vertex_mask(space, e_set), space.v_count
        overlap = list(compress(space.vertices, (d & e).to_bytes(n, "big")))
        if overlap:
            raise SetsNotDisjoint(f"sets share vertices {overlap!r}")
        # The classes of U = X - D and V = X - E: D is class 2 and E class 1,
        # so an edge's ends share no bit exactly when it joins D to E.
        ones = int.from_bytes(b"\1" * n, "big")
        classes, shared = _classes(space, ones ^ d, ones ^ e)
        adjacent = shared.find(0)
        if adjacent >= 0:
            raise DeletedSetsAdjacent(space.edge_ids[adjacent])
        a, b = as_id(a), as_id(b)
        for point in (a, b):
            if classes[space.vertex_index(point)] != 3:
                raise PointInDeletedSet(point)
        if a == b:
            raise NotDistinct(f"marked points must be distinct, got {a!r} twice")
        self.space = space
        self.d_set = tuple(compress(space.vertices, d.to_bytes(n, "big")))
        self.e_set = tuple(compress(space.vertices, e.to_bytes(n, "big")))
        self._classes, self._shared = classes, shared
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return (
            f"PbpScenario(|d|={len(self.d_set)}, |e|={len(self.e_set)}, "
            f"a={self.a!r}, b={self.b!r})"
        )


def _complement(sc: PbpScenario) -> tuple[Decomposition, bool]:
    """The decomposition U = X - D, V = X - E, and whether a and b share a
    component of each piece but lie apart in the intersection.  Every vertex
    is outside D or E, and no edge joins D to E, so the pieces cover X."""
    dec = Decomposition.__new__(Decomposition)._build(sc.space, sc._classes, sc._shared)
    a, b = sc.space._vindex[sc.a], sc.space._vindex[sc.b]

    def joined(piece: DirectedGraph, at: list[int]) -> bool:
        labels = components(piece)._labels
        return labels[at[a]] == labels[at[b]]

    return dec, (
        joined(dec.piece_u, dec._u_at)
        and joined(dec.piece_v, dec._v_at)
        and not joined(dec.intersection, dec._i_at)
    )


def pbi_fails(sc: PbpScenario) -> bool:
    """True when the separation property fails: neither D nor E separates the
    marked points but their union does, that is, a and b share a component
    of U = X - D and one of V = X - E but lie apart in U intersect V."""
    return _complement(sc)[1]


class _Expansions(Mapping):
    """One side's translation table: each generator id to its expansion, a
    Word on ``space``, built from the forest at each lookup, never kept.

    ``records`` maps each generator, in canonical order, to (root, target,
    edge), indexes into the forest's host.  With edge None the expansion is
    the tree path root -> target; otherwise it is the loop at root through
    the non-forest edge: tree path out to edge's source, edge, tree path
    back.  Each tree path is reduced and the edge is on neither, so the chain
    is reduced as it stands.  The forest's host is an induced subgraph of
    ``space``, and ``edges`` gives the space index of each of its edges.
    """

    def __init__(self, space: DirectedGraph, forest: Forest, records: dict, edges: Sequence[int]):
        self._space, self._forest, self._records, self._edges = space, forest, records, edges

    def __getitem__(self, gen: str) -> Word:
        ids = map(self._forest.host.vertices.__getitem__, self._records[gen][:2])
        return Word._trusted(self._space, *ids, self._codes(gen))

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def _codes(self, gen: str) -> list[int]:
        """The expansion of ``gen`` as signed space codes."""
        root, target, i = self._records[gen]
        piece, path = self._forest.host, self._forest._path_codes
        if i is None:
            codes = path(root, target)
        else:
            codes = path(root, piece._src_idx[i]) + [i + 1] + path(piece._tgt_idx[i], root)
        edges = self._edges
        return [edges[c - 1] + 1 if c > 0 else -1 - edges[-c - 1] for c in codes]


def _generators(
    piece: DirectedGraph, name: str, at: list[int], tie_break: Sequence[str] | None,
    space: DirectedGraph, edges: Sequence[int],
) -> tuple[DirectedGraph, _Expansions]:
    """The generating graph of ``piece`` over the basepoints at its vertex
    indexes ``at`` (ascending, the smallest vertex of each intersection
    component), and the expansion of each generator as a Word on ``space``,
    of which ``piece`` is an induced subgraph with space edge indexes
    ``edges``, built at each lookup.

    A piece component meets the intersection exactly when it holds a
    basepoint; one that does not raises ``PieceMissesIntersection``.  Per
    component, the smallest basepoint is the root; each other basepoint s
    gets a tree-path generator ``t:s`` (root to s), and each non-forest edge e
    gets a loop generator ``g:e`` at the root (tree path out, e, tree path
    back).  These generate every basepoint-to-basepoint path class, and the
    graph has exactly as many components as the piece.
    """
    parts = components(piece)
    labels, src = parts._labels, piece._src_idx
    # The root of each component, by label: the index of its first basepoint.
    roots: dict[int, int] = {}
    for p in at:
        roots.setdefault(labels[p], p)
    if len(roots) != len(parts):
        # Blocks are listed by label, the index of their first vertex.
        block = next(b for b, r in zip(parts.blocks, sorted(set(labels))) if r not in roots)
        raise PieceMissesIntersection(f"component {block!r} of piece {name} misses the intersection")
    forest = spanning_forest(piece, tie_break)
    # Loop generators in edge-id order, then tree-path generators in
    # basepoint order: every "g:" id sorts before every "t:" id, so the
    # generators are in canonical order.
    records: dict[str, tuple[int, int, int | None]] = {}
    for i in forest._off_idx():
        root = roots[labels[src[i]]]
        records[f"g:{piece.edge_ids[i]}"] = (root, root, i)
    points = tuple(map(piece.vertices.__getitem__, at))
    for s, p in zip(points, at):
        root = roots[labels[p]]
        if p != root:
            records[f"t:{s}"] = (root, p, None)
    number = dict(zip(at, range(len(at))))
    graph = DirectedGraph._trusted(
        points,
        tuple(records),
        [number[root] for root, _, _ in records.values()],
        [number[target] for _, target, _ in records.values()],
    )
    if len(components(graph)) != len(parts):
        raise InternalInvariant("generator graph and piece have different component counts")
    return graph, _Expansions(space, forest, records, edges)


def decomposition_to_instance(
    dec: Decomposition, tie_break: Sequence[str] | None = None
) -> tuple[PushoutInstance, dict[str, Mapping[str, Word]]]:
    """Build the pushout instance of a decomposition over canonical basepoints.

    Basepoints: the smallest vertex of each component of the intersection.
    Side A presents the U piece, side B the V piece, and the C loops are the
    intersection's own non-forest edges (its vertex-group generators).  The
    returned read-only tables translate every instance generator, by side,
    to its expansion as a Word over the space.  An expansion is built from
    the piece's forest at each lookup, so a certificate expands only the
    generators its witness names.
    """
    inter = dec.intersection
    if inter.v_count == 0:
        raise EmptyIntersection("the pieces share no vertex")
    points = tuple(block[0] for block in components(inter).blocks)
    space = dec.space
    idx = list(map(space._vindex.__getitem__, points))
    u_at, v_at = [dec._u_at[i] for i in idx], [dec._v_at[i] for i in idx]
    graph_a, expansions_a = _generators(dec.piece_u, "U", u_at, tie_break, space, dec._u_edges)
    graph_b, expansions_b = _generators(dec.piece_v, "V", v_at, tie_break, space, dec._v_edges)
    forest_i = spanning_forest(inter, tie_break)
    labels, src = components(inter)._labels, inter._src_idx
    c_loops: dict[str, list[str]] = {}
    c_records: dict[str, tuple[int, int, int]] = {}
    for i in forest_i._off_idx():
        r, e = labels[src[i]], inter.edge_ids[i]
        c_loops.setdefault(inter.vertices[r], []).append(e)
        c_records[e] = (r, r, i)
    instance = PushoutInstance(points, graph_a, graph_b, c_loops)
    return instance, {
        "A": expansions_a,
        "B": expansions_b,
        "C": _Expansions(space, forest_i, c_records, dec._i_edges),
    }


@dataclass(frozen=True, eq=False)
class ZRetractCertificate:
    """An explicit noncontractible loop in the space plus its free image.

    ``loop_in_space`` is a reduced closed edge-path at a basepoint;
    ``retract_image`` is the corresponding nonempty reduced word over the
    retract graph W.  Either one alone certifies nontriviality, so a checker
    needs only free reduction to validate the claim.
    """

    report: RetractReport
    basepoints: tuple[tuple[tuple[str, ...], str], ...]
    loop_in_space: Word
    retract_image: Word


def _expand_to_space(translations: dict[str, _Expansions], space: DirectedGraph, gword) -> Word:
    """The reduced word on ``space`` that ``gword`` translates to.  Only the
    generators its tagged codes name are expanded, as signed space codes (a
    negative code's expansion negated and reversed); one reduction runs over
    the whole word."""
    ids, sides, _, _ = gword.instance._alphabet
    codes: list[int] = []
    for c in gword._codes:
        expansion = translations[sides[c]]._codes(ids[abs(c) - 1])
        codes += expansion if c > 0 else map(neg, reversed(expansion))
    return Word._trusted(space, gword.source, gword.target, reduce_signed(codes))


def _joined_pair(
    instance: PushoutInstance, prefer: list[str] | None
) -> tuple[str, str] | None:
    """The first pair of distinct objects joined in both A and B: ``prefer``
    when it qualifies, else the least pair of object indexes that does."""
    # Both sides index the objects alike, and objects are joined in both
    # exactly when their keys, the pairs of their labels, agree.
    keys = list(zip(components(instance.graph_a)._labels, components(instance.graph_b)._labels))
    if prefer is not None:
        a, b = prefer
        vindex = instance.graph_a._vindex
        if a != b and a in vindex and b in vindex and keys[vindex[a]] == keys[vindex[b]]:
            return a, b
    # The least pair (i, j): i is the first object whose key recurs and j the
    # next object with that key, so one scan finds both.
    first: dict[tuple[int, int], str] = {}
    second: dict[tuple[int, int], str] = {}
    for o, key in zip(instance.objects, keys):
        (second if key in first else first).setdefault(key, o)
    return next(((a, second[key]) for key, a in first.items() if key in second), None)


def _space_connected(dec: Decomposition) -> bool:
    """Every vertex lies in U or V and every edge in one piece, so the space
    is connected exactly when this graph is: a node per block of U and of V,
    and per intersection block an edge joining the U-block and the V-block
    of its first vertex.  An empty space gives no node, and is not."""
    vindex = dec.space._vindex
    reps = [vindex[block[0]] for block in components(dec.intersection).blocks]
    ends, nodes = [], 0
    for piece, at in ((dec.piece_u, dec._u_at), (dec.piece_v, dec._v_at)):
        # Number the blocks that hold a representative, by label; the rest
        # of the piece's blocks are nodes that no edge reaches.
        labels, number = components(piece)._labels, {}
        ends.append([number.setdefault(labels[at[x]], nodes + len(number)) for x in reps])
        nodes += len(components(piece))
    joined, _ = forest_scan(nodes, ends[0], ends[1], range(len(reps)))
    return nodes > 0 and len(joined) == nodes - 1


def detect_z_retract(
    dec: Decomposition,
    tie_break: Sequence[str] | None = None,
    prefer: tuple[str, str] | None = None,
) -> ZRetractCertificate | None:
    """Search the decomposition for a witness pair and certify it in the space.

    Takes the first basepoint pair in canonical order (after ``prefer``, when
    given) that is joined inside both pieces; absent such a pair there is
    nothing to certify and the result is None.  A ``prefer`` that is not two
    ids raises ``BadId``; then a disconnected space raises ``Disconnected``,
    read off the labels of the pieces and their intersection's blocks, with
    no scan of the space (``_space_connected``).
    """
    if prefer is not None:
        prefer = as_ids(prefer)
        if len(prefer) != 2:
            raise BadId(f"prefer must be a pair of ids, got {len(prefer)} ids")
    if not _space_connected(dec):
        raise Disconnected("the space is not connected")
    instance, translations = decomposition_to_instance(dec, tie_break)
    report = build_retract(instance, tie_break)
    pair = _joined_pair(instance, prefer)
    if pair is None:
        return None
    loop = witness(report, *pair)
    gword = include_f(report, loop)
    loop_in_space = _expand_to_space(translations, dec.space, gword)
    if len(loop_in_space) == 0:
        raise InternalInvariant("witness expansion collapsed in the space")
    basepoints = tuple((block, block[0]) for block in components(dec.intersection).blocks)
    return ZRetractCertificate(report, basepoints, loop_in_space, loop)


def pbp_to_decomposition(sc: PbpScenario) -> Decomposition:
    """Turn a separation-property failure into the decomposition it induces.

    U is the complement of D and V the complement of E.  Failure of the
    conjunction gives exactly the witness preconditions at the marked
    points' intersection components, so a certificate always follows.
    """
    dec, fails = _complement(sc)
    if not fails:
        raise PbiHolds("neither-separates-but-union-does fails; no decomposition is induced")
    return dec


def certificate_basepoints_for(dec: Decomposition, a: str, b: str) -> tuple[str, str]:
    """Basepoints of the intersection components containing a and b."""
    inter, at, points = dec.intersection, dec._i_at, []
    for v in (as_id(a), as_id(b)):
        i = dec.space._vindex.get(v, -1)
        if i < 0 or at[i] == at[i + 1]:  # the count steps only past a member
            raise UnknownVertex(v)
        points.append(inter.vertices[components(inter)._labels[at[i]]])
    return tuple(points)
