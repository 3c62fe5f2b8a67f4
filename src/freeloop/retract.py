"""Free-groupoid retracts of groupoid pushouts presented over a common object set.

Given a span A <- C -> B in generating-graph form (C totally disconnected,
both maps bijective on objects), the pushout G retracts onto the free
groupoid on W, where W is the graph pushout of spanning forests of the two
sides.  When G is connected the vertex groups of that retract are free of
rank ``k = n_C - n_A - n_B + 1``; :func:`build_retract` is the one place that
works it out, and checks it against the Euler rank of W.  A pair of objects
joined on both sides yields a witness loop, a nonempty reduced closed word
on W.  Reduced words are normal forms, so that loop is nontrivial and
certifies rank >= 1.

Equality in G itself is never decided: nontriviality is always certified on
the retract side, where free reduction solves the word problem, and carried
back along the retraction.  There, :func:`rho` and :func:`witness` carry
letters as signed W codes and return words of those codes, which make no
``Letter`` until one is read; :func:`include_f` maps the codes to ``GLetter``s
made once per report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, Sequence

from ._kernels import reduce_signed
from .errors import (
    BadSign,
    DuplicateId,
    EmptyObjectSet,
    HostMismatch,
    InternalInvariant,
    NoArrowInA,
    NoArrowInB,
    NotComposable,
    NotDistinct,
    UnknownLetter,
    UnknownSide,
    UnknownVertex,
    VertexSetMismatch,
)
from .graphs import (
    DirectedGraph,
    Forest,
    as_id,
    components,
    euler_ranks,
    graph_pushout_with_origins,
    spanning_forest,
)
from .words import Word, _chain_end

SIDES = ("A", "B", "C")


class PushoutInstance:
    """A span A <- C -> B over a common object set, in generating-graph form.

    ``graph_a`` and ``graph_b`` generate the groupoids A and B; their vertex
    sets must equal ``objects``.  ``c_loops`` lists loop generators of C's
    vertex groups, keyed by object; C has no other arrows (it is totally
    disconnected), so this is all of C's presentation data.
    """

    def __init__(
        self,
        objects: Iterable[str],
        graph_a: DirectedGraph,
        graph_b: DirectedGraph,
        c_loops: Mapping[str, Iterable[str]] | None = None,
    ):
        objs = sorted({as_id(v) for v in objects})
        if not objs:
            raise EmptyObjectSet("instance needs at least one object")
        if list(graph_a.vertices) != objs:
            raise VertexSetMismatch("graph_a's vertex set is not the object set")
        if list(graph_b.vertices) != objs:
            raise VertexSetMismatch("graph_b's vertex set is not the object set")
        loops: list[tuple[str, tuple[str, ...]]] = []
        owner: dict[str, str] = {}
        previous = None
        for v in sorted((c_loops or {}), key=as_id):
            ids = sorted(as_id(x) for x in (c_loops or {})[v])
            v = as_id(v)
            # Sorted by id, so keys that coerce to one id (1, "1") are adjacent.
            if v == previous:
                raise DuplicateId("C loop object", v)
            previous = v
            if v not in graph_a._vindex:
                raise UnknownVertex(v)
            for x in ids:
                if x in owner:
                    raise DuplicateId("C loop", x)
                owner[x] = v
            if ids:
                loops.append((v, tuple(ids)))
        self.objects: tuple[str, ...] = tuple(objs)
        self.graph_a = graph_a
        self.graph_b = graph_b
        self.c_loops: tuple[tuple[str, tuple[str, ...]], ...] = tuple(loops)
        self._c_owner = owner

    def c_loop_owner(self, loop_id: str) -> str:
        try:
            return self._c_owner[loop_id]
        except KeyError:
            raise UnknownLetter(loop_id, side="C") from None

    def side_graph(self, side: str) -> DirectedGraph:
        if side == "A":
            return self.graph_a
        if side == "B":
            return self.graph_b
        raise UnknownSide(f"no generating graph for side {side!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PushoutInstance):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.graph_a == other.graph_a
            and self.graph_b == other.graph_b
            and self.c_loops == other.c_loops
        )

    def __hash__(self) -> int:
        return hash((self.objects, self.graph_a, self.graph_b, self.c_loops))

    def __repr__(self) -> str:
        return (
            f"PushoutInstance(objects={self.objects!r}, "
            f"e_a={self.graph_a.e_count}, e_b={self.graph_b.e_count}, "
            f"c_loops={sum(len(ids) for _, ids in self.c_loops)})"
        )


@dataclass(frozen=True)
class GLetter:
    """A signed generator of the pushout G, tagged with its side of origin."""

    side: str
    edge: str
    sign: int

    def __post_init__(self):
        if self.side not in SIDES:
            raise UnknownSide(f"side must be one of {SIDES}, got {self.side!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise BadSign(f"sign must be +1 or -1, got {self.sign!r}")

    def __str__(self) -> str:
        body = f"{self.side}:{self.edge}"
        return body if self.sign == 1 else f"{body}^-1"


def _gletter_ends(inst: PushoutInstance, letter: GLetter) -> tuple[str, str]:
    if letter.side == "C":
        v = inst.c_loop_owner(letter.edge)
        return v, v
    g = inst.side_graph(letter.side)
    try:
        s, t = g.edge_ends[letter.edge]
    except KeyError:
        raise UnknownLetter(letter.edge, side=letter.side) from None
    return (s, t) if letter.sign == 1 else (t, s)


class GWord:
    """A composable (not necessarily reduced) word of tagged generators of G.

    Equality of GWords is syntactic; equality in the pushout groupoid G is
    deliberately left undecided.
    """

    __slots__ = ("instance", "source", "target", "letters")

    def __init__(self, instance: PushoutInstance, source: str, target: str, letters: Sequence[GLetter] = ()):
        if source not in instance.graph_a._vindex:
            raise UnknownVertex(source)
        if target not in instance.graph_a._vindex:
            raise UnknownVertex(target)
        letters = tuple(letters)
        end = _chain_end(partial(_gletter_ends, instance), source, letters)
        if end != target:
            raise NotComposable(len(letters), f"target {target!r} does not match chain end {end!r}")
        self._set(instance, source, target, letters)

    @classmethod
    def _trusted(cls, instance: PushoutInstance, source: str, target: str, letters: tuple) -> GWord:
        """``GWord(...)`` without its checks, for chains freeloop derived itself."""
        return cls.__new__(cls)._set(instance, source, target, letters)

    def _set(self, instance: PushoutInstance, source: str, target: str, letters: tuple) -> GWord:
        self.instance, self.source, self.target, self.letters = instance, source, target, letters
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GWord):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.letters == other.letters
            and self.instance == other.instance
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.letters))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"GWord({self.source!r} -> {self.target!r}: {self})"


@dataclass(eq=True)
class RetractReport:
    """Everything the retraction needs: chosen forests, the pushout graph W,
    component counts, the rank, and the origin of every W edge."""

    instance: PushoutInstance
    forest_x: Forest
    forest_y: Forest
    w: DirectedGraph
    n_a: int
    n_b: int
    n_c: int
    k: int | None
    per_component_ranks: tuple[tuple[tuple[str, ...], int], ...]
    edge_origins: dict[str, tuple[str, str]] = field(repr=False)
    _w_codes: dict[str, list[int]] | None = field(init=False, repr=False, compare=False)
    _gletters: dict[int, GLetter] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Filled on first use: the side code tables of ``_side_codes``, and the
        # frozen GLetter of each signed W code.
        self._w_codes = None
        self._gletters = {}

    def origin_of(self, w_edge: str) -> tuple[str, str]:
        try:
            return self.edge_origins[w_edge]
        except KeyError:
            raise UnknownLetter(w_edge) from None

    def _side_codes(self, side: str) -> list[int]:
        """Signed edge code ``c`` of ``side`` -> signed W code, at list index
        ``c`` of ``[0, w_1 .. w_m, -w_m .. -w_1]``; 0 off the side's forest."""
        if self._w_codes is None:
            tables = {s: [0] * self.instance.side_graph(s).e_count for s in ("A", "B")}
            for code, w_edge in enumerate(self.w.edge_ids, 1):
                s, edge = self.edge_origins[w_edge]
                tables[s][self.instance.side_graph(s)._eindex[edge]] = code
            self._w_codes = {s: [0, *t, *(-c for c in reversed(t))] for s, t in tables.items()}
        return self._w_codes[side]


def build_retract(inst: PushoutInstance, tie_break: Sequence[str] | None = None) -> RetractReport:
    """Choose spanning forests X, Y, push them out to W, and report ranks.

    W's edges are named by :func:`graph_pushout_with_origins`: a forest edge
    keeps its id unless the other forest has an edge of the same id.  Each
    forest spans its side's components, so the pushout is connected exactly
    when W is; on a disconnected instance ``k`` is None and the per-component
    ranks stand in for it.
    """
    forest_x = spanning_forest(inst.graph_a, tie_break)
    forest_y = spanning_forest(inst.graph_b, tie_break)
    w, origins = graph_pushout_with_origins(forest_x, forest_y, inst.objects)
    # C is totally disconnected, so every object is its own C-component.
    n_a, n_b, n_c = len(components(inst.graph_a)), len(components(inst.graph_b)), len(inst.objects)
    ranks = tuple(euler_ranks(w))
    if w.v_count != n_c:
        raise InternalInvariant("W does not have one vertex per object")
    if w.e_count != len(forest_x.tree_edges) + len(forest_y.tree_edges):
        raise InternalInvariant("W does not have exactly the two forests' edges")
    k = None
    if len(ranks) == 1:
        k = n_c - n_a - n_b + 1
        if k < 0:
            raise InternalInvariant(f"rank formula gave k = {k} on a connected pushout")
        if ranks[0][1] != k:
            raise InternalInvariant("rank formula disagrees with W")
    return RetractReport(
        instance=inst,
        forest_x=forest_x,
        forest_y=forest_y,
        w=w,
        n_a=n_a,
        n_b=n_b,
        n_c=n_c,
        k=k,
        per_component_ranks=ranks,
        edge_origins=origins,
    )


def _w_path(report: RetractReport, side: str, u: str, v: str) -> list[int]:
    """Tree path u -> v in the side's forest, as signed W codes."""
    forest = report.forest_x if side == "A" else report.forest_y
    path = forest._path_codes(forest.host._vindex[u], forest.host._vindex[v])
    return list(map(report._side_codes(side).__getitem__, path))


def rho(report: RetractReport, g: GWord) -> Word:
    """The retraction G -> Fr(W) evaluated on a word of generators.

    A-letters map to the X-tree path between their endpoints (forest edges map
    to themselves), B-letters likewise through Y, and C-letters die (the
    forest Z has no edges).  The result is reduced, and the map respects
    composition and inversion.

    The word is evaluated one run at a time: a maximal stretch of same-side
    letters, C-letters skipped, maps to the single tree path from the run's
    start to its end.  This is exact because the reduced word between two
    vertices of a forest is unique, so the letter-by-letter tree paths of a
    run reduce to that one path, and because C-letters are loops, which move
    no endpoint and so do not end a run.  One reduction of signed W codes
    then cancels across run boundaries, and the cost is one tree path per
    run, not per letter.  The result is a word of those codes.
    """
    if g.instance != report.instance:
        raise HostMismatch("word does not belong to this report's instance")
    inst = report.instance
    codes: list[int] = []
    side = last = None
    start = g.source
    for letter in g.letters:
        if letter.side == "C":
            continue
        if letter.side != side:
            if side is not None:
                # The run ends where its last letter does.
                end = _gletter_ends(inst, last)[1]
                codes += _w_path(report, side, start, end)
                start = end
            side = letter.side
        last = letter
    if side is not None:
        codes += _w_path(report, side, start, _gletter_ends(inst, last)[1])
    return Word._trusted(report.w, g.source, g.target, reduce_signed(codes))


def include_f(report: RetractReport, w: Word) -> GWord:
    """The inclusion Fr(W) -> G: relabel each W letter to its tagged origin."""
    if w.host != report.w:
        raise HostMismatch("word is not hosted on this report's pushout graph W")
    shared, codes, ids = report._gletters, w._codes, report.w.edge_ids
    for c in set(codes).difference(shared):
        shared[c] = GLetter(*report.edge_origins[ids[abs(c) - 1]], 1 if c > 0 else -1)
    letters = tuple(map(shared.__getitem__, codes))
    return GWord._trusted(report.instance, w.source, w.target, letters)


def witness(report: RetractReport, a: str, b: str) -> Word:
    """The loop (X-tree path a -> b) * (Y-tree path b -> a), reduced, in Fr(W).

    Nontrivial whenever defined: the two halves are nonempty words over
    disjoint edge alphabets, so nothing cancels at the junction.  Its
    nontriviality in Fr(W) certifies, through the retraction, that the
    corresponding loop class in G is nontrivial.  Like :func:`rho`, it works
    in signed W codes and returns a word of them.
    """
    a, b = as_id(a), as_id(b)
    # same_block raises UnknownVertex for a, then b, before any other check.
    if not components(report.instance.graph_a).same_block(a, b):
        raise NoArrowInA(f"no arrow {a!r} -> {b!r} in A: different components")
    if not components(report.instance.graph_b).same_block(a, b):
        raise NoArrowInB(f"no arrow {a!r} -> {b!r} in B: different components")
    if a == b:
        raise NotDistinct(f"objects must be distinct, got {a!r} twice")
    codes = _w_path(report, "A", a, b) + _w_path(report, "B", b, a)
    loop = reduce_signed(codes)
    if not (len(loop) >= 2 and len(loop) == len(codes)):
        raise InternalInvariant("witness halves cancelled at their junction")
    return Word._trusted(report.w, a, a, loop)
