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
back along the retraction.  Words on both sides are signed int codes: a
``GWord`` codes its letters over one tagged alphabet (A edges, then B edges,
then C loops), a ``Word`` over W's edges; the two share one shell and one
chain check, in ``words``.  :func:`rho` reads a tagged word as runs of one
side and cancels whole runs on their endpoints, so only the tree paths that
survive are walked, in X and Y hosted on W; :func:`include_f` maps W codes
back by one table.  Neither makes a ``Letter`` or ``GLetter`` until read.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from .errors import (
    BadId,
    DuplicateId,
    EmptyObjectSet,
    HostMismatch,
    InternalInvariant,
    NoArrowInA,
    NoArrowInB,
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
    as_ids,
    components,
    euler_ranks,
    graph_pushout_with_origins,
    spanning_forest,
)
from .words import Word, _chain_codes, _check_sign, _CodedWord, _expect, reduce_signed

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
        objs = sorted(set(as_ids(objects)))
        if not objs:
            raise EmptyObjectSet("instance needs at least one object")
        if list(graph_a.vertices) != objs:
            raise VertexSetMismatch("graph_a's vertex set is not the object set")
        if list(graph_b.vertices) != objs:
            raise VertexSetMismatch("graph_b's vertex set is not the object set")
        if c_loops is None:
            c_loops = {}
        elif not isinstance(c_loops, Mapping):
            raise BadId(f"c_loops must map object ids to loop ids, got {type(c_loops).__name__}")
        loops: list[tuple[str, tuple[str, ...]]] = []
        owner: dict[str, str] = {}
        previous = None
        for v in sorted(c_loops, key=as_id):
            ids = sorted(as_ids(c_loops[v]))
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

    @cached_property
    def _alphabet(self) -> tuple[tuple[str, ...], list, list[int], dict[str, tuple[dict[str, int], int]]]:
        """The tagged alphabet, built on first use: A edges, then B edges,
        then C loops, the letter of sign s on the i-th of them coded
        ``s * (i + 1)``.  Returns the ids in that order; per signed code
        ``c``, at list index ``c`` (a negative code from the end, after a
        slot 0), its side and the index of the vertex it ends at; and per
        side, its ids' index among themselves and the code of its first id."""
        ga, gb = self.graph_a, self.graph_b
        owners = list(map(ga._vindex.__getitem__, self._c_owner.values()))
        sides = ["A"] * ga.e_count + ["B"] * gb.e_count + ["C"] * len(owners)
        heads = ga._tgt_idx + gb._tgt_idx + owners
        tails = ga._src_idx + gb._src_idx + owners
        return (
            ga.edge_ids + gb.edge_ids + tuple(self._c_owner),
            [None, *sides, *reversed(sides)],
            [-1, *heads, *reversed(tails)],
            {
                "A": (ga._eindex, 1),
                "B": (gb._eindex, ga.e_count + 1),
                "C": (dict(zip(self._c_owner, range(len(owners)))), ga.e_count + gb.e_count + 1),
            },
        )

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
        _check_sign(self.sign)

    def __str__(self) -> str:
        body = f"{self.side}:{self.edge}"
        return body if self.sign == 1 else f"{body}^-1"


class GWord(_CodedWord):
    """A composable (not necessarily reduced) word of tagged generators of G.

    Equality of GWords is syntactic; equality in the pushout groupoid G is
    deliberately left undecided.  A GWord codes its letters over the
    instance's tagged alphabet (A edges, then B edges, then C loops).
    """

    __slots__ = ()
    instance = _CodedWord._owner  # the shell's owner slot, under its name here

    def __init__(self, instance: PushoutInstance, source: str, target: str, letters: Iterable[GLetter] = ()):
        _, _, ends, by_side = instance._alphabet

        def code_of(letter: GLetter) -> int:
            # A GLetter checked its side and sign when it was made.
            index, base = by_side[letter.side]
            return letter.sign * (index[letter.edge] + base)

        codes, _ = _chain_codes(instance.graph_a, ends, GLetter, code_of, source, letters, target)
        self._owner, self.source, self.target, self._codes = instance, source, target, tuple(codes)

    def _letter(self, code: int) -> GLetter:
        ids, sides, _, _ = self._owner._alphabet
        return GLetter(sides[code], ids[abs(code) - 1], 1 if code > 0 else -1)


@dataclass(eq=True)
class RetractReport:
    """Everything the retraction needs: chosen forests, the pushout graph W,
    component counts, the rank and each W edge's origin.  One thread at a
    time may call :func:`rho` or :func:`witness` on a report."""

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

    def origin_of(self, w_edge: str) -> tuple[str, str]:
        try:
            return self.edge_origins[w_edge]
        except KeyError:
            raise UnknownLetter(w_edge) from None

    @cached_property
    def _on_w(self) -> tuple[dict[str, Forest], list[int]]:
        """X and Y hosted on W by side, so tree paths come back as W codes
        (W indexes the objects as A and B do, so the labels carry over); and
        the tagged code of each signed W code ``c`` at list index ``c`` of
        ``[0, t_1 .. t_m, -t_m .. -t_1]``, coded by the per-side index and
        base of the instance's ``_alphabet``.  Built on first use, in one
        pass."""
        by_side = self.instance._alphabet[3]
        trees, tagged = {"A": [], "B": []}, []
        for i, w_edge in enumerate(self.w.edge_ids):
            s, edge = self.edge_origins[w_edge]
            trees[s].append(i)
            index, base = by_side[s]
            tagged.append(base + index[edge])
        labels = {"A": self.forest_x._labels, "B": self.forest_y._labels}
        forests = {s: Forest._accepted(self.w, trees[s], labels[s]) for s in labels}
        return forests, [0, *tagged, *(-c for c in reversed(tagged))]


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
    if w.e_count != len(forest_x._tree_idx) + len(forest_y._tree_idx):
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


def _run_paths(report: RetractReport, runs: Iterable[tuple[str, int, int]]) -> list[int]:
    """The signed W codes of the tree paths of ``runs``, each a side and two
    vertex indexes in one tree of that side's forest, concatenated."""
    forests = report._on_w[0]
    codes: list[int] = []
    for side, i, j in runs:
        codes += forests[side]._path_codes(i, j)
    return codes


def rho(report: RetractReport, g: GWord) -> Word:
    """The retraction G -> Fr(W) evaluated on a word of generators.

    A-letters map to the X-tree path between their endpoints (forest edges map
    to themselves), B-letters likewise through Y, and C-letters die (the
    forest Z has no edges).  The result is reduced, and the map respects
    composition and inversion.

    The word is read in runs, maximal stretches of letters of one side.  An
    A or B run stands for the one tree path from its start to its end, since
    the reduced word between two vertices of a forest is unique.  Runs are
    cancelled on their endpoints, with a stack of ``[side, start, end]``:

    - a run of the top's side extends the top, since two paths in one
      forest that meet reduce to the one path between their far ends;
    - a run that starts where it ends is empty: it is dropped, or popped
      once it has extended the top.  Its neighbours then share a side and
      merge in turn, so one empty run can cascade.  A run of C-letters,
      which are loops, is always empty.

    The surviving runs are nonempty and alternate between A and B, and the
    two forests' W edges are disjoint, so nothing cancels where their paths
    meet: the concatenation is reduced as it stands.  Only those paths are
    walked, and the result is a word of their signed W codes.
    """
    _expect(GWord, g)
    if g.instance != report.instance:
        raise HostMismatch("word does not belong to this report's instance")
    inst = report.instance
    _, sides, ends, _ = inst._alphabet
    stack: list[list] = []
    cur = inst.graph_a._vindex[g.source]
    for side, run in groupby(g._codes, sides.__getitem__):
        for last in run:  # a run ends where its last letter does
            pass
        end = ends[last]
        if stack and stack[-1][0] == side:
            top = stack[-1]
            if top[1] == end:
                stack.pop()
            else:
                top[2] = end
        elif end != cur:
            stack.append([side, cur, end])
        cur = end
    return Word._trusted(report.w, g.source, g.target, _run_paths(report, stack))


def include_f(report: RetractReport, w: Word) -> GWord:
    """The inclusion Fr(W) -> G: relabel each W letter to its tagged origin."""
    _expect(Word, w)
    if w.host != report.w:
        raise HostMismatch("word is not hosted on this report's pushout graph W")
    tagged = report._on_w[1]
    return GWord._trusted(report.instance, w.source, w.target, map(tagged.__getitem__, w._codes))


def witness(report: RetractReport, a: str, b: str) -> Word:
    """The loop (X-tree path a -> b) * (Y-tree path b -> a), reduced, in Fr(W).

    Nontrivial whenever defined: the two halves are nonempty words over
    disjoint edge alphabets, so nothing cancels at the junction.  Its
    nontriviality in Fr(W) certifies, through the retraction, that the
    corresponding loop class in G is nontrivial.  Like :func:`rho`, it works
    in signed W codes and returns a word of them.
    """
    a, b = as_id(a), as_id(b)
    inst = report.instance
    # Both sides index the objects alike; UnknownVertex names a, then b, first.
    i, j = inst.graph_a.vertex_index(a), inst.graph_a.vertex_index(b)
    labels = components(inst.graph_a)._labels
    if labels[i] != labels[j]:
        raise NoArrowInA(f"no arrow {a!r} -> {b!r} in A: different components")
    labels = components(inst.graph_b)._labels
    if labels[i] != labels[j]:
        raise NoArrowInB(f"no arrow {a!r} -> {b!r} in B: different components")
    if a == b:
        raise NotDistinct(f"objects must be distinct, got {a!r} twice")
    codes = _run_paths(report, (("A", i, j), ("B", j, i)))
    loop = reduce_signed(codes)
    if not (len(loop) >= 2 and len(loop) == len(codes)):
        raise InternalInvariant("witness halves cancelled at their junction")
    return Word._trusted(report.w, a, a, loop)
