"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check.  Tree paths, rho,
witness loops and component counts come from the benchmark's checker,
``perfbench/checkers.py``, loaded by path as :data:`checkers`: it shares no
code with freeloop, and the adapters here only read ids and ends off public
attributes to build its documents.  Here live the oracles the checker lacks:
:func:`brute_components` lists blocks by BFS, :func:`naive_reduce` reduces
by repeated single-pair deletion, acyclicity is edge counting, and the word,
decomposition and parse references walk ids one by one.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

from freeloop.errors import (
    EdgeAcrossPieces,
    EmptyIntersection,
    NotACover,
    NotComposable,
    NotReduced,
    PieceMissesIntersection,
    SchemaError,
    UnknownLetter,
    UnknownVertex,
)
from freeloop.graphs import DirectedGraph, components, spanning_forest
from freeloop.jsonio import _id_list, _id_value, _require
from freeloop.retract import GLetter, GWord, PushoutInstance
from freeloop.vankampen import Decomposition, decomposition_to_instance
from freeloop.words import Letter, Word

ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path: the benchmark's checkers and
    input generators import nothing from freeloop."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checkers = perfbench_module("checkers")


def naive_reduce(codes):
    """Delete one adjacent inverse pair per pass until a fixpoint."""
    out = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return out


def brute_components(g: DirectedGraph):
    """Weak-connectivity blocks by repeated BFS over an adjacency map."""
    adj = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        s, t = g.edge_ends[e]
        adj[s].add(t)
        adj[t].add(s)
    blocks = []
    seen = set()
    for start in g.vertices:
        if start in seen:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in block:
                        block.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(sorted(blocks))


def block_number(g: DirectedGraph) -> dict[str, int]:
    """Each vertex of ``g`` to the position of its block in
    ``components(g).blocks``: two vertices share a block when their
    numbers agree."""
    return {v: i for i, block in enumerate(components(g).blocks) for v in block}


def partition_view_faults(g: DirectedGraph) -> list[str]:
    """Where ``components(g)``, read first here, disagrees with
    ``brute_components``: its length, which must list no blocks, then its
    blocks.  The lex forest must name its edge indexes on first read.
    Empty when all agree."""
    want = brute_components(g)
    parts = components(g)
    faults = []
    if len(parts) != len(want):
        faults.append(f"len {len(parts)} != {len(want)}")
    if "blocks" in vars(parts):
        faults.append("len listed the blocks")
    if parts.blocks != want:
        faults.append(f"blocks {parts.blocks!r} != {want!r}")
    forest = spanning_forest(g)
    if "tree_edge_ids" in vars(forest):
        faults.append("forest named its edges when built")
    ids = tuple(g.edge_ids[i] for i in forest._tree_idx)
    if forest.tree_edge_ids != ids:
        faults.append(f"forest ids {forest.tree_edge_ids!r} != {ids!r}")
    return faults


def brute_rank(inst: PushoutInstance):
    """``((n_A, n_B, n_C), connected, k)`` of a pushout instance, from the
    checker's component counts.

    C is totally disconnected, so n_C is the object count.  The pushout G is
    connected exactly when the union of both sides' edges is; then ``k`` is
    ``n_C - n_A - n_B + 1``, and otherwise None.
    """
    objects, a, b = inst.objects, inst.graph_a.edge_ends.values(), inst.graph_b.edge_ends.values()
    counts = (checkers.count_components(objects, a), checkers.count_components(objects, b), len(objects))
    connected = checkers.count_components(objects, [*a, *b]) == 1
    k = counts[2] - counts[0] - counts[1] + 1 if connected else None
    return counts, connected, k


def is_nonempty_reduced_loop(w: Word) -> bool:
    """Whether ``w`` is closed and nonempty and :func:`naive_reduce` leaves
    its signed codes unchanged.  Reduced words are normal forms, so such a
    loop is a nontrivial element of its vertex group."""
    code = {e: i + 1 for i, e in enumerate(w.host.edge_ids)}
    codes = [l.sign * code[l.edge] for l in w.letters]
    return w.source == w.target and bool(codes) and naive_reduce(codes) == codes


def reference_word_error(host, source, target, letters, reduced=False):
    """The error that building a word of ``letters`` from ``source`` to
    ``target`` on ``host`` must raise, as ``(class, position, str)``, or None.

    ``host`` is a graph (``Letter``s) or a pushout instance (``GLetter``s);
    ``target`` None checks no target, as :func:`~freeloop.words.reduce`
    does, and ``reduced`` refuses a letter that cancels the one before it.
    The walk goes letter by letter on vertex and edge ids, coding nothing:
    unknown endpoints first, then per letter whether it is of the host's
    letter class (else a ``TypeError``), is known, starts where the chain
    is and, if ``reduced``, does not cancel; then the end.
    """
    if isinstance(host, PushoutInstance):
        kind = GLetter
        vertices = host.objects
        ends = {
            "A": host.graph_a.edge_ends,
            "B": host.graph_b.edge_ends,
            "C": {x: (v, v) for v, ids in host.c_loops for x in ids},
        }

        def edge_ends(l):
            if l.edge not in ends[l.side]:
                raise UnknownLetter(l.edge, side=l.side)
            return ends[l.side][l.edge]

    else:
        kind = Letter
        vertices = host.vertices

        def edge_ends(l):
            if l.edge not in host.edge_ends:
                raise UnknownLetter(l.edge)
            return host.edge_ends[l.edge]

    def error(exc):
        return type(exc), getattr(exc, "position", None), str(exc)

    for v in [source] + ([] if target is None else [target]):
        if v not in vertices:
            return error(UnknownVertex(v))
    cur = source
    for i, letter in enumerate(letters):
        if type(letter) is not kind:
            return TypeError, None, f"letter {i} must be a {kind.__name__}, got {type(letter).__name__}"
        try:
            s, t = edge_ends(letter)
        except UnknownLetter as exc:
            return error(exc)
        if letter.sign == -1:
            s, t = t, s
        if s != cur:
            return error(NotComposable(i, f"letter starts at {s!r}, chain is at {cur!r}"))
        if reduced and i and letters[i - 1] == replace(letter, sign=-letter.sign):
            return error(NotReduced(f"word is not reduced at position {i}"))
        cur = t
    if target is not None and cur != target:
        return error(NotComposable(len(letters), f"target {target!r} does not match chain end {cur!r}"))
    return None


def forest_graph(f) -> DirectedGraph:
    """A forest as a graph through the public constructor: every host
    vertex, tree edges only."""
    return DirectedGraph(f.host.vertices, [(e, *f.host.edge_ends[e]) for e in f.tree_edge_ids])


def reference_kruskal(n, src, tgt, order):
    """Greedy forest scan without union-find: accept an edge whose ends carry
    different block labels, then relabel the whole of one block."""
    block = list(range(n))
    accepted = []
    for idx in order:
        keep, drop = block[src[idx]], block[tgt[idx]]
        if keep != drop:
            block = [keep if b == drop else b for b in block]
            accepted.append(idx)
    return accepted


def is_forest_graph(g: DirectedGraph) -> bool:
    """Acyclicity by counting: e = v - #components holds exactly for forests."""
    return g.e_count == g.v_count - checkers.count_components(g.vertices, g.edge_ends.values())


def signed_adjacency(g: DirectedGraph):
    adj = {v: [] for v in g.vertices}
    for e in g.edge_ids:
        s, t = g.edge_ends[e]
        adj[s].append((Letter(e, 1), t))
        adj[t].append((Letter(e, -1), s))
    return adj


def enumerate_reduced_words(g: DirectedGraph):
    """Every reduced word of ``g``, grouped by (source, target).

    Terminates only when ``g`` is a forest, where non-backtracking walks
    cannot revisit a vertex.
    """
    adj = signed_adjacency(g)
    out: dict[tuple[str, str], list[list[Letter]]] = {}
    for source in g.vertices:
        stack: list[tuple[str, list[Letter]]] = [(source, [])]
        while stack:
            cur, word = stack.pop()
            out.setdefault((source, cur), []).append(word)
            for letter, nxt in adj[cur]:
                if word and letter == Letter(word[-1].edge, -word[-1].sign):
                    continue
                stack.append((nxt, word + [letter]))
    return out


def random_graph(rng: random.Random, max_v=8, max_e=14, prefix="") -> DirectedGraph:
    n = rng.randint(1, max_v)
    vs = [f"{prefix}v{i:02d}" for i in range(n)]
    m = rng.randint(0, max_e)
    edges = [(f"{prefix}e{j:02d}", rng.choice(vs), rng.choice(vs)) for j in range(m)]
    return DirectedGraph(vs, edges)


def random_connected_instance(
    rng: random.Random, max_objects=20, max_side_edges=40
) -> PushoutInstance:
    """Instance whose union graph is connected by construction: a random
    spanning tree split across the two sides, then random extras per side."""
    n = rng.randint(1, max_objects)
    objs = [f"o{i:02d}" for i in range(n)]
    a_edges: list[tuple[str, str, str]] = []
    b_edges: list[tuple[str, str, str]] = []
    order = objs[:]
    rng.shuffle(order)
    for i in range(1, n):
        attach = order[rng.randrange(i)]
        side = a_edges if rng.random() < 0.5 else b_edges
        side.append((f"t{i:02d}", attach, order[i]))
    for tag, side in (("a", a_edges), ("b", b_edges)):
        extra = rng.randint(0, max_side_edges - len(side))
        for j in range(extra):
            side.append((f"{tag}{j:02d}", rng.choice(objs), rng.choice(objs)))
    c_loops: dict[str, list[str]] = {}
    for j in range(rng.randint(0, 3)):
        c_loops.setdefault(rng.choice(objs), []).append(f"c{j}")
    return PushoutInstance(
        objs, DirectedGraph(objs, a_edges), DirectedGraph(objs, b_edges), c_loops
    )


def tagged_instance(rng: random.Random, max_objects=10, max_side_edges=16, share=0.3) -> PushoutInstance:
    """:func:`random_connected_instance` with edge ids on both sides, so W
    tags them: a ``share`` of B's edges take ids of A edges, one A edge
    becomes ``x`` and two B edges become ``x`` and ``A:x``, which W names
    ``A:A:x``, ``B:x`` and ``A:x`` when all three are forest edges.  The
    last three are spanning-tree edges (``t##``) where the side has them,
    so a tie-break listing ``x`` and ``A:x`` first puts them in the forests.
    """
    inst = random_connected_instance(rng, max_objects, max_side_edges)
    a_ids, b_ids = list(inst.graph_a.edge_ids), list(inst.graph_b.edge_ids)
    for ids in (a_ids, b_ids):
        rng.shuffle(ids)
        ids.sort(key=lambda e: not e.startswith("t"))
    rename_a = dict(zip(a_ids, ["x"]))
    rename_b = dict(zip(b_ids, ["x", "A:x"]))
    taken = a_ids[1:]
    for e in b_ids[2:]:
        if taken and rng.random() < share:
            rename_b[e] = taken.pop()

    def renamed(g: DirectedGraph, names: dict[str, str]) -> DirectedGraph:
        return DirectedGraph(g.vertices, [(names.get(e, e), *g.edge_ends[e]) for e in g.edge_ids])

    return PushoutInstance(
        inst.objects, renamed(inst.graph_a, rename_a), renamed(inst.graph_b, rename_b), dict(inst.c_loops)
    )


def joined_pairs(inst: PushoutInstance) -> list[tuple[str, str]]:
    """Ordered pairs of distinct objects joined in both sides."""
    number_a, number_b = block_number(inst.graph_a), block_number(inst.graph_b)
    return [
        (a, b)
        for a in inst.objects
        for b in inst.objects
        if a != b and number_a[a] == number_a[b] and number_b[a] == number_b[b]
    ]


def random_reduced_word(rng: random.Random, g: DirectedGraph, source=None, max_len=12) -> Word:
    """Non-backtracking random walk, so the word is reduced by construction."""
    adj = signed_adjacency(g)
    if source is None:
        source = rng.choice(g.vertices)
    cur = source
    letters: list[Letter] = []
    for _ in range(rng.randint(0, max_len)):
        options = [
            (l, nxt)
            for l, nxt in adj[cur]
            if not (letters and l == Letter(letters[-1].edge, -letters[-1].sign))
        ]
        if not options:
            break
        letter, cur = rng.choice(options)
        letters.append(letter)
    return Word(g, source, cur, letters)


def random_gword(rng: random.Random, inst: PushoutInstance, source=None, max_len=10) -> GWord:
    """Random composable walk over tagged generators; backtracking allowed."""
    moves: dict[str, list[tuple[GLetter, str]]] = {v: [] for v in inst.objects}
    for side in ("A", "B"):
        g = inst.graph_a if side == "A" else inst.graph_b
        for e in g.edge_ids:
            s, t = g.edge_ends[e]
            moves[s].append((GLetter(side, e, 1), t))
            moves[t].append((GLetter(side, e, -1), s))
    for v, ids in inst.c_loops:
        for e in ids:
            moves[v].append((GLetter("C", e, 1), v))
            moves[v].append((GLetter("C", e, -1), v))
    if source is None:
        source = rng.choice(inst.objects)
    cur = source
    letters: list[GLetter] = []
    for _ in range(rng.randint(0, max_len)):
        if not moves[cur]:
            break
        letter, cur = rng.choice(moves[cur])
        letters.append(letter)
    return GWord(inst, source, cur, letters)


def with_c_loop_everywhere(inst: PushoutInstance) -> PushoutInstance:
    """The same instance with exactly one C loop, ``c:<object>``, per object."""
    loops = {v: [f"c:{v}"] for v in inst.objects}
    return PushoutInstance(inst.objects, inst.graph_a, inst.graph_b, loops)


def long_run_gword(
    rng: random.Random, inst: PushoutInstance, length: int, sides=("A", "B"), closed_share=0.3
) -> GWord:
    """Composable walk of at least ``length`` tagged letters in long runs.

    A run is 1-50 letters on one side, backtracking allowed; the next run
    switches side when it can.  A ``closed_share`` of runs walk back over
    their own letters, so they return to their start.  C-letters open and
    close the word, follow some runs and sit inside a few, so every object
    needs a C loop (see :func:`with_c_loop_everywhere`).
    """
    moves: dict[str, dict[str, list[tuple[GLetter, str]]]] = {}
    for side in sides:
        g = inst.graph_a if side == "A" else inst.graph_b
        moves[side] = {v: [] for v in inst.objects}
        for e in g.edge_ids:
            s, t = g.edge_ends[e]
            moves[side][s].append((GLetter(side, e, 1), t))
            moves[side][t].append((GLetter(side, e, -1), s))
    loops = dict(inst.c_loops)

    def c_letter(v):
        return GLetter("C", rng.choice(loops[v]), rng.choice((1, -1)))

    starts = [v for v in inst.objects if any(moves[side][v] for side in sides)]
    cur = source = rng.choice(starts)
    side = rng.choice(sides)
    letters = [c_letter(cur)]
    while len(letters) < length:
        if not moves[side][cur]:
            side = next(s for s in sides if moves[s][cur])
        start = cur
        run: list[GLetter] = []
        for _ in range(rng.randint(1, 50)):
            letter, cur = rng.choice(moves[side][cur])
            run.append(letter)
            if rng.random() < 0.03:
                run.append(c_letter(cur))
        if rng.random() < closed_share:
            run += [GLetter(l.side, l.edge, -l.sign) for l in reversed(run)]
            cur = start
        letters += run
        if rng.random() < 0.5:
            letters.append(c_letter(cur))
        others = [s for s in sides if s != side and moves[s][cur]]
        if others:
            side = rng.choice(others)
    letters.append(c_letter(cur))
    return GWord(inst, source, cur, letters)


def _rho_oracle(report):
    """The checker's rho oracle, built from the ids and ends the report
    names: its objects, its side graphs' edges, its forests' tree edges and
    the origin of each W edge."""
    inst = report.instance
    doc = {"objects": inst.objects}
    for key, g in (("graph_a", inst.graph_a), ("graph_b", inst.graph_b)):
        doc[key] = {"edges": [{"id": e, "src": s, "tgt": t} for e, (s, t) in g.edge_ends.items()]}
    trees = {"A": report.forest_x.tree_edge_ids, "B": report.forest_y.tree_edge_ids}
    return checkers.RhoOracle(doc, trees, report.edge_origins)


def checker_rho(report, g: GWord) -> Word:
    """``rho(report, g)`` as the checker expects it: each A- or B-letter
    becomes the tree path between its ends, C-letters vanish, and the
    concatenation is stack-reduced."""
    letters = [{"side": l.side, "edge": l.edge, "sign": l.sign} for l in g.letters]
    image = _rho_oracle(report).expected(letters)
    return Word(report.w, g.source, g.target, [Letter(e, sign) for e, sign in image])


def checker_witness(report, a: str, b: str) -> Word:
    """The witness loop from the checker's tree paths, X-tree a -> b then
    Y-tree b -> a, stack-reduced."""
    oracle = _rho_oracle(report)
    halves = []
    for side, u, v in (("A", a, b), ("B", b, a)):
        halves += [(oracle.w_id[(side, e)], sign) for e, sign in oracle.paths[side].path(u, v)]
    return Word(report.w, a, a, [Letter(e, sign) for e, sign in checkers.stack_reduce(halves)])


def random_connected_space(rng: random.Random, max_v=10, max_extra=8) -> DirectedGraph:
    n = rng.randint(2, max_v)
    vs = [f"s{i:02d}" for i in range(n)]
    order = vs[:]
    rng.shuffle(order)
    edges = [
        (f"e{i:02d}", order[rng.randrange(i)], order[i]) for i in range(1, n)
    ]
    for j in range(rng.randint(0, max_extra)):
        edges.append((f"x{j:02d}", rng.choice(vs), rng.choice(vs)))
    return DirectedGraph(vs, edges)


def random_decomposition(rng: random.Random, max_v=10, max_extra=8) -> Decomposition:
    """Valid decomposition of a connected space that also yields an instance.

    Each edge is tossed to one piece (both endpoints follow it), stray
    vertices are tossed randomly; samples whose intersection is empty or
    missed by a piece component are rejected and redrawn.
    """
    while True:
        space = random_connected_space(rng, max_v, max_extra)
        u_set: set[str] = set()
        v_set: set[str] = set()
        for e in space.edge_ids:
            s, t = space.edge_ends[e]
            side = u_set if rng.random() < 0.5 else v_set
            side.add(s)
            side.add(t)
        for v in space.vertices:
            if v not in u_set and v not in v_set:
                (u_set if rng.random() < 0.5 else v_set).add(v)
        if not u_set or not v_set:
            continue
        dec = Decomposition(space, sorted(u_set), sorted(v_set))
        try:
            decomposition_to_instance(dec)
        except (EmptyIntersection, PieceMissesIntersection):
            continue
        return dec


def random_many_basepoint_decomposition(rng: random.Random, min_basepoints=1) -> Decomposition:
    """Pieces that meet in up to eight basepoints: each piece adds its own
    vertices and edges from them to either kind, and a few edges join two
    basepoints.  Draws that are disconnected, leave a piece component
    without a basepoint or have fewer than ``min_basepoints`` intersection
    components are redrawn."""
    while True:
        points = [f"b{i}" for i in range(rng.randint(2, 8))]
        pieces, edges = [], []
        for side in "uv":
            own = [f"{side}{i}" for i in range(rng.randint(1, 5))]
            for _ in range(rng.randint(len(own), 3 * len(own))):
                edges.append((rng.choice(own), rng.choice(points + own)))
            pieces.append(points + own)
        edges += [tuple(rng.sample(points, 2)) for _ in range(rng.randint(0, 2))]
        space = DirectedGraph(
            pieces[0] + pieces[1][len(points) :],
            [(f"e{i:02d}", s, t) for i, (s, t) in enumerate(edges)],
        )
        if len(components(space)) != 1:
            continue
        dec = Decomposition(space, *pieces)
        if len(components(dec.intersection)) < min_basepoints:
            continue
        try:
            decomposition_to_instance(dec)
        except PieceMissesIntersection:
            continue
        return dec


def random_cycle_split(rng: random.Random, max_inner=5) -> Decomposition:
    """Cycle split at two cut vertices into complementary arcs.

    The intersection is exactly the two cut points, each its own component,
    and both pieces join them, so a certificate always exists.  Sometimes a
    second arc is doubled inside the U piece, giving it positive rank.
    """
    u_inner = [f"u{i:02d}" for i in range(rng.randint(1, max_inner))]
    w_inner = [f"w{i:02d}" for i in range(rng.randint(1, max_inner))]
    verts = ["k0", "k1"] + u_inner + w_inner
    edges: list[tuple[str, str, str]] = []

    def chain(tag, inner):
        seq = ["k0"] + inner + ["k1"]
        edges.extend(
            (f"{tag}{i:02d}", seq[i], seq[i + 1]) for i in range(len(seq) - 1)
        )

    chain("p", u_inner)
    chain("q", w_inner)
    extra_u: list[str] = []
    if rng.random() < 0.4:
        extra_u = [f"x{i:02d}" for i in range(rng.randint(1, 3))]
        verts += extra_u
        chain("r", extra_u)
    space = DirectedGraph(verts, edges)
    return Decomposition(
        space, ["k0", "k1"] + u_inner + extra_u, ["k0", "k1"] + w_inner
    )


def _tokens(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{x:08x}" for x in rng.sample(range(16**8), count)]


def ring_ladder(rng: random.Random, n: int) -> dict:
    """Separation scenario document on the ring ladder C_n x P_2: an outer
    and an inner n-cycle joined by n rungs, with random-token ids and edge
    directions.  D and E are the ends of two antipodal rungs and a, b sit on
    the outer ring at the quarter points, so neither deleted set separates a
    from b but their union does.  The space has n + 1 independent cycles."""
    names = _tokens(rng, "v", 2 * n)
    outer, inner = names[:n], names[n:]
    pairs = [(ring[i], ring[(i + 1) % n]) for ring in (outer, inner) for i in range(n)]
    pairs += zip(outer, inner)
    edges = []
    for e, (s, t) in zip(_tokens(rng, "e", 3 * n), pairs):
        if rng.random() < 0.5:
            s, t = t, s
        edges.append({"id": e, "src": s, "tgt": t})
    return {
        "space": {"vertices": names, "edges": edges},
        "d": [outer[0], inner[0]],
        "e": [outer[n // 2], inner[n // 2]],
        "a": outer[n // 4],
        "b": outer[3 * n // 4],
    }


def circle_instance() -> PushoutInstance:
    g = DirectedGraph(["a", "b"], [("alpha", "a", "b")])
    h = DirectedGraph(["a", "b"], [("beta", "a", "b")])
    return PushoutInstance(["a", "b"], g, h)


def circle_decomposition() -> Decomposition:
    space = DirectedGraph(
        ["a", "b", "p", "q"],
        [("e1", "a", "p"), ("e2", "p", "b"), ("e3", "b", "q"), ("e4", "q", "a")],
    )
    return Decomposition(space, ["a", "p", "b"], ["a", "q", "b"])


def c8_space() -> DirectedGraph:
    return DirectedGraph(
        [f"v{i}" for i in range(8)],
        [(f"c{i}", f"v{i}", f"v{(i + 1) % 8}") for i in range(8)],
    )


def reference_induced(space: DirectedGraph, vertex_set) -> DirectedGraph:
    """Induced subgraph through the public constructor, from an id set."""
    keep = set(vertex_set)
    return DirectedGraph(
        sorted(keep),
        [(e, s, t) for e, (s, t) in space.edge_ends.items() if s in keep and t in keep],
    )


def reference_separates(space: DirectedGraph, d_set, a: str, b: str) -> bool:
    """Components of the space with ``d_set`` deleted, as a built graph."""
    deleted = set(d_set)
    rest = reference_induced(space, [v for v in space.vertices if v not in deleted])
    number = block_number(rest)
    return number[a] != number[b]


def reference_pbi_fails(space: DirectedGraph, d_set, e_set, a: str, b: str) -> bool:
    return (
        not reference_separates(space, d_set, a, b)
        and not reference_separates(space, e_set, a, b)
        and reference_separates(space, set(d_set) | set(e_set), a, b)
    )


def reference_pieces(space: DirectedGraph, u, v):
    """(piece U, piece V, intersection) of the decomposition ``u``, ``v``."""
    u_set, v_set = set(u), set(v)
    return (
        reference_induced(space, u_set),
        reference_induced(space, v_set),
        reference_induced(space, u_set & v_set),
    )


def _first_unknown(space: DirectedGraph, ids):
    unknown = sorted(set(ids) - set(space.vertices))
    return (UnknownVertex, unknown[0]) if unknown else None


def reference_decomposition_error(space: DirectedGraph, u, v):
    """(error class, offending id) that ``Decomposition`` must raise, or None:
    the smallest unknown id of ``u``, then of ``v``; then the first vertex in
    neither piece; then the first edge with no piece holding both ends."""
    found = _first_unknown(space, u) or _first_unknown(space, v)
    if found:
        return found
    u_set, v_set = set(u), set(v)
    for x in space.vertices:
        if x not in u_set and x not in v_set:
            return NotACover, x
    for e in space.edge_ids:
        s, t = space.edge_ends[e]
        if not ({s, t} <= u_set or {s, t} <= v_set):
            return EdgeAcrossPieces, e
    return None


def reference_single_tag_origins(ids_x, ids_y):
    """Pushout edge names under the single-tag rule: an id on both sides gets
    one side tag ("A:" / "B:"), every other id keeps its name.  Returns the
    ``{name: (side, id)}`` origins, or None where two names clash."""
    both = set(ids_x) & set(ids_y)
    origins = {}
    for side, ids in (("A", ids_x), ("B", ids_y)):
        for e in ids:
            name = f"{side}:{e}" if e in both else e
            if name in origins:
                return None
            origins[name] = (side, e)
    return origins


def reference_parse_graph(obj) -> DirectedGraph:
    """A graph document parsed the long way: every field of every edge through
    the schema checks, then every id through the public ``DirectedGraph``."""
    vertices = _id_list(_require(obj, "vertices", "graph"), 'graph "vertices"')
    raw_edges = _require(obj, "edges", "graph")
    if not isinstance(raw_edges, list):
        raise SchemaError('graph "edges" must be a JSON array')
    edges = []
    for i, entry in enumerate(raw_edges):
        where = f"edge #{i}"
        edges.append(
            tuple(
                _id_value(_require(entry, key, where), f'{where} "{key}"')
                for key in ("id", "src", "tgt")
            )
        )
    return DirectedGraph(vertices, edges)
