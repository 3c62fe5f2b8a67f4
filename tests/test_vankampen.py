"""Decompositions, separation predicates, and Z-retract certificates."""

from __future__ import annotations

import random
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from freeloop.errors import (
    BadId,
    DeletedSetsAdjacent,
    Disconnected,
    EdgeAcrossPieces,
    EmptyIntersection,
    NotACover,
    NotDistinct,
    PbiHolds,
    PieceMissesIntersection,
    PointInDeletedSet,
    SetsNotDisjoint,
    UnknownVertex,
)
from freeloop.graphs import (
    DirectedGraph,
    components,
    euler_ranks,
)
from freeloop.retract import build_retract, witness
from freeloop.vankampen import (
    Decomposition,
    PbpScenario,
    certificate_basepoints_for,
    decomposition_to_instance,
    detect_z_retract,
    _generators,
    _complement,
    _joined_pair,
    _space_connected,
    pbi_fails,
    pbp_to_decomposition,
)
from freeloop.words import Word

from support import (
    block_number,
    brute_components,
    brute_rank,
    c8_space,
    circle_decomposition,
    is_forest_graph,
    is_nonempty_reduced_loop,
    joined_pairs,
    naive_reduce,
    perfbench_module,
    random_decomposition,
    random_graph,
    random_many_basepoint_decomposition,
    reference_decomposition_error,
    reference_pbi_fails,
    reference_pieces,
    reference_separates,
    ring_ladder,
)


def test_induced_subgraph_on_full_and_empty_sets():
    g = c8_space()
    assert Decomposition(g, g.vertices, g.vertices).piece_u == g
    empty = Decomposition(g, [], g.vertices).piece_u
    assert empty.v_count == 0 and empty.e_count == 0


def test_induced_subgraph_cycle_minus_vertex_is_a_path():
    c4 = DirectedGraph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "a")],
    )
    p = Decomposition(c4, ["a", "b", "c"], c4.vertices).piece_u
    assert p.vertices == ("a", "b", "c")
    assert p.edge_ids == ("e1", "e2")
    assert is_forest_graph(p)


def test_induced_subgraph_rejects_unknown_vertices():
    with pytest.raises(UnknownVertex):
        Decomposition(c8_space(), ["nope"], c8_space().vertices)


def test_scenario_validation():
    g = c8_space()
    with pytest.raises(SetsNotDisjoint):
        PbpScenario(g, ["v0"], ["v0"], "v2", "v6")
    with pytest.raises(DeletedSetsAdjacent):
        PbpScenario(g, ["v0"], ["v1"], "v3", "v6")
    with pytest.raises(PointInDeletedSet):
        PbpScenario(g, ["v0"], ["v4"], "v0", "v6")
    with pytest.raises(NotDistinct):
        PbpScenario(g, ["v0"], ["v4"], "v2", "v2")
    with pytest.raises(UnknownVertex):
        PbpScenario(g, ["zz"], ["v4"], "v2", "v6")


def test_deleted_sets_adjacent_names_the_first_joining_edge():
    """An edge joins D to E whichever way it points; the first such edge in
    index order is the one named."""
    g = c8_space()
    for d, e, first in (
        (["v0", "v2"], ["v1"], "c0"),  # c0: D -> E, c1: E -> D
        (["v2"], ["v1", "v3"], "c1"),  # c1: E -> D, c2: D -> E
        (["v7"], ["v0", "v4"], "c7"),  # c7: D -> E only
        (["v4"], ["v3"], "c3"),  # c3: E -> D only
    ):
        with pytest.raises(DeletedSetsAdjacent) as raised:
            PbpScenario(g, d, e, "v5", "v6")
        assert raised.value.edge == first
    rng = random.Random(97)
    for _ in range(300):
        space = random_graph(rng)
        vs = list(space.vertices)
        rng.shuffle(vs)
        d = vs[: rng.randint(0, 3)]
        e = vs[len(d) : len(d) + rng.randint(0, 3)]
        joining = [
            x
            for x in space.edge_ids
            if set(space.edge_ends[x]) & set(d) and set(space.edge_ends[x]) & set(e)
        ]
        rest = vs[len(d) + len(e) :]
        a, b = (rest + ["zz", "yy"])[:2]
        if not joining:
            continue
        with pytest.raises(DeletedSetsAdjacent) as raised:
            PbpScenario(space, d, e, a, b)
        assert raised.value.edge == joining[0]


def test_deleted_sets_adjacent_suggests_subdividing():
    with pytest.raises(DeletedSetsAdjacent, match="subdivide"):
        PbpScenario(c8_space(), ["v0"], ["v1"], "v3", "v6")


def test_pbi_fails_on_antipodal_cycle_scenario():
    sc = PbpScenario(c8_space(), ["v0"], ["v4"], "v2", "v6")
    assert pbi_fails(sc)


def test_pbi_fails_is_false_with_empty_sets():
    sc = PbpScenario(c8_space(), [], [], "v2", "v6")
    assert not pbi_fails(sc)


def test_pbi_fails_is_false_on_path_spaces():
    """On a path, one interior deletion already separates, so the conjunction
    never holds."""
    p5 = DirectedGraph(
        ["n0", "n1", "n2", "n3", "n4"],
        [(f"e{i}", f"n{i}", f"n{i + 1}") for i in range(4)],
    )
    sc = PbpScenario(p5, ["n1"], ["n3"], "n0", "n4")
    assert reference_separates(p5, sc.d_set, sc.a, sc.b)
    assert not pbi_fails(sc)


def test_decomposition_validation():
    g = c8_space()
    with pytest.raises(NotACover):
        Decomposition(g, ["v0", "v1"], ["v2", "v3"])
    with pytest.raises(EdgeAcrossPieces):
        Decomposition(g, ["v0", "v1", "v2", "v3"], ["v4", "v5", "v6", "v7"])
    # Each input below breaks every later rule too, so the error raised shows
    # the order: bad id, unknown id (U's, then V's), uncovered vertex, then
    # straddling edge, each naming its first offender.
    with pytest.raises(BadId):
        Decomposition(g, ["zz", 1.5], ["yy"])
    cases = [
        ((["v1", "zz", "v0", "yy"], ["aa"]), UnknownVertex, "yy"),
        ((["v0"], ["v1", "zz", "aa"]), UnknownVertex, "aa"),
        ((["v3", "v1", "v2"], ["v6", "v7"]), NotACover, "v0"),
        ((["v0", "v1", "v2", "v3"], ["v4", "v5", "v6", "v7"]), EdgeAcrossPieces, "c3"),
        ((["v5", "v6", "v7", "v0"], ["v0", "v1", "v2", "v3", "v4"]), EdgeAcrossPieces, "c4"),
    ]
    for (u, v), error, ident in cases:
        with pytest.raises(error) as raised:
            Decomposition(g, u, v)
        assert type(raised.value) is error
        assert _offending_id(raised.value) == ident


def test_decomposition_pieces_are_induced():
    dec = circle_decomposition()
    assert dec.piece_u.edge_ids == ("e1", "e2")
    assert dec.piece_v.edge_ids == ("e3", "e4")
    assert dec.intersection.vertices == ("a", "b")
    assert dec.intersection.e_count == 0


def test_groupoid_generators_on_simply_connected_piece():
    tree = DirectedGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    inst, translations = decomposition_to_instance(Decomposition(tree, tree.vertices, ["a"]))
    assert inst.graph_a.vertices == ("a",)
    assert inst.graph_a.e_count == 0
    assert translations["A"] == {}


def test_groupoid_generators_on_single_loop_edge():
    bouquet = DirectedGraph(["a"], [("l", "a", "a")])
    inst, translations = decomposition_to_instance(Decomposition(bouquet, ["a"], ["a"]))
    assert inst.graph_a.edge_ids == ("g:l",)
    assert inst.graph_a.edge_ends["g:l"] == ("a", "a")
    assert [l.edge for l in translations["A"]["g:l"].letters] == ["l"]


def test_groupoid_generators_on_arc_with_two_basepoints():
    arc = DirectedGraph(["a", "b", "m"], [("x", "a", "m"), ("y", "m", "b")])
    inst, translations = decomposition_to_instance(Decomposition(arc, arc.vertices, ["a", "b"]))
    assert inst.graph_a.edge_ids == ("t:b",)
    assert inst.graph_a.edge_ends["t:b"] == ("a", "b")
    word = translations["A"]["t:b"]
    assert word.source == "a" and word.target == "b"
    assert [(l.edge, l.sign) for l in word.letters] == [("x", 1), ("y", 1)]


def test_groupoid_generators_requires_a_basepoint_per_component():
    """A piece component that holds no basepoint misses the intersection;
    piece U is checked before piece V."""
    space = DirectedGraph(["a", "b", "c", "d"], [("x", "a", "b")])
    dec = Decomposition(space, ["a", "b", "d"], ["a", "b", "c"])
    with pytest.raises(PieceMissesIntersection) as missed:
        decomposition_to_instance(dec)
    assert str(missed.value) == "component ('d',) of piece U misses the intersection"
    dec = Decomposition(space, ["a", "b"], ["a", "b", "c", "d"])
    with pytest.raises(PieceMissesIntersection) as missed:
        decomposition_to_instance(dec)
    assert str(missed.value) == "component ('c',) of piece V misses the intersection"


def test_groupoid_generators_preserves_component_count():
    rng = random.Random(73)
    for _ in range(100):
        n = rng.randint(1, 8)
        vs = [f"v{i}" for i in range(n)]
        g = DirectedGraph(
            vs,
            [
                (f"e{j}", rng.choice(vs), rng.choice(vs))
                for j in range(rng.randint(0, 12))
            ],
        )
        points = sorted({block[0] for block in components(g).blocks}
                        | {rng.choice(vs) for _ in range(rng.randint(0, 3))})
        at = list(map(g.vertex_index, points))
        graph, _ = _generators(g, "U", at, None, g, range(g.e_count))
        assert len(components(graph)) == len(components(g))


def test_decomposition_to_instance_on_the_circle():
    dec = circle_decomposition()
    inst, translations = decomposition_to_instance(dec)
    assert inst.objects == ("a", "b")
    assert inst.graph_a.edge_ids == ("t:b",)
    assert inst.graph_b.edge_ids == ("t:b",)
    assert inst.c_loops == ()
    assert build_retract(inst).k == brute_rank(inst)[2] == 1
    u_word = translations["A"]["t:b"]
    assert u_word.host == dec.space
    assert [(l.edge, l.sign) for l in u_word.letters] == [("e1", 1), ("e2", 1)]
    v_word = translations["B"]["t:b"]
    assert [(l.edge, l.sign) for l in v_word.letters] == [("e4", -1), ("e3", -1)]


def test_decomposition_to_instance_contractible_single_edge():
    space = DirectedGraph(["a", "b"], [("x", "a", "b")])
    dec = Decomposition(space, ["a", "b"], ["a", "b"])
    inst, _ = decomposition_to_instance(dec)
    assert inst.objects == ("a",)
    assert build_retract(inst).k == brute_rank(inst)[2] == 0


def test_decomposition_to_instance_error_cases():
    split = DirectedGraph(["a", "b", "c", "d"], [("x", "a", "b"), ("z", "c", "d")])
    with pytest.raises(EmptyIntersection):
        decomposition_to_instance(Decomposition(split, ["a", "b"], ["c", "d"]))
    lonely = DirectedGraph(["a", "b", "c"], [("x", "a", "b")])
    with pytest.raises(PieceMissesIntersection):
        decomposition_to_instance(Decomposition(lonely, ["a", "b", "c"], ["a", "b"]))


def test_intersection_loops_become_c_generators():
    """A cycle lying entirely inside both pieces surfaces as a C loop."""
    space = DirectedGraph(
        ["a", "b"],
        [("p", "a", "b"), ("q", "b", "a"), ("r", "a", "a")],
    )
    dec = Decomposition(space, ["a", "b"], ["a", "b"])
    inst, translations = decomposition_to_instance(dec)
    assert inst.objects == ("a",)
    assert dict(inst.c_loops) == {"a": ("q", "r")}
    for loop_id, word in translations["C"].items():
        assert word.source == word.target == "a"
        assert loop_id in {l.edge for l in word.letters}


def test_translation_tables_keep_records_and_no_words():
    """A table builds a generator's Word at each lookup from its record and
    keeps none: two lookups give equal, distinct words, and after every
    lookup the table holds its space, forest, records and edge indexes."""
    rng = random.Random(47)
    looked_up = 0
    for _ in range(30):
        dec = random_many_basepoint_decomposition(rng)
        _, translations = decomposition_to_instance(dec)
        for table in translations.values():
            for gen in table:
                first, again = table[gen], table[gen]
                assert type(first) is Word and first == again and first is not again
                looked_up += 1
            assert sorted(vars(table)) == ["_edges", "_forest", "_records", "_space"]
            for record in table._records.values():
                assert all(type(x) is int or x is None for x in record)
    assert looked_up > 100


@pytest.mark.parametrize(
    "prefer, message",
    [
        ("ab", "expected a collection of ids, got the str 'ab'"),
        (("a", "b", "p"), "prefer must be a pair of ids, got 3 ids"),
        (("a",), "prefer must be a pair of ids, got 1 ids"),
        ((), "prefer must be a pair of ids, got 0 ids"),
        (5, "expected a collection of ids, got int"),
        (("a", 1.5), "id must be a string or integer label, got float"),
    ],
)
def test_detect_z_retract_refuses_a_prefer_that_is_no_pair_of_ids(prefer, message):
    with pytest.raises(BadId) as raised:
        detect_z_retract(circle_decomposition(), prefer=prefer)
    assert str(raised.value) == message


def test_detect_z_retract_reads_prefer_as_a_pair_of_ids():
    """A list or a pair of int labels is a pair of ids; ids that name no
    basepoint fall back to the least joined pair."""
    space = DirectedGraph(
        ["0", "1", "2", "3"], [(f"e{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    )
    dec = Decomposition(space, ["0", "1", "2"], ["2", "3", "0"])
    for prefer in (None, ["0", "2"], (0, 2), ("0", 2), ("9", "0"), [2, 2]):
        cert = detect_z_retract(dec, prefer=prefer)
        assert cert.retract_image == witness(cert.report, "0", "2"), prefer
    for prefer in (["2", "0"], (2, 0)):
        cert = detect_z_retract(dec, prefer=prefer)
        assert cert.retract_image == witness(cert.report, "2", "0"), prefer


def test_translation_endpoints_match_generator_endpoints():
    rng = random.Random(79)
    for _ in range(40):
        dec = random_decomposition(rng)
        inst, translations = decomposition_to_instance(dec)
        for side, graph in (("A", inst.graph_a), ("B", inst.graph_b)):
            for gen in graph.edge_ids:
                s, t = graph.edge_ends[gen]
                word = translations[side][gen]
                assert word.host == dec.space
                assert (word.source, word.target) == (s, t)
        for v, ids in inst.c_loops:
            for loop_id in ids:
                word = translations["C"][loop_id]
                assert word.source == word.target == v


def test_loop_expansions_cross_their_edge_once_forwards():
    """The expansion of a loop generator ``g:e``, and of a C loop ``e``, is
    a closed reduced walk that crosses e exactly once, forwards, so a loop
    expanded backwards fails, on a self-loop too."""
    rng = random.Random(83)
    loops = 0
    for _ in range(60):
        dec = random_decomposition(rng)
        _, translations = decomposition_to_instance(dec)
        for side, table in translations.items():
            for gen in table:
                if side != "C" and not gen.startswith("g:"):
                    continue
                edge = gen if side == "C" else gen[2:]
                word = table[gen]
                crossings = [l.sign for l in word.letters if l.edge == edge]
                assert crossings == [1], (side, gen, str(word))
                assert is_nonempty_reduced_loop(word)
                loops += 1
    assert loops > 100


def test_detect_z_retract_on_the_circle():
    cert = detect_z_retract(circle_decomposition())
    assert cert is not None
    assert cert.report.k == 1
    assert len(cert.retract_image) == 2
    assert [l.edge for l in cert.loop_in_space.letters] == ["e1", "e2", "e3", "e4"]
    assert cert.basepoints == ((("a",), "a"), (("b",), "b"))


def test_detect_z_retract_absent_on_contractible_decomposition():
    space = DirectedGraph(["a", "b"], [("x", "a", "b")])
    dec = Decomposition(space, ["a", "b"], ["a", "b"])
    assert detect_z_retract(dec) is None


def test_detect_z_retract_requires_connected_space():
    space = DirectedGraph(["a", "b", "c"], [("x", "a", "b")])
    dec = Decomposition(space, ["a", "b", "c"], ["a", "b", "c"])
    with pytest.raises(Disconnected):
        detect_z_retract(dec)


def test_piece_blocks_decide_connectivity_on_random_decompositions():
    """The space is connected exactly when the blocks of U and V, joined
    through the intersection blocks, form one component; the random spaces
    are often disconnected, and the pieces often are too."""
    rng = random.Random(101)
    seen = {True: 0, False: 0}
    for _ in range(400):
        space = random_graph(rng, max_v=9, max_e=8)
        u, v = set(), set()
        for x in space.edge_ids:
            side = u if rng.random() < 0.5 else v
            side.update(space.edge_ends[x])
        for x in space.vertices:
            roll = rng.random()
            if roll < 0.2 or (roll < 0.6 and x not in v):
                u.add(x)
            if roll >= 0.8 or x not in u:
                v.add(x)
        dec = Decomposition(space, u, v)
        connected = len(components(dec.space)) == 1
        assert _space_connected(dec) == connected, (space, u, v)
        seen[connected] += 1
        if not connected:
            with pytest.raises(Disconnected, match="^the space is not connected$"):
                detect_z_retract(dec)
    assert min(seen.values()) >= 100


def test_detect_z_retract_on_theta_space():
    """Three parallel arcs; two assigned to one piece, one to the other."""
    space = DirectedGraph(
        ["a", "b", "p1", "p2", "p3"],
        [
            ("u1", "a", "p1"),
            ("u2", "p1", "b"),
            ("u3", "a", "p2"),
            ("u4", "p2", "b"),
            ("w1", "a", "p3"),
            ("w2", "p3", "b"),
        ],
    )
    dec = Decomposition(space, ["a", "b", "p1", "p2"], ["a", "b", "p3"])
    cert = detect_z_retract(dec)
    assert cert is not None
    assert cert.report.k == 1
    assert is_nonempty_reduced_loop(cert.loop_in_space)


def _double_loop_pair(instance, prefer=None):
    """The pair a scan of ``prefer``, then every (objs[i], objs[j]) with
    i < j, meets first among distinct objects joined in both sides."""
    objs = instance.objects
    number_a, number_b = block_number(instance.graph_a), block_number(instance.graph_b)
    pairs = [] if prefer is None else [prefer]
    pairs += [(objs[i], objs[j]) for i in range(len(objs)) for j in range(i + 1, len(objs))]
    for a, b in pairs:
        if a != b and a in objs and b in objs:
            if number_a[a] == number_a[b] and number_b[a] == number_b[b]:
                return a, b
    return None


def test_detect_z_retract_takes_the_double_loop_pair():
    rng = random.Random(29)
    found = 0
    for _ in range(120):
        dec = random_many_basepoint_decomposition(rng)
        instance, _ = decomposition_to_instance(dec)
        objs = instance.objects
        for prefer in (None, (rng.choice(objs), rng.choice(objs)), (objs[-1], "zz")):
            want = _double_loop_pair(instance, prefer)
            cert = detect_z_retract(dec, prefer=prefer)
            if want is None:
                assert cert is None
            else:
                # The witness word names both ends of its pair.
                assert cert.retract_image == witness(cert.report, *want)
                found += want != (objs[0], objs[1])
    assert found >= 20


def test_detect_z_retract_certifies_every_joined_basepoint_pair():
    rng = random.Random(37)
    certified = 0
    for _ in range(100):
        dec = random_many_basepoint_decomposition(rng, min_basepoints=3)
        instance, _ = decomposition_to_instance(dec)
        assert len(instance.objects) >= 3
        for a, b in joined_pairs(instance):
            cert = detect_z_retract(dec, prefer=(a, b))
            assert cert.retract_image == witness(cert.report, a, b)
            loop = cert.loop_in_space
            # The checking constructor accepts it as a closed reduced walk at a.
            assert Word(dec.space, a, a, loop.letters) == loop and len(loop) > 0
            codes = [l.sign * (dec.space._eindex[l.edge] + 1) for l in loop.letters]
            assert naive_reduce(codes) == codes
            certified += 1
    assert certified >= 150


def caterpillar_decomposition(m: int) -> Decomposition:
    """A spine of m vertices, each with one leaf; U is everything, V the
    leaves, so the m basepoints share one A block and no B block."""
    spine = [f"s{i:04d}" for i in range(m)]
    leaves = [f"t{i:04d}" for i in range(m)]
    edges = [(f"p{i:04d}", spine[i], spine[i + 1]) for i in range(m - 1)]
    edges += [(f"q{i:04d}", spine[i], leaves[i]) for i in range(m)]
    space = DirectedGraph(spine + leaves, edges)
    return Decomposition(space, space.vertices, leaves)


def test_detect_z_retract_scan_is_linear_in_basepoints():
    """The search for a joined pair runs a fixed number of lines per
    basepoint, counted in ``_joined_pair`` and the code nested in it."""
    code = _joined_pair.__code__
    scan = {code, *(c for c in code.co_consts if isinstance(c, types.CodeType))}
    lines = []

    def local(frame, event, arg):
        if event == "line":
            lines.append(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code in scan else None

    counts = []
    for m in (50, 100, 200):
        dec = caterpillar_decomposition(m)
        lines.clear()
        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            assert detect_z_retract(dec) is None
        finally:
            sys.settrace(previous)
        counts.append(len(lines))
    # Each added basepoint costs the same fixed number of lines.
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]) <= 8 * 100

def test_certificates_on_random_decompositions_are_sound():
    """Whenever a certificate appears, its space loop and its image on W are
    nonempty reduced loops under the naive oracle; k agrees with the BFS
    oracle and never exceeds the space's cycle rank."""
    from support import random_cycle_split

    rng = random.Random(83)
    certified = 0
    samples = [random_decomposition(rng) for _ in range(40)]
    samples += [random_cycle_split(rng) for _ in range(25)]
    for dec in samples:
        inst, _ = decomposition_to_instance(dec)
        k = build_retract(inst).k
        assert k == brute_rank(inst)[2]
        (_, space_rank), = euler_ranks(dec.space)
        assert 0 <= k <= space_rank
        cert = detect_z_retract(dec)
        if cert is None:
            continue
        certified += 1
        assert is_nonempty_reduced_loop(cert.loop_in_space)
        assert is_nonempty_reduced_loop(cert.retract_image)
    assert certified >= 25


def test_pbp_to_decomposition_rejects_satisfying_scenarios():
    sc = PbpScenario(c8_space(), [], ["v4"], "v2", "v6")
    with pytest.raises(PbiHolds):
        pbp_to_decomposition(sc)


def test_pbp_pipeline_on_the_antipodal_cycle():
    sc = PbpScenario(c8_space(), ["v0"], ["v4"], "v2", "v6")
    dec = pbp_to_decomposition(sc)
    assert dec.u_vertices == tuple(f"v{i}" for i in range(1, 8))
    number = block_number(dec.intersection)
    assert number["v2"] != number["v6"]
    prefer = certificate_basepoints_for(dec, sc.a, sc.b)
    assert prefer == ("v1", "v5")
    assert certificate_basepoints_for(dec, "v7", "v3") == ("v5", "v1")
    # A vertex outside the intersection, or outside the space, is unknown;
    # a is looked up before b.
    for a, b, unknown in (("v0", "v2", "v0"), ("v2", "v4", "v4"), ("x", "v0", "x"), (7, "v1", "7")):
        with pytest.raises(UnknownVertex) as raised:
            certificate_basepoints_for(dec, a, b)
        assert str(raised.value) == f"unknown vertex {unknown!r}"
    cert = detect_z_retract(dec, prefer=prefer)
    assert cert is not None
    assert cert.loop_in_space.source == "v1"
    assert len(cert.loop_in_space) == 8
    assert sorted(l.edge for l in cert.loop_in_space.letters) == sorted(
        c8_space().edge_ids
    )


def _pbp_forests(monkeypatch, sc):
    """pbp-check's library calls on ``sc``: the decomposition, its
    certificate, and the forests built on the way, in build order."""
    from freeloop import vankampen

    forests = []
    real = vankampen.spanning_forest

    def recorded(g, tie_break=None):
        forests.append(real(g, tie_break))
        return forests[-1]

    with monkeypatch.context() as patch:
        patch.setattr(vankampen, "spanning_forest", recorded)
        dec = pbp_to_decomposition(sc)
        cert = detect_z_retract(dec, prefer=certificate_basepoints_for(dec, sc.a, sc.b))
    return dec, cert, forests


def _searched_only_to_the_certificate(dec, forests):
    """U's and V's forests were searched, each leaving some vertex unreached
    (depth -1), and the intersection's forest was never navigated."""
    pieces = (dec.piece_u, dec.piece_v, dec.intersection)
    assert len(forests) == 3 and all(f.host is p for f, p in zip(forests, pieces))
    for f in forests[:2]:
        depth = f._nav[2]
        assert 0 in depth and -1 in depth
    assert "_nav" not in vars(forests[2]) and "_adj" not in vars(forests[2])


def test_pbp_pipeline_names_no_piece_ids(monkeypatch):
    """pbp-check's library calls work in piece indexes: U, V and their
    intersection build no id index, U and V list no blocks, and the three
    piece forests never name their edges.  Only the intersection lists its
    blocks, which the certificate prints.  Each piece forest is searched
    only as far as the certificate's tree paths go: on this cycle and this
    ladder neither U's nor V's target is the last vertex its search would
    reach."""
    from freeloop.jsonio import dump_certificate, parse_scenario

    cycle = PbpScenario(c8_space(), ["v0"], ["v5"], "v2", "v7")
    ladder = parse_scenario(ring_ladder(random.Random(5), 16))
    for sc in (cycle, ladder):
        dec, cert, forests = _pbp_forests(monkeypatch, sc)
        payload = dump_certificate(cert)
        pieces = (dec.piece_u, dec.piece_v, dec.intersection)
        assert is_nonempty_reduced_loop(cert.loop_in_space)
        assert [b["component"] for b in payload["basepoints"]] == [
            list(block) for block in brute_components(dec.intersection)
        ]
        _searched_only_to_the_certificate(dec, forests)
        for piece in pieces:
            assert "_vindex" not in vars(piece)
        for piece in pieces[:2]:
            assert piece._components is not None and "blocks" not in vars(piece._components)
        for f in forests:
            assert "tree_edge_ids" not in vars(f)


def test_pbp_certificate_searches_piece_forests_only_to_its_targets(monkeypatch):
    """On a 300-cycle with shuffled ids, as the benchmark builds it, the
    certificate needs one tree path per piece, from the generator root to
    its target: each of U's and V's searches stops there, short of the
    piece's far vertices, and the intersection's forest is never searched."""
    from freeloop.jsonio import parse_scenario

    inputs = perfbench_module("inputs")
    for seed in range(3):
        doc = inputs.cycle_scenario(random.Random(seed), 300)
        dec, cert, forests = _pbp_forests(monkeypatch, parse_scenario(doc))
        assert len(cert.loop_in_space) == 300
        _searched_only_to_the_certificate(dec, forests)


def test_scenario_classes_give_the_decomposition_built_from_ids():
    """The class and shared bits a scenario keeps give ``_complement`` the
    same pieces, space edge indexes and prefix counts as ``Decomposition(
    space, X - D, X - E)``; and on random U and V id lists, the cover errors
    name the first offender of a brute-force per-edge check.  The spaces
    have self-loops and parallel edges."""
    rng = random.Random(61)
    fields = ("piece_u", "piece_v", "intersection", "_u_edges", "_v_edges", "_i_edges")
    fields += ("_u_at", "_v_at", "_i_at")
    compared, raised = 0, {NotACover: 0, EdgeAcrossPieces: 0}
    for _ in range(500):
        space = random_graph(rng)
        vs = list(space.vertices)
        rng.shuffle(vs)
        d = vs[: rng.randint(0, 3)]
        e = vs[len(d) : len(d) + rng.randint(0, 3)]
        rest = vs[len(d) + len(e) :]
        try:
            sc = PbpScenario(space, d, e, *rest[:2]) if len(rest) >= 2 else None
        except DeletedSetsAdjacent:
            sc = None
        if sc is not None:
            dec, _ = _complement(sc)
            ref = Decomposition(space, [x for x in vs if x not in d], [x for x in vs if x not in e])
            for name in fields:
                assert getattr(dec, name) == getattr(ref, name), name
            compared += 1
        u = rng.sample(vs, rng.randint(0, len(vs)))
        v = rng.sample(vs, rng.randint(0, len(vs)))
        if rng.random() < 0.5:
            v += [x for x in vs if x not in u]
        expected = reference_decomposition_error(space, u, v)
        if expected is None:
            Decomposition(space, u, v)
        else:
            _expect_error(expected, lambda: Decomposition(space, u, v))
            raised[expected[0]] += 1
    assert compared > 100 and min(raised.values()) > 50, (compared, raised)


def test_pbp_pipeline_on_random_failing_scenarios():
    """Scenario failures always convert to decompositions with certificates."""
    rng = random.Random(89)
    found = 0
    attempts = 0
    while found < 15 and attempts < 4000:
        attempts += 1
        from support import random_connected_space

        space = random_connected_space(rng, max_v=9, max_extra=6)
        vs = list(space.vertices)
        rng.shuffle(vs)
        d = vs[: rng.randint(0, 2)]
        e = vs[len(d) : len(d) + rng.randint(0, 2)]
        rest = vs[len(d) + len(e) :]
        if len(rest) < 2:
            continue
        a, b = rest[0], rest[1]
        try:
            sc = PbpScenario(space, d, e, a, b)
        except DeletedSetsAdjacent:
            continue
        if not pbi_fails(sc):
            continue
        dec = pbp_to_decomposition(sc)
        cert = detect_z_retract(dec, prefer=certificate_basepoints_for(dec, a, b))
        assert cert is not None
        assert is_nonempty_reduced_loop(cert.loop_in_space)
        found += 1
    assert found >= 5


# -- the vertex-mask paths against graphs built through the public API -----

UNKNOWN_IDS = ("u0", "zz")


@st.composite
def multigraphs(draw):
    """Up to 7 vertices and 14 edges, loops and parallel edges included;
    half of them start from a cycle through every vertex, so deleting
    vertices often does and often does not separate."""
    n = draw(st.integers(min_value=1, max_value=7))
    vs = [f"v{i}" for i in range(n)]
    ends = []
    if draw(st.booleans()):
        ring = draw(st.permutations(vs))
        ends = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    ends += draw(
        st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=14 - len(ends))
    )
    return DirectedGraph(vs, [(f"e{j:02d}", s, t) for j, (s, t) in enumerate(ends)])


def _ids(data, space):
    """A sorted id list drawn from the vertices, sometimes with unknown ids."""
    ids = data.draw(st.lists(st.sampled_from(space.vertices), max_size=space.v_count))
    if data.draw(st.integers(0, 4)) == 0:
        ids += data.draw(st.lists(st.sampled_from(UNKNOWN_IDS), min_size=1))
    return sorted(ids)


def _offending_id(exc) -> str:
    if isinstance(exc, NotACover):
        return str(exc).split("'")[1]
    return getattr(exc, "vertex", None) or exc.edge


def _expect_error(expected, call):
    cls, ident = expected
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert _offending_id(info.value) == ident


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pbi_fails_matches_built_subgraph_reference(data):
    space = data.draw(multigraphs())
    vs = list(data.draw(st.permutations(space.vertices)))
    if len(vs) < 2:
        return
    a, b = vs[0], vs[1]
    rest = vs[2:]
    cut = data.draw(st.integers(0, len(rest)))
    d = rest[:cut][: data.draw(st.integers(0, 3))]
    e = rest[cut:][: data.draw(st.integers(0, 3))]
    try:
        sc = PbpScenario(space, d, e, a, b)
    except DeletedSetsAdjacent:
        return
    assert pbi_fails(sc) == reference_pbi_fails(space, d, e, a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decomposition_pieces_match_built_subgraph_reference(data):
    space = data.draw(multigraphs())
    u, v = set(_ids(data, space)), set(_ids(data, space))
    if data.draw(st.booleans()):
        # Repair toward a valid decomposition: cover every vertex, then pull
        # each straddling edge into U.
        v |= set(space.vertices) - u
        for e in space.edge_ids:
            s, t = space.edge_ends[e]
            if not ({s, t} <= u or {s, t} <= v):
                u |= {s, t}
    expected = reference_decomposition_error(space, u, v)
    if expected is not None:
        _expect_error(expected, lambda: Decomposition(space, u, v))
        return
    dec = Decomposition(space, u, v)
    pieces = (dec.piece_u, dec.piece_v, dec.intersection)
    for got, want in zip(pieces, reference_pieces(space, u, v)):
        assert got.vertices == want.vertices
        assert got.edge_ids == want.edge_ids
        assert got.edge_ends == want.edge_ends
        assert got == want and hash(got) == hash(want)
    assert dec == Decomposition(space, sorted(u, reverse=True), list(v))
    assert hash(dec) == hash(Decomposition(space, list(u), list(v)))
