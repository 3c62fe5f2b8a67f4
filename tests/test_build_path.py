"""One build path per word type: what freeloop derives is exactly what the
checking constructors would accept, and deriving never runs them."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from freeloop import cli
from freeloop.errors import EmptyIntersection, PieceMissesIntersection
from freeloop.graphs import DirectedGraph, components, spanning_forest
from freeloop.retract import (
    GLetter,
    GWord,
    PushoutInstance,
    build_retract,
    include_f,
    rho,
    witness,
)
from freeloop.vankampen import (
    Decomposition,
    decomposition_to_instance,
    detect_z_retract,
)
from freeloop.words import Word, compose, invert, reduce, tree_path

from support import (
    circle_instance,
    is_nonempty_reduced_loop,
    joined_pairs,
    long_run_gword,
    random_connected_instance,
    signed_adjacency,
    with_c_loop_everywhere,
)


def assert_checked(w: Word) -> None:
    assert Word(w.host, w.source, w.target, w.letters) == w


def assert_checked_g(w: GWord) -> None:
    assert GWord(w.instance, w.source, w.target, w.letters) == w


def multigraph(data, vertices, prefix, max_e=8) -> DirectedGraph:
    """Random edges over ``vertices``: loops and parallel edges allowed."""
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    m = data.draw(st.integers(0, max_e))
    return DirectedGraph(vertices, [(f"{prefix}{j}", *data.draw(ends)) for j in range(m)])


def walk(data, moves, source, max_len=8):
    """A composable, possibly backtracking walk from ``source``; ``moves``
    maps a vertex to its (letter, next vertex) pairs."""
    cur, letters = source, []
    for _ in range(data.draw(st.integers(0, max_len))):
        if not moves[cur]:
            break
        letter, cur = data.draw(st.sampled_from(moves[cur]))
        letters.append(letter)
    return letters, cur


def vertices(data, lo=1, hi=5):
    return [f"v{i}" for i in range(data.draw(st.integers(lo, hi)))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_word_operations_build_what_the_constructor_accepts(data):
    g = multigraph(data, vertices(data), "e")
    adj = signed_adjacency(g)
    source = data.draw(st.sampled_from(g.vertices))
    raw, end = walk(data, adj, source)
    w1 = reduce(g, source, raw)
    raw, _ = walk(data, adj, end)
    w2 = reduce(g, end, raw)
    f = spanning_forest(g)
    v = data.draw(st.sampled_from(next(b for b in components(g).blocks if source in b)))
    loop = compose(w1, reduce(g, end, list(tree_path(f, end, source).letters)))
    for w in (w1, w2, compose(w1, w2), invert(w1), tree_path(f, source, v), loop):
        assert_checked(w)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_retract_operations_build_what_the_constructors_accept(data):
    objs = vertices(data)
    graph_a, graph_b = multigraph(data, objs, "a"), multigraph(data, objs, "b")
    n_loops = data.draw(st.integers(0, 3))
    c_loops = {data.draw(st.sampled_from(objs)): [f"c{j}"] for j in range(n_loops)}
    inst = PushoutInstance(objs, graph_a, graph_b, c_loops)
    moves = {v: [] for v in objs}
    for side, g in (("A", graph_a), ("B", graph_b)):
        for e in g.edge_ids:
            s, t = g.edge_ends[e]
            moves[s].append((GLetter(side, e, 1), t))
            moves[t].append((GLetter(side, e, -1), s))
    for v, ids in inst.c_loops:
        moves[v] += [(GLetter("C", e, sign), v) for e in ids for sign in (1, -1)]
    source = data.draw(st.sampled_from(objs))
    letters, end = walk(data, moves, source, max_len=12)
    gword = GWord(inst, source, end, letters)
    report = build_retract(inst)
    image = rho(report, gword)
    back = include_f(report, image)
    assert_checked(image)
    assert_checked_g(back)
    pairs = joined_pairs(inst)
    if pairs:
        a, b = data.draw(st.sampled_from(pairs))
        assert_checked(witness(report, a, b))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vankampen_words_are_what_the_constructor_accepts(data):
    vs = vertices(data, lo=2, hi=6)
    spine = [(f"t{i}", vs[data.draw(st.integers(0, i - 1))], vs[i]) for i in range(1, len(vs))]
    extra = multigraph(data, vs, "x", max_e=6)
    space = DirectedGraph(vs, spine + [(e, *extra.edge_ends[e]) for e in extra.edge_ids])
    u, v = set(), set()
    for e in space.edge_ids:
        (u if data.draw(st.booleans()) else v).update(space.edge_ends[e])
    for x in vs:
        if x not in u and x not in v:
            (u if data.draw(st.booleans()) else v).add(x)
    assume(u and v)
    dec = Decomposition(space, u, v)
    try:
        inst, translations = decomposition_to_instance(dec)
    except (EmptyIntersection, PieceMissesIntersection):
        assume(False)
    for table in translations.values():
        for w in table.values():
            assert w.host is dec.space
            assert_checked(w)
    cert = detect_z_retract(dec)
    if cert is not None:
        assert_checked(cert.loop_in_space)
        assert_checked(cert.retract_image)


def _cycle_scenario(n: int) -> dict:
    vs = [f"v{i:02d}" for i in range(n)]
    edges = [{"id": f"c{i:02d}", "src": vs[i], "tgt": vs[(i + 1) % n]} for i in range(n)]
    return {
        "space": {"vertices": vs, "edges": edges},
        "d": [vs[0]],
        "e": [vs[n // 2]],
        "a": vs[n // 4],
        "b": vs[3 * n // 4],
    }


def test_derived_words_never_run_the_checking_constructors(tmp_path, monkeypatch, capsys):
    inst = with_c_loop_everywhere(random_connected_instance(random.Random(5)))
    report = build_retract(inst)
    gword = long_run_gword(random.Random(6), inst, 200)
    calls = []
    for cls in (Word, GWord):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    image = rho(report, gword)
    include_f(report, image)
    assert len(image) > 0 and calls == []
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_cycle_scenario(16)), encoding="utf-8")
    for output in ("text", "json"):
        assert cli.main(["pbp-check", str(path), "--output", output]) == 0
    assert "PBI fails" in capsys.readouterr().out
    assert calls == []


def _witness_cases():
    yield pytest.param(circle_instance(), ("a", "b"), "alpha beta^-1", id="circle")
    expected = {
        3: [(("o00", "o01"), "a04^-1 b02 t01^-1"), (("o00", "o02"), "a05^-1 t01^-1")],
        5: [(("o00", "o01"), "t03^-1 t02 b02"), (("o00", "o04"), "t03^-1 t01 b01^-1 b02")],
        8: [(("o00", "o01"), "a00 a03^-1 b02"), (("o00", "o02"), "a00 a06^-1 b01^-1")],
        13: [(("o00", "o02"), "a00^-1 t04 b00 t01"), (("o00", "o03"), "a00^-1 t02^-1 t01")],
    }
    for seed, cases in expected.items():
        inst = random_connected_instance(random.Random(seed), max_objects=8, max_side_edges=12)
        for pair, text in cases:
            yield pytest.param(inst, pair, text, id=f"seed{seed}-{pair[1]}")


@pytest.mark.parametrize("inst, pair, text", list(_witness_cases()))
def test_certified_witness_is_a_nonempty_reduced_loop(inst, pair, text):
    report = build_retract(inst)
    loop = witness(report, *pair)
    assert_checked(loop)
    assert loop.host is report.w
    assert (loop.source, loop.target) == (pair[0], pair[0])
    assert is_nonempty_reduced_loop(loop)
    assert str(loop) == text
