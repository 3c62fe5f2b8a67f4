"""One validation boundary for graphs: input is checked once, where it
enters, and the graphs freeloop derives from index arrays are exactly what
the validating ``DirectedGraph(...)`` builds from the same data."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from freeloop import cli
from freeloop.errors import BadId, DuplicateId
from freeloop.graphs import (
    DirectedGraph,
    Forest,
    components,
    graph_pushout_with_origins,
    spanning_forest,
)
from freeloop.jsonio import dump_instance, parse_graph
from freeloop.retract import PushoutInstance
from freeloop.vankampen import Decomposition, PbpScenario, _generators

from support import random_connected_instance, reference_parse_graph

# Ids whose side tags collide with each other, plus ints and their str forms.
TAG_HEAVY = ["x", "y", "A:x", "B:x", "A:A:x", "B:B:x", "A:y", "B:y", "A:", "0", "1", ""]
IDS = st.one_of(st.sampled_from(TAG_HEAVY), st.integers(0, 12), st.text(max_size=3))


def assert_same_graph(got: DirectedGraph, want: DirectedGraph) -> None:
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert (got.vertices, got.edge_ids) == (want.vertices, want.edge_ids)
    assert dict(got.edge_ends) == dict(want.edge_ends)
    assert (got._vindex, got._eindex) == (want._vindex, want._eindex)
    assert (got._src_idx, got._tgt_idx) == (want._src_idx, want._tgt_idx)
    assert all(type(x) is str for x in got.vertices + got.edge_ids)


def draw_vertices(data, lo=1, hi=7) -> list:
    """Distinct ids, some ints, none equal as strings."""
    return data.draw(st.lists(IDS, min_size=lo, max_size=hi, unique_by=str))


def draw_edges(data, vertices, max_e=10) -> list[tuple]:
    """Edges over ``vertices`` with loops and parallel edges; an endpoint that
    is an int may be given as its str form instead."""
    ids = data.draw(st.lists(IDS, max_size=max_e, unique_by=str))
    spelled = st.sampled_from(vertices).flatmap(lambda v: st.sampled_from([v, str(v)]))
    return [(e, data.draw(spelled), data.draw(spelled)) for e in ids]


def draw_graph(data, vertices=None) -> DirectedGraph:
    vertices = draw_vertices(data) if vertices is None else vertices
    return DirectedGraph(vertices, draw_edges(data, vertices))


def graph_doc(vertices, edges) -> dict:
    return {"vertices": vertices, "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in edges]}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_graph_is_the_public_build(data):
    vertices = draw_vertices(data)
    edges = draw_edges(data, vertices)
    assert_same_graph(parse_graph(graph_doc(vertices, edges)), DirectedGraph(vertices, edges))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_induced_subgraph_is_the_public_build(data):
    space = draw_graph(data)
    keep = set(data.draw(st.lists(st.sampled_from(space.vertices), unique=True)))
    want = DirectedGraph(
        keep, [(e, s, t) for e, (s, t) in space.edge_ends.items() if s in keep and t in keep]
    )
    # The second piece is the whole space, so no edge straddles the pieces.
    dec = Decomposition(space, keep, space.vertices)
    assert_same_graph(dec.piece_u, want)
    assert_same_graph(dec.intersection, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pushout_is_the_public_build(data):
    vertices = draw_vertices(data)
    hosts = {side: draw_graph(data, vertices) for side in "AB"}
    inputs = {side: spanning_forest(g) if data.draw(st.booleans()) else g for side, g in hosts.items()}
    w, origins = graph_pushout_with_origins(inputs["A"], inputs["B"], vertices)
    assert sorted(origins.values()) == sorted(
        (side, e)
        for side, z in inputs.items()
        for e in (z.tree_edge_ids if isinstance(z, Forest) else z.edge_ids)
    )
    want = DirectedGraph(
        vertices, [(out, *hosts[side].edge_ends[e]) for out, (side, e) in origins.items()]
    )
    assert_same_graph(w, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generator_graph_is_canonical(data):
    piece = draw_graph(data)
    points = set(data.draw(st.lists(st.sampled_from(piece.vertices), min_size=1)))
    points |= {block[0] for block in components(piece).blocks if not points & set(block)}
    at = sorted(map(piece.vertex_index, points))
    graph, _ = _generators(piece, "U", at, None, piece, range(piece.e_count))
    assert_same_graph(graph, DirectedGraph(graph.vertices, dict(graph.edge_ends)))


# -- error order -------------------------------------------------------------

BAD_VALUES = [None, True, False, 1.5, [], {}, ["a"]]


def _malformed_entry(data, vertices, used):
    """One edge entry: valid (some with int ids, some reusing an id or naming
    an undeclared vertex) or malformed in one of the ways a document can be."""
    kind = data.draw(
        st.sampled_from(
            ["good", "int", "duplicate", "dangling", "missing", "bad value", "not an object"]
        )
    )
    entry = {"id": f"z{len(used)}", "src": data.draw(st.sampled_from(vertices)),
             "tgt": data.draw(st.sampled_from(vertices))}
    if kind == "int":
        entry["id"] = 1000 + len(used)
    elif kind == "duplicate" and used:
        entry["id"] = data.draw(st.sampled_from(used))
    elif kind == "dangling":
        entry[data.draw(st.sampled_from(["src", "tgt"]))] = "nowhere"
    elif kind == "missing":
        del entry[data.draw(st.sampled_from(["id", "src", "tgt"]))]
    elif kind == "bad value":
        entry[data.draw(st.sampled_from(["id", "src", "tgt"]))] = data.draw(
            st.sampled_from(BAD_VALUES)
        )
    elif kind == "not an object":
        return data.draw(st.sampled_from(BAD_VALUES[:4] + ["x", 3, [["id", "x"]]]))
    used.append(entry.get("id"))
    return entry


def _outcome(parse, doc):
    try:
        return parse(doc)
    except Exception as exc:  # the class and text are what is compared
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parse_graph_fails_as_the_per_field_walk_does(data):
    vertices = [f"v{i}" for i in range(data.draw(st.integers(1, 4)))]
    good = data.draw(st.integers(0, 4))
    used: list = []
    edges = []
    for j in range(good):
        edges.append({"id": f"g{j}", "src": data.draw(st.sampled_from(vertices)),
                      "tgt": data.draw(st.sampled_from(vertices))})
        used.append(f"g{j}")
    edges += [_malformed_entry(data, vertices, used) for _ in range(data.draw(st.integers(0, 3)))]
    doc_vertices = list(vertices)
    vertex_fault = data.draw(st.sampled_from(["none", "duplicate", "int twin", "bad", "none"]))
    if vertex_fault == "duplicate":
        doc_vertices.append(vertices[0])
    elif vertex_fault == "int twin":
        doc_vertices += [7, "7"]
    elif vertex_fault == "bad":
        doc_vertices.insert(0, data.draw(st.sampled_from(BAD_VALUES)))
    doc = {"vertices": doc_vertices, "edges": edges}
    shape = data.draw(st.sampled_from(["ok", "ok", "ok", "no vertices", "no edges",
                                       "edges object", "vertices object", "not an object"]))
    if shape == "no vertices":
        del doc["vertices"]
    elif shape == "no edges":
        del doc["edges"]
    elif shape == "edges object":
        doc["edges"] = {"id": "x"}
    elif shape == "vertices object":
        doc["vertices"] = {"v0": 1}
    elif shape == "not an object":
        doc = [doc]
    got, want = _outcome(parse_graph, doc), _outcome(reference_parse_graph, doc)
    if isinstance(want, DirectedGraph):
        assert_same_graph(got, want)
    else:
        assert got == want


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"id": True, "src": "a", "tgt": "a"}, 'edge #2 "id" must be a string or integer id'),
        ({"id": "z", "src": "a"}, "edge #2 is missing required field 'tgt'"),
        (["z", "a", "a"], "edge #2 must be a JSON object, got list"),
        ({"id": "z", "src": "a", "tgt": 1.5}, 'edge #2 "tgt" must be a string or integer id'),
    ],
)
def test_first_bad_edge_after_good_ones_is_named(bad, message):
    good = [{"id": "p", "src": "a", "tgt": "b"}, {"id": "q", "src": "b", "tgt": "a"}]
    doc = {"vertices": ["a", "b"], "edges": good + [bad, {"id": None}]}
    assert _outcome(parse_graph, doc) == _outcome(reference_parse_graph, doc)
    assert _outcome(parse_graph, doc)[1] == message


# -- the CLI builds no graph through the validating constructor ----------------


# Tag-heavy W edge names, an int object id spelled both ways, loops,
# parallel edges and C loops.
INSTANCE = {
    "objects": ["a", "b", "c", 3],
    "graph_a": graph_doc(
        ["a", "b", "c", 3], [("x", "a", "b"), ("A:x", "b", "c"), ("y", "c", 3), ("z", "a", "a")]
    ),
    "graph_b": graph_doc(
        ["a", "b", "c", "3"], [("x", "b", "c"), ("B:x", "3", "a"), ("w", "a", "b"), (7, "a", "b")]
    ),
    "c_loops": {"a": ["l1"], "3": ["l2", 9]},
}


def _scenario_doc(n=12) -> dict:
    names = [f"v{i}" for i in range(n)]
    return {
        "space": {
            "vertices": names,
            "edges": [{"id": f"c{i}", "src": names[i], "tgt": names[(i + 1) % n]} for i in range(n)],
        },
        "d": [names[0]],
        "e": [names[n // 2]],
        "a": names[n // 4],
        "b": names[3 * n // 4],
    }


@pytest.mark.parametrize(
    "command, doc",
    [
        ("retract", INSTANCE),
        ("retract", dump_instance(random_connected_instance(random.Random(5), 12, 24))),
        ("pbp-check", _scenario_doc()),
    ],
    ids=["tag-heavy", "random", "cycle"],
)
def test_cli_pipelines_never_run_the_validating_constructor(tmp_path, monkeypatch, capsys, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    original = DirectedGraph.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DirectedGraph, "__init__", counted)
    DirectedGraph(["a"])
    assert len(calls) == 1
    calls.clear()
    for output in ("text", "json"):
        assert cli.main([command, str(path), "--output", output]) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""
    assert calls == []


def test_a_bare_string_is_not_a_collection_of_ids():
    """A ``str``, ``bytes`` or ``bytearray`` where a collection of ids
    belongs is refused with ``BadId``, not split into one id per character
    or per byte value (bytes iterate as ints, which are valid labels)."""
    g = DirectedGraph(["a", "b", "d", "e"], [("x", "a", "b")])
    for kind in (str, bytes, bytearray):
        ids = kind if kind is str else (lambda text: kind(text, "ascii"))
        builds = {
            "graph vertices": lambda: DirectedGraph(ids("ab")),
            "instance objects": lambda: PushoutInstance(ids("abde"), g, g),
            "C loops of an object": lambda: PushoutInstance(
                g.vertices, g, g, c_loops={"a": ids("l12")}
            ),
            "piece u": lambda: Decomposition(g, ids("abde"), g.vertices),
            "piece v": lambda: Decomposition(g, g.vertices, ids("abde")),
            "deleted set D": lambda: PbpScenario(g, ids("d"), ["e"], "a", "b"),
            "deleted set E": lambda: PbpScenario(g, ["d"], ids("e"), "a", "b"),
            "tie-break": lambda: spanning_forest(g, ids("x")),
            "shared vertices": lambda: graph_pushout_with_origins(g, g, ids("abde")),
        }
        for where, build in builds.items():
            with pytest.raises(BadId, match="expected a collection of ids"):
                build()
                pytest.fail(f"{where}: a {kind.__name__} was split into ids")


def test_a_non_collection_is_refused_where_ids_belong():
    """Anything ``iter`` refuses, where a collection of ids belongs, is a
    ``BadId`` that names its type, as a bare ``str`` is."""
    g = DirectedGraph(["a", "b"], [("x", "a", "b")])
    builds = {
        "graph vertices": (lambda: DirectedGraph(None), "NoneType"),
        "instance objects": (lambda: PushoutInstance(5, g, g), "int"),
        "C loops of an object": (
            lambda: PushoutInstance(g.vertices, g, g, {"a": None}),
            "NoneType",
        ),
        "piece u": (lambda: Decomposition(g, None, ["a"]), "NoneType"),
        "deleted set D": (lambda: PbpScenario(g, None, [], "a", "b"), "NoneType"),
        "tie-break": (lambda: spanning_forest(g, 5), "int"),
        "shared vertices": (lambda: graph_pushout_with_origins(g, g, None), "NoneType"),
    }
    for where, (build, kind) in builds.items():
        with pytest.raises(BadId) as raised:
            build()
        assert str(raised.value) == f"expected a collection of ids, got {kind}", where


ENTRY = "edge #%d must be an (id, source, target) tuple or list,"
PAIR = "edge %r must map to a (source, target) tuple or list,"


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["b", "c"], ["abc"], f"{ENTRY % 0} got 'abc'"),
        (
            ["id", "src", "tgt"],
            [{"id": "x", "src": "a", "tgt": "b"}],
            f"{ENTRY % 0} got {{'id': 'x', 'src': 'a', 'tgt': 'b'}}",
        ),
        (["a"], [("x", "a", "a"), ("y", "a")], f"{ENTRY % 1} got ('y', 'a')"),
        (["a"], [["x", "a", "a", "a"]], f"{ENTRY % 0} got ['x', 'a', 'a', 'a']"),
        (["a"], [None], f"{ENTRY % 0} got None"),
        (["a", "b"], {"x": "ab"}, f"{PAIR % 'x'} got 'ab'"),
        (["a"], {1: ("a",)}, f"{PAIR % 1} got ('a',)"),
        (["a"], {"x": {"a": "a"}}, f"{PAIR % 'x'} got {{'a': 'a'}}"),
    ],
)
def test_graph_refuses_malformed_edge_entries(vertices, edges, message):
    """An edge entry that is no (id, source, target) tuple or list, or in
    the mapping form no (source, target) one, is a ``BadId`` naming it by
    position or by id; it is not unpacked as characters or keys.  A
    duplicate vertex is still reported first."""
    with pytest.raises(BadId) as raised:
        DirectedGraph(vertices, edges)
    assert str(raised.value) == message
    with pytest.raises(DuplicateId):
        DirectedGraph([*vertices, vertices[0]], edges)


@pytest.mark.parametrize(
    "edges, message",
    [
        (None, "expected a collection of edges, got NoneType"),
        (5, "expected a collection of edges, got int"),
        ("xaa", "expected a collection of edges, got the str 'xaa'"),
    ],
)
def test_graph_refuses_edges_that_are_no_collection(edges, message):
    """Edges given as no collection are refused up front, before any vertex
    check."""
    for vertices in (["a"], ["a", "a"]):
        with pytest.raises(BadId) as raised:
            DirectedGraph(vertices, edges)
        assert str(raised.value) == message


def test_graph_takes_edge_entries_as_tuples_or_lists():
    want = DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "b")])
    assert DirectedGraph(["a", "b"], [["x", "a", "b"], ("y", "b", "b")]) == want
    assert DirectedGraph(["a", "b"], {"x": ["a", "b"], "y": ("b", "b")}) == want
