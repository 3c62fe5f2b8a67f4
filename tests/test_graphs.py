"""Graph layer: construction validation, components, forests, pushouts."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from freeloop.errors import (
    DanglingEndpoint,
    DifferentTrees,
    DuplicateId,
    UnknownVertex,
    VertexSetMismatch,
)
from freeloop.graphs import (
    DirectedGraph,
    components,
    euler_ranks,
    graph_pushout_with_origins,
    spanning_forest,
)
from freeloop.words import Letter, tree_path

from support import (
    block_number,
    brute_components,
    checkers,
    forest_graph,
    is_forest_graph,
    partition_view_faults,
    random_graph,
    reference_single_tag_origins,
)


def cycle_graph(n, prefix="v", eprefix="c"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return DirectedGraph(
        vs, [(f"{eprefix}{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    )


def test_graph_stores_canonical_order_regardless_of_input_order():
    g1 = DirectedGraph(["b", "a"], [("y", "b", "a"), ("x", "a", "b")])
    g2 = DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    assert g1 == g2
    assert g1.vertices == ("a", "b")
    assert g1.edge_ids == ("x", "y")


def test_graph_accepts_integer_labels():
    g = DirectedGraph([2, 10], [(1, 2, 10)])
    assert g.vertices == ("10", "2")
    assert g.edge_ends["1"] == ("2", "10")


def test_edge_ends_is_read_only_and_prints_as_a_dict():
    g = DirectedGraph(["b", "a"], [("x", "a", "b"), ("l", "b", "b")])
    with pytest.raises(TypeError):
        g.edge_ends["x"] = ("b", "a")
    with pytest.raises(TypeError):
        g.edge_ends["new"] = ("a", "a")
    with pytest.raises(TypeError):
        del g.edge_ends["l"]
    assert dict(g.edge_ends) == {"l": ("b", "b"), "x": ("a", "b")}
    assert repr(g) == "DirectedGraph(vertices=('a', 'b'), edges={'l': ('b', 'b'), 'x': ('a', 'b')})"
    same = DirectedGraph(["a", "b"], {"x": ("a", "b"), "l": ("b", "b")})
    assert g == same and hash(g) == hash(same)
    assert g != DirectedGraph(["a", "b"], [("x", "b", "a"), ("l", "b", "b")])


def test_bad_id_has_a_stable_code_and_is_still_a_type_error():
    script = textwrap.dedent(
        """
        from freeloop.errors import BadId, DomainError
        from freeloop.graphs import DirectedGraph, as_id

        for bad in (1.5, None, True, ["a"]):
            for build in (
                lambda: as_id(bad),
                lambda: DirectedGraph(["a", bad]),
                lambda: DirectedGraph(["a"], [("x", "a", bad)]),
            ):
                try:
                    build()
                except TypeError as exc:
                    if isinstance(exc, BadId) and isinstance(exc, DomainError):
                        print(exc.code, exc)
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == [
            f"BadId id must be a string or integer label, got {name}"
            for name in ("float", "NoneType", "bool", "list")
            for _ in range(3)
        ]


def test_graph_rejects_duplicate_vertex():
    with pytest.raises(DuplicateId):
        DirectedGraph(["a", "a"])


def test_graph_rejects_duplicate_edge_id():
    with pytest.raises(DuplicateId):
        DirectedGraph(["a", "b"], [("x", "a", "b"), ("x", "b", "a")])


def test_graph_rejects_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        DirectedGraph(["a"], [("x", "a", "zz")])


def test_graph_allows_loops_and_parallel_edges():
    g = DirectedGraph(["a", "b"], [("l", "a", "a"), ("p", "a", "b"), ("q", "a", "b")])
    assert g.e_count == 3


def test_unknown_edge_and_vertex_accessors():
    g = DirectedGraph(["a"], [])
    with pytest.raises(UnknownVertex):
        g.vertex_index("nope")


def test_components_matches_bfs_oracle():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, max_v=10, max_e=18)
        assert partition_view_faults(g) == []


def test_components_blocks_sorted_by_smallest_member():
    g = DirectedGraph(["a", "b", "c", "d"], [("x", "d", "b")])
    assert components(g).blocks == (("a",), ("b", "d"), ("c",))


def test_spanning_forest_properties_on_random_graphs():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, max_v=9, max_e=16)
        f = spanning_forest(g)
        fg = forest_graph(f)
        assert is_forest_graph(fg)
        assert components(fg).blocks == components(g).blocks
        assert len(f.tree_edge_ids) == g.v_count - len(components(g))


def test_spanning_forest_is_deterministic_and_lex_greedy():
    g = DirectedGraph(["a", "b"], [("z", "a", "b"), ("m", "a", "b"), ("q", "b", "a")])
    assert spanning_forest(g).tree_edge_ids == ("m",)
    assert spanning_forest(g, tie_break=["q"]).tree_edge_ids == ("q",)
    assert spanning_forest(g, tie_break=["absent", "z"]).tree_edge_ids == ("z",)


def test_a_cycle_forest_leaves_out_the_edge_its_scan_reaches_last():
    g = cycle_graph(4)
    for tie, left_out in (
        (None, "c3"),
        (["c3", "c2", "c1", "c0"], "c0"),
        (["c2", "c0"], "c3"),
        (["c3"], "c2"),
    ):
        f = spanning_forest(g, tie)
        assert set(g.edge_ids) - set(f.tree_edge_ids) == {left_out}
        assert is_forest_graph(forest_graph(f))


def test_greedy_forests_are_spanning_forests_under_any_tie_break():
    """Through the public constructor, the forest of any scan order is
    acyclic and has the host's components; the lex forest that
    ``components`` caches equals a scan of its own in index order."""
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, max_v=9, max_e=16)
        tie = list(g.edge_ids)
        rng.shuffle(tie)
        f = spanning_forest(g, tie)
        assert f.tree_edge_ids == tuple(sorted(set(f.tree_edge_ids)))
        fg = forest_graph(f)
        assert is_forest_graph(fg)
        assert components(fg).blocks == components(g).blocks
        assert spanning_forest(g) == spanning_forest(g, [])


def test_forests_compare_and_hash_by_their_edges():
    """A cached-scan forest and a tie-break forest that accept the same
    edges compare equal and hash alike, also on two distinct but equal
    hosts; forests one edge apart, or on hosts that differ, do not."""
    edges = [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")]
    g = DirectedGraph(["a", "b", "c"], edges)
    twin = DirectedGraph(["c", "b", "a"], edges[::-1])
    assert twin is not g and twin == g
    lex = spanning_forest(g)
    assert lex.tree_edge_ids == ("x", "y")
    for f in (spanning_forest(g, ["y"]), spanning_forest(twin), spanning_forest(twin, ["y", "x"])):
        assert f == lex and hash(f) == hash(lex)
    for f in (spanning_forest(g, ["z"]), spanning_forest(twin, ["y", "z"])):
        assert f != lex and len(set(f.tree_edge_ids) ^ set(lex.tree_edge_ids)) == 2
    other = DirectedGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "c", "b"), ("z", "c", "a")])
    assert spanning_forest(other).tree_edge_ids == ("x", "y") and spanning_forest(other) != lex


def test_tree_path_walks_the_unique_tree_path():
    g = DirectedGraph(
        ["a", "b", "c", "d"],
        [("x", "a", "b"), ("y", "c", "b"), ("z", "c", "d")],
    )
    f = spanning_forest(g)
    assert f.tree_edge_ids == ("x", "y", "z")
    assert tree_path(f, "a", "d").letters == (Letter("x", 1), Letter("y", -1), Letter("z", 1))
    assert tree_path(f, "d", "a").letters == (Letter("z", -1), Letter("y", 1), Letter("x", -1))
    assert tree_path(f, "a", "a").letters == ()


def _checker_path(f, u, v):
    """The checker's tree path from u to v in ``f``, as (edge, sign) pairs:
    a BFS of its own, from each tree's first vertex in id order."""
    host = f.host
    return checkers.TreePaths(host.vertices, f.tree_edge_ids, host.edge_ends).path(u, v)


def test_tree_path_rejects_cross_tree_pairs():
    g = DirectedGraph(["a", "b", "c"], [("x", "a", "b")])
    f = spanning_forest(g)
    with pytest.raises(DifferentTrees):
        tree_path(f, "a", "c")
    # Trees a - b - c (x: a -> b, y: c -> b) and d - e, and the lone f.
    # Pairs at unequal and equal depths, a root with a non-root, and two
    # roots, each asked after queries that leave both trees unsearched, one
    # searched, both searched, or a tree searched only in part.
    g = DirectedGraph(
        ["a", "b", "c", "d", "e", "f"],
        [("x", "a", "b"), ("y", "c", "b"), ("z", "e", "d")],
    )
    before = (
        (),
        (("a", "a"),),
        (("e", "d"),),
        (("b", "b"), ("d", "d"), ("f", "f")),
        tuple((v, v) for v in g.vertices),
        (("a", "b"),),  # rooted at a, stops before c
        (("c", "b"), ("e", "e")),  # rooted at c, stops before a; d unsearched
    )
    pairs = (("c", "e"), ("c", "d"), ("b", "e"), ("a", "e"), ("c", "f"), ("a", "d"), ("d", "f"))
    in_tree = (("c", "a"), ("a", "c"), ("b", "a"), ("c", "b"), ("d", "e"), ("e", "e"), ("f", "f"))
    partial = 0
    for tie in (None, ["z", "y", "x"]):
        for queries in before:
            for u, v in pairs:
                for s, t in ((u, v), (v, u)):
                    f = spanning_forest(g, tie)
                    for q in queries:
                        tree_path(f, *q)
                    partial += -1 in f._nav[2] and any(d >= 0 for d in f._nav[2])
                    with pytest.raises(DifferentTrees) as raised:
                        tree_path(f, s, t)
                    assert (raised.value.u, raised.value.v) == (s, t)
                    assert str(raised.value) == f"vertices {s!r} and {t!r} lie in different trees"
            f = spanning_forest(g, tie)
            for q in queries:
                tree_path(f, *q)
            for s, t in in_tree:
                steps = [(l.edge, l.sign) for l in tree_path(f, s, t).letters]
                assert steps == _checker_path(f, s, t)
        assert tree_path(f, "c", "a").letters == (Letter("y", 1), Letter("x", -1))
    assert partial > 0


def test_tree_path_endpoints_on_random_forests():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, max_v=8, max_e=12)
        f = spanning_forest(g)
        number = block_number(g)
        for u in g.vertices:
            for v in g.vertices:
                if number[u] != number[v]:
                    continue
                steps = [(l.edge, l.sign) for l in tree_path(f, u, v).letters]
                cur = u
                for e, sign in steps:
                    assert e in f.tree_edge_ids
                    s, t = g.edge_ends[e]
                    if sign == 1:
                        assert s == cur
                        cur = t
                    else:
                        assert t == cur
                        cur = s
                assert cur == v
                assert all(
                    not (e1 == e2 and s1 == -s2)
                    for (e1, s1), (e2, s2) in zip(steps, steps[1:])
                )


def test_tree_searches_are_rooted_at_the_first_vertex_queried_on_sparse_forests():
    """Forests of many trees and isolated vertices, ids shuffled against the
    shape, queried in random order: each tree's search is rooted at the
    first vertex a query names in it, and once every vertex has been named
    the parent, step and depth tables are the checker's BFS from those
    roots.  The sort-grouped ``components`` agrees with BFS."""
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 60)
        vs = [f"v{x:03d}" for x in rng.sample(range(1000), n)]
        edges = []
        for i in range(1, n):
            if rng.random() < 0.6:
                s, t = vs[i], vs[rng.randrange(i)]
                edges.append((f"e{len(edges):03d}", *((s, t) if rng.random() < 0.5 else (t, s))))
        g = DirectedGraph(vs, edges)
        blocks = brute_components(g)
        assert components(g).blocks == blocks
        tree = {v: k for k, block in enumerate(blocks) for v in block}
        for f in (spanning_forest(g), spanning_forest(g, g.edge_ids[::-1])):
            parent, up, depth = f._nav
            assert set(depth) == {-1}
            roots: dict[int, str] = {}

            def root(i):
                while depth[i]:
                    i = parent[i]
                return g.vertices[i]

            queries = [tuple(rng.sample(vs, 2)) for _ in range(n // 4)]
            for s, t in queries + [(v, v) for v in rng.sample(vs, n)]:
                roots.setdefault(tree[s], s)
                roots.setdefault(tree[t], t)
                i, j = g.vertex_index(s), g.vertex_index(t)
                if tree[s] == tree[t]:
                    f._path_codes(i, j)
                else:
                    with pytest.raises(DifferentTrees):
                        f._path_codes(i, j)
                assert depth[i] >= 0 and depth[j] >= 0
                assert (root(i), root(j)) == (roots[tree[s]], roots[tree[t]])
            # The checker searches each tree from its first vertex listed.
            bfs = checkers.TreePaths([*roots.values(), *vs], f.tree_edge_ids, g.edge_ends)
            for i, v in enumerate(g.vertices):
                assert depth[i] == bfs.depth[v]
                if depth[i]:
                    e, sign, p = bfs.up[v]
                    assert (parent[i], up[i]) == (g.vertex_index(p), sign * (g._eindex[e] + 1))
                else:
                    assert (parent[i], up[i]) == (i, 0)


def test_pushout_disjointly_unions_edges_over_shared_vertices():
    x = DirectedGraph(["a", "b"], [("p", "a", "b")])
    y = DirectedGraph(["a", "b"], [("q", "b", "a")])
    w, _ = graph_pushout_with_origins(x, y, ["a", "b"])
    assert w.vertices == ("a", "b")
    assert w.edge_ids == ("p", "q")


def test_pushout_prefixes_only_colliding_ids():
    x = DirectedGraph(["a", "b"], [("p", "a", "b"), ("r", "a", "a")])
    y = DirectedGraph(["a", "b"], [("p", "b", "a"), ("s", "b", "b")])
    w, origins = graph_pushout_with_origins(x, y, ["a", "b"])
    assert set(w.edge_ids) == {"A:p", "B:p", "r", "s"}
    assert origins["A:p"] == ("A", "p")
    assert origins["B:p"] == ("B", "p")
    assert origins["r"] == ("A", "r")
    assert origins["s"] == ("B", "s")


def test_pushout_accepts_forests_and_counts_match():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 7)
        vs = [f"v{i}" for i in range(n)]
        x = DirectedGraph(
            vs, [(f"a{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(0, 9))]
        )
        y = DirectedGraph(
            vs, [(f"b{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(0, 9))]
        )
        fx, fy = spanning_forest(x), spanning_forest(y)
        w, _ = graph_pushout_with_origins(fx, fy, vs)
        assert w.v_count == n
        assert w.e_count == len(fx.tree_edge_ids) + len(fy.tree_edge_ids)


TAG_HEAVY_IDS = ("x", "y", "A:x", "B:x", "A:A:x", "A:B:x", "B:A:x", "B:B:x")
side_ids = st.lists(st.sampled_from(TAG_HEAVY_IDS), unique=True)


@settings(max_examples=400, deadline=None)
@given(ids_x=side_ids, ids_y=side_ids, data=st.data())
def test_pushout_naming_is_injective_on_tag_heavy_ids(ids_x, ids_y, data):
    vs = ["a", "b"]
    ends = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    x = DirectedGraph(vs, {e: data.draw(ends) for e in ids_x})
    y = DirectedGraph(vs, {e: data.draw(ends) for e in ids_y})
    w, origins = graph_pushout_with_origins(x, y, vs)
    assert w.e_count == len(ids_x) + len(ids_y)
    assert set(origins) == set(w.edge_ids)
    assert sorted(origins.values()) == sorted(
        [("A", e) for e in ids_x] + [("B", e) for e in ids_y]
    )
    for name, (side, e) in origins.items():
        assert w.edge_ends[name] == (x if side == "A" else y).edge_ends[e]
    single_tag = reference_single_tag_origins(ids_x, ids_y)
    if single_tag is not None:
        assert origins == single_tag


def test_pushout_rejects_vertex_set_mismatch():
    x = DirectedGraph(["a"], [])
    y = DirectedGraph(["a", "b"], [])
    with pytest.raises(VertexSetMismatch):
        graph_pushout_with_origins(x, y, ["a", "b"])
    with pytest.raises(VertexSetMismatch):
        graph_pushout_with_origins(y, x, ["a"])


def test_euler_ranks_on_known_shapes():
    assert euler_ranks(cycle_graph(5)) == [(tuple(f"v{i}" for i in range(5)), 1)]
    path = DirectedGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    assert euler_ranks(path) == [(("a", "b", "c"), 0)]
    theta = DirectedGraph(
        ["a", "b"], [("p", "a", "b"), ("q", "a", "b"), ("r", "a", "b")]
    )
    assert euler_ranks(theta) == [(("a", "b"), 2)]


def test_euler_ranks_sum_is_e_minus_v_plus_components():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, max_v=9, max_e=16)
        ranks = euler_ranks(g)
        assert sum(r for _, r in ranks) == g.e_count - g.v_count + len(components(g))
