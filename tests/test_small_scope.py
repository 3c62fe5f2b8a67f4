"""Small-scope sweep: every connected simple graph on 1-5 vertices, up to
isomorphism, with every two-piece cover and every separation scenario;
every connected directed multigraph on 1-4 vertices with at most one edge
more than vertices, with every two-piece cover under two tie-breaks and
every separation scenario; and every connected simple graph on 6
vertices, with every cover whose intersection has at least 3 components,
where ranks k >= 2 live.

Most defects show up on some small input (the small-scope hypothesis), so
the sweep checks the certificate pipeline exhaustively there instead of on
random samples.  The expected results come from the BFS oracles in
``support`` and the benchmark's checker, which also checks that every
certificate's loops are walks.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, permutations, product

import pytest

from freeloop.errors import EmptyIntersection, PieceMissesIntersection
from freeloop.graphs import DirectedGraph
from freeloop.retract import witness
from freeloop.vankampen import (
    Decomposition,
    PbpScenario,
    _space_connected,
    certificate_basepoints_for,
    detect_z_retract,
    pbi_fails,
    pbp_to_decomposition,
)

from support import (
    brute_components,
    brute_rank,
    checkers,
    is_nonempty_reduced_loop,
    partition_view_faults,
    reference_decomposition_error,
    reference_induced,
    reference_pbi_fails,
)

MAX_VERTICES = 5
MAX_MULTI_VERTICES = 4


def _space(n: int, edges) -> DirectedGraph:
    vertices = [f"v{i}" for i in range(n)]
    return DirectedGraph(vertices, [(f"e{i}{j}", f"v{i}", f"v{j}") for i, j in edges])


@functools.cache
def connected_graphs() -> tuple[DirectedGraph, ...]:
    """One connected simple graph per isomorphism class on 1..MAX_VERTICES
    vertices, each edge directed from its smaller vertex; the class is
    named by its least edge list over all vertex relabellings."""
    out = []
    for n in range(1, MAX_VERTICES + 1):
        pairs = list(combinations(range(n), 2))
        relabellings = list(permutations(range(n)))
        seen = set()
        for chosen in product((False, True), repeat=len(pairs)):
            edges = [p for p, keep in zip(pairs, chosen) if keep]
            if len(edges) < n - 1 or len(brute_components(_space(n, edges))) != 1:
                continue
            canon = min(
                tuple(sorted(tuple(sorted((r[i], r[j]))) for i, j in edges)) for r in relabellings
            )
            if canon not in seen:
                seen.add(canon)
                out.append(_space(n, canon))
    return tuple(out)


def _canonical_edges(n: int, edges) -> tuple:
    """The least sorted edge list of a simple graph on ``range(n)`` over the
    relabellings that number its vertices by descending degree.  Isomorphic
    graphs have the same such relabelled copies, so this names the class,
    and it tries far fewer than all n! relabellings."""
    degree = [0] * n
    for x in chain.from_iterable(edges):
        degree[x] += 1
    groups = [[x for x in range(n) if degree[x] == d] for d in sorted(set(degree), reverse=True)]
    best = None
    for orders in product(*map(permutations, groups)):
        label = [0] * n
        for new, old in enumerate(chain.from_iterable(orders)):
            label[old] = new
        canon = tuple(sorted(tuple(sorted((label[i], label[j]))) for i, j in edges))
        if best is None or canon < best:
            best = canon
    return best


@functools.cache
def six_vertex_graphs() -> tuple[DirectedGraph, ...]:
    """One connected simple graph per isomorphism class on 6 vertices, each
    edge directed from its smaller vertex.  A connected graph keeps a
    connected rest when it loses a leaf of a spanning tree, so every class
    is a 5-vertex class plus a vertex joined to some of its vertices."""
    out, seen = [], set()
    for base in connected_graphs():
        if base.v_count != 5:
            continue
        edges = [(int(s[1:]), int(t[1:])) for s, t in base.edge_ends.values()]
        for size in range(1, 6):
            for joined in combinations(range(5), size):
                canon = _canonical_edges(6, edges + [(i, 5) for i in joined])
                if canon not in seen:
                    seen.add(canon)
                    out.append(_space(6, canon))
    return tuple(out)


def _covers(space: DirectedGraph):
    """Every (U, V) whose union is the vertex set: each vertex in U only, V
    only, or both."""
    for places in product("uvb", repeat=space.v_count):
        yield (
            [x for x, p in zip(space.vertices, places) if p != "v"],
            [x for x, p in zip(space.vertices, places) if p != "u"],
        )


def _expected_certificate(blocks_of, u, v):
    """The domain error ``detect_z_retract`` must raise, as (class, message),
    else whether a certificate exists, from BFS components of the pieces: two
    intersection components must share a component of U and one of V.
    ``blocks_of(vertices)`` gives the BFS blocks of the subgraph of the
    space that a frozenset of its vertices induces."""
    u_set, v_set = frozenset(u), frozenset(v)
    points = u_set & v_set
    if not points:
        return EmptyIntersection, "the pieces share no vertex"
    for name, piece in (("U", u_set), ("V", v_set)):
        for block in blocks_of(piece):
            if not points.intersection(block):
                message = f"component {block!r} of piece {name} misses the intersection"
                return PieceMissesIntersection, message
    block_u = {x: i for i, block in enumerate(blocks_of(u_set)) for x in block}
    block_v = {x: i for i, block in enumerate(blocks_of(v_set)) for x in block}
    keys = [(block_u[block[0]], block_v[block[0]]) for block in blocks_of(points)]
    return len(set(keys)) < len(keys)


def test_sweep_enumerates_every_connected_graph_on_up_to_five_vertices():
    counts = [0] * (MAX_VERTICES + 1)
    for space in connected_graphs():
        counts[space.v_count] += 1
    assert counts[1:] == [1, 1, 2, 6, 21]


def test_six_vertex_sweep_enumerates_every_connected_graph():
    counts = [0] * 7
    for space in (*connected_graphs(), *six_vertex_graphs()):
        counts[space.v_count] += 1
    assert counts[1:] == [1, 1, 2, 6, 21, 112]


def test_partition_view_matches_bfs_oracle_on_every_induced_subgraph():
    """Every vertex subset of every sweep space, the empty one included,
    induces a new graph whose partition view agrees with the BFS oracle."""
    induced = 0
    for space in connected_graphs():
        for size in range(space.v_count + 1):
            for subset in combinations(space.vertices, size):
                assert partition_view_faults(reference_induced(space, subset)) == [], subset
                induced += 1
    assert induced == 790


def _walk_problems(word, g: DirectedGraph) -> list[str]:
    """The checker's reasons why ``word`` is no reduced walk on the edge
    ends of ``g``."""
    doc = {
        "source": word.source,
        "target": word.target,
        "letters": [{"edge": l.edge, "sign": l.sign} for l in word.letters],
    }
    return checkers.walk_problems(doc, g.edge_ends, "loop")


def _sweep_covers(spaces, tie_breaks, min_blocks=0, every_pair=False) -> list[dict]:
    """Run every cover of every space whose intersection has at least
    ``min_blocks`` components through ``Decomposition`` and, under each
    tie-break (a function of the space), ``detect_z_retract``; check domain
    errors, None results, ranks and certificates against the BFS reference,
    and every certificate's loops with the checker.  With ``every_pair``, a
    certified cover is run again with ``prefer`` set to each ordered pair
    of basepoints joined in both pieces, whose witness it must take.
    Returns, per tie-break, the covers ``Decomposition`` accepted, the
    certificates, the domain errors, the covers without a domain error by
    their BFS rank k, and the preferred pairs run."""
    tallies = [
        {"covers": 0, "certificates": 0, "errors": 0, "by_k": Counter(), "preferred": 0}
        for _ in tie_breaks
    ]
    for space in spaces:

        @functools.cache
        def blocks_of(keep, space=space):
            return brute_components(reference_induced(space, keep))

        orders = [tie_break(space) for tie_break in tie_breaks]
        for u, v in _covers(space):
            if min_blocks and len(blocks_of(frozenset(u) & frozenset(v))) < min_blocks:
                continue
            rejected = reference_decomposition_error(space, u, v)
            if rejected is not None:
                with pytest.raises(rejected[0]):
                    Decomposition(space, u, v)
                continue
            dec = Decomposition(space, u, v)
            expected = _expected_certificate(blocks_of, u, v)
            if not isinstance(expected, tuple):
                u_set, v_set = frozenset(u), frozenset(v)
                # Every piece component meets the intersection, and the space is connected.
                n_c, n_a, n_b = (len(blocks_of(s)) for s in (u_set & v_set, u_set, v_set))
                k = n_c - n_a - n_b + 1
                assert (k > 0) == expected
            for order, tally in zip(orders, tallies):
                tally["covers"] += 1
                if isinstance(expected, tuple):
                    error, message = expected
                    with pytest.raises(error) as raised:
                        detect_z_retract(dec, order)
                    assert str(raised.value) == message
                    tally["errors"] += 1
                    continue
                tally["by_k"][k] += 1
                cert = detect_z_retract(dec, order)
                assert (cert is not None) == expected, (space, u, v, order)
                if cert is None:
                    continue
                tally["certificates"] += 1
                _check_certificate(cert, space)
                assert cert.report.k == brute_rank(cert.report.instance)[2] == k
                if every_pair:
                    pairs = _check_preferred_pairs(cert, dec, order, blocks_of, u_set, v_set)
                    tally["preferred"] += pairs
    return tallies


def _check_certificate(cert, space: DirectedGraph) -> None:
    assert is_nonempty_reduced_loop(cert.loop_in_space)
    assert is_nonempty_reduced_loop(cert.retract_image)
    assert cert.loop_in_space.host == space
    assert _walk_problems(cert.loop_in_space, space) == []
    assert _walk_problems(cert.retract_image, cert.report.w) == []


def _check_preferred_pairs(cert, dec, order, blocks_of, u_set, v_set) -> int:
    """Over the ordered pairs of basepoints (the least vertex of each
    intersection block) that share a BFS block of U and one of V: require
    ``cert``, found with no ``prefer``, at the least pair, and run
    ``detect_z_retract`` preferring each pair, requiring the witness at
    that pair."""
    block_u = {x: i for i, block in enumerate(blocks_of(u_set)) for x in block}
    block_v = {x: i for i, block in enumerate(blocks_of(v_set)) for x in block}
    points = [block[0] for block in blocks_of(u_set & v_set)]
    pairs = [
        (a, b)
        for a in points
        for b in points
        if a != b and block_u[a] == block_u[b] and block_v[a] == block_v[b]
    ]
    assert cert.retract_image == witness(cert.report, *pairs[0])
    for a, b in pairs:
        preferred = detect_z_retract(dec, order, prefer=(a, b))
        assert preferred.retract_image == witness(preferred.report, a, b), (a, b)
        assert preferred.loop_in_space.source == a
        _check_certificate(preferred, dec.space)
    return len(pairs)


def test_every_cover_of_a_small_space_certifies_exactly_when_two_basepoints_are_joined():
    tallies = _sweep_covers(connected_graphs(), [lambda space: None])
    assert tallies == [
        {
            "covers": 1981,
            "certificates": 54,
            "errors": 62,
            "by_k": {0: 1865, 1: 52, 2: 2},
            "preferred": 0,
        }
    ]


def test_every_cover_of_a_six_vertex_space_with_three_basepoints_matches_the_reference():
    """The covers whose intersection has three or more components, the only
    ones that can give k >= 2, of every connected simple graph on 6
    vertices.  Each certified cover must be at its least joined pair, and
    is run again preferring every joined pair."""
    tallies = _sweep_covers(
        six_vertex_graphs(), [lambda space: None], min_blocks=3, every_pair=True
    )
    assert tallies == [
        {
            "covers": 930,
            "certificates": 160,
            "errors": 0,
            "by_k": {0: 770, 1: 106, 2: 52, 3: 2},
            "preferred": 548,
        }
    ]


@functools.cache
def connected_multigraphs() -> tuple[DirectedGraph, ...]:
    """One connected directed multigraph per class under vertex relabelling
    on 1..MAX_MULTI_VERTICES vertices with at most one edge more than
    vertices, self-loops and parallel or opposite edges included.  The
    class is named by its least sorted arc list over all relabellings, and
    its edges are ``e0``, ``e1``, ... in that order."""
    out = []
    for n in range(1, MAX_MULTI_VERTICES + 1):
        arcs = list(product(range(n), repeat=2))
        relabellings = list(permutations(range(n)))
        seen = set()
        for m in range(n - 1, n + 2):
            for chosen in combinations_with_replacement(arcs, m):
                canon = min(tuple(sorted((r[i], r[j]) for i, j in chosen)) for r in relabellings)
                if canon in seen:
                    continue
                seen.add(canon)
                space = DirectedGraph(
                    [f"v{i}" for i in range(n)],
                    [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(canon)],
                )
                if len(brute_components(space)) == 1:
                    out.append(space)
    return tuple(out)


def test_multigraph_sweep_enumerates_every_class():
    counts = [0] * (MAX_MULTI_VERTICES + 1)
    for space in connected_multigraphs():
        counts[space.v_count] += 1
    assert counts[1:] == [3, 13, 75, 427]


def test_every_cover_of_a_small_multigraph_matches_the_reference_under_two_tie_breaks():
    """The cover sweep on multigraphs, whose self-loops and parallel edges in
    the intersection become C loops and whose reversed edges give negative
    letters, under the lex tie-break and under the reversed edge-id list."""
    tallies = _sweep_covers(
        connected_multigraphs(), [lambda space: None, lambda space: list(reversed(space.edge_ids))]
    )
    assert tallies == [
        {
            "covers": 18458,
            "certificates": 104,
            "errors": 1036,
            "by_k": {0: 17318, 1: 104},
            "preferred": 0,
        }
    ] * 2


def _graphs(n: int):
    """Every simple graph on n vertices, connected or not, edges directed
    from the smaller vertex."""
    pairs = list(combinations(range(n), 2))
    for chosen in product((False, True), repeat=len(pairs)):
        yield _space(n, [p for p, keep in zip(pairs, chosen) if keep])


def test_piece_blocks_decide_connectivity_on_every_small_cover():
    """``_space_connected`` reads connectivity off the blocks of U, V and
    their intersection.  It agrees with the BFS oracle on every cover of
    every connected space of the sweep, and on every cover of every graph,
    connected or not, on 0-4 vertices."""
    tally = {True: 0, False: 0}
    spaces = [*connected_graphs(), *(g for n in range(MAX_VERTICES) for g in _graphs(n))]
    for space in spaces:
        connected = len(brute_components(space)) == 1
        for u, v in _covers(space):
            if reference_decomposition_error(space, u, v) is not None:
                continue
            assert _space_connected(Decomposition(space, u, v)) == connected, (space, u, v)
            tally[connected] += 1
    assert tally == {True: 3499, False: 1498}


def _scenarios(space: DirectedGraph):
    """Every admissible (D, E, a, b): D and E disjoint with no edge between
    them, a < b outside both."""
    for places in product("deo", repeat=space.v_count):
        d = [x for x, p in zip(space.vertices, places) if p == "d"]
        e = [x for x, p in zip(space.vertices, places) if p == "e"]
        if any({s, t} & set(d) and {s, t} & set(e) for s, t in space.edge_ends.values()):
            continue
        rest = [x for x, p in zip(space.vertices, places) if p == "o"]
        for a, b in combinations(rest, 2):
            yield d, e, a, b


def _sweep_scenarios(spaces) -> dict[str, int]:
    """Run every admissible scenario of every space through ``pbi_fails``
    against the reference predicate, and certify each failure."""
    tally = {"scenarios": 0, "failures": 0}
    for space in spaces:
        for d, e, a, b in _scenarios(space):
            tally["scenarios"] += 1
            sc = PbpScenario(space, d, e, a, b)
            fails = pbi_fails(sc)
            assert fails == reference_pbi_fails(space, d, e, a, b), (space, d, e, a, b)
            if not fails:
                continue
            tally["failures"] += 1
            dec = pbp_to_decomposition(sc)
            cert = detect_z_retract(dec, prefer=certificate_basepoints_for(dec, a, b))
            assert cert is not None and is_nonempty_reduced_loop(cert.loop_in_space)
    return tally


def test_every_separation_scenario_on_a_small_space_matches_the_reference():
    assert _sweep_scenarios(connected_graphs()) == {"scenarios": 4107, "failures": 76}


def test_every_separation_scenario_on_a_small_multigraph_matches_the_reference():
    assert _sweep_scenarios(connected_multigraphs()) == {"scenarios": 20912, "failures": 104}
