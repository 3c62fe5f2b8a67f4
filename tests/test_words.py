"""Free groupoid words: reduction, composition laws, tree paths."""

from __future__ import annotations

import copy
import random

import pytest

from freeloop.errors import (
    BadSign,
    HostMismatch,
    NotComposable,
    NotReduced,
    UnknownLetter,
    UnknownVertex,
)
from freeloop.graphs import DirectedGraph, components, spanning_forest
from freeloop.retract import build_retract, rho
from freeloop.words import (
    Letter,
    Word,
    compose,
    identity,
    invert,
    letter_ends,
    tree_path,
)
from freeloop.words import reduce as reduce_word

from support import (
    enumerate_reduced_words,
    forest_graph,
    naive_reduce,
    naive_rho,
    random_connected_instance,
    random_gword,
    random_graph,
    random_reduced_word,
    signed_adjacency,
)


def two_cycle():
    return DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])


def test_letter_validation_and_inverse():
    l = Letter("x", 1)
    inverse = invert(Word(two_cycle(), "a", "b", [l]))
    assert inverse.letters == (Letter("x", -1),)
    assert str(l) == "x"
    assert str(inverse) == "x^-1"
    for sign in (0, 2, True, 1.0, -1.0):
        with pytest.raises(BadSign):
            Letter("x", sign)


def test_letter_ends_follow_sign():
    g = two_cycle()
    assert letter_ends(g, Letter("x", 1)) == ("a", "b")
    assert letter_ends(g, Letter("x", -1)) == ("b", "a")
    with pytest.raises(UnknownLetter):
        letter_ends(g, Letter("zz", 1))


def test_word_validates_chain_and_reducedness():
    g = two_cycle()
    w = Word(g, "a", "a", [Letter("x", 1), Letter("y", 1)])
    assert len(w) == 2
    with pytest.raises(NotComposable):
        Word(g, "a", "b", [Letter("y", 1)])
    with pytest.raises(NotReduced):
        Word(g, "a", "b", [Letter("x", 1), Letter("x", -1), Letter("x", 1)])
    with pytest.raises(NotComposable):
        Word(g, "a", "b", [Letter("x", 1), Letter("y", 1)])
    with pytest.raises(UnknownVertex):
        Word(g, "zz", "a", [])


def test_identity_words_at_distinct_vertices_differ():
    g = two_cycle()
    assert identity(g, "a") != identity(g, "b")
    assert identity(g, "a").letters == ()
    assert str(identity(g, "a")) == "1"


def test_reduce_matches_naive_oracle_on_random_walks():
    """Random backtracking walks reduce to the same codes the oracle gives."""
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, max_v=6, max_e=10)
        adj = signed_adjacency(g)
        source = rng.choice(g.vertices)
        cur, letters = source, []
        for _ in range(rng.randint(0, 14)):
            if not adj[cur]:
                break
            letter, cur = rng.choice(adj[cur])
            letters.append(letter)
        w = reduce_word(g, source, letters)
        raw_codes = [l.sign * (g.edge_index(l.edge) + 1) for l in letters]
        assert [l.sign * (g.edge_index(l.edge) + 1) for l in w.letters] == naive_reduce(raw_codes)
        assert w.source == source and w.target == cur


def test_reduce_fixes_reduced_words():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng)
        w = random_reduced_word(rng, g)
        again = reduce_word(g, w.source, w.letters)
        assert again == w


def test_compose_requires_matching_endpoints_and_host():
    g = two_cycle()
    h = DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "a"), ("z", "a", "a")])
    xw = Word(g, "a", "b", [Letter("x", 1)])
    with pytest.raises(NotComposable):
        compose(xw, xw)
    with pytest.raises(HostMismatch):
        compose(xw, Word(h, "b", "a", [Letter("y", 1)]))


def test_compose_cancels_across_the_junction():
    g = two_cycle()
    xw = Word(g, "a", "b", [Letter("x", 1)])
    assert compose(xw, invert(xw)) == identity(g, "a")
    assert compose(invert(xw), xw) == identity(g, "b")


def test_group_laws_on_random_words():
    rng = random.Random(37)
    for _ in range(200):
        g = random_graph(rng, max_v=6, max_e=12)
        w1 = random_reduced_word(rng, g)
        w2 = random_reduced_word(rng, g, source=w1.target)
        w3 = random_reduced_word(rng, g, source=w2.target)
        assert compose(compose(w1, w2), w3) == compose(w1, compose(w2, w3))
        assert compose(w1, identity(g, w1.target)) == w1
        assert compose(identity(g, w1.source), w1) == w1
        assert compose(w1, invert(w1)) == identity(g, w1.source)
        assert invert(invert(w1)) == w1


def test_rehost_moves_words_between_equal_edge_sets():
    """A word's letters build the same word on a larger host sharing the
    edge ids, and are refused by a host without one of them."""
    g = two_cycle()
    bigger = DirectedGraph(
        ["a", "b", "c"], [("x", "a", "b"), ("y", "b", "a"), ("z", "b", "c")]
    )
    w = Word(g, "a", "a", [Letter("x", 1), Letter("y", 1)])
    moved = Word(bigger, w.source, w.target, w.letters)
    assert moved.host is bigger
    assert moved.letters == w.letters
    same_vertices = DirectedGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "a")])
    with pytest.raises(UnknownLetter):
        Word(same_vertices, "b", "c", [Letter("z", 1)])


def test_tree_path_is_the_unique_reduced_word_on_forests():
    """Exhaustive check: a forest has exactly one reduced word per ordered
    same-tree pair, and it is the tree path."""
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, max_v=7, max_e=10)
        f = spanning_forest(g)
        fg = forest_graph(f)
        fgf = spanning_forest(fg)
        words = enumerate_reduced_words(fg)
        for u in fg.vertices:
            for v in fg.vertices:
                key = (u, v)
                if not components(g).same_block(u, v):
                    assert key not in words
                    continue
                assert len(words[key]) == 1
                expected = Word(fg, u, v, words[key][0])
                assert tree_path(fgf, u, v) == expected


def _lettered(g, source, target, codes):
    """The word of signed edge ``codes``, through the validating constructor."""
    ids = g.edge_ids
    return Word(g, source, target, [Letter(ids[abs(c) - 1], 1 if c > 0 else -1) for c in codes])


def _codes(w):
    return [l.sign * (w.host.edge_index(l.edge) + 1) for l in w.letters]


def _same_arrow(coded, lettered):
    assert coded == lettered and lettered == coded
    assert hash(coded) == hash(lettered)
    assert str(coded) == str(lettered)
    assert coded.letters == lettered.letters
    assert len(coded) == len(lettered)


def test_words_from_codes_equal_words_from_letters():
    """``reduce``, ``compose``, ``invert``, ``tree_path`` and ``rho`` build
    words from signed codes; each agrees with its naive oracle built from
    Letters by ``Word(...)``, down to hash, str and letters."""
    rng = random.Random(43)
    for _ in range(150):
        g = random_graph(rng, max_v=6, max_e=10)
        adj = signed_adjacency(g)
        source = cur = rng.choice(g.vertices)
        raw = []
        for _ in range(rng.randint(0, 14)):
            if not adj[cur]:
                break
            letter, cur = rng.choice(adj[cur])
            raw.append(letter)
        raw_codes = [l.sign * (g.edge_index(l.edge) + 1) for l in raw]
        reduced = reduce_word(g, source, raw)
        _same_arrow(reduced, _lettered(g, source, cur, naive_reduce(raw_codes)))
        w = random_reduced_word(rng, g, source=cur)
        for left, right in ((reduced, w), (invert(w), invert(reduced))):
            expected = _lettered(g, left.source, right.target, naive_reduce(_codes(left) + _codes(right)))
            _same_arrow(compose(left, right), expected)
        _same_arrow(invert(w), _lettered(g, w.target, w.source, [-c for c in reversed(_codes(w))]))
        f = spanning_forest(g)
        fg = forest_graph(f)
        paths = enumerate_reduced_words(fg)
        for (u, v), (path,) in paths.items():
            _same_arrow(tree_path(f, u, v), Word(g, u, v, path))
    for _ in range(60):
        inst = random_connected_instance(rng)
        report = build_retract(inst)
        gword = random_gword(rng, inst)
        _same_arrow(rho(report, gword), naive_rho(report, gword))


def test_copied_word_reads_back_assigned_letters():
    """``letters`` is a plain slot: a copy of a word, whether or not its
    letters were read, takes an assigned tuple and reads it back, and the
    original keeps its own."""
    g = two_cycle()
    x, y = Letter("x", 1), Letter("y", 1)
    for read in (False, True):
        w = reduce_word(g, "a", [x, y, x, Letter("x", -1)])
        if read:
            assert w.letters == (x, y)
        dup = copy.copy(w)
        assert dup == w and dup.letters == (x, y)
        dup.letters = (y,)
        assert dup.letters == (y,)
        assert w.letters == (x, y) and len(w) == 2
