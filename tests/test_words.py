"""Free groupoid words: reduction, composition laws, tree paths."""

from __future__ import annotations

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
    random_graph,
    random_reduced_word,
    signed_adjacency,
)


def two_cycle():
    return DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])


def test_letter_validation_and_inverse():
    l = Letter("x", 1)
    assert l.inverse() == Letter("x", -1)
    assert str(l) == "x"
    assert str(l.inverse()) == "x^-1"
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
