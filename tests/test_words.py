"""Free groupoid words: reduction, composition laws, tree paths."""

from __future__ import annotations

import copy
import random
from dataclasses import replace

import pytest

from freeloop.errors import (
    BadSign,
    DomainError,
    HostMismatch,
    NotComposable,
    NotReduced,
    UnknownLetter,
    UnknownVertex,
)
from freeloop.graphs import DirectedGraph, spanning_forest
from freeloop.retract import SIDES, GLetter, GWord, build_retract, rho
from freeloop.words import (
    Letter,
    Word,
    compose,
    identity,
    invert,
    tree_path,
)
from freeloop.words import reduce as reduce_word

from support import (
    block_number,
    checker_rho,
    enumerate_reduced_words,
    forest_graph,
    naive_reduce,
    random_connected_instance,
    random_gword,
    random_graph,
    random_reduced_word,
    reference_word_error,
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


def test_word_letters_follow_sign():
    """A letter of sign +1 runs from its edge's source to its target, one of
    sign -1 the reverse way, and a letter of an edge the host lacks is
    unknown."""
    g = two_cycle()
    for sign, (s, t) in ((1, ("a", "b")), (-1, ("b", "a"))):
        assert Word(g, s, t, [Letter("x", sign)]).letters == (Letter("x", sign),)
        with pytest.raises(NotComposable):
            Word(g, t, s, [Letter("x", sign)])
    with pytest.raises(UnknownLetter):
        Word(g, "a", "a", [Letter("zz", 1)])


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


def _signed_letters(inst):
    """Every signed letter of ``inst`` as a ``GLetter``, and of its A side as
    a ``Letter``."""
    tagged = [
        GLetter(side, e, sign)
        for side in ("A", "B")
        for e in inst.side_graph(side).edge_ids
        for sign in (1, -1)
    ]
    tagged += [GLetter("C", x, sign) for _, ids in inst.c_loops for x in ids for sign in (1, -1)]
    return tagged, [Letter(l.edge, l.sign) for l in tagged if l.side == "A"]


def _corrupted(rng, letters, pool, unknown):
    """``letters`` after one to three corruptions: a letter of ``unknown``
    inserted, a letter swapped for one of ``pool`` or for its inverse, or a
    cancelling pair inserted."""
    letters = list(letters)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("unknown", "swap", "invert", "cancel"))
        i = rng.randrange(len(letters) + 1)
        if kind == "unknown":
            letters.insert(i, rng.choice(unknown))
        elif not letters:
            continue
        elif kind == "swap" and pool:
            letters[min(i, len(letters) - 1)] = rng.choice(pool)
        elif kind == "invert":
            j = min(i, len(letters) - 1)
            letters[j] = replace(letters[j], sign=-letters[j].sign)
        elif kind == "cancel":
            j = min(i, len(letters) - 1)
            letters.insert(j + 1, replace(letters[j], sign=-letters[j].sign))
    return letters


def _error_of(build):
    try:
        build()
    except DomainError as exc:
        return type(exc), getattr(exc, "position", None), str(exc)
    return None


def test_chain_errors_match_a_walk_on_ids():
    """Corrupted letter lists raise in ``Word(...)``, ``reduce(...)`` and
    ``GWord(...)`` the class, position and message of the first error a
    letter-by-letter walk on ids finds: an unknown generator or one named
    on the wrong side, a letter that does not compose, a cancelling pair
    where the word must be reduced, a wrong or unknown endpoint, and
    combinations of these."""
    rng = random.Random(47)
    for _ in range(300):
        inst = random_connected_instance(rng, max_objects=8, max_side_edges=12)
        g = inst.graph_a
        tagged, plain = _signed_letters(inst)
        # Ids of the other sides are unknown letters here; so is "zz".
        wrong_side = [GLetter(side, l.edge, l.sign) for l in tagged for side in SIDES if side != l.side]
        unknown_tagged = wrong_side + [GLetter("A", "zz", 1), GLetter("C", "zz", -1)]
        unknown_plain = [Letter(l.edge, l.sign) for l in tagged if l.side != "A"] + [Letter("zz", 1)]
        ends = [*inst.objects, "zz"]

        gword = random_gword(rng, inst, max_len=8)
        letters = _corrupted(rng, gword.letters, tagged, unknown_tagged)
        source, target = gword.source, gword.target
        if rng.random() < 0.3:
            target = rng.choice(ends)
        if rng.random() < 0.1:
            source = rng.choice(ends)
        expected = reference_word_error(inst, source, target, letters)
        assert _error_of(lambda: GWord(inst, source, target, letters)) == expected

        word = random_reduced_word(rng, g, max_len=8)
        letters = _corrupted(rng, word.letters, plain, unknown_plain)
        source, target = word.source, word.target
        if rng.random() < 0.3:
            target = rng.choice(ends)
        if rng.random() < 0.1:
            source = rng.choice(ends)
        expected = reference_word_error(g, source, target, letters, reduced=True)
        assert _error_of(lambda: Word(g, source, target, letters)) == expected
        expected = reference_word_error(g, source, None, letters)
        assert _error_of(lambda: reduce_word(g, source, letters)) == expected


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
        raw_codes = [l.sign * (g._eindex[l.edge] + 1) for l in letters]
        assert [l.sign * (g._eindex[l.edge] + 1) for l in w.letters] == naive_reduce(raw_codes)
        assert w.source == source and w.target == cur
        # The letters are read once, so an iterator gives the same word.
        assert reduce_word(g, source, iter(letters)) == w


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
        number = block_number(g)
        for u in fg.vertices:
            for v in fg.vertices:
                key = (u, v)
                if number[u] != number[v]:
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
    return [l.sign * (w.host._eindex[l.edge] + 1) for l in w.letters]


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
        raw_codes = [l.sign * (g._eindex[l.edge] + 1) for l in raw]
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
        _same_arrow(rho(report, gword), checker_rho(report, gword))


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
