"""Pushout instances, the retraction to Fr(W), witnesses, certificates."""

from __future__ import annotations

import ast
import copy
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from freeloop.errors import (
    BadId,
    BadSign,
    DuplicateId,
    HostMismatch,
    NoArrowInA,
    NoArrowInB,
    NotComposable,
    NotDistinct,
    UnknownLetter,
    UnknownSide,
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
from freeloop.retract import (
    GLetter,
    GWord,
    PushoutInstance,
    build_retract,
    include_f,
    rho,
    witness,
)
from freeloop.words import Letter, identity

from support import (
    block_number,
    brute_rank,
    checker_rho,
    checker_witness,
    circle_instance,
    is_nonempty_reduced_loop,
    joined_pairs,
    long_run_gword,
    random_connected_instance,
    random_gword,
    random_reduced_word,
    tagged_instance,
    with_c_loop_everywhere,
)


def counted_builds(monkeypatch, cls) -> list:
    """Every ``cls`` object built from now on, in order."""
    built = []
    post_init = cls.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def theta_instance():
    g = DirectedGraph(["a", "b"], [("a1", "a", "b"), ("a2", "a", "b")])
    h = DirectedGraph(["a", "b"], [("beta", "a", "b")])
    return PushoutInstance(["a", "b"], g, h)


def path_instance():
    """Single arrow on side A, nothing on side B: contractible, k = 0."""
    g = DirectedGraph(["a", "b"], [("alpha", "a", "b")])
    h = DirectedGraph(["a", "b"], [])
    return PushoutInstance(["a", "b"], g, h)


def test_instance_validates_vertex_sets_and_loop_ids():
    g = DirectedGraph(["a", "b"], [])
    h = DirectedGraph(["a"], [])
    with pytest.raises(VertexSetMismatch):
        PushoutInstance(["a", "b"], g, h)
    with pytest.raises(UnknownVertex):
        PushoutInstance(["a", "b"], g, g, {"zz": ["l1"]})
    with pytest.raises(DuplicateId):
        PushoutInstance(["a", "b"], g, g, {"a": ["l1"], "b": ["l1"]})


def test_instance_rejects_c_loop_keys_that_coerce_to_one_id():
    g = DirectedGraph(["1", "2"], [])
    for c_loops in ({1: ["p"], "1": ["q"]}, {"1": [], 1: ["q"]}):
        with pytest.raises(DuplicateId, match="'1'"):
            PushoutInstance(["1", "2"], g, g, c_loops)
    assert PushoutInstance(["1", "2"], g, g, {1: ["q", "p"]}) == PushoutInstance(
        ["1", "2"], g, g, {"1": ["p", "q"]}
    )

def test_component_counts_on_circle():
    report = build_retract(circle_instance())
    assert (report.n_a, report.n_b, report.n_c) == (1, 1, 2)
    assert brute_rank(circle_instance())[0] == (1, 1, 2)


def test_theorem_rank_matches_hand_arithmetic():
    for make, k in ((circle_instance, 1), (theta_instance, 1), (path_instance, 0)):
        assert build_retract(make()).k == k
        assert brute_rank(make())[2] == k


def test_theorem_rank_rejects_disconnected_pushouts(tmp_path, capsys):
    from freeloop import cli
    from freeloop.jsonio import canonical_json, dump_instance

    g = DirectedGraph(["a", "b"], [])
    inst = PushoutInstance(["a", "b"], g, g)
    assert brute_rank(inst) == ((2, 2, 2), False, None)
    report = build_retract(inst)
    assert report.k is None
    path = tmp_path / "apart.json"
    path.write_text(canonical_json(dump_instance(inst)), encoding="utf-8")
    assert cli.main(["pushout-rank", str(path)]) == 2
    assert capsys.readouterr().err.startswith("Disconnected: ")


def test_build_retract_reports_per_component_ranks_when_disconnected():
    g = DirectedGraph(["a", "b", "c"], [("x", "a", "b")])
    h = DirectedGraph(["a", "b", "c"], [("y", "b", "a")])
    inst = PushoutInstance(["a", "b", "c"], g, h)
    report = build_retract(inst)
    assert report.k is None
    assert report.per_component_ranks == ((("a", "b"), 1), (("c",), 0))


def test_build_retract_counts_and_rank_formula_agree():
    rng = random.Random(47)
    for _ in range(60):
        inst = random_connected_instance(rng, max_objects=12, max_side_edges=20)
        report = build_retract(inst)
        assert report.w.v_count == report.n_c == len(inst.objects)
        assert report.w.e_count == len(report.forest_x.tree_edge_ids) + len(
            report.forest_y.tree_edge_ids
        )
        assert report.k == brute_rank(inst)[2]
        assert report.per_component_ranks == tuple(euler_ranks(report.w))


def test_gword_validates_chain_and_letters():
    inst = circle_instance()
    w = GWord(inst, "a", "a", [GLetter("A", "alpha", 1), GLetter("B", "beta", -1)])
    assert len(w) == 2
    with pytest.raises(NotComposable):
        GWord(inst, "a", "a", [GLetter("A", "alpha", 1)])
    with pytest.raises(NotComposable):
        GWord(inst, "b", "a", [GLetter("A", "alpha", 1)])
    with pytest.raises(UnknownLetter):
        GWord(inst, "a", "b", [GLetter("B", "alpha", 1)])
    with pytest.raises(UnknownVertex):
        GWord(inst, "zz", "zz", [])
    with pytest.raises(UnknownSide):
        GLetter("D", "alpha", 1)
    with pytest.raises(UnknownSide):
        GLetter(["A"], "alpha", 1)
    # Only a GLetter is taken, so a letter-like object is refused, whatever
    # side it names, before that side is read.
    for side in ("D", ["A"], "A"):
        with pytest.raises(TypeError, match="^letter 0 must be a GLetter, got SimpleNamespace$"):
            GWord(inst, "a", "b", [SimpleNamespace(side=side, edge="alpha", sign=1)])
    for sign in (0, 2, True, 1.0, -1.0):
        with pytest.raises(BadSign):
            GLetter("A", "alpha", sign)
    # C names only loops: an id of side A is unknown there.
    with pytest.raises(UnknownLetter, match="'alpha' on side C"):
        GWord(inst, "a", "a", [GLetter("C", "alpha", 1)])


@pytest.mark.parametrize("sign", [2, -2, 0, True, 1.0])
def test_gword_refuses_letter_likes_with_a_bad_sign(sign):
    """A letter-like object (``side``, ``edge`` and ``sign``, not a
    ``GLetter``) never had its sign checked, so ``GWord(...)`` refuses it
    at its position with a ``TypeError``, before its side, sign or edge is
    read: ``alpha`` with sign 2 is never coded as ``beta``."""
    inst = circle_instance()
    for edge in ("alpha", "nope"):
        bad = [GLetter("A", "alpha", 1), SimpleNamespace(side="B", edge=edge, sign=sign)]
        with pytest.raises(TypeError, match="^letter 1 must be a GLetter, got SimpleNamespace$"):
            GWord(inst, "a", "a", bad)


def test_gword_keeps_none_of_the_letters_it_is_built_from():
    """A GWord holds only its tagged codes: the caller's GLetters, whether in
    a list or a one-shot iterator, die once the caller drops them, and
    ``letters`` is unset until its first read, which makes GLetters equal to
    them.  A letter-like object is refused, so no GWord is built from one."""
    inst = circle_instance()
    expected = (GLetter("A", "alpha", 1), GLetter("B", "beta", -1), GLetter("A", "alpha", 1))
    for one_shot in (False, True):
        letters = [GLetter("A", "alpha", 1), GLetter("B", "beta", -1), GLetter("A", "alpha", 1)]
        refs = [weakref.ref(l) for l in letters]
        w = GWord(inst, "a", "b", iter(letters) if one_shot else letters)
        with pytest.raises(AttributeError):
            object.__getattribute__(w, "letters")
        del letters
        assert [r() for r in refs] == [None] * 3
        assert w.letters == expected and w._codes == (1, -2, 1)
    like = [SimpleNamespace(side=l.side, edge=l.edge, sign=l.sign) for l in expected]
    with pytest.raises(TypeError, match="^letter 0 must be a GLetter, got SimpleNamespace$"):
        GWord(inst, "a", "b", like)


def test_c_loops_are_carried_and_have_identity_endpoints():
    g = DirectedGraph(["a", "b"], [("alpha", "a", "b")])
    h = DirectedGraph(["a", "b"], [("beta", "a", "b")])
    inst = PushoutInstance(["a", "b"], g, h, {"a": ["l1"]})
    w = GWord(inst, "a", "a", [GLetter("C", "l1", 1)])
    assert w.target == "a"
    with pytest.raises(UnknownLetter):
        GWord(inst, "b", "b", [GLetter("C", "l2", 1)])


def test_rho_sends_identity_to_identity():
    inst = circle_instance()
    report = build_retract(inst)
    image = rho(report, GWord(inst, "a", "a", []))
    assert image == identity(report.w, "a")


def test_rho_on_single_forest_letter_is_that_letter():
    inst = circle_instance()
    report = build_retract(inst)
    image = rho(report, GWord(inst, "a", "b", [GLetter("A", "alpha", 1)]))
    assert [(l.edge, l.sign) for l in image.letters] == [("alpha", 1)]
    assert report.origin_of("alpha") == ("A", "alpha")
    with pytest.raises(UnknownLetter, match="'gamma'"):
        report.origin_of("gamma")


def test_rho_kills_c_letters_everywhere():
    rng = random.Random(53)
    for _ in range(50):
        inst = random_connected_instance(rng, max_objects=8, max_side_edges=12)
        if not inst.c_loops:
            continue
        report = build_retract(inst)
        g = random_gword(rng, inst)
        v, ids = inst.c_loops[rng.randrange(len(inst.c_loops))]
        extra = GLetter("C", rng.choice(ids), rng.choice((1, -1)))
        positions = [g.source]
        for letter in g.letters:
            if letter.side == "C":
                positions.append(positions[-1])
            else:
                s, t = (inst.graph_a if letter.side == "A" else inst.graph_b).edge_ends[letter.edge]
                positions.append(t if letter.sign == 1 else s)
        if v not in positions:
            continue
        at = positions.index(v)
        spliced = list(g.letters[:at]) + [extra] + list(g.letters[at:])
        g2 = GWord(inst, g.source, g.target, spliced)
        assert rho(report, g2) == rho(report, g)


def test_rho_is_functorial_on_random_composable_pairs():
    from freeloop.words import compose

    rng = random.Random(59)
    for _ in range(100):
        inst = random_connected_instance(rng, max_objects=10, max_side_edges=16)
        report = build_retract(inst)
        g1 = random_gword(rng, inst)
        g2 = random_gword(rng, inst, source=g1.target)
        g12 = GWord(inst, g1.source, g2.target, g1.letters + g2.letters)
        assert rho(report, g12) == compose(rho(report, g1), rho(report, g2))


def test_rho_matches_letter_by_letter_oracle_on_long_runs():
    rng = random.Random(73)
    checked = 0
    while checked < 10:
        inst = random_connected_instance(rng, max_objects=40, max_side_edges=60)
        if len(inst.objects) < 4 or not (inst.graph_a.e_count and inst.graph_b.e_count):
            continue
        inst = with_c_loop_everywhere(inst)
        report = build_retract(inst)
        words = [
            long_run_gword(rng, inst, 300),
            long_run_gword(rng, inst, 300, sides=("A",)),
            long_run_gword(rng, inst, 300, sides=("B",)),
        ]
        for g in words:
            assert len(g) >= 300
            assert g.letters[0].side == g.letters[-1].side == "C"
            assert rho(report, g) == checker_rho(report, g)
        for side in ("A", "B"):
            closed = long_run_gword(rng, inst, 300, sides=(side,), closed_share=1.0)
            assert closed.source == closed.target
            assert rho(report, closed) == checker_rho(report, closed)
            assert rho(report, closed) == identity(report.w, closed.source)
        checked += 1


def run_instance():
    """A path a -x1-> b -x2-> c and an edge d -x3-> e on side A, b -y1-> d
    and c -y2-> e on side B, C loops at a and d.  Each side's forest is all
    of its edges, so every run has one tree path."""
    objs = ["a", "b", "c", "d", "e"]
    g = DirectedGraph(objs, [("x1", "a", "b"), ("x2", "b", "c"), ("x3", "d", "e")])
    h = DirectedGraph(objs, [("y1", "b", "d"), ("y2", "c", "e")])
    return PushoutInstance(objs, g, h, {"a": ["l"], "d": ["m"]})


def tagged_end(inst, source, letters):
    """Where the composable tagged ``letters`` from ``source`` end."""
    cur = source
    for letter in letters:
        if letter.side != "C":
            s, t = (inst.graph_a if letter.side == "A" else inst.graph_b).edge_ends[letter.edge]
            cur = t if letter.sign == 1 else s
    return cur


def tagged_word(inst, source, text):
    """The GWord of ``text``, space-separated ``side:edge`` with an optional
    ``^-1``, from ``source``."""
    letters = []
    for token in text.split():
        body, inverse, _ = token.partition("^-1")
        side, edge = body.split(":")
        letters.append(GLetter(side, edge, -1 if inverse else 1))
    return GWord(inst, source, tagged_end(inst, source, letters), letters)


def inverse_letters(letters):
    return [GLetter(l.side, l.edge, -l.sign) for l in reversed(letters)]


@pytest.mark.parametrize(
    "source, text, image",
    [
        # A B run that returns to its start: the A runs around it merge.
        ("a", "A:x1 B:y1 B:y1^-1 A:x2", "x1 x2"),
        ("a", "C:l A:x1 B:y1 C:m B:y1^-1 A:x2", "x1 x2"),
        # Nested returns g h h^-1 g^-1.
        ("a", "A:x1 B:y1 B:y1^-1 A:x1^-1", "1"),
        # The merged B run b -> d -> b is empty too, so the pop cascades:
        # the A run under it is extended back to its start and popped.
        ("a", "A:x1 B:y1 A:x3 A:x3^-1 B:y1^-1 A:x1^-1", "1"),
        # The cascade stops at an A run that the next run extends.
        ("a", "A:x1 B:y1 A:x3 A:x3^-1 B:y1^-1 A:x2", "x1 x2"),
        # Two merged runs are popped in turn, emptying the stack.
        ("b", "B:y1 A:x3 B:y2^-1 B:y2 A:x3^-1 B:y1^-1 A:x2", "x2"),
        # Words of only C letters, and the empty word.
        ("a", "C:l C:l^-1 C:l", "1"),
        ("d", "C:m", "1"),
        ("c", "", "1"),
        # Nothing cancels: one tree path per run.
        ("a", "A:x1 B:y1 A:x3 B:y2^-1 A:x2^-1 A:x1^-1", "x1 y1 x3 y2^-1 x2^-1 x1^-1"),
    ],
)
def test_rho_cancels_whole_runs(source, text, image):
    inst = run_instance()
    report = build_retract(inst)
    g = tagged_word(inst, source, text)
    got = rho(report, g)
    assert str(got) == image
    assert (got.source, got.target) == (g.source, g.target)
    assert got == checker_rho(report, g)


def test_rho_of_spliced_cancelling_segments_matches_the_oracle():
    """A random segment ``seg`` from a random point of a random word: the
    word's head then ``seg``, the whole word with ``seg seg^-1`` spliced in,
    and the head then ``seg seg^-1 seg``, on instances with plain and with
    side-tagged W edges."""
    rng = random.Random(97)
    cancelled = 0
    for make in (random_connected_instance, tagged_instance):
        for _ in range(150):
            inst = with_c_loop_everywhere(make(rng))
            report = build_retract(inst)
            g = random_gword(rng, inst, max_len=12)
            at = rng.randint(0, len(g))
            head, tail = list(g.letters[:at]), list(g.letters[at:])
            seg = list(random_gword(rng, inst, source=tagged_end(inst, g.source, head), max_len=12).letters)
            back = inverse_letters(seg)
            images = []
            for letters in (head + seg, head + seg + back + tail, head + seg + back + seg):
                word = GWord(inst, g.source, tagged_end(inst, g.source, letters), letters)
                images.append(rho(report, word))
                assert images[-1] == checker_rho(report, word)
            assert images[1] == rho(report, g) and images[2] == images[0]
            cancelled += bool(seg)
    assert cancelled >= 200


def test_rho_rejects_words_from_other_instances():
    report = build_retract(circle_instance())
    other = theta_instance()
    with pytest.raises(HostMismatch):
        rho(report, GWord(other, "a", "a", []))


def test_include_f_then_rho_is_the_identity():
    rng = random.Random(61)
    for _ in range(80):
        inst = random_connected_instance(rng, max_objects=10, max_side_edges=16)
        report = build_retract(inst)
        w = random_reduced_word(rng, report.w)
        assert rho(report, include_f(report, w)) == w


def test_include_f_tags_letters_with_their_side():
    """include_f codes letters over the tagged alphabet, A edges then B
    edges; its word equals the one built from GLetters, down to hash and
    str."""
    inst = circle_instance()
    report = build_retract(inst)
    w = rho(report, GWord(inst, "a", "b", [GLetter("A", "alpha", 1)]))
    back = include_f(report, w)
    assert back.letters == (GLetter("A", "alpha", 1),)
    loop = include_f(report, witness(report, "a", "b"))
    lettered = GWord(inst, "a", "a", [GLetter("A", "alpha", 1), GLetter("B", "beta", -1)])
    assert loop._codes == lettered._codes == (1, -2)
    assert loop == lettered and hash(loop) == hash(lettered)
    assert str(loop) == str(lettered) == "A:alpha B:beta^-1"
    assert loop.letters == lettered.letters
    with pytest.raises(HostMismatch):
        include_f(report, identity(inst.graph_a, "a"))


def test_include_f_shares_one_gletter_per_w_letter(monkeypatch):
    """include_f builds no GLetter: its word holds tagged codes.  The first
    read of ``letters`` makes one GLetter per distinct code, shared by every
    position that has it, and a second read makes none."""
    inst = random_connected_instance(random.Random(67), max_objects=10, max_side_edges=16)
    report = build_retract(inst)
    fresh = build_retract(inst)
    rng = random.Random(68)
    w = random_reduced_word(rng, report.w)
    while len(set(w._codes)) == len(w):  # a word that repeats a letter
        w = random_reduced_word(rng, report.w)
    built = counted_builds(monkeypatch, GLetter)
    first, again = include_f(report, w), include_f(report, w)
    assert built == []
    letters = first.letters
    assert len(built) == len(set(first._codes)) < len(letters)
    assert {id(l) for l in letters} == {id(l) for l in built}
    assert first.letters is letters and len(built) == len(set(first._codes))
    assert letters == tuple(GLetter(*report.origin_of(l.edge), l.sign) for l in w.letters)
    monkeypatch.undo()
    assert first == again == include_f(fresh, w)
    assert report == fresh and repr(report) == repr(fresh)


def test_copied_gword_reads_back_assigned_letters():
    """``letters`` is a plain slot: a copy of a coded GWord, whether or not
    its letters were read, takes an assigned tuple and reads it back, and
    the original keeps its own."""
    inst = circle_instance()
    report = build_retract(inst)
    expected = (GLetter("A", "alpha", 1), GLetter("B", "beta", -1))
    for read in (False, True):
        back = include_f(report, witness(report, "a", "b"))
        if read:
            assert back.letters == expected
        dup = copy.copy(back)
        assert dup == back and dup.letters == expected
        dup.letters = back.letters[:-1]
        assert dup.letters == expected[:1]
        assert back.letters == expected and len(back) == 2


def test_rho_witness_and_include_f_on_tagged_w_edges():
    rng = random.Random(83)
    tags = Counter()
    for _ in range(80):
        inst = with_c_loop_everywhere(tagged_instance(rng))
        report = build_retract(inst, tie_break=rng.choice([None, ["x", "A:x"]]))
        tags.update(e.rpartition(":")[0] for e in report.w.edge_ids)
        for _ in range(3):
            g = random_gword(rng, inst, max_len=40)
            assert rho(report, g) == checker_rho(report, g)
            w = random_reduced_word(rng, report.w, max_len=20)
            assert rho(report, include_f(report, w)) == w
        for pair in joined_pairs(inst):
            assert witness(report, *pair) == checker_witness(report, *pair)
    assert min(tags["A"], tags["B"], tags["A:A"]) >= 10


def test_rho_and_witness_share_one_letter_per_w_letter(monkeypatch):
    """rho, witness and include_f build no Letter and no GLetter: their
    words hold signed codes.  The first read of ``letters`` makes one Letter
    or GLetter per distinct code, shared by every position that has it, and
    a second read makes none."""
    rng = random.Random(89)
    inst = with_c_loop_everywhere(tagged_instance(rng, max_objects=12, max_side_edges=24))
    report = build_retract(inst)
    fresh = build_retract(inst)
    # build_retract alone builds no code table and no forest on W.
    assert "_on_w" not in vars(report)
    g = long_run_gword(rng, inst, 200)
    pair = joined_pairs(inst)[0]
    built = {cls: counted_builds(monkeypatch, cls) for cls in (Letter, GLetter)}
    image, loop = rho(report, g), witness(report, *pair)
    pulled = [include_f(report, w) for w in (image, loop)]
    assert built == {Letter: [], GLetter: []} and len(image) > 0
    for cls, word in ((Letter, image), (Letter, loop), (GLetter, pulled[0]), (GLetter, pulled[1])):
        made = built[cls]
        before = len(made)
        letters = word.letters
        assert len(made) - before == len(set(word._codes))
        assert {id(l) for l in letters} == {id(l) for l in made[before:]}
        assert word.letters is letters and len(made) == before + len(set(word._codes))
    for word, back in zip((image, loop), pulled):
        assert back.letters == tuple(GLetter(*report.origin_of(l.edge), l.sign) for l in word.letters)
    monkeypatch.undo()
    assert image == rho(fresh, g) and loop == witness(fresh, *pair)
    assert report == fresh and repr(report) == repr(fresh)


def test_rho_and_witness_walk_x_and_y_hosted_on_w():
    """rho and witness walk X and Y hosted on W, whose tree paths are W
    codes: the public forests are never searched, and no per-side code table
    is built.  build_retract alone builds no W-side state; the hosted
    forests hold exactly their side's tree edges, under W names, and share
    their side's labels."""
    rng = random.Random(97)
    for _ in range(30):
        inst = with_c_loop_everywhere(tagged_instance(rng))
        report = build_retract(inst, tie_break=rng.choice([None, ["x", "A:x"]]))
        assert "_on_w" not in vars(report)
        g = long_run_gword(rng, inst, 120)
        assert rho(report, g) == checker_rho(report, g)
        for pair in joined_pairs(inst)[:4]:
            assert witness(report, *pair) == checker_witness(report, *pair)
        hosted, tagged = report._on_w
        assert len(tagged) == 2 * report.w.e_count + 1
        for side, forest in (("A", report.forest_x), ("B", report.forest_y)):
            assert "_nav" not in vars(forest) and "_adj" not in vars(forest)
            on_w = hosted[side]
            assert on_w.host is report.w and on_w._labels is forest._labels
            origins = sorted(map(report.origin_of, on_w.tree_edge_ids))
            assert origins == [(side, e) for e in forest.tree_edge_ids]


def test_witness_on_circle_is_the_two_letter_loop():
    report = build_retract(circle_instance())
    loop = witness(report, "a", "b")
    assert loop.source == loop.target == "a"
    assert len(loop) == 2
    sides = [report.origin_of(l.edge)[0] for l in loop.letters]
    assert sides == ["A", "B"]


def test_witness_preconditions():
    """Ids are coerced first, then a and b looked up in that order, then
    the sides' components compared, A first; distinctness comes last."""
    report = build_retract(circle_instance())
    with pytest.raises(NotDistinct):
        witness(report, "a", "a")
    for a, b in ((1.5, "a"), ("a", None), (1.5, "zz"), ("zz", [])):
        with pytest.raises(BadId):
            witness(report, a, b)
    for a, b, unknown in (
        ("zz", "yy", "zz"), ("zz", "a", "zz"), ("a", "zz", "zz"), ("zz", "zz", "zz"), (7, "a", "7")
    ):
        with pytest.raises(UnknownVertex) as raised:
            witness(report, a, b)
        assert str(raised.value) == f"unknown vertex {unknown!r}"
    apart = PushoutInstance(["a", "b"], DirectedGraph(["a", "b"]), DirectedGraph(["a", "b"]))
    with pytest.raises(NoArrowInA):
        witness(build_retract(apart), "a", "b")
    path_report = build_retract(path_instance())
    with pytest.raises(NoArrowInB):
        witness(path_report, "a", "b")
    flipped = PushoutInstance(
        ["a", "b"],
        DirectedGraph(["a", "b"], []),
        DirectedGraph(["a", "b"], [("beta", "a", "b")]),
    )
    with pytest.raises(NoArrowInA):
        witness(build_retract(flipped), "a", "b")


def test_witness_mixes_both_forests_whenever_defined():
    rng = random.Random(67)
    found = 0
    while found < 40:
        inst = random_connected_instance(rng, max_objects=8, max_side_edges=12)
        report = build_retract(inst)
        number_a = block_number(inst.graph_a)
        number_b = block_number(inst.graph_b)
        pair = next(
            (
                (u, v)
                for i, u in enumerate(inst.objects)
                for v in inst.objects[i + 1 :]
                if number_a[u] == number_a[v] and number_b[u] == number_b[v]
            ),
            None,
        )
        if pair is None:
            continue
        loop = witness(report, *pair)
        assert len(loop) >= 2
        sides = {report.origin_of(l.edge)[0] for l in loop.letters}
        assert sides == {"A", "B"}
        assert is_nonempty_reduced_loop(loop)
        found += 1


def test_certify_on_circle_gives_one_letter_coordinates():
    """The circle's witness is a nonempty reduced loop, and one of its
    letters lies off a spanning tree of W: one basis loop of the vertex
    group at a."""
    report = build_retract(circle_instance())
    loop = witness(report, "a", "b")
    assert is_nonempty_reduced_loop(loop)
    tree = set(spanning_forest(report.w).tree_edge_ids)
    assert len([l for l in loop.letters if l.edge not in tree]) == 1


def test_check_connected_matches_union_graph_components():
    """The report's connectivity, decided from W, and the BFS oracle's, from
    the union of both sides, both match the union graph's components."""
    rng = random.Random(73)
    seen = set()
    for _ in range(200):
        vs = [f"v{i}" for i in range(rng.randint(1, 7))]

        def side(prefix):
            m = rng.randint(0, 4)
            return DirectedGraph(
                vs, [(f"{prefix}{j}", rng.choice(vs), rng.choice(vs)) for j in range(m)]
            )

        inst = PushoutInstance(vs, side("a"), side("b"))
        union, _ = graph_pushout_with_origins(inst.graph_a, inst.graph_b, inst.objects)
        connected = len(components(union)) == 1
        assert (build_retract(inst).k is not None) == brute_rank(inst)[1] == connected
        seen.add(connected)
    assert seen == {True, False}


def test_rank_never_exceeds_union_euler_rank():
    rng = random.Random(71)
    for _ in range(80):
        inst = random_connected_instance(rng, max_objects=10, max_side_edges=16)
        k = build_retract(inst).k
        assert k == brute_rank(inst)[2]
        union, _ = graph_pushout_with_origins(inst.graph_a, inst.graph_b, inst.objects)
        (_, union_rank), = euler_ranks(union)
        assert 0 <= k <= union_rank


def test_internal_invariants_survive_python_dash_o():
    script = textwrap.dedent(
        """
        import freeloop.retract as retract
        import freeloop.vankampen as vankampen
        from freeloop.errors import InternalInvariant
        from freeloop.graphs import DirectedGraph

        real = retract.euler_ranks
        retract.euler_ranks = lambda g: [(block, rank + 1) for block, rank in real(g)]
        g = DirectedGraph(["a", "b"], [("alpha", "a", "b")])
        h = DirectedGraph(["a", "b"], [("beta", "a", "b")])
        try:
            retract.build_retract(retract.PushoutInstance(["a", "b"], g, h))
        except InternalInvariant as exc:
            print(exc.code)

        # components() seen from vankampen splits every graph but the piece,
        # so the generator graph disagrees with the piece it presents.
        real_components = vankampen.components
        vankampen.components = lambda graph: real_components(
            graph if graph is g else DirectedGraph(graph.vertices)
        )
        try:
            vankampen._generators(g, "U", [0, 1], None, g, range(g.e_count))
        except InternalInvariant as exc:
            print(exc.code)

        # A word of signed codes makes its Letters on first read.
        retract.euler_ranks = real
        report = retract.build_retract(retract.PushoutInstance(["a", "b"], g, h))
        loop = retract.witness(report, "a", "b")
        print(loop, len(loop), [(l.edge, l.sign) for l in loop.letters])
        back = retract.include_f(report, loop)
        print(back, len(back), [(l.side, l.edge, l.sign) for l in back.letters])
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "InternalInvariant\n" * 2 + (
        "alpha beta^-1 2 [('alpha', 1), ('beta', -1)]\n"
        "A:alpha B:beta^-1 2 [('A', 'alpha', 1), ('B', 'beta', -1)]\n"
    )


def test_engine_has_no_assert_statements():
    """Every invariant is an explicit error, so none vanishes under ``-O``.
    The oracle modules count too: pytest rewrites only test modules, so an
    ``assert`` in ``tests/support.py`` or the benchmark's checker would be
    stripped there as well."""
    root = Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "freeloop").rglob("*.py"))
    assert modules
    modules += [root / "tests" / "support.py", root / "perfbench" / "checkers.py"]
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
