"""Acceptance gate: the seven headline checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
expected value here is either pinned arithmetic or comes from an independent
oracle in support.py; the engines under test never grade themselves.
"""

from __future__ import annotations

import functools
import json
import random
import subprocess
import sys
import time

from freeloop.graphs import euler_ranks, spanning_forest
from freeloop.retract import GWord, build_retract, include_f, rho, witness
from freeloop.vankampen import (
    PbpScenario,
    certificate_basepoints_for,
    decomposition_to_instance,
    detect_z_retract,
    pbi_fails,
    pbp_to_decomposition,
)
from freeloop.words import Word, compose, tree_path

from support import (
    block_number,
    brute_rank,
    c8_space,
    circle_decomposition,
    circle_instance,
    enumerate_reduced_words,
    forest_graph,
    is_forest_graph,
    is_nonempty_reduced_loop,
    random_connected_instance,
    random_cycle_split,
    random_decomposition,
    random_gword,
    random_graph,
    random_reduced_word,
)


def criterion(n, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"FAIL criterion {n}: {description}")
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"PASS criterion {n}: {description}{suffix}")

        return wrapper

    return deco


@criterion(1, "BFS rank formula, report.k and euler rank of W agree on 500 random connected instances")
def test_criterion_1_rank_formula_equivalence():
    rng = random.Random(2026)
    started = time.perf_counter()
    for _ in range(500):
        inst = random_connected_instance(rng, max_objects=20, max_side_edges=40)
        report = build_retract(inst)
        (_, w_rank), = report.per_component_ranks
        counts, connected, k = brute_rank(inst)
        assert connected and k == report.k == w_rank
        assert counts == (report.n_a, report.n_b, report.n_c)
        assert report.per_component_ranks == tuple(euler_ranks(report.w))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"{elapsed:.2f}s for 500 instances"


@criterion(2, "circle instance: counts (1,1,2), k=1, witness a nonempty reduced loop of length 2")
def test_criterion_2_circle_benchmark():
    inst = circle_instance()
    assert brute_rank(inst) == ((1, 1, 2), True, 1)
    report = build_retract(inst)
    assert (report.n_a, report.n_b, report.n_c, report.k) == (1, 1, 2, 1)
    loop = witness(report, "a", "b")
    assert len(loop) == 2
    assert is_nonempty_reduced_loop(loop)


@criterion(3, "retraction identity and functoriality, 1000 samples each")
def test_criterion_3_retraction_identity_suite():
    rng = random.Random(4051)
    identity_checks = 0
    functor_checks = 0
    for _ in range(50):
        inst = random_connected_instance(rng, max_objects=12, max_side_edges=24)
        report = build_retract(inst)
        for _ in range(20):
            w = random_reduced_word(rng, report.w)
            assert rho(report, include_f(report, w)) == w
            identity_checks += 1
        for _ in range(20):
            g1 = random_gword(rng, inst)
            g2 = random_gword(rng, inst, source=g1.target)
            g12 = GWord(inst, g1.source, g2.target, g1.letters + g2.letters)
            assert rho(report, g12) == compose(rho(report, g1), rho(report, g2))
            functor_checks += 1
    assert identity_checks == functor_checks == 1000
    return "1000 round trips, 1000 composable pairs"


@criterion(4, "forests have exactly one reduced word per same-tree pair, the tree path")
def test_criterion_4_forest_groupoid_oracle():
    rng = random.Random(907)
    pairs_checked = 0
    for _ in range(100):
        g = random_graph(rng, max_v=8, max_e=12)
        fg = forest_graph(spanning_forest(g))
        forest = spanning_forest(fg)
        words = enumerate_reduced_words(fg)
        number = block_number(fg)
        for u in fg.vertices:
            for v in fg.vertices:
                if number[u] == number[v]:
                    candidates = words[(u, v)]
                    assert len(candidates) == 1
                    assert Word(fg, u, v, candidates[0]) == tree_path(
                        forest, u, v
                    )
                else:
                    assert (u, v) not in words
                pairs_checked += 1
    return f"{pairs_checked} ordered pairs"


@criterion(5, "k bounded by the space's cycle rank; equality when both pieces are forests")
def test_criterion_5_retract_bound():
    rng = random.Random(613)
    decs = [random_decomposition(rng) for _ in range(70)]
    decs += [random_cycle_split(rng) for _ in range(30)]
    forest_cases = 0
    for dec in decs:
        inst, _ = decomposition_to_instance(dec)
        _, _, k = brute_rank(inst)
        assert k == build_retract(inst).k
        (_, space_rank), = euler_ranks(dec.space)
        assert 0 <= k <= space_rank
        if is_forest_graph(dec.piece_u) and is_forest_graph(dec.piece_v):
            assert k == space_rank
            forest_cases += 1
    circle = circle_decomposition()
    assert is_forest_graph(circle.piece_u) and is_forest_graph(circle.piece_v)
    inst, _ = decomposition_to_instance(circle)
    (_, circle_rank), = euler_ranks(circle.space)
    assert brute_rank(inst)[2] == build_retract(inst).k == circle_rank == 1
    assert forest_cases > 0
    return f"100 decompositions, {forest_cases} with forest pieces"


@criterion(6, "antipodal cycle scenario fails PBI and certifies; control scenario holds")
def test_criterion_6_pbp_pipeline():
    space = c8_space()
    sc = PbpScenario(space, ["v0"], ["v4"], "v2", "v6")
    assert pbi_fails(sc)
    dec = pbp_to_decomposition(sc)
    cert = detect_z_retract(dec, prefer=certificate_basepoints_for(dec, "v2", "v6"))
    assert cert is not None
    assert is_nonempty_reduced_loop(cert.loop_in_space)
    assert is_nonempty_reduced_loop(cert.retract_image)
    control = PbpScenario(space, [], ["v4"], "v2", "v6")
    assert not pbi_fails(control)
    return "certificate loops are nonempty and reduced under the naive oracle"


@criterion(7, "the three CLI examples are byte-identical across repeated runs")
def test_criterion_7_cli_golden(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        circle = tmp / "circle.json"
        circle.write_text(
            json.dumps(
                {
                    "objects": ["a", "b"],
                    "graph_a": {
                        "vertices": ["a", "b"],
                        "edges": [{"id": "alpha", "src": "a", "tgt": "b"}],
                    },
                    "graph_b": {
                        "vertices": ["a", "b"],
                        "edges": [{"id": "beta", "src": "a", "tgt": "b"}],
                    },
                    "c_loops": {},
                }
            ),
            encoding="utf-8",
        )
        scenario = tmp / "c8.json"
        scenario.write_text(
            json.dumps(
                {
                    "space": {
                        "vertices": [f"v{i}" for i in range(8)],
                        "edges": [
                            {"id": f"c{i}", "src": f"v{i}", "tgt": f"v{(i + 1) % 8}"}
                            for i in range(8)
                        ],
                    },
                    "d": ["v0"],
                    "e": ["v4"],
                    "a": "v2",
                    "b": "v6",
                }
            ),
            encoding="utf-8",
        )
        invocations = [
            ["pushout-rank", str(circle), "--output", "json"],
            ["witness", str(circle), "--a", "a", "--b", "b", "--output", "json"],
            ["pbp-check", str(scenario), "--output", "json"],
        ]
        for argv in invocations:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "freeloop", *argv],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout
        rank_out = subprocess.run(
            [sys.executable, "-m", "freeloop", *invocations[0]],
            capture_output=True,
            check=True,
        ).stdout
        assert rank_out == b'{\n  "k": 1,\n  "n_a": 1,\n  "n_b": 1,\n  "n_c": 2\n}\n'
    return "3 commands, 2 runs each"
