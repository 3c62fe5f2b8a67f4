"""CLI behaviour: outputs, determinism, exit codes, DOT emission."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from freeloop import cli, errors
from freeloop.errors import SchemaError
from freeloop.graphs import Forest
from freeloop.jsonio import parse_gword, parse_instance
from freeloop.words import Letter
from support import perfbench_module, ring_ladder

CIRCLE_INSTANCE = {
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

CIRCLE_DECOMPOSITION = {
    "space": {
        "vertices": ["a", "b", "p", "q"],
        "edges": [
            {"id": "e1", "src": "a", "tgt": "p"},
            {"id": "e2", "src": "p", "tgt": "b"},
            {"id": "e3", "src": "b", "tgt": "q"},
            {"id": "e4", "src": "q", "tgt": "a"},
        ],
    },
    "u": ["a", "p", "b"],
    "v": ["a", "q", "b"],
}

C8_SCENARIO = {
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "freeloop", *args],
        capture_output=True,
        text=True,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def circle_file(tmp_path):
    return write_json(tmp_path / "circle.json", CIRCLE_INSTANCE)


@pytest.fixture
def decomposition_file(tmp_path):
    return write_json(tmp_path / "dec.json", CIRCLE_DECOMPOSITION)


@pytest.fixture
def scenario_file(tmp_path):
    return write_json(tmp_path / "c8.json", C8_SCENARIO)


def test_pushout_rank_json_is_exact_and_repeatable(circle_file):
    first = run_cli("pushout-rank", circle_file, "--output", "json")
    second = run_cli("pushout-rank", circle_file, "--output", "json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == '{\n  "k": 1,\n  "n_a": 1,\n  "n_b": 1,\n  "n_c": 2\n}\n'


def test_pushout_rank_text(circle_file):
    out = run_cli("pushout-rank", circle_file)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "k = 1"


def test_witness_json_is_repeatable_and_length_two(circle_file):
    first = run_cli("witness", circle_file, "--a", "a", "--b", "b", "--output", "json")
    second = run_cli("witness", circle_file, "--a", "a", "--b", "b", "--output", "json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["source"] == payload["target"] == "a"
    assert payload["letters"] == [
        {"edge": "alpha", "sign": 1},
        {"edge": "beta", "sign": -1},
    ]


def test_witness_text_mentions_length(circle_file):
    out = run_cli("witness", circle_file, "--a", "a", "--b", "b")
    assert "(length 2)" in out.stdout


def test_pbp_check_headline_and_json(scenario_file):
    text = run_cli("pbp-check", scenario_file)
    assert text.returncode == 0
    assert text.stdout.splitlines()[0] == "PBI fails; Z-retract certificate emitted"
    first = run_cli("pbp-check", scenario_file, "--output", "json")
    second = run_cli("pbp-check", scenario_file, "--output", "json")
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["pbi_fails"] is True
    loop = payload["certificate"]["loop_in_space"]
    assert len(loop["letters"]) == 8


def test_pbp_check_reports_holding_scenarios(tmp_path):
    holding = dict(C8_SCENARIO, d=[])
    path = write_json(tmp_path / "hold.json", holding)
    out = run_cli("pbp-check", path, "--output", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"certificate": None, "pbi_fails": False}


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _main(capsys, *argv):
    from freeloop import cli

    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "d, text, json_out",
    [
        (["v0"], None, None),
        (
            [],
            "PBI holds; no certificate.\n",
            '{\n  "certificate": null,\n  "pbi_fails": false\n}\n',
        ),
    ],
    ids=["failing", "holding"],
)
def test_pbp_check_evaluates_separation_once(tmp_path, monkeypatch, capsys, d, text, json_out):
    from freeloop import vankampen

    path = write_json(tmp_path / "sc.json", dict(C8_SCENARIO, d=d))
    for output, expected in (("text", text), ("json", json_out)):
        calls = _counting(monkeypatch, vankampen, "_complement")
        code, out, err = _main(capsys, "pbp-check", path, "--output", output)
        assert (code, err) == (0, "")
        assert len(calls) == 1
        if expected is not None:
            assert out == expected
        monkeypatch.undo()


def test_pushout_rank_decides_connectivity_once(tmp_path, monkeypatch, capsys, circle_file):
    from freeloop import graphs

    # One scan per graph: A and B for their component counts, W for
    # connectivity and ranks.
    calls = _counting(monkeypatch, graphs, "forest_scan")
    assert _main(capsys, "pushout-rank", circle_file) == (
        0,
        "k = 1\nn_a = 1, n_b = 1, n_c = 2\n",
        "",
    )
    assert len(calls) == 3
    objects = ["a", "b", "c", "d"]
    apart = dict(CIRCLE_INSTANCE, objects=objects)
    for side in ("graph_a", "graph_b"):
        apart[side] = dict(apart[side], vertices=objects)
    # Side-A ids "x" and "B:x" with side B's "x" are tagged without a clash
    # ("A:x", "B:x", "B:B:x"); on a disconnected instance connectivity is the
    # error reported.
    clashing = dict(apart, graph_a=dict(apart["graph_a"], edges=[
        {"id": "x", "src": "a", "tgt": "b"},
        {"id": "B:x", "src": "b", "tgt": "c"},
    ]), graph_b=dict(apart["graph_b"], edges=[{"id": "x", "src": "a", "tgt": "b"}]))
    for name, doc in (("apart", apart), ("clashing", clashing)):
        calls.clear()
        assert _main(capsys, "pushout-rank", write_json(tmp_path / f"{name}.json", doc)) == (
            2,
            "",
            "Disconnected: the pushout is not connected; "
            "build_retract reports per-component ranks\n",
        )
        assert len(calls) == 3


def test_default_tie_break_scans_no_graph_twice(tmp_path, monkeypatch, capsys, circle_file):
    """``components`` caches the lex forest next to the partition, so under
    the default tie-break ``retract`` scans A, B and W, and ``pbp-check``
    scans U, V and their intersection once each, then its two generator
    graphs and W.  It never scans the space: connectivity is read off the
    pieces' blocks.  The recorded calls keep every scanned ``_src_idx``
    alive, so distinct ids mean distinct graphs."""
    from freeloop import graphs
    from freeloop.jsonio import parse_scenario
    from freeloop.vankampen import pbp_to_decomposition

    dec = pbp_to_decomposition(parse_scenario(C8_SCENARIO))
    calls = _counting(monkeypatch, graphs, "forest_scan")
    assert _main(capsys, "retract", circle_file)[0] == 0
    assert len(calls) == len({id(src) for _, src, _, _ in calls}) == 3
    calls.clear()
    path = write_json(tmp_path / "sc.json", C8_SCENARIO)
    assert _main(capsys, "pbp-check", path)[::2] == (0, "")
    assert len(calls) == len({id(src) for _, src, _, _ in calls}) == 6
    scanned = [(n, src, tgt) for n, src, tgt, _ in calls]
    assert scanned.count((dec.space.v_count, dec.space._src_idx, dec.space._tgt_idx)) == 0
    for g in (dec.piece_u, dec.piece_v, dec.intersection):
        assert scanned.count((g.v_count, g._src_idx, g._tgt_idx)) == 1


def _edges(triples):
    return [{"id": e, "src": s, "tgt": t} for e, s, t in triples]


def _instance(objects, edges_a, edges_b):
    return {
        "objects": objects,
        "graph_a": {"vertices": objects, "edges": _edges(edges_a)},
        "graph_b": {"vertices": objects, "edges": _edges(edges_b)},
    }


def _retract_json(w_edges, origins, forest_x, forest_y, k, n_a, n_b, n_c):
    payload = {
        "edge_origins": {w: {"edge": e, "side": side} for w, (side, e) in origins.items()},
        "forest_x": forest_x,
        "forest_y": forest_y,
        "k": k,
        "n_a": n_a,
        "n_b": n_b,
        "n_c": n_c,
        "per_component_ranks": [{"component": ["a", "b", "c"], "rank": k}],
        "w": {"edges": _edges(w_edges), "vertices": ["a", "b", "c"]},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_tag_colliding_ids_get_a_repeated_tag(tmp_path, capsys):
    # Side A's "x" and side B's "x" are tagged, and "B:x", already a side-A
    # id, pushes side B's tag to "B:B:x".
    doc = _instance(["a", "b", "c"], [("x", "a", "b"), ("B:x", "b", "c")], [("x", "a", "b")])
    path = write_json(tmp_path / "found.json", doc)
    word = {
        "source": "a",
        "target": "a",
        "letters": [
            {"side": "A", "edge": "x", "sign": 1},
            {"side": "B", "edge": "x", "sign": -1},
        ],
    }
    word_path = write_json(tmp_path / "word.json", word)
    assert _main(capsys, "retract", path, "--output", "json") == (
        0,
        _retract_json(
            [("A:x", "a", "b"), ("B:B:x", "a", "b"), ("B:x", "b", "c")],
            {"A:x": ("A", "x"), "B:B:x": ("B", "x"), "B:x": ("A", "B:x")},
            ["B:x", "x"],
            ["x"],
            k=1, n_a=1, n_b=2, n_c=3,
        ),
        "",
    )
    assert _main(capsys, "rho", path, "--word", word_path) == (
        0, "rho: a -> a: A:x B:B:x^-1\n", ""
    )
    assert _main(capsys, "witness", path, "--a", "a", "--b", "b") == (
        0, "witness loop at a: A:x B:B:x^-1 (length 2)\n", ""
    )
    assert _main(capsys, "pushout-rank", path) == (0, "k = 1\nn_a = 1, n_b = 2, n_c = 3\n", "")


def test_tag_heavy_ids_keep_their_single_tag_names(tmp_path, capsys):
    doc = _instance(
        ["a", "b", "c"], [("p", "a", "b"), ("A:q", "b", "c")], [("p", "b", "a"), ("q", "c", "a")]
    )
    path = write_json(tmp_path / "tagged.json", doc)
    dot = tmp_path / "tagged.dot"
    assert _main(capsys, "retract", path, "--output", "json", "--emit-dot", str(dot)) == (
        0,
        _retract_json(
            [("A:p", "a", "b"), ("A:q", "b", "c"), ("B:p", "b", "a"), ("q", "c", "a")],
            {"A:p": ("A", "p"), "A:q": ("A", "A:q"), "B:p": ("B", "p"), "q": ("B", "q")},
            ["A:q", "p"],
            ["p", "q"],
            k=2, n_a=1, n_b=1, n_c=3,
        ),
        "",
    )
    assert dot.read_text(encoding="utf-8") == (
        'digraph "G" {\n'
        "  node [shape=circle];\n"
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "a" -> "b" [label="A:p", color="#c0392b"];\n'
        '  "b" -> "c" [label="A:q", color="#c0392b"];\n'
        '  "b" -> "a" [label="B:p", color="#2980b9"];\n'
        '  "c" -> "a" [label="q", color="#2980b9"];\n'
        "}\n"
    )


def test_components_and_forest_commands(tmp_path):
    graph = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "x", "src": "a", "tgt": "b"},
            {"id": "y", "src": "b", "tgt": "a"},
        ],
    }
    path = write_json(tmp_path / "graph.json", graph)
    comp = run_cli("components", path, "--output", "json")
    assert json.loads(comp.stdout) == {"components": [["a", "b"], ["c"]]}
    forest = run_cli("forest", path, "--output", "json")
    assert json.loads(forest.stdout) == {"tree_edges": ["x"]}
    tied = run_cli("forest", path, "--tie-break", "y", "--output", "json")
    assert json.loads(tied.stdout) == {"tree_edges": ["y"]}


def test_retract_command_reports_forests_and_w(circle_file):
    out = run_cli("retract", circle_file, "--output", "json")
    payload = json.loads(out.stdout)
    assert payload["k"] == 1
    assert payload["forest_x"] == ["alpha"]
    assert payload["forest_y"] == ["beta"]
    assert payload["edge_origins"]["alpha"] == {"side": "A", "edge": "alpha"}
    assert [e["id"] for e in payload["w"]["edges"]] == ["alpha", "beta"]


def test_rho_command_retracts_tagged_words(circle_file, tmp_path):
    gword = {
        "source": "a",
        "target": "a",
        "letters": [
            {"side": "A", "edge": "alpha", "sign": 1},
            {"side": "B", "edge": "beta", "sign": -1},
        ],
    }
    word_path = write_json(tmp_path / "gword.json", gword)
    out = run_cli("rho", circle_file, "--word", word_path, "--output", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["letters"] == [
        {"edge": "alpha", "sign": 1},
        {"edge": "beta", "sign": -1},
    ]


@pytest.mark.parametrize("sign", [1.0, -1.0, True, 0, "1"])
def test_rho_refuses_a_sign_that_is_not_the_int_1_or_minus_1(circle_file, tmp_path, capsys, sign):
    letter = {"side": "A", "edge": "alpha", "sign": sign}
    gword = {"source": "a", "target": "b", "letters": [letter]}
    word_path = write_json(tmp_path / "gword.json", gword)
    assert cli.main(["rho", circle_file, "--word", word_path]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", 'SchemaError: letter #0 "sign" must be 1 or -1\n')


@pytest.mark.parametrize("side", ["D", "a", "", None, 1, ["A"]])
def test_rho_refuses_a_side_that_is_not_a_b_or_c(circle_file, tmp_path, capsys, side):
    letter = {"side": side, "edge": "alpha", "sign": 1}
    gword = {"source": "a", "target": "b", "letters": [letter]}
    word_path = write_json(tmp_path / "gword.json", gword)
    assert cli.main(["rho", circle_file, "--word", word_path]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", 'SchemaError: letter #0 "side" must be "A", "B", or "C"\n')


def test_a_letter_with_two_faults_reports_its_missing_field_first(circle_file):
    """``GLetter`` checks a letter's side and sign once all three fields are
    read, so a missing or malformed edge or sign is reported before a bad
    side, and a missing edge before a bad sign."""
    inst = parse_instance(json.loads(Path(circle_file).read_text()))
    cases = [
        ({"side": "D", "sign": 1}, "letter #0 is missing required field 'edge'"),
        ({"side": "D", "edge": 1.5, "sign": 1}, 'letter #0 "edge" must be a string or integer id'),
        ({"side": "D", "edge": "alpha"}, "letter #0 is missing required field 'sign'"),
        ({"side": "A", "sign": 2}, "letter #0 is missing required field 'edge'"),
        ({"side": "D", "edge": "alpha", "sign": 2}, 'letter #0 "side" must be "A", "B", or "C"'),
    ]
    for letter, message in cases:
        with pytest.raises(SchemaError) as raised:
            parse_gword({"source": "a", "target": "b", "letters": [letter]}, inst)
        assert str(raised.value) == message


def test_rho_refuses_letters_that_are_not_an_array(circle_file, tmp_path, capsys):
    gword = {"source": "a", "target": "a", "letters": {"side": "A", "edge": "alpha", "sign": 1}}
    word_path = write_json(tmp_path / "gword.json", gword)
    assert cli.main(["rho", circle_file, "--word", word_path]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", 'SchemaError: gword "letters" must be a JSON array\n')


def test_vk_instance_command(decomposition_file):
    out = run_cli("vk-instance", decomposition_file, "--output", "json")
    payload = json.loads(out.stdout)
    assert payload["instance"]["objects"] == ["a", "b"]
    assert payload["translations"]["A"]["t:b"]["letters"] == [
        {"edge": "e1", "sign": 1},
        {"edge": "e2", "sign": 1},
    ]


def test_certify_command_finds_circle_certificate(decomposition_file):
    out = run_cli("certify", decomposition_file, "--output", "json")
    payload = json.loads(out.stdout)
    cert = payload["certificate"]
    assert cert["k"] == 1
    assert [l["edge"] for l in cert["loop_in_space"]["letters"]] == [
        "e1",
        "e2",
        "e3",
        "e4",
    ]


def test_certify_command_reports_absence(tmp_path):
    dec = {
        "space": {
            "vertices": ["a", "b"],
            "edges": [{"id": "x", "src": "a", "tgt": "b"}],
        },
        "u": ["a", "b"],
        "v": ["a", "b"],
    }
    path = write_json(tmp_path / "edge.json", dec)
    out = run_cli("certify", path, "--output", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"certificate": None}


def test_missing_file_exits_one():
    out = run_cli("pushout-rank", "/no/such/file.json")
    assert out.returncode == 1
    assert "IOError" in out.stderr


def test_invalid_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    out = run_cli("pushout-rank", str(path))
    assert out.returncode == 1
    assert "ParseError" in out.stderr


def test_schema_violation_exits_one(tmp_path):
    path = write_json(tmp_path / "shape.json", {"objects": ["a"]})
    out = run_cli("pushout-rank", str(path))
    assert out.returncode == 1
    assert out.stderr.startswith("SchemaError")


def test_duplicate_json_key_exits_one_without_traceback(tmp_path):
    path = tmp_path / "dup.json"
    text = json.dumps(CIRCLE_INSTANCE).replace('"id": "alpha"', '"id": "x", "id": "y"')
    path.write_text(text, encoding="utf-8")
    out = run_cli("retract", str(path))
    assert out.returncode == 1
    assert out.stderr.startswith("SchemaError:")
    assert "'id'" in out.stderr
    assert "Traceback" not in out.stderr


def test_domain_error_exits_two_with_code(circle_file, tmp_path):
    out = run_cli("witness", circle_file, "--a", "a", "--b", "a")
    assert out.returncode == 2
    assert out.stderr.startswith("NotDistinct")
    disconnected = {
        "objects": ["a", "b"],
        "graph_a": {"vertices": ["a", "b"], "edges": []},
        "graph_b": {"vertices": ["a", "b"], "edges": []},
        "c_loops": {},
    }
    path = write_json(tmp_path / "disc.json", disconnected)
    out = run_cli("pushout-rank", str(path))
    assert out.returncode == 2
    assert out.stderr.startswith("Disconnected")


@pytest.mark.parametrize(
    "space, u, v",
    [
        ((["a", "b", "c"], [("x", "a", "b")]), ["a", "b", "c"], ["a", "b", "c"]),
        # No shared vertex, and a piece component missing the intersection:
        # connectivity is still the first check.
        ((["a", "b", "c"], [("x", "a", "b")]), ["a", "b"], ["c"]),
        (
            (["a", "b", "c", "d"], [("x", "a", "b"), ("y", "c", "d")]),
            ["a", "b", "c"],
            ["c", "d", "a"],
        ),
        (([], []), [], []),
    ],
    ids=["isolated-vertex", "empty-intersection", "two-arcs", "empty-space"],
)
def test_certify_on_a_disconnected_space_exits_two(tmp_path, capsys, space, u, v):
    vertices, edges = space
    space = {"vertices": vertices, "edges": _edges(edges)}
    path = write_json(tmp_path / "dec.json", {"space": space, "u": u, "v": v})
    for output in ("text", "json"):
        assert _main(capsys, "certify", path, "--output", output) == (
            2,
            "",
            "Disconnected: the space is not connected\n",
        )


def test_empty_object_set_exits_two_without_traceback(tmp_path):
    empty = {
        "objects": [],
        "graph_a": {"vertices": [], "edges": []},
        "graph_b": {"vertices": [], "edges": []},
    }
    path = write_json(tmp_path / "empty.json", empty)
    out = run_cli("retract", path)
    assert out.returncode == 2
    assert out.stderr.startswith("EmptyObjectSet:")
    assert "Traceback" not in out.stderr


def test_emit_dot_writes_deterministic_styled_graph(circle_file, tmp_path):
    dot1 = tmp_path / "one.dot"
    dot2 = tmp_path / "two.dot"
    run_cli("witness", circle_file, "--a", "a", "--b", "b", "--emit-dot", str(dot1))
    run_cli("witness", circle_file, "--a", "a", "--b", "b", "--emit-dot", str(dot2))
    text = dot1.read_text(encoding="utf-8")
    assert text == dot2.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "#c0392b" in text  # first forest
    assert "#2980b9" in text  # second forest
    assert "penwidth=2.5" in text  # witness highlight


GRAPH = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "x", "src": "a", "tgt": "b"},
        {"id": "y", "src": "b", "tgt": "a"},
        {"id": "z", "src": "c", "tgt": "c"},
    ],
}

CIRCLE_GWORD = {
    "source": "a",
    "target": "a",
    "letters": [
        {"side": "A", "edge": "alpha", "sign": 1},
        {"side": "B", "edge": "beta", "sign": -1},
    ],
}

NO_CERTIFICATE = {
    "space": {"vertices": ["a", "b"], "edges": [{"id": "x", "src": "a", "tgt": "b"}]},
    "u": ["a", "b"],
    "v": ["a", "b"],
}

# Golden name -> (command, input document, extra arguments).  Each command's
# DOT branch appears at least once; tests/golden_dot/<name>.dot pins its DOT
# bytes and tests/golden_json/<name>.json its ``--output json`` stdout.
DOT_CASES = {
    "components": ("components", GRAPH, ()),
    "forest": ("forest", GRAPH, ("--tie-break", "y")),
    "pushout-rank": ("pushout-rank", CIRCLE_INSTANCE, ()),
    "retract": ("retract", CIRCLE_INSTANCE, ()),
    "rho": ("rho", CIRCLE_INSTANCE, ("--word", CIRCLE_GWORD)),
    "witness": ("witness", CIRCLE_INSTANCE, ("--a", "a", "--b", "b")),
    "vk-instance": ("vk-instance", CIRCLE_DECOMPOSITION, ()),
    "certify": ("certify", CIRCLE_DECOMPOSITION, ()),
    "certify-absent": ("certify", NO_CERTIFICATE, ()),
    "pbp-check": ("pbp-check", C8_SCENARIO, ()),
    "pbp-check-holding": ("pbp-check", dict(C8_SCENARIO, d=[]), ()),
}

GOLDEN_DOT = Path(__file__).parent / "golden_dot"
GOLDEN_JSON = Path(__file__).parent / "golden_json"


def _dot_case_argv(tmp_path, name):
    command, doc, extra = DOT_CASES[name]
    argv = [command, write_json(tmp_path / f"{name}.json", doc)]
    for arg in extra:
        argv.append(write_json(tmp_path / f"{name}-word.json", arg) if isinstance(arg, dict) else arg)
    return argv


def test_dot_is_not_built_without_emit_dot(tmp_path, monkeypatch, capsys):
    from freeloop import cli

    dot_calls = _counting(monkeypatch, cli, "graph_dot")
    union_calls = _counting(monkeypatch, cli, "graph_pushout_with_origins")
    commands = set()
    for name in DOT_CASES:
        argv = _dot_case_argv(tmp_path, name)
        commands.add(argv[0])
        for output in ("text", "json"):
            code, out, err = _main(capsys, *argv, "--output", output)
            assert (code, err) == (0, "") and out
    assert len(commands) == 9
    assert (len(dot_calls), len(union_calls)) == (0, 0)
    _main(capsys, *_dot_case_argv(tmp_path, "retract"), "--emit-dot", str(tmp_path / "g.dot"))
    assert (len(dot_calls), len(union_calls)) == (1, 1)


@pytest.mark.parametrize("name", sorted(DOT_CASES))
def test_emit_dot_bytes_match_goldens(tmp_path, capsys, name):
    argv = _dot_case_argv(tmp_path, name)
    dot = tmp_path / "out.dot"
    for output in ("text", "json"):
        plain = _main(capsys, *argv, "--output", output)
        assert _main(capsys, *argv, "--output", output, "--emit-dot", str(dot)) == plain
        assert dot.read_bytes() == (GOLDEN_DOT / f"{name}.dot").read_bytes()
        dot.unlink()


@pytest.mark.parametrize("name", sorted(DOT_CASES))
def test_json_output_bytes_match_goldens(tmp_path, capsys, name):
    code, out, err = _main(capsys, *_dot_case_argv(tmp_path, name), "--output", "json")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN_JSON / f"{name}.json").read_bytes()


# Runs each argv (a JSON list) through ``cli.main`` in one process and prints
# the exit codes and stdout texts as JSON.
_RUN_ALL = """
import contextlib, io, json, sys
from freeloop import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    runs = [
        _dot_case_argv(tmp_path, name) + ["--output", output]
        for name in sorted(DOT_CASES)
        for output in ("text", "json")
    ]
    assert len({argv[0] for argv in runs}) == 9
    stdout = [
        subprocess.run(
            [sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert stdout[0] == stdout[1]
    assert all(code == 0 and out for code, out in json.loads(stdout[0]))

# -- the cyclic collector is paused while a command runs ----------------------


def _exit_cases(tmp_path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of runs that end in exit 1 or 2."""
    circle = write_json(tmp_path / "circle.json", CIRCLE_INSTANCE)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    no_edges = {"vertices": ["a", "b"], "edges": []}
    apart = dict(CIRCLE_INSTANCE, graph_a=no_edges, graph_b=no_edges)
    return [
        (["retract", str(bad)], 1),
        (["retract", str(deep)], 1),
        (["pushout-rank", str(tmp_path / "missing.json")], 1),
        (["pushout-rank", write_json(tmp_path / "shape.json", {"objects": ["a"]})], 1),
        (["witness", circle, "--a", "a", "--b", "a"], 2),
        (["pushout-rank", write_json(tmp_path / "apart.json", apart)], 2),
        (["pbp-check", write_json(tmp_path / "in-d.json", dict(C8_SCENARIO, a="v0"))], 2),
    ]


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, capsys, collecting):
    seen = []
    real_run = cli._run

    def run(args):
        seen.append(gc.isenabled())
        return real_run(args)

    monkeypatch.setattr(cli, "_run", run)
    cases = [(_dot_case_argv(tmp_path, "pbp-check"), 0)] + _exit_cases(tmp_path)
    assert {code for _, code in cases} == {0, 1, 2}
    was = gc.isenabled()
    try:
        for argv, code in cases:
            gc.enable() if collecting else gc.disable()
            assert cli.main(argv) == code, argv
            assert gc.isenabled() is collecting
        gc.enable() if collecting else gc.disable()
        with pytest.raises(SystemExit) as usage:
            cli.main(["no-such-command"])
        assert usage.value.code == 2
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()
    assert seen == [False] * len(cases)


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    """With the collector off, a collection after each run finds nothing:
    every ``DOT_CASES`` entry (text, json, ``--emit-dot``), exit-1 and exit-2
    inputs, and the inputs of both CLI benchmark workloads."""
    dot = str(tmp_path / "g.dot")
    cases = [
        (_dot_case_argv(tmp_path, name) + extra, 0)
        for name in sorted(DOT_CASES)
        for extra in (["--output", "text"], ["--output", "json"], ["--emit-dot", dot])
    ]
    cases += _exit_cases(tmp_path)
    inputs = perfbench_module("inputs")
    cycle = inputs.cycle_scenario(random.Random("pbp_cycle-1"), 4000)
    instance = inputs.pushout_instance(random.Random("retract_random-1"), 1500, 6000)
    cases += [
        (["pbp-check", write_json(tmp_path / "cycle.json", cycle), "--output", "json"], 0),
        (["retract", write_json(tmp_path / "instance.json", instance), "--output", "json"], 0),
    ]
    was = gc.isenabled()
    gc.disable()
    try:
        for argv, code in cases:
            gc.collect()
            assert cli.main(argv) == code, argv
            assert gc.collect() == 0, argv
            capsys.readouterr()
    finally:
        if was:
            gc.enable()


# -- certificates expand only what the witness names -------------------------


def _ladder_check(tmp_path, monkeypatch, capsys, n):
    """pbp-check on an n-rung ring ladder: (loop length, Letters built on
    space edges with --output json, the same with text output, codes walked
    along forests, basepoints, deepest vertex the forests' searches reached)."""
    doc = ring_ladder(random.Random(n), n)
    path = write_json(tmp_path / f"ladder{n}.json", doc)
    built, walked = [], []
    post_init, path_codes = Letter.__post_init__, Forest._path_codes

    def counting(self):
        built.append(self.edge)
        post_init(self)

    def walking(self, i, j):
        codes = path_codes(self, i, j)
        walked.append((self, len(codes)))
        return codes

    monkeypatch.setattr(Letter, "__post_init__", counting)
    monkeypatch.setattr(Forest, "_path_codes", walking)
    code, out, err = _main(capsys, "pbp-check", path, "--output", "json")
    assert (code, err) == (0, "")
    space_edges = {e["id"] for e in doc["space"]["edges"]}
    json_letters = sum(e in space_edges for e in built)
    walk = sum(length for _, length in walked)
    # A forest is searched only as far as its queries go; unreached
    # vertices have depth -1, and every walked code is a step of a climb
    # between reached vertices.
    depth = max(max(forest._nav[2]) for forest, _ in walked)
    built.clear()
    code, _, err = _main(capsys, "pbp-check", path)
    monkeypatch.undo()
    assert (code, err) == (0, "")
    cert = json.loads(out)["certificate"]
    return (
        len(cert["loop_in_space"]["letters"]),
        json_letters,
        sum(e in space_edges for e in built),
        walk,
        len(cert["basepoints"]),
        depth,
    )


def test_pbp_check_expands_only_the_witness_generators(tmp_path, monkeypatch, capsys):
    """A ring ladder has n + 1 independent cycles, so expanding every
    generator costs O(#cycles x diameter) = O(n^2) codes.  pbp-check walks
    O(loop length + basepoints x tree depth) codes, so doubling n at most
    about doubles the walk.  Its certificate words hold signed codes: the
    JSON writer builds no Letter, and the text report builds at most one per
    letter of the loop."""
    walks = []
    for n in (64, 128):
        loop, json_letters, text_letters, walked, basepoints, depth = _ladder_check(
            tmp_path, monkeypatch, capsys, n
        )
        assert loop >= n
        assert json_letters == 0
        assert 0 < text_letters <= loop
        assert walked <= loop + basepoints * depth
        walks.append(walked)
    assert walks[1] <= 2.5 * walks[0]


@pytest.mark.parametrize(
    "raw",
    [
        b'{"objects": ["\xff"]}',
        b"[" * 100_000 + b"]" * 100_000,
        # Longer than the interpreter's int conversion limit of 4,300 digits.
        b'{"objects": [' + b"9" * 5000 + b"]}",
    ],
    ids=["invalid-utf8", "nested-100k", "int-5000-digits"],
)
def test_unreadable_json_exits_one_with_parse_error(tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    out = run_cli("retract", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("ParseError: ")
    assert "Traceback" not in out.stderr


def test_lone_surrogate_id_exits_one_and_writes_nothing(tmp_path):
    # A lone surrogate decodes from JSON but has no UTF-8 encoding.
    graph = '{"vertices": ["a", "\\ud800"], "edges": [{"id": "\\udfff", "src": "a", "tgt": "a"}]}'
    path = tmp_path / "surrogate.json"
    path.write_text(graph, encoding="ascii")
    dot = tmp_path / "g.dot"
    for argv in (
        ["components", str(path)],
        ["components", str(path), "--output", "json"],
        ["components", str(path), "--emit-dot", str(dot)],
        # The forest has no edge, so only the DOT text holds a surrogate.
        ["forest", str(path), "--emit-dot", str(dot)],
    ):
        out = run_cli(*argv)
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr.startswith("EncodeError: ")
        assert "Traceback" not in out.stderr
        assert not dot.exists()
    assert run_cli("forest", str(path)).stdout == "spanning forest: 0 tree edge(s) of 1\n"


def test_output_the_stdout_encoding_cannot_hold_exits_one_and_writes_nothing(tmp_path):
    graph = {"vertices": ["é"], "edges": []}
    path = write_json(tmp_path / "g.json", graph)
    dot = tmp_path / "g.dot"
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    for output in ("text", "json"):
        out = subprocess.run(
            [sys.executable, "-m", "freeloop", "components", path, "--output", output,
             "--emit-dot", str(dot)],
            capture_output=True,
            env=env,
        )
        assert (out.returncode, out.stdout) == (1, b"")
        assert out.stderr.startswith(b"EncodeError: ")
        assert b"Traceback" not in out.stderr
        assert not dot.exists()


# -- fuzz: every input ends in an exit code and a stable stderr code ----------

# The first token of stderr on a failing run.
ERROR_CODES = {"ParseError", "SchemaError", "EncodeError", "IOError", "UsageError"} | {
    obj.__name__
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.DomainError)
}
SEED_DOCS = (GRAPH, CIRCLE_INSTANCE, CIRCLE_DECOMPOSITION, C8_SCENARIO, NO_CERTIFICATE, CIRCLE_GWORD)
RAW_SEEDS = (
    b"{not json",
    b'{"objects": ["\xff"]}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"objects": [' + b"9" * 5000 + b"]}",
    b'{"vertices": ["a", "\\ud800"], "edges": [{"id": "\\udfff", "src": "a", "tgt": "a"}]}',
    json.dumps(CIRCLE_INSTANCE).replace('"id": "alpha"', '"id": "x", "id": "y"').encode(),
)
# Ids and keys the seed documents use, a few ints, tag-like and odd strings.
ID_POOL = ("a", "b", "v0", "v2", "v4", "alpha", "beta", "e1", "x", "A:x", "B:x", "t:b", "", "é", 0, 1)
KEYS = (
    "vertices", "edges", "id", "src", "tgt", "objects", "graph_a", "graph_b", "c_loops",
    "space", "u", "v", "d", "e", "source", "target", "letters", "edge", "sign", "side",
)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3)
    | st.sampled_from(ID_POOL),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _mutated(draw, rng, value, odds):
    """``value`` with about one node in ``odds`` replaced, and some entries
    dropped, duplicated or added; ``rng`` makes the choices, so each one has
    its stated odds, and ``draw`` the new values."""
    roll = rng.randrange(odds)
    if roll == 0:
        return draw(JSON_VALUES)
    if isinstance(value, dict):
        out = {k: _mutated(draw, rng, v, odds) for k, v in value.items() if rng.randrange(odds)}
        if roll == 1:
            out[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
        return out
    if isinstance(value, list):
        out = [_mutated(draw, rng, v, odds) for v in value if rng.randrange(odds)]
        if roll == 1:
            out.insert(rng.randint(0, len(out)), draw(JSON_VALUES))
        if roll == 2 and out:
            out.append(out[0])
        return out
    if roll == 1:
        return rng.choice(ID_POOL)
    return value


# The documents each command reads; a case uses another one now and then.
COMMAND_DOCS = {
    "components": (GRAPH,),
    "forest": (GRAPH,),
    "pushout-rank": (CIRCLE_INSTANCE,),
    "retract": (CIRCLE_INSTANCE,),
    "rho": (CIRCLE_INSTANCE,),
    "witness": (CIRCLE_INSTANCE,),
    "vk-instance": (CIRCLE_DECOMPOSITION,),
    "certify": (CIRCLE_DECOMPOSITION, NO_CERTIFICATE),
    "pbp-check": (C8_SCENARIO, dict(C8_SCENARIO, d=[])),
}


@st.composite
def _documents(draw, seeds) -> bytes:
    """One of ``seeds`` (or of any seed document), mutated, then sometimes
    cut short or with one byte changed; or one of the raw seeds."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pick = rng.randrange(20)
    if pick == 0:
        return rng.choice(RAW_SEEDS)
    doc = rng.choice(SEED_DOCS if pick == 1 else seeds)
    raw = json.dumps(_mutated(draw, rng, doc, rng.choice((10_000, 150, 30)))).encode()
    edit = rng.randrange(20)
    if edit == 0:
        raw = raw[: rng.randint(0, len(raw))]
    elif edit == 1:
        i = rng.randint(0, len(raw))
        raw = raw[:i] + bytes([rng.randrange(256)]) + raw[i + 1 :]
    return raw


# Argument lists argparse refuses: a flag with no value, a flag whose value
# is passed as a separate argument starting with "-", and an unknown command.
USAGE_ERRORS = ("no value", "dash value", "unknown command")


def _usage_argv(argv: list[str], usage: str) -> list[str]:
    if usage == "no value":
        return argv + ["--output"]
    if usage == "dash value":
        return argv + ["--tie-break", "-x"]
    return ["no-such-command", *argv[1:]]


@st.composite
def _cli_cases(draw):
    """(command, input bytes, word bytes, flags, --a, --b, --emit-dot kind,
    usage error): ``--word``, ``--a`` and ``--b`` are passed only where the
    command takes them, the kind is ``"file"``, ``"missing-dir"`` or None,
    and the usage error is one of ``USAGE_ERRORS`` or, mostly, None."""
    command = draw(st.sampled_from(sorted(COMMAND_DOCS)))
    flags = ["--output", draw(st.sampled_from(("text", "json")))]
    if draw(st.booleans()):
        tie = draw(st.one_of(st.text(max_size=6), st.sampled_from(("lex", "beta,alpha", "x,,A:x"))))
        flags.append(f"--tie-break={tie}")
    ids = st.one_of(st.sampled_from(ID_POOL).map(str), st.text(max_size=3))
    return (
        command,
        draw(_documents(COMMAND_DOCS[command])),
        draw(_documents((CIRCLE_GWORD,))),
        flags,
        draw(ids),
        draw(ids),
        draw(st.sampled_from((None, "file", "missing-dir"))),
        draw(st.sampled_from(USAGE_ERRORS + (None,) * 27)),
    )


def _seeded(test):
    """``test`` with the pinned inputs above as explicit examples."""
    for command, doc, extra in DOT_CASES.values():
        word = extra[1] if command == "rho" else CIRCLE_GWORD
        flags = [] if command in ("rho", "witness") else list(extra)
        doc, word = json.dumps(doc).encode(), json.dumps(word).encode()
        test = example(case=(command, doc, word, flags, "a", "b", "file", None))(test)
    for raw in RAW_SEEDS:
        test = example(case=("retract", raw, b"{}", [], "a", "b", None, None))(test)
    circle = json.dumps(CIRCLE_INSTANCE).encode()
    for usage in USAGE_ERRORS:
        test = example(case=("witness", circle, b"{}", [], "a", "b", None, usage))(test)
    return test



@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, deadline=None)
@_seeded
@given(case=_cli_cases())
def test_cli_fuzz_ends_in_an_exit_code_and_a_stable_error_code(fuzz_dir, case):
    command, doc, word, flags, a, b, dot, usage = case
    (fuzz_dir / "in.json").write_bytes(doc)
    (fuzz_dir / "word.json").write_bytes(word)
    argv = [command, str(fuzz_dir / "in.json"), *flags]
    if command == "rho":
        argv.append(f"--word={fuzz_dir / 'word.json'}")
    if command == "witness":
        argv += [f"--a={a}", f"--b={b}"]
    if dot is not None:
        target = fuzz_dir / ("g.dot" if dot == "file" else "no-such-dir/g.dot")
        argv.append(f"--emit-dot={target}")
    if usage is not None:
        argv = _usage_argv(argv, usage)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # how argparse ends a usage error
            code = exc.code
    if usage is not None:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("UsageError: ") and err.getvalue().count("\n") == 1
    elif code == 0:
        assert err.getvalue() == "" and out.getvalue()
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert err.getvalue().split(":", 1)[0] in ERROR_CODES, err.getvalue()[:200]
    assert "Traceback" not in err.getvalue()


def test_importing_the_cli_loads_no_typing():
    """The package takes its annotations' names from ``collections.abc``, so
    ``import freeloop.cli`` does not pay for ``typing``.  ``-S`` keeps the
    ``site`` module, which may import anything, out of the count."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, freeloop.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'typing'))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
