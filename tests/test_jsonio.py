"""The canonical JSON writer against the stdlib encoder it replaces."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from freeloop.errors import InternalInvariant
from freeloop.jsonio import canonical_json


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


# Characters the quoting escapes, or must pass through unescaped, spliced
# into arbitrary text.  Each piece is drawn as one string, not one character
# at a time, which keeps data generation cheap.
TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é日\U0001f4a5\ufeff'
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
TEXT = st.tuples(ANY_TEXT, st.text(TRICKY, max_size=3), ANY_TEXT).map("".join)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    TEXT,
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        # Repeated keys collapse rather than being drawn again.
        st.lists(st.tuples(TEXT, inner), max_size=5).map(dict),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_equals_the_stdlib_encoder(payload):
    assert canonical_json(payload) == stdlib(payload)


# Records that share one key set: the shape the writer takes a column at a
# time when every column is all str or all plain int, and recursively
# otherwise.  Keys include the template's "%" and the characters the quoting
# escapes.
RECORD_KEYS = st.one_of(TEXT, st.sampled_from(["", "%", "%s", "%%", "%(a)s", '"', "\\", "é", "日"]))
# A column of values that are nested one level at most, with mixed scalar types.
NESTED = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(st.tuples(TEXT, SCALARS), max_size=3).map(dict),
)
COLUMN_KINDS = st.sampled_from(
    [
        TEXT,
        st.integers(-5, 5),
        st.integers(min_value=-(2**200), max_value=2**200),
        st.booleans(),
        st.none(),
        st.one_of(TEXT, st.integers()),
        NESTED,
    ]
)


def _distinct(keys):
    """``keys`` in order, each repeat suffixed with "~" until it is new:
    distinct keys, and no filter that retries draws."""
    out = []
    for key in keys:
        while key in out:
            key += "~"
        out.append(key)
    return out


@st.composite
def records(draw):
    """2-6 dicts with one key set, now and then with one record's keys
    changed, as a list or as the values of a dict."""
    keys = _distinct(draw(st.lists(RECORD_KEYS, max_size=4)))
    n = draw(st.integers(2, 6))
    columns = {}
    for key in keys:
        kind = draw(COLUMN_KINDS)
        columns[key] = [draw(kind) for _ in range(n)]
    # Each record lists its keys in an order of its own.
    shuffle = draw(st.randoms(use_true_random=False)).sample
    rows = [{key: columns[key][i] for key in shuffle(keys, len(keys))} for i in range(n)]
    if keys and draw(st.integers(0, 4)) == 0:
        # One record loses a key, or has it renamed, so the key sets differ.
        row = rows[draw(st.integers(0, n - 1))]
        value = row.pop(keys[0])
        if draw(st.booleans()):
            row[keys[0] + "~"] = value
    if draw(st.booleans()):
        return rows
    return dict(zip(_distinct(draw(st.lists(RECORD_KEYS, min_size=n, max_size=n))), rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(records(), st.lists(records(), max_size=3), st.lists(st.tuples(TEXT, records()), max_size=3).map(dict)))
def test_writer_equals_the_stdlib_encoder_on_records(payload):
    assert canonical_json(payload) == stdlib(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        "",
        {"": []},
        [{}, [], [[]], {"a": {}}],
        {"b": 1, "a": [None, True, False], "é": "\u2028", "A": 'q"\\'},
        2**64,
        -(2**100),
        [0, -0, 1, -1],
        "\x00\x1f\x7f",
    ],
)
def test_writer_on_edge_payloads(payload):
    assert canonical_json(payload) == stdlib(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {1: "int key"},
        {"a": 1, 2: "mixed keys"},
        {None: 1},
        [1.5],
        {"t": (1, 2)},
        {"s": {"set"}},
        b"bytes",
        [object()],
        [{1: "a"}, {1: "b"}],
        [{"a": 1.5}, {"a": 2.5}],
        {"x": {"a": (1,)}, "y": {"a": (2,)}},
    ],
)
def test_writer_rejects_other_types_as_an_invariant(payload):
    with pytest.raises(InternalInvariant):
        canonical_json(payload)


def test_writer_rejection_survives_optimize_mode():
    code = (
        "from freeloop.errors import InternalInvariant\n"
        "from freeloop.jsonio import canonical_json\n"
        "for bad in ({1: 2}, [1.5], {'a': 1, 2: 3}, [{1: 'a'}, {1: 'b'}]):\n"
        "    try:\n"
        "        canonical_json(bad)\n"
        "    except InternalInvariant:\n"
        "        continue\n"
        "    raise SystemExit('accepted ' + repr(bad))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
