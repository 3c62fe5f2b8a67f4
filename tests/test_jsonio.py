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


# Characters the quoting escapes, or must pass through unescaped, mixed into
# arbitrary text.
TRICKY = st.sampled_from(['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f",
                          "\x7f", "\u2028", "\u2029", "é", "日", "\U0001f4a5", "\ufeff"])
TEXT = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), TRICKY), max_size=12)
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
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_equals_the_stdlib_encoder(payload):
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
    ],
)
def test_writer_rejects_other_types_as_an_invariant(payload):
    with pytest.raises(InternalInvariant):
        canonical_json(payload)


def test_writer_rejection_survives_optimize_mode():
    code = (
        "from freeloop.errors import InternalInvariant\n"
        "from freeloop.jsonio import canonical_json\n"
        "for bad in ({1: 2}, [1.5], {'a': 1, 2: 3}):\n"
        "    try:\n"
        "        canonical_json(bad)\n"
        "    except InternalInvariant:\n"
        "        continue\n"
        "    raise SystemExit('accepted ' + repr(bad))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
