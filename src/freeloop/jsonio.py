"""JSON parsing and serialization for every document the CLI exchanges.

Field names are part of the cross-tool contract and are matched exactly.
Shape problems (wrong type, missing key, stray letter sign) raise
:class:`SchemaError`; semantically invalid but well-shaped input raises the
relevant domain error from the engine that rejects it.

Output goes through :func:`canonical_json`, which gives the stdlib
encoder's bytes.  It writes a list of only ``str`` or only plain ``int``,
and two or more dicts with one key set whose every column is such a list,
a column at a time; everything else takes its recursive path, with the same
bytes.

A word document's ``letters`` are not a list of dicts: :func:`dump_word`
puts the word's host ids and signed codes there, and the writer quotes only
the ids the word uses, fills in one record text per distinct code and joins
the records in code order.  A letter costs no dict and no Python call, and
a payload of one word per generator, as ``vk-instance`` writes, stays
linear in its letters.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from json.encoder import encode_basestring
from operator import itemgetter

from .errors import BadSign, InternalInvariant, SchemaError, UnknownSide
from .graphs import DirectedGraph
from .retract import GLetter, GWord, PushoutInstance, RetractReport
from .vankampen import Decomposition, PbpScenario, ZRetractCertificate
from .words import Word


def _require(obj: object, key: str, where: str) -> object:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where} is missing required field {key!r}")
    return obj[key]


def _id_list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a JSON array")
    for x in value:
        if not isinstance(x, (str, int)) or isinstance(x, bool):
            raise SchemaError(f"{where} entries must be strings or integers")
    return value


def _id_value(value: object, where: str) -> str:
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise SchemaError(f"{where} must be a string or integer id")
    return str(value)


def parse_graph(obj: object) -> DirectedGraph:
    """The graph document ``obj``, checked in one pass over its edges.

    An edge object whose three fields are strings is taken as it stands;
    any other entry gets the per-field checks, so the first bad edge raises
    the same :class:`SchemaError` either way.  The ids are then str, and
    the graph checks run without coercing them again.
    """
    vertices = _id_list(_require(obj, "vertices", "graph"), 'graph "vertices"')
    raw_edges = _require(obj, "edges", "graph")
    if not isinstance(raw_edges, list):
        raise SchemaError('graph "edges" must be a JSON array')
    edges = []
    for i, entry in enumerate(raw_edges):
        if type(entry) is dict:
            e, s, t = entry.get("id"), entry.get("src"), entry.get("tgt")
            if type(e) is str and type(s) is str and type(t) is str:
                edges.append((e, s, t))
                continue
        where = f"edge #{i}"
        edges.append(
            (
                _id_value(_require(entry, "id", where), f'{where} "id"'),
                _id_value(_require(entry, "src", where), f'{where} "src"'),
                _id_value(_require(entry, "tgt", where), f'{where} "tgt"'),
            )
        )
    return DirectedGraph._checked(list(map(str, vertices)), edges)


def dump_graph(g: DirectedGraph) -> dict:
    vertex = g.vertices.__getitem__
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e, "src": vertex(s), "tgt": vertex(t)}
            for e, s, t in zip(g.edge_ids, g._src_idx, g._tgt_idx)
        ],
    }


def dump_word(w: Word) -> dict:
    """The word document of ``w`` for :func:`canonical_json`, which writes
    its ``letters`` from the word's signed edge codes."""
    return {"source": w.source, "target": w.target, "letters": _Letters(w)}


# A letter's sign as written, indexed by whether its code is positive.
_SIGNS = ("-1", "1")


class _Letters:
    """A word's letters, as :func:`canonical_json` writes them: an array of
    ``{"edge": id, "sign": 1 or -1}`` objects, from the host's edge ids and
    the word's signed codes, with no dict per letter."""

    __slots__ = ("ids", "codes")

    def __init__(self, w: Word):
        self.ids, self.codes = w.host.edge_ids, w._codes

    def json(self, newline: str) -> str:
        """The array as it stands after ``newline``.  Only the ids the word
        uses are quoted, one record text is filled in per distinct code, and
        one C-level ``map`` looks each letter's record up."""
        codes = self.codes
        if not codes:
            return "[]"
        inner = newline + "  "
        field = inner + "  "
        template = "{" + field + '"edge": %s,' + field + '"sign": %s' + inner + "}"
        ids = self.ids
        quoted = {i: encode_basestring(ids[i - 1]) for i in set(map(abs, codes))}
        record = {c: template % (quoted[abs(c)], _SIGNS[c > 0]) for c in set(codes)}
        return "[" + inner + ("," + inner).join(map(record.__getitem__, codes)) + newline + "]"


def parse_instance(obj: object) -> PushoutInstance:
    objects = _id_list(_require(obj, "objects", "instance"), 'instance "objects"')
    graph_a = parse_graph(_require(obj, "graph_a", "instance"))
    graph_b = parse_graph(_require(obj, "graph_b", "instance"))
    raw_loops = obj.get("c_loops", {})
    if not isinstance(raw_loops, Mapping):
        raise SchemaError('instance "c_loops" must be a JSON object')
    c_loops = {
        _id_value(v, 'c_loops key'): _id_list(ids, f"c_loops[{v!r}]")
        for v, ids in raw_loops.items()
    }
    return PushoutInstance(objects, graph_a, graph_b, c_loops)


def dump_instance(inst: PushoutInstance) -> dict:
    return {
        "objects": list(inst.objects),
        "graph_a": dump_graph(inst.graph_a),
        "graph_b": dump_graph(inst.graph_b),
        "c_loops": {v: list(ids) for v, ids in inst.c_loops},
    }


def parse_gword(obj: object, instance: PushoutInstance) -> GWord:
    source = _id_value(_require(obj, "source", "gword"), 'gword "source"')
    target = _id_value(_require(obj, "target", "gword"), 'gword "target"')
    raw = _require(obj, "letters", "gword")
    if not isinstance(raw, list):
        raise SchemaError('gword "letters" must be a JSON array')
    letters = []
    for i, entry in enumerate(raw):
        where = f"letter #{i}"
        side = _require(entry, "side", where)
        edge = _id_value(_require(entry, "edge", where), f'{where} "edge"')
        sign = _require(entry, "sign", where)
        # GLetter is the one check of a side and a sign.
        try:
            letters.append(GLetter(side, edge, sign))
        except UnknownSide:
            raise SchemaError(f'{where} "side" must be "A", "B", or "C"') from None
        except BadSign:
            raise SchemaError(f'{where} "sign" must be 1 or -1') from None
    return GWord(instance, source, target, letters)


def parse_decomposition(obj: object) -> Decomposition:
    space = parse_graph(_require(obj, "space", "decomposition"))
    u = _id_list(_require(obj, "u", "decomposition"), 'decomposition "u"')
    v = _id_list(_require(obj, "v", "decomposition"), 'decomposition "v"')
    return Decomposition(space, u, v)


def parse_scenario(obj: object) -> PbpScenario:
    space = parse_graph(_require(obj, "space", "scenario"))
    return PbpScenario(
        space,
        _id_list(_require(obj, "d", "scenario"), 'scenario "d"'),
        _id_list(_require(obj, "e", "scenario"), 'scenario "e"'),
        _id_value(_require(obj, "a", "scenario"), 'scenario "a"'),
        _id_value(_require(obj, "b", "scenario"), 'scenario "b"'),
    )


def dump_report(report: RetractReport) -> dict:
    return {
        "n_a": report.n_a,
        "n_b": report.n_b,
        "n_c": report.n_c,
        "k": report.k,
        "forest_x": list(report.forest_x.tree_edge_ids),
        "forest_y": list(report.forest_y.tree_edge_ids),
        "w": dump_graph(report.w),
        "edge_origins": {
            wid: {"side": side, "edge": orig}
            for wid, (side, orig) in report.edge_origins.items()
        },
        "per_component_ranks": [
            {"component": list(block), "rank": rank}
            for block, rank in report.per_component_ranks
        ],
    }


def dump_certificate(cert: ZRetractCertificate) -> dict:
    return {
        "basepoints": [
            {"component": list(block), "basepoint": point}
            for block, point in cert.basepoints
        ],
        "k": cert.report.k,
        "loop_in_space": dump_word(cert.loop_in_space),
        "retract_image": dump_word(cert.retract_image),
    }


def canonical_json(payload: object) -> str:
    """``payload`` as ``json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=False)`` writes it, for dicts with str keys, lists, str, int,
    bool and None, and the ``letters`` of a :func:`dump_word` document as
    their list of letter dicts; strings are quoted by the C
    ``encode_basestring``.

    Two shapes are written a column at a time, with one C-level ``map`` per
    column and no Python call per value:

    - a list whose items are all ``str``, or all plain ``int``;
    - two or more dicts with one key set, each key's values all ``str`` or
      all plain ``int``, as the items of a list or the values of a dict.

    The type checks are on ``type()``, so ``bool``, subclasses and any other
    type make the list or the records take the recursive path, which writes
    one value per call and gives the same bytes.

    Any other type, or a non-str key, is a defect in the caller and raises
    :class:`InternalInvariant`.
    """
    parts: list[str] = []
    try:
        _write(payload, "\n", parts.append)
    except TypeError as exc:  # a non-str key, from sorted() or the quoting
        raise InternalInvariant(f"canonical_json: {exc}") from None
    return "".join(parts)


def _scalars(values: list) -> Iterator[str] | None:
    """``values`` written, if they are all ``str`` or all plain ``int``."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(encode_basestring, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return None


def _records(
    records: list, newline: str, labels: Iterator[str] | None = None
) -> Iterator[str] | None:
    """The dicts ``records``, each written as if it stood after ``newline``
    (and after its label, given ``labels``), if they share one nonempty key
    set and every key's column is :func:`_scalars`; the records are filled
    in through one ``%`` template."""
    first = records[0]
    if not first or set(map(len, records)) != {len(first)}:
        return None
    keys = sorted(first)
    columns = [] if labels is None else [labels]
    for key in keys:
        try:
            values = list(map(itemgetter(key), records))
        except KeyError:  # a record of the same size with another key set
            return None
        column = _scalars(values)
        if column is None:
            return None
        columns.append(column)
    inner = newline + "  "
    fields = [encode_basestring(key).replace("%", "%%") + ": %s" for key in keys]
    head = "{" if labels is None else "%s: {"
    template = head + inner + ("," + inner).join(fields) + newline + "}"
    return map(template.__mod__, zip(*columns))


def _write(x: object, newline: str, put) -> None:
    if isinstance(x, str):
        put(encode_basestring(x))
    elif isinstance(x, dict):
        inner = newline + "  "
        keys = sorted(x)
        if len(x) > 1 and set(map(type, x.values())) == {dict}:
            body = _records(list(map(x.__getitem__, keys)), inner, map(encode_basestring, keys))
            if body is not None:
                put("{" + inner + ("," + inner).join(body) + newline + "}")
                return
        sep = "{" + inner
        for key in keys:
            put(sep + encode_basestring(key) + ": ")
            _write(x[key], inner, put)
            sep = "," + inner
        put(newline + "}" if x else "{}")
    elif isinstance(x, list):
        inner = newline + "  "
        body = _scalars(x)
        if body is None and len(x) > 1 and set(map(type, x)) == {dict}:
            body = _records(x, inner)
        if body is not None:
            put("[" + inner + ("," + inner).join(body) + newline + "]")
            return
        sep = "[" + inner
        for item in x:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(newline + "]" if x else "[]")
    elif type(x) is _Letters:
        put(x.json(newline))
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    else:
        raise InternalInvariant(f"canonical_json cannot write a {type(x).__name__}")
