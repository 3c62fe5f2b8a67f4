"""Command-line front end: parse JSON inputs, run the engines, report.

Exit codes: 0 on success, 1 on parse, encoding or IO failure, 2 on a domain
error (violated precondition) or a usage error, with the error's code on
stderr.  JSON output comes from :func:`freeloop.jsonio.canonical_json`:
sorted keys, two-space indent and canonical id order, so identical inputs
produce byte-identical bytes.  Each command returns its JSON payload, text
report and DOT rendering as thunks, so only the output that is written gets
built: the DOT text, and the union graph and role sets it draws, only under
``--emit-dot``.  The cyclic collector is paused while a command runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections.abc import Callable, Sequence

from .dot import graph_dot
from .errors import Disconnected, DomainError, InternalInvariant, PbiHolds, SchemaError
from .graphs import components, graph_pushout_with_origins, spanning_forest
from .jsonio import (
    canonical_json,
    dump_certificate,
    dump_instance,
    dump_report,
    dump_word,
    parse_decomposition,
    parse_gword,
    parse_graph,
    parse_instance,
    parse_scenario,
)
from .retract import build_retract, rho, witness
from .vankampen import (
    certificate_basepoints_for,
    decomposition_to_instance,
    detect_z_retract,
    pbp_to_decomposition,
)

_NOT_CONNECTED = "the pushout is not connected; build_retract reports per-component ranks"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, ``UsageError: <message>``,
    and exits 2; subcommand parsers are built from this class too."""

    def error(self, message: str):
        self.exit(2, f"UsageError: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freeloop",
        description="free-groupoid retracts of graph pushouts, and their loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "components": "connected components of a graph",
        "forest": "deterministic spanning forest of a graph",
        "pushout-rank": "rank of the free retract of a pushout instance",
        "retract": "full retract report for a pushout instance",
        "rho": "retract a tagged word to the free groupoid on W",
        "witness": "nontrivial witness loop for a pair of objects",
        "vk-instance": "pushout instance derived from a decomposition",
        "certify": "search a decomposition for a Z-retract certificate",
        "pbp-check": "test a separation scenario and certify its failure",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the input JSON document")
        p.add_argument(
            "--tie-break",
            default="lex",
            help='"lex" (default) or a comma-separated edge-id priority list',
        )
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--emit-dot", metavar="PATH", help="also write a DOT rendering")
        if name == "witness":
            p.add_argument("--a", required=True, help="first object")
            p.add_argument("--b", required=True, help="second object")
        if name == "rho":
            p.add_argument("--word", required=True, help="path to the tagged-word JSON")
    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


class _ParseError(ValueError):
    """An input file is not UTF-8 JSON that the decoder can read."""


def _load(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except SchemaError:
            raise
        # ValueError covers a malformed document, bytes that are not UTF-8 and
        # an integer literal longer than the interpreter converts.
        except (ValueError, RecursionError) as exc:
            raise _ParseError(exc) from None


def _tie_break(flag: str) -> list[str] | None:
    if flag == "lex":
        return None
    return [part for part in flag.split(",") if part]


def _instance_dot(inst, report, word=None) -> str:
    """The union graph of both sides, forest X red, forest Y blue, and the
    edges of ``word`` (a word on W) bold."""
    union, origins = graph_pushout_with_origins(inst.graph_a, inst.graph_b, inst.objects)
    rev = {orig: wid for wid, orig in origins.items()}
    red = {rev[("A", e)] for e in report.forest_x.tree_edge_ids}
    blue = {rev[("B", e)] for e in report.forest_y.tree_edge_ids}
    bold = () if word is None else {rev[report.origin_of(l.edge)] for l in word.letters}
    return graph_dot(union, red, blue, bold)


def _decomposition_dot(dec, loop=None) -> str:
    """The decomposed space, the edges of one piece only red or blue, and the
    edges of ``loop`` bold."""
    u, v = set(dec.piece_u.edge_ids), set(dec.piece_v.edge_ids)
    bold = () if loop is None else {l.edge for l in loop.letters}
    return graph_dot(dec.space, u - v, v - u, bold)


def _fmt_block(block) -> str:
    return "{" + ", ".join(block) + "}"


_Thunk = Callable[[], object]


def _run(args) -> tuple[_Thunk, _Thunk, _Thunk]:
    """Dispatch one command; returns thunks of (json payload, text report,
    DOT text).  The command's work, and every error it raises, happens here;
    a thunk only formats its output, so just the one that is written gets
    built.  The DOT thunk also builds the union graph and role sets it draws.
    """
    tie = _tie_break(args.tie_break)
    doc = _load(args.input)
    if args.command == "components":
        g = parse_graph(doc)
        parts = components(g)
        return (
            lambda: {"components": [list(block) for block in parts.blocks]},
            lambda: "\n".join(
                [f"{len(parts)} component(s)"] + [f"  {_fmt_block(block)}" for block in parts.blocks]
            ),
            lambda: graph_dot(g),
        )
    if args.command == "forest":
        g = parse_graph(doc)
        forest = spanning_forest(g, tie)
        ids = list(forest.tree_edge_ids)
        return (
            lambda: {"tree_edges": ids},
            lambda: "\n".join(
                [f"spanning forest: {len(ids)} tree edge(s) of {g.e_count}"] + [f"  {e}" for e in ids]
            ),
            lambda: graph_dot(g, red_edges=ids),
        )
    if args.command == "pushout-rank":
        inst = parse_instance(doc)
        report = build_retract(inst, tie)
        if report.k is None:
            raise Disconnected(_NOT_CONNECTED)
        return (
            lambda: {"k": report.k, "n_a": report.n_a, "n_b": report.n_b, "n_c": report.n_c},
            lambda: f"k = {report.k}\nn_a = {report.n_a}, n_b = {report.n_b}, n_c = {report.n_c}",
            lambda: _instance_dot(inst, report),
        )
    if args.command == "retract":
        inst = parse_instance(doc)
        report = build_retract(inst, tie)
        return (
            lambda: dump_report(report),
            lambda: _retract_text(report),
            lambda: _instance_dot(inst, report),
        )
    if args.command == "rho":
        inst = parse_instance(doc)
        gword = parse_gword(_load(args.word), inst)
        report = build_retract(inst, tie)
        image = rho(report, gword)
        return (
            lambda: dump_word(image),
            lambda: f"rho: {image.source} -> {image.target}: {image}",
            lambda: _instance_dot(inst, report, image),
        )
    if args.command == "witness":
        inst = parse_instance(doc)
        report = build_retract(inst, tie)
        loop = witness(report, args.a, args.b)
        return (
            lambda: dump_word(loop),
            lambda: f"witness loop at {loop.source}: {loop} (length {len(loop)})",
            lambda: _instance_dot(inst, report, loop),
        )
    if args.command == "vk-instance":
        dec = parse_decomposition(doc)
        inst, translations = decomposition_to_instance(dec, tie)
        # The JSON payload prints every translation, so it builds them all.
        return (
            lambda: {
                "instance": dump_instance(inst),
                "translations": {
                    side: {gen: dump_word(w) for gen, w in table.items()}
                    for side, table in translations.items()
                },
            },
            lambda: "\n".join(
                [
                    f"objects: {', '.join(inst.objects)}",
                    f"side A: {inst.graph_a.e_count} generator(s); "
                    f"side B: {inst.graph_b.e_count} generator(s); "
                    f"C loops: {sum(len(ids) for _, ids in inst.c_loops)}",
                ]
            ),
            lambda: _decomposition_dot(dec),
        )
    if args.command == "certify":
        dec = parse_decomposition(doc)
        cert = detect_z_retract(dec, tie)
        if cert is None:
            return (
                lambda: {"certificate": None},
                lambda: "no certificate: no basepoint pair is joined inside both pieces",
                lambda: _decomposition_dot(dec),
            )
        return (
            lambda: {"certificate": dump_certificate(cert)},
            lambda: f"Z-retract certificate at {_loop_text(cert)}",
            lambda: _decomposition_dot(dec, cert.loop_in_space),
        )
    if args.command == "pbp-check":
        sc = parse_scenario(doc)
        try:
            dec = pbp_to_decomposition(sc)
        except PbiHolds:
            return (
                lambda: {"pbi_fails": False, "certificate": None},
                lambda: "PBI holds; no certificate.",
                lambda: graph_dot(sc.space),
            )
        prefer = certificate_basepoints_for(dec, sc.a, sc.b)
        cert = detect_z_retract(dec, tie, prefer=prefer)
        if cert is None:
            raise InternalInvariant("separation failure must yield a certificate")
        return (
            lambda: {"pbi_fails": True, "certificate": dump_certificate(cert)},
            lambda: f"PBI fails; Z-retract certificate emitted\nloop at {_loop_text(cert)}",
            lambda: _decomposition_dot(dec, cert.loop_in_space),
        )
    raise InternalInvariant(f"unhandled command {args.command!r}")


def _retract_text(report) -> str:
    text = [
        "k = n/a (disconnected)" if report.k is None else f"k = {report.k}",
        f"n_a = {report.n_a}, n_b = {report.n_b}, n_c = {report.n_c}",
        f"forest X: {', '.join(report.forest_x.tree_edge_ids) or '(empty)'}",
        f"forest Y: {', '.join(report.forest_y.tree_edge_ids) or '(empty)'}",
        f"W: {report.w.v_count} vertices, {report.w.e_count} edges",
    ]
    text += [
        f"  component {_fmt_block(block)}: rank {rank}"
        for block, rank in report.per_component_ranks
    ]
    return "\n".join(text)


def _loop_text(cert) -> str:
    loop = cert.loop_in_space
    return f"{loop.source}: {loop} (length {len(loop)}); k = {cert.report.k}"


def _encodable(s: str, stream=None) -> str:
    """``s``, once it is known to encode as UTF-8 and, given a ``stream``, as
    that stream writes (UTF-8 where it has no encoding, as a ``StringIO``).
    Checking before any write leaves stdout empty and no partial DOT file."""
    if not s.isascii():
        s.encode("utf-8")
        if stream is not None:
            encoding = getattr(stream, "encoding", None) or "utf-8"
            s.encode(encoding, getattr(stream, "errors", None) or "strict")
    return s


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The cyclic collector is paused while the command runs and restored as
    the caller had it on the way out, however the command ends.  No command
    leaves cyclic garbage, so a collection would only walk the objects the
    command builds and reclaim nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv: Sequence[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, text, dot = _run(args)
        out = _encodable(canonical_json(payload()) if args.output == "json" else text(), sys.stdout)
        if args.emit_dot:
            dot_text = _encodable(dot())
            with open(args.emit_dot, "w", encoding="utf-8") as fh:
                fh.write(dot_text)
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 1
    except _ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:
        print(f"EncodeError: output is not valid {exc.encoding.upper()}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
