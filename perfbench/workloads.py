"""The three workloads: how each builds its inputs from a seed, what one op
calls in freeloop, how its output is serialized and how it is checked.

Ops look freeloop functions up through their modules at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checkers
import inputs


@dataclass
class Case:
    """One input and the op that runs on it."""

    run: Callable[[], Any]
    output_bytes: Callable[[Any], bytes]
    check: Callable[[Any], list[str]]
    via_cli: bool
    bytes_in: int


def _run_cli(argv: list[str]):
    import freeloop.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = freeloop.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_case(command: str, doc: dict, path: Path, checker) -> Case:
    data = json.dumps(doc).encode("utf-8")
    path.write_bytes(data)
    argv = [command, str(path), "--output", "json"]

    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        return checker(doc, json.loads(out))

    return Case(
        run=lambda: _run_cli(argv),
        output_bytes=lambda result: result[1].encode("utf-8"),
        check=check,
        via_cli=True,
        bytes_in=len(data),
    )


def _word_doc(word, fields=("edge", "sign")) -> dict:
    return {
        "source": word.source,
        "target": word.target,
        "letters": [{f: getattr(l, f) for f in fields} for l in word.letters],
    }


def _rho_docs(result) -> tuple[dict, dict]:
    image, back = result
    return _word_doc(image), _word_doc(back, ("side", "edge", "sign"))


def _rho_bytes(result) -> bytes:
    image, back = _rho_docs(result)
    return json.dumps({"image": image, "include_f": back}, sort_keys=True).encode("utf-8")


class PbpCycle:
    """``pbp-check`` on an n-cycle with antipodal D and E."""

    name = "pbp_cycle"
    size = 4000

    def setup(self, rng: random.Random, n: int, workdir: Path) -> list[Case]:
        doc = inputs.cycle_scenario(rng, n)
        return [_cli_case("pbp-check", doc, workdir / "scenario.json", checkers.check_pbp_cycle)]


class RetractRandom:
    """``retract`` on a random connected instance, n objects, 4n edges a side."""

    name = "retract_random"
    size = 1500

    def setup(self, rng: random.Random, n: int, workdir: Path) -> list[Case]:
        doc = inputs.pushout_instance(rng, n, 4 * n)
        return [_cli_case("retract", doc, workdir / "instance.json", checkers.check_retract)]


class RhoRoundtrip:
    """``rho`` then ``include_f`` of n-letter tagged words on one report built
    in setup from 2000 objects and 8000 edges a side."""

    name = "rho_roundtrip"
    size = 2000
    objects = 2000
    words = 16

    def setup(self, rng: random.Random, n: int, workdir: Path) -> list[Case]:
        from freeloop import jsonio, retract

        doc = inputs.pushout_instance(rng, self.objects, 4 * self.objects)
        instance = jsonio.parse_instance(doc)
        report = retract.build_retract(instance)
        # The oracle is built on first use, outside the timed set-up.
        oracle = functools.cache(
            lambda: checkers.RhoOracle(
                doc,
                {"A": report.forest_x.tree_edge_ids, "B": report.forest_y.tree_edge_ids},
                report.edge_origins,
            )
        )
        cases = []
        for word_doc in inputs.tagged_walks(rng, doc, self.words, n):
            gword = retract.GWord(
                instance,
                word_doc["source"],
                word_doc["target"],
                [retract.GLetter(l["side"], l["edge"], l["sign"]) for l in word_doc["letters"]],
            )
            cases.append(self._case(report, gword, word_doc, oracle))
        # The first navigation builds each forest's lazy tables.  Should it
        # fail, the timed ops fail the same way and are counted there.
        with contextlib.suppress(Exception):
            cases[0].run()
        return cases

    @staticmethod
    def _case(report, gword, word_doc, oracle) -> Case:
        from freeloop import retract

        def run():
            image = retract.rho(report, gword)
            return image, retract.include_f(report, image)

        def check(result) -> list[str]:
            return oracle().problems(word_doc, *_rho_docs(result))

        return Case(run=run, output_bytes=_rho_bytes, check=check, via_cli=False, bytes_in=0)


WORKLOADS = {w.name: w for w in (PbpCycle(), RetractRandom(), RhoRoundtrip())}
