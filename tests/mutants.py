"""Past defects as a committed mutant corpus: every mutant must fail a test.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # the whole corpus
    python tests/mutants.py NAME ...   # the named mutants only
    python tests/mutants.py --list     # the names, one a line

Each mutant is one exact text replacement in one file under ``src/``,
``tests/`` or ``perfbench/``, and the test files (or pytest node ids) that
must catch it.  Every old text must occur exactly once in its file, or the
script stops before running anything: a refactor that moves a mutated line
updates its mutant in the same change.

The script first runs the union of the selected mutants' tests on an
unmutated copy, which must pass, so that a failure below is the mutant's
doing.  Then, per mutant, it copies ``src/``, ``tests/`` and ``perfbench/``
to a fresh temporary directory, applies the replacement and runs the
mutant's tests there, stopping at the first failure.  A mutant that no test
fails is reported as a survivor, and the script exits 1.  Hypothesis runs
under the ``mutants`` profile of ``tests/conftest.py``, which skips only
its shrink phase; example counts are unchanged.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")

GRAPHS = "src/freeloop/graphs.py"
WORDS = "src/freeloop/words.py"
RETRACT = "src/freeloop/retract.py"
VANKAMPEN = "src/freeloop/vankampen.py"
JSONIO = "src/freeloop/jsonio.py"
CLI = "src/freeloop/cli.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # -- graphs ------------------------------------------------------------
    Mutant(
        "forest-scan-without-label-pass",
        GRAPHS,
        "    for i in range(n):\n        parent[i] = parent[parent[i]]\n",
        "",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "partition-len-off-by-one",
        GRAPHS,
        "        return len(self._vertices) - len(self._forest)\n",
        "        return len(self._vertices) - len(self._forest) + 1\n",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "partition-len-reads-blocks",
        GRAPHS,
        "        return len(self._vertices) - len(self._forest)\n",
        "        return len(self.blocks)\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "eager-forest-ids",
        GRAPHS,
        "        forest._searches = {}\n",
        "        forest._searches = {}\n        forest.tree_edge_ids\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "off-forest-drops-an-edge",
        GRAPHS,
        "        return sorted(set(range(self.host.e_count)).difference(self._tree_idx))\n",
        "        return sorted(set(range(self.host.e_count)).difference(self._tree_idx))[1:]\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "search-rooted-at-smallest-vertex",
        GRAPHS,
        "                depth[x] = 0\n"
        "                parent[x] = x\n"
        "                queue = [x]\n"
        "                searches[self._labels[x]] = queue, iter(queue)\n"
        "                continue\n",
        "                root = self._labels[x]\n"
        "                depth[root] = 0\n"
        "                parent[root] = root\n"
        "                queue = [root]\n"
        "                search = searches[root] = queue, iter(queue)\n",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "search-root-parent-left-zero",
        GRAPHS,
        "                parent[x] = x\n",
        "",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "search-runs-every-tree-in-full",
        GRAPHS,
        "                if depth[x] >= 0:\n"
        "                    break\n"
        "            else:\n"
        "                raise InternalInvariant(",
        "            if False:\n"
        "                raise InternalInvariant(",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "default-forest-scans-again",
        GRAPHS,
        "    if tie_break is None:\n        parts = components(g)\n",
        "    if tie_break is None:\n"
        "        tie_break = ()\n"
        "    if False:\n"
        "        parts = components(g)\n",
        (
            "tests/test_cli.py::test_default_tie_break_scans_no_graph_twice",
            "tests/test_kernels.py",
        ),
    ),
    Mutant(
        "different-trees-names-climbed-vertices",
        GRAPHS,
        "raise DifferentTrees(self.host.vertices[u], self.host.vertices[v])",
        "raise DifferentTrees(self.host.vertices[i], self.host.vertices[j])",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "forest-eq-ignores-host",
        GRAPHS,
        "        return self.host == other.host and self._tree_idx == other._tree_idx\n",
        "        return self._tree_idx == other._tree_idx\n",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "graph-eq-ignores-sources",
        GRAPHS,
        "other.vertices, other.edge_ids, other._src_idx, other._tgt_idx)",
        "other.vertices, other.edge_ids, self._src_idx, other._tgt_idx)",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "scan-order-keeps-repeated-ids",
        GRAPHS,
        "dict.fromkeys(as_ids(tie_break))",
        "as_ids(tie_break)",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "ids-taken-from-any-iterable",
        GRAPHS,
        '    return [as_id(v) for v in _collection(values, "ids")]\n',
        "    return [as_id(v) for v in values]\n",
        ("tests/test_graph_boundary.py::test_a_non_collection_is_refused_where_ids_belong",),
    ),
    Mutant(
        "edge-entry-unpacked-by-length-alone",
        GRAPHS,
        "    if isinstance(entry, (tuple, list)) and len(entry) == n:\n",
        "    if len(entry) == n:\n",
        ("tests/test_graph_boundary.py::test_graph_refuses_malformed_edge_entries",),
    ),
    # -- words ---------------------------------------------------------------
    Mutant(
        "chain-without-class-check",
        WORDS,
        "        if type(letter) is not kind:\n",
        "        if False:\n",
        ("tests/test_words.py",),
    ),
    Mutant(
        "word-keeps-its-letters",
        WORDS,
        "        coder = _edge_coder(host)\n",
        "        self.letters = letters = tuple(letters)\n        coder = _edge_coder(host)\n",
        ("tests/test_words.py",),
    ),
    # -- retract -------------------------------------------------------------
    Mutant(
        "rho-keeps-an-empty-run",
        RETRACT,
        "        elif end != cur:\n",
        "        else:\n",
        ("tests/test_retract.py",),
    ),
    Mutant(
        "witness-halves-swapped",
        RETRACT,
        '(("A", i, j), ("B", j, i))',
        '(("B", i, j), ("A", j, i))',
        ("tests/test_retract.py",),
    ),
    Mutant(
        "witness-checks-distinctness-first",
        RETRACT,
        "    inst = report.instance\n    # Both sides index the objects alike;",
        "    inst = report.instance\n"
        "    if a == b:\n"
        '        raise NotDistinct(f"objects must be distinct, got {a!r} twice")\n'
        "    # Both sides index the objects alike;",
        ("tests/test_retract.py",),
    ),
    Mutant(
        "witness-looks-b-up-first",
        RETRACT,
        "    i, j = inst.graph_a.vertex_index(a), inst.graph_a.vertex_index(b)\n",
        "    j, i = inst.graph_a.vertex_index(b), inst.graph_a.vertex_index(a)\n",
        ("tests/test_retract.py",),
    ),
    Mutant(
        "rank-off-by-one",
        RETRACT,
        "        k = n_c - n_a - n_b + 1\n",
        "        k = n_c - n_a - n_b + 2\n",
        ("tests/test_retract.py",),
    ),
    Mutant(
        "c-loops-read-unchecked",
        RETRACT,
        "        elif not isinstance(c_loops, Mapping):\n",
        "        elif False:\n",
        ("tests/test_graph_boundary.py",),
    ),
    # -- vankampen -----------------------------------------------------------
    Mutant(
        "shared-bits-or-for-and",
        VANKAMPEN,
        "(at_src & at_tgt)",
        "(at_src | at_tgt)",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "self-loop-is-an-edge-across-the-pieces",
        VANKAMPEN,
        '    return classes, (at_src & at_tgt).to_bytes(space.e_count, "big")\n',
        '    shared = (at_src & at_tgt).to_bytes(space.e_count, "big")\n'
        "    ends = zip(space._src_idx, space._tgt_idx, shared)\n"
        "    return classes, bytes(0 if s == t else c for s, t, c in ends)\n",
        (
            "tests/test_small_scope.py::"
            "test_every_cover_of_a_small_multigraph_matches_the_reference_under_two_tie_breaks",
        ),
    ),
    Mutant(
        "intersection-reads-bit-0-only",
        VANKAMPEN,
        "_IN_BOTH = bytes(c == 3 for c in range(256))",
        "_IN_BOTH = bytes(c & 1 for c in range(256))",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "uncovered-vertex-found-last",
        VANKAMPEN,
        "        uncovered = classes.find(0)\n",
        "        uncovered = classes.rfind(0)\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "straddling-edge-found-last",
        VANKAMPEN,
        "        straddling = shared.find(0)\n",
        "        straddling = shared.rfind(0)\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "deleted-point-check-on-b-only",
        VANKAMPEN,
        "        for point in (a, b):\n",
        "        for point in (b,):\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "complement-reads-piece-vertex-index",
        VANKAMPEN,
        "        return labels[at[a]] == labels[at[b]]\n",
        "        return labels[piece._vindex[sc.a]] == labels[piece._vindex[sc.b]]\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "expansion-negated-without-reversing",
        VANKAMPEN,
        "map(neg, reversed(expansion))",
        "map(neg, expansion)",
        ("tests/test_small_scope.py",),
    ),
    Mutant(
        "expansions-cache-words",
        VANKAMPEN,
        "        return Word._trusted(self._space, *ids, self._codes(gen))\n",
        "        self._last = Word._trusted(self._space, *ids, self._codes(gen))\n"
        "        return self._last\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "space-connected-ignores-the-joins",
        VANKAMPEN,
        "    return nodes > 0 and len(joined) == nodes - 1\n",
        "    return nodes > 0\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "space-connected-reads-blocks",
        VANKAMPEN,
        "        nodes += len(components(piece))\n",
        "        nodes += len(components(piece).blocks)\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "space-connected-numbers-every-block-alike",
        VANKAMPEN,
        "number.setdefault(labels[at[x]], nodes + len(number))",
        "number.setdefault(labels[at[x]], nodes)",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "joined-pair-accepts-a-twice-preferred-object",
        VANKAMPEN,
        "        if a != b and a in vindex",
        "        if a in vindex",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "joined-pair-scans-keys-reversed",
        VANKAMPEN,
        "    for o, key in zip(instance.objects, keys):\n",
        "    for o, key in reversed(list(zip(instance.objects, keys))):\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "joined-pair-scan-is-quadratic",
        VANKAMPEN,
        "    for o, key in zip(instance.objects, keys):\n"
        "        (second if key in first else first).setdefault(key, o)\n"
        "    return next(((a, second[key]) for key, a in first.items() if key in second), None)\n",
        "    objs, n = instance.objects, len(keys)\n"
        "    pairs = ((i, j) for i in range(n) for j in range(i + 1, n) if keys[i] == keys[j])\n"
        "    return next(((objs[i], objs[j]) for i, j in pairs), None)\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        # Only the six-vertex sweep, of the three cover sweeps, catches it.
        "joined-pair-takes-the-last-partner",
        VANKAMPEN,
        "        (second if key in first else first).setdefault(key, o)\n",
        "        (second.__setitem__ if key in first else first.setdefault)(key, o)\n",
        (
            "tests/test_small_scope.py::"
            "test_every_cover_of_a_six_vertex_space_with_three_basepoints_matches_the_reference",
        ),
    ),
    Mutant(
        "prefer-of-three-ids-accepted",
        VANKAMPEN,
        "        if len(prefer) != 2:\n",
        "        if len(prefer) < 2:\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "basepoints-without-membership-check",
        VANKAMPEN,
        "        if i < 0 or at[i] == at[i + 1]:",
        "        if i < 0:",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "no-self-loop-loop-generators",
        VANKAMPEN,
        "    for i in forest._off_idx():\n",
        "    for i in (i for i in forest._off_idx() if src[i] != piece._tgt_idx[i]):\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "no-self-loop-c-loops",
        VANKAMPEN,
        "    for i in forest_i._off_idx():\n",
        "    for i in (i for i in forest_i._off_idx() if src[i] != inter._tgt_idx[i]):\n",
        ("tests/test_vankampen.py",),
    ),
    Mutant(
        "loop-generator-expanded-backwards",
        VANKAMPEN,
        "path(root, piece._src_idx[i]) + [i + 1] + path(piece._tgt_idx[i], root)",
        "path(root, piece._tgt_idx[i]) + [-1 - i] + path(piece._src_idx[i], root)",
        ("tests/test_vankampen.py",),
    ),
    # -- jsonio ----------------------------------------------------------------
    Mutant(
        "gword-side-fault-escapes-as-a-domain-error",
        JSONIO,
        "        except UnknownSide:\n"
        '            raise SchemaError(f\'{where} "side" must be "A", "B", or "C"\') from None\n',
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "writer-keys-without-percent-escape",
        JSONIO,
        'encode_basestring(key).replace("%", "%%")',
        "encode_basestring(key)",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "writer-bools-in-int-columns",
        JSONIO,
        "    if kinds == {int}:\n",
        "    if kinds <= {int, bool}:\n",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "writer-without-key-set-check",
        JSONIO,
        "    if not first or set(map(len, records)) != {len(first)}:\n",
        "    if not first:\n",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "writer-lets-a-key-error-escape",
        JSONIO,
        "        try:\n"
        "            values = list(map(itemgetter(key), records))\n"
        "        except KeyError:  # a record of the same size with another key set\n"
        "            return None\n",
        "        values = list(map(itemgetter(key), records))\n",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "writer-unsorted-keys",
        JSONIO,
        "        keys = sorted(x)\n",
        "        keys = list(x)\n",
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "writer-true-as-1",
        JSONIO,
        '        put("true")\n',
        '        put("1")\n',
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "letters-sign-table-swapped",
        JSONIO,
        '_SIGNS = ("-1", "1")\n',
        '_SIGNS = ("1", "-1")\n',
        ("tests/test_jsonio.py",),
    ),
    Mutant(
        "letters-quote-every-host-id",
        JSONIO,
        "for i in set(map(abs, codes))}",
        "for i in range(1, len(ids) + 1)}",
        ("tests/test_jsonio.py",),
    ),
    # -- cli -------------------------------------------------------------------
    Mutant(
        "run-keeps-the-document",
        CLI,
        "        sc = parse_scenario(_load(args.input))\n",
        "        sc = parse_scenario(doc := _load(args.input))\n",
        ("tests/test_cli.py::test_parsed_documents_are_freed_before_the_engine_runs",),
    ),
    Mutant(
        "dot-thunk-kept-while-serializing",
        CLI,
        "            dot = None  # frees what only the rendering reads before serializing\n",
        "            pass\n",
        ("tests/test_cli.py::test_the_decomposition_is_freed_before_serializing_unless_drawn",),
    ),
    Mutant(
        "stdout-written-outside-the-try",
        CLI,
        "        sys.stdout.write(out)\n"
        '        sys.stdout.write("\\n")\n'
        "        sys.stdout.flush()\n"
        "    except SchemaError as exc:\n"
        '        print(f"SchemaError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except _ParseError as exc:\n"
        '        print(f"ParseError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except UnicodeEncodeError as exc:\n"
        '        print(f"EncodeError: output is not valid {exc.encoding.upper()}: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except OSError as exc:\n"
        '        print(f"IOError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except DomainError as exc:\n"
        '        print(f"{exc.code}: {exc}", file=sys.stderr)\n'
        "        return 2\n"
        "    return 0\n",
        "    except SchemaError as exc:\n"
        '        print(f"SchemaError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except _ParseError as exc:\n"
        '        print(f"ParseError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except UnicodeEncodeError as exc:\n"
        '        print(f"EncodeError: output is not valid {exc.encoding.upper()}: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except OSError as exc:\n"
        '        print(f"IOError: {exc}", file=sys.stderr)\n'
        "        return 1\n"
        "    except DomainError as exc:\n"
        '        print(f"{exc.code}: {exc}", file=sys.stderr)\n'
        "        return 2\n"
        "    sys.stdout.write(out)\n"
        '    sys.stdout.write("\\n")\n'
        "    sys.stdout.flush()\n"
        "    return 0\n",
        (
            "tests/test_cli.py::test_a_failed_stdout_write_exits_one_with_one_line",
            "tests/test_cli.py::test_a_failed_stdout_write_in_process_is_an_io_error",
        ),
    ),
    # -- dot -------------------------------------------------------------------
    Mutant(
        "dot-drops-bold-edges",
        "src/freeloop/dot.py",
        "        if e in bold:\n",
        "        if False:\n",
        ("tests/test_cli.py",),
    ),
    # -- the benchmark's checker, which the tests use as their oracle --------
    Mutant(
        "checker-tree-path-tail-unreversed",
        "perfbench/checkers.py",
        "        return head + tail[::-1]\n",
        "        return head + tail\n",
        ("tests/test_graphs.py",),
    ),
)


def _copy(dest: Path) -> None:
    for part in COPIED:
        shutil.copytree(ROOT / part, dest / part, ignore=IGNORED)


def _check(mutant: Mutant) -> None:
    """Stop loudly unless the old text occurs exactly once."""
    count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        sys.exit(f"mutant {mutant.name}: its old text occurs {count} times in {mutant.file}")


def _pytest(root: Path, tests) -> tuple[int, str]:
    """pytest's exit code and output for ``tests`` in the copy ``root``,
    stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", *tests,
        ],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return out.returncode, out.stdout + out.stderr


def _run(mutant: Mutant | None, tests) -> tuple[int, str]:
    with tempfile.TemporaryDirectory(prefix="freeloop-mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        if mutant is not None:
            path = root / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(root, tests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if len(by_name) != len(MUTANTS):
        sys.exit("two mutants share a name")
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    for mutant in chosen:
        _check(mutant)

    start = time.perf_counter()
    tests = sorted({t for m in chosen for t in m.tests})
    code, output = _run(None, tests)
    if code != 0:
        print(output)
        sys.exit(f"the unmutated copy does not pass {', '.join(tests)} (pytest exit {code})")
    print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)

    survivors = []
    for mutant in chosen:
        began = time.perf_counter()
        code, output = _run(mutant, mutant.tests)
        took = time.perf_counter() - began
        # pytest exits 1 when a test failed; 0 when all passed; else it broke.
        if code == 1:
            print(f"killed    {mutant.name} ({took:.1f} s)", flush=True)
            continue
        survivors.append(mutant.name)
        verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
        print(f"{verdict}  {mutant.name} ({took:.1f} s)\n{output[-2000:]}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
