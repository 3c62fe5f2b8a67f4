"""Span tracing of freeloop from the outside, for the traced run only.

``Tracer.install`` wraps the functions one freeloop module imports from
another, in the importing module's namespace, and the constructors,
``__eq__``/``__hash__`` and a few navigation methods of freeloop's classes.
Every wrapped call records a span (name, start, end, parent, op id) in
memory.  A span is named ``<layer>.<callee>``, where the layer is the module
that defines the callee, so a layer's self time is the time its spans cover
minus the time covered by their children.  ``uninstall`` restores every
original, and the package source is never edited.

A few wrappers also count work (letters reduced, tree-path hops, graphs
built); the counts are taken after the span has ended.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "jsonio", "dot", "vankampen", "retract", "words", "graphs", "kernels")
MODULES = ("cli", "jsonio", "dot", "vankampen", "retract", "words", "graphs")
ROOT = "bench.op"
SPAN_LIMIT = 100_000


def layer_of(module_name: str | None) -> str | None:
    if not module_name or not module_name.startswith("freeloop."):
        return None
    rest = module_name[len("freeloop.") :]
    if rest.startswith("_kernels"):
        return "kernels"
    return rest if rest in MODULES else None


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _probe_reduce_signed(counts, args, result):
    counts["kernels.reduce_in"] += _size(args[0])
    counts["kernels.reduce_out"] += _size(result)


def _probe_greedy_forest(counts, args, result):
    counts["kernels.forest_scanned"] += _size(args[3])
    counts["kernels.forest_accepted"] += _size(result)


def _probe_union_find(counts, args, result):
    counts["kernels.uf_edges"] += _size(args[1])


def _probe_graph_init(counts, args, result):
    counts["graphs.graphs_built"] += 1
    counts["graphs.edges_built"] += _size(getattr(args[0], "edge_ids", ()))


def _probe_eq_hash(counts, args, result):
    counts["graphs.eq_hash_calls"] += 1


def _probe_path_steps(counts, args, result):
    counts["graphs.path_hops"] += _size(result)


def _probe_word_init(counts, args, result):
    counts["words.letters_validated"] += _size(getattr(args[0], "letters", ()))


def _probe_reduce(counts, args, result):
    counts["words.reduce_calls"] += 1


def _probe_rho(counts, args, result):
    counts["retract.rho_letters_in"] += _size(args[1])
    counts["retract.rho_letters_out"] += _size(result)


def _probe_separates(counts, args, result):
    counts["vankampen.separates_calls"] += 1


def _probe_induced(counts, args, result):
    counts["vankampen.induced_subgraphs"] += 1


def _probe_graph_dot(counts, args, result):
    counts["dot.bytes"] += _size(result)


COUNTERS = (
    "kernels.reduce_in",
    "kernels.reduce_out",
    "kernels.forest_scanned",
    "kernels.forest_accepted",
    "kernels.uf_edges",
    "graphs.graphs_built",
    "graphs.edges_built",
    "graphs.eq_hash_calls",
    "graphs.path_hops",
    "graphs.components_calls",
    "graphs.components_hits",
    "words.letters_validated",
    "words.reduce_calls",
    "retract.rho_letters_in",
    "retract.rho_letters_out",
    "vankampen.separates_calls",
    "vankampen.induced_subgraphs",
    "dot.bytes",
)

# Counters keyed by the wrapped callable's (module, qualified name).
PROBES = {
    ("freeloop._kernels._pure", "reduce_signed"): _probe_reduce_signed,
    ("freeloop._kernels._fast", "reduce_signed"): _probe_reduce_signed,
    ("freeloop._kernels._pure", "greedy_forest"): _probe_greedy_forest,
    ("freeloop._kernels._fast", "greedy_forest"): _probe_greedy_forest,
    ("freeloop._kernels._pure", "union_find_labels"): _probe_union_find,
    ("freeloop._kernels._fast", "union_find_labels"): _probe_union_find,
    ("freeloop.graphs", "DirectedGraph.__init__"): _probe_graph_init,
    ("freeloop.graphs", "DirectedGraph.__eq__"): _probe_eq_hash,
    ("freeloop.graphs", "DirectedGraph.__hash__"): _probe_eq_hash,
    ("freeloop.graphs", "Forest.path_steps"): _probe_path_steps,
    ("freeloop.words", "Word.__init__"): _probe_word_init,
    ("freeloop.words", "reduce"): _probe_reduce,
    ("freeloop.retract", "rho"): _probe_rho,
    ("freeloop.vankampen", "separates"): _probe_separates,
    ("freeloop.vankampen", "induced_subgraph"): _probe_induced,
    ("freeloop.dot", "graph_dot"): _probe_graph_dot,
}

# Functions that are also called from inside their own module (or by the
# benchmark itself), so they are wrapped where they are defined as well.
OWN_MODULE = (
    ("cli", "main"),
    ("retract", "rho"),
    ("retract", "include_f"),
    ("vankampen", "separates"),
    ("vankampen", "induced_subgraph"),
    ("graphs", "components"),
)

METHODS = ("__init__", "__eq__", "__hash__", "path_steps")

# Called once per id, so a span per call would cost more than the call.
UNTRACED = {"as_id"}


class Tracer:
    """In-memory spans and counters for traced ops.

    Between ``begin_op`` and ``end_op`` the installed wrappers append spans
    under a root span; ``end_op`` returns that op's self time per layer, in
    nanoseconds, and its counters.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self._op: list[list] = []
        self._stack: list[int] = []
        self._op_id = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        name = f"{layer}.{qualname}"
        probe = PROBES.get((getattr(fn, "__module__", None), qualname))
        op = self._op
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        is_components = qualname == "components"

        def traced(*args, **kwargs):
            if is_components:
                counts["graphs.components_calls"] += 1
                if getattr(args[0], "_components", None) is not None:
                    counts["graphs.components_hits"] += 1
            index = len(op)
            record = [name, 0, 0, stack[-1]]
            op.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every cross-module call site and class method of freeloop."""
        modules = {m: importlib.import_module(f"freeloop.{m}") for m in MODULES}
        classes = {}
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                target = layer_of(getattr(obj, "__module__", None))
                if target is None:
                    continue
                if inspect.isclass(obj):
                    if not dataclasses.is_dataclass(obj) and not issubclass(obj, Exception):
                        classes[id(obj)] = (obj, target)
                elif callable(obj) and target != mod_name and attr not in UNTRACED:
                    self._patch(mod, attr, self._wrap(obj, target, obj.__name__))
        for mod_name, attr in OWN_MODULE:
            fn = getattr(modules[mod_name], attr, None)
            if fn is not None:
                self._patch(modules[mod_name], attr, self._wrap(fn, mod_name, attr))
        for cls, layer in classes.values():
            for meth in METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    qualname = f"{cls.__name__}.{meth}"
                    self._patch(cls, meth, self._wrap(fn, layer, qualname))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self._op.clear()
        self._op.append([ROOT, 0, 0, -1])
        self._stack[:] = [0]
        self.counts.clear()
        self._op[0][1] = time.perf_counter_ns()

    def end_op(self) -> tuple[int, dict[str, int], dict[str, int]]:
        """Close the root span; return (op ns, self ns per layer, counters)."""
        self._op[0][2] = time.perf_counter_ns()
        covered = [0] * len(self._op)
        for name, start, end, parent in self._op[1:]:
            covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self._op):
            self_ns[name.split(".", 1)[0]] += end - start - covered[i]
        total = self._op[0][2] - self._op[0][1]
        if sum(self_ns.values()) != total:
            raise RuntimeError("layer self times do not add up to the op time")
        if len(self.spans) + len(self._op) <= SPAN_LIMIT:
            self.spans.extend((*span, self._op_id) for span in self._op)
        else:
            self.dropped += len(self._op)
        self._op_id += 1
        return total, dict(self_ns), dict(self.counts)

    def dump(self, path, header: dict) -> None:
        """Write the kept spans as JSON lines after a one-line header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
