"""The package's public names, and the ones the benchmark harness imports."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import freeloop
from freeloop import dot, errors, graphs, jsonio, retract, vankampen, words

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freeloop"

# The methods ``Word`` and ``GWord`` take from their one shared shell.
SHELL = ("_trusted", "__getattr__", "__len__", "__eq__", "__hash__", "__str__", "__repr__")

# Names that are gone, each with the module or class that held it, or the
# function whose parameter it was.  A class's ``__init__`` or shell method
# is gone when the class defines none of its own: it may inherit one.
DELETED = (
    (words, "FreeGroupElement"),
    (retract, "check_connected"),
    (retract, "theorem_rank"),
    (retract, "component_counts"),
    (retract, "_connected_rank"),
    (retract, "_NOT_CONNECTED"),
    (retract, "certify_rank_at_least_one"),
    (words, "loop_coordinates"),
    (words, "rehost"),
    (errors, "NotALoop"),
    (graphs.Forest, "as_graph"),
    (graphs.DirectedGraph, "ends"),
    (retract.RetractReport, "w_edge_for"),
    (vankampen, "induced_subgraph"),
    (graphs, "spanning_forest_containing"),
    (errors, "RequiredEdgesContainCycle"),
    (retract.build_retract, "required_a"),
    (retract.build_retract, "required_b"),
    (dot.graph_dot, "name"),
    (retract.GWord, "compose"),
    (retract.GWord, "invert"),
    (retract.GLetter, "inverse"),
    (words.Word, "is_identity"),
    (retract.RetractReport, "connected"),
    (graphs.Forest, "tree_of"),
    (vankampen, "GeneratorPresentation"),
    (vankampen, "groupoid_generators"),
    (errors, "ComponentWithoutBasepoint"),
    (vankampen, "_vertex_subset"),
    (graphs.Forest, "__init__"),
    (errors, "TreeEdgesContainCycle"),
    (errors, "TreeEdgesNotSpanning"),
    (words.Letter, "inverse"),
    (retract, "_w_word"),
    (vankampen, "_space_word"),
    (retract.PushoutInstance, "c_loop_owner"),
    (retract, "_gletter_ends"),
    (retract, "_w_path"),
    (retract.RetractReport, "_side_codes"),
    (words, "letter_ends"),
    (words, "_chain_end"),
    (graphs.Forest, "path_steps"),
    (graphs.DirectedGraph, "has_vertex"),
    (graphs.VertexPartition, "index"),
    (graphs.VertexPartition, "block_of"),
    (graphs.VertexPartition, "same_block"),
    (graphs.Forest, "tree_edges"),
    (graphs.DirectedGraph, "has_edge"),
    (graphs.DirectedGraph, "edge_index"),
    (errors, "UnknownEdge"),
    (retract.PushoutInstance, "side_graph"),
    (jsonio, "_parse_sign"),
) + tuple((cls, name) for cls in (words.Word, retract.GWord) for name in SHELL)


def test_every_exported_name_resolves_and_is_listed_once():
    names = freeloop.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(freeloop, name)]
    assert missing == []


def test_free_group_element_is_gone():
    for owner, name in DELETED:
        if inspect.isfunction(owner):
            assert name not in inspect.signature(owner).parameters, f"{owner.__name__}({name})"
            continue
        if name == "__init__" or name in SHELL:
            assert name not in vars(owner), f"{owner.__name__}.{name}"
            continue
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        if inspect.ismodule(owner):
            assert name not in freeloop.__all__
            assert not hasattr(freeloop, name), name


def test_words_share_one_shell():
    """Both word classes inherit every shell method from one class, keep
    their owner readable under their own name, and never compare equal."""
    for name in SHELL:
        assert inspect.getattr_static(words.Word, name) is inspect.getattr_static(retract.GWord, name), name
    g = graphs.DirectedGraph(["a"])
    inst = retract.PushoutInstance(["a"], g, g)
    word, gword = words.Word(g, "a", "a"), retract.GWord(inst, "a", "a")
    assert word.host is g and gword.instance is inst
    assert word != gword and gword != word
    assert len(word) == len(gword) == 0 and str(word) == str(gword) == "1"


def test_names_the_benchmark_uses_resolve():
    assert isinstance(freeloop.KERNEL_BACKEND, str)
    for module, name in (
        (retract, "GWord"),
        (retract, "GLetter"),
        (retract, "rho"),
        (retract, "include_f"),
        (retract, "build_retract"),
        (jsonio, "parse_instance"),
    ):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def _imported_by_cli() -> set[str]:
    tree = ast.parse((ROOT / "src" / "freeloop" / "cli.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _imported_by_perfbench() -> set[str]:
    """Names perfbench imports from freeloop, or reads as attributes of
    ``freeloop`` or of a freeloop module it imported."""
    names: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name for a in node.names if a.name.startswith("freeloop")}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("freeloop"):
                for alias in node.names:
                    names.add(alias.name)
                    bound.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound:
                names.add(node.attr)
    return names


def _readme_feature_names() -> set[str]:
    """The names, plain or dotted (``Class.method``), in README's feature list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    features = text.split("What you can do with it:", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", features))


def test_every_exported_name_is_used_named_or_returned():
    """Each ``__all__`` name is imported by the CLI or the benchmark, named
    in README's feature list, or a class that one of those names returns."""
    used = _imported_by_cli() | _imported_by_perfbench() | _readme_feature_names()
    returned = " ".join(
        str(inspect.signature(getattr(freeloop, name)).return_annotation)
        for name in used
        if inspect.isfunction(getattr(freeloop, name, None))
    )
    unused = [
        name
        for name in freeloop.__all__
        if name not in used
        and not (inspect.isclass(getattr(freeloop, name)) and re.search(rf"\b{name}\b", returned))
    ]
    assert unused == []


def _trees(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _public_modules() -> list[ast.Module]:
    """The modules under ``src/freeloop`` outside private packages."""
    paths = sorted(SRC.rglob("*.py"))
    return _trees(
        p for p in paths if not any(part.startswith("_") for part in p.relative_to(SRC).parts[:-1])
    )


def _attributes_read(trees) -> set[str]:
    return {
        node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_public_method_is_used_read_or_named():
    """Each public method or property of a public class in ``src/freeloop``
    is used as an attribute elsewhere in ``src/freeloop``, read by the
    benchmark (as an attribute or a string), or named in README's feature
    list as ``Class.method``."""
    perfbench = _trees(sorted((ROOT / "perfbench").glob("*.py")))
    strings = {
        part
        for tree in perfbench
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    used = _attributes_read(_trees(sorted(SRC.rglob("*.py")))) | _attributes_read(perfbench)
    used |= strings
    named = _readme_feature_names()
    unused = [
        f"{cls.name}.{fn.name}"
        for tree in _public_modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in used and f"{cls.name}.{fn.name}" not in named
    ]
    assert unused == []


def _calls(trees) -> dict[str, list[tuple[float, set[str]]]]:
    """Per called name (plain or attribute), each call's positional count
    and keywords; a ``*args`` or ``**kwargs`` counts as setting them all."""
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional = float("inf") if starred else len(node.args)
            calls.setdefault(name, []).append((positional, {k.arg for k in node.keywords}))
    return calls


def test_every_option_of_a_public_function_is_set_by_a_caller():
    """Each defaulted parameter of a public module-level function in
    ``src/freeloop`` is set, by keyword or by position, in some call in
    ``src/freeloop`` or the benchmark.  Class constructors are exempt: they
    are the validating entry points."""
    calls = _calls(_trees(sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))))
    unset = []
    for tree in _public_modules():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            params = fn.args.posonlyargs + fn.args.args
            defaulted = list(enumerate(params))[len(params) - len(fn.args.defaults) :]
            defaulted += [
                (float("inf"), arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            for i, arg in defaulted:
                if not any(
                    n > i or arg.arg in kw or None in kw for n, kw in calls.get(fn.name, ())
                ):
                    unset.append(f"{fn.name}({arg.arg})")
    assert unset == []
