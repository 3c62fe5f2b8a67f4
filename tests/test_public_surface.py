"""The package's public names, and the ones the benchmark harness imports."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import freeloop
from freeloop import errors, graphs, jsonio, retract, vankampen, words

ROOT = Path(__file__).resolve().parent.parent

# Names that are gone, each with the module or class that held it.
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
)


def test_every_exported_name_resolves_and_is_listed_once():
    names = freeloop.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(freeloop, name)]
    assert missing == []


def test_free_group_element_is_gone():
    for owner, name in DELETED:
        assert name not in freeloop.__all__
        assert not hasattr(freeloop, name), name
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


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
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    features = text.split("What you can do with it:", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", features))


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
