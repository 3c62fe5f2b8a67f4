"""The package's public names, and the ones the benchmark harness imports."""

from __future__ import annotations

import freeloop
from freeloop import jsonio, retract, words


def test_every_exported_name_resolves_and_is_listed_once():
    names = freeloop.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(freeloop, name)]
    assert missing == []


def test_free_group_element_is_gone():
    assert "FreeGroupElement" not in freeloop.__all__
    assert not hasattr(freeloop, "FreeGroupElement")
    assert not hasattr(words, "FreeGroupElement")


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
