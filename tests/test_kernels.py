"""Kernel contract tests: the pure-Python kernels against independent oracles."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, strategies as st

from freeloop import _kernels
from freeloop._kernels import _pure

from support import brute_components, checkers, naive_reduce, reference_kruskal

BACKEND_PARAMS = pytest.mark.parametrize("kernel", [_pure], ids=["pure"])

codes_lists = st.lists(
    st.integers(min_value=-9, max_value=9).filter(bool), max_size=60
)


@st.composite
def index_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return 0, [], []
    m = draw(st.integers(min_value=0, max_value=24))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    tgt = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, tgt


def _blocks_from_labels(labels):
    grouped = {}
    for i, lbl in enumerate(labels):
        grouped.setdefault(lbl, []).append(i)
    return sorted(tuple(v) for v in grouped.values())


def _labels_match_bfs(labels, n, src, tgt) -> bool:
    """Labels give the BFS blocks exactly when every edge joins two equal
    labels and there are as many labels as the checker counts components."""
    count = checkers.count_components(range(n), zip(src, tgt))
    same = all(labels[s] == labels[t] for s, t in zip(src, tgt))
    return len(labels) == n and same and len(set(labels)) == count


@BACKEND_PARAMS
@given(codes=codes_lists)
def test_reduce_matches_naive_oracle(kernel, codes):
    """Stack reduction agrees with one-pair-at-a-time deletion."""
    assert list(kernel.reduce_signed(codes)) == naive_reduce(codes)


@BACKEND_PARAMS
@given(codes=codes_lists)
def test_reduce_is_idempotent_and_irreducible(kernel, codes):
    reduced = list(kernel.reduce_signed(codes))
    assert list(kernel.reduce_signed(reduced)) == reduced
    assert all(a != -b for a, b in zip(reduced, reduced[1:]))


@BACKEND_PARAMS
def test_reduce_examples(kernel):
    assert list(kernel.reduce_signed([])) == []
    assert list(kernel.reduce_signed([1, -1])) == []
    assert list(kernel.reduce_signed([1, 2, -2, -1])) == []
    assert list(kernel.reduce_signed([1, 2, -1])) == [1, 2, -1]
    assert list(kernel.reduce_signed([3, -3, 3])) == [3]


@BACKEND_PARAMS
@given(data=index_graphs(), choice=st.data())
def test_forest_scan_labels_match_bfs_oracle(kernel, data, choice):
    """The scan's labels partition the vertices as BFS does, in any order."""
    n, src, tgt = data
    order = choice.draw(st.permutations(range(len(src))))
    _, labels = kernel.forest_scan(n, src, tgt, order)
    assert _labels_match_bfs(labels, n, src, tgt)


@BACKEND_PARAMS
@given(data=index_graphs(), choice=st.data())
def test_forest_scan_labels_by_smallest_member(kernel, data, choice):
    n, src, tgt = data
    order = choice.draw(st.permutations(range(len(src))))
    _, labels = kernel.forest_scan(n, src, tgt, order)
    for block in _blocks_from_labels(labels):
        assert all(labels[v] == block[0] == min(block) for v in block)


@BACKEND_PARAMS
@given(data=index_graphs())
def test_forest_scan_accepts_a_maximal_acyclic_subsequence(kernel, data):
    n, src, tgt = data
    order = list(range(len(src)))
    accepted, _ = kernel.forest_scan(n, src, tgt, order)
    assert accepted == sorted(accepted)
    assert set(accepted) <= set(order)
    # A forest spanning the graph's blocks: v - #components edges and as
    # many components as the graph, so its blocks are the graph's.
    count = checkers.count_components(range(n), zip(src, tgt))
    assert len(accepted) == n - count
    assert checkers.count_components(range(n), [(src[i], tgt[i]) for i in accepted]) == count


@BACKEND_PARAMS
@given(data=index_graphs(), choice=st.data())
def test_forest_scan_matches_reference_kruskal_in_any_order(kernel, data, choice):
    """Linking roots by smaller index changes no acceptance: on a permuted
    scan, and on a scan led by required edges as a tie-break list leads it,
    the kernel accepts what a union-find-free Kruskal accepts."""
    n, src, tgt = data
    order = choice.draw(st.permutations(range(len(src))))
    accepted, _ = kernel.forest_scan(n, src, tgt, order)
    assert accepted == reference_kruskal(n, src, tgt, order)
    required = choice.draw(st.lists(st.sampled_from(order), unique=True) if order else st.just([]))
    order = required + [i for i in order if i not in required]
    accepted, _ = kernel.forest_scan(n, src, tgt, order)
    assert accepted == reference_kruskal(n, src, tgt, order)


def _python_calls_inside(fn, *args):
    """``fn(*args)`` and the number of Python-level calls made under it."""
    calls = []
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, len(calls) - 1  # the first call event is fn itself


LONG = 100_000


def _long_shape(shape, direction):
    """A 100k-vertex path or a 100k-leaf star, edges ascending or descending."""
    if shape == "path":
        src, tgt = list(range(LONG - 1)), list(range(1, LONG))
    else:
        src, tgt = [0] * LONG, list(range(1, LONG + 1))
    if direction == "descending":
        src.reverse()
        tgt.reverse()
    return max(tgt) + 1, src, tgt


@BACKEND_PARAMS
@pytest.mark.parametrize("direction", ["ascending", "descending"])
@pytest.mark.parametrize("shape", ["path", "star"])
def test_kernels_on_long_paths_and_stars_make_no_python_calls(kernel, shape, direction):
    """Each find is inlined, so the chains that a descending path builds
    neither recurse nor cost a call per step."""
    n, src, tgt = _long_shape(shape, direction)
    # The index-order scan, as ``components`` runs it.
    (accepted, labels), calls = _python_calls_inside(kernel.forest_scan, n, src, tgt, range(len(src)))
    assert calls == 0
    assert labels == [0] * n
    assert _labels_match_bfs(labels, n, src, tgt)
    assert accepted == list(range(len(src)))


def test_selected_backend_is_exported():
    """The package exports the word reduction and exactly one graph scan."""
    assert _kernels.BACKEND == "pure"
    assert sorted(_kernels.__all__) == ["BACKEND", "forest_scan", "reduce_signed"]
    assert _kernels.reduce_signed is _pure.reduce_signed
    assert _kernels.forest_scan is _pure.forest_scan


def test_components_use_brute_oracle_on_random_shapes():
    """The packaged components() agrees with BFS on assorted small graphs."""
    import random

    from freeloop.graphs import components
    from support import random_graph

    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng)
        assert components(g).blocks == brute_components(g)
