"""Pure-Python kernels.

Letter codes handed to ``reduce_signed`` are nonzero ints: a signed edge is
encoded as ``sign * (index + 1)``.
"""

from __future__ import annotations


def reduce_signed(codes):
    """Cancel adjacent ``c, -c`` pairs until none remain (one stack pass)."""
    stack = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return stack


def _find(parent, x):
    """Root of ``x`` in the union-find forest ``parent``, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def union_find_labels(n, src, tgt):
    """Merge ``src[i] - tgt[i]``; label each vertex by its set's smallest member."""
    parent = list(range(n))
    for a, b in zip(src, tgt):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[rb] = ra

    labels = [0] * n
    first = {}
    for i in range(n):
        r = _find(parent, i)
        if r not in first:
            first[r] = i
        labels[i] = first[r]
    return labels


def greedy_forest(n, src, tgt, order):
    """Kruskal scan of edge indexes in ``order``; returns the accepted indexes."""
    parent = list(range(n))
    accepted = []
    for idx in order:
        ra, rb = _find(parent, src[idx]), _find(parent, tgt[idx])
        if ra != rb:
            parent[rb] = ra
            accepted.append(idx)
    return accepted
