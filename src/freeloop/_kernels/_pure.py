"""Pure-Python kernels.

Letter codes handed to ``reduce_signed`` are nonzero ints: a signed edge is
encoded as ``sign * (index + 1)``.

The union-find of ``forest_scan`` is inlined, so no step makes a Python
call.  Finds use path halving (each visited node is relinked to its
grandparent, ``parent[x] = x = parent[parent[x]]``), and a union always links
the larger root under the smaller one.  So every parent index is at most its
child's, and a root is the smallest member of its set: one ascending pass
``parent[i] = parent[parent[i]]`` then leaves each vertex labelled by that
member.  Which edges a scan accepts depends only on whether their ends
already share a set, never on which root survives a union.
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


def forest_scan(n, src, tgt, order):
    """Kruskal scan of the edges ``src[i] - tgt[i]`` for ``i`` in ``order``.

    Returns the accepted indexes, in scan order, and a label per vertex: the
    smallest member of its set once every scanned edge is merged.
    """
    parent = list(range(n))
    accepted = []
    for idx in order:
        a, b = src[idx], tgt[idx]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            accepted.append(idx)
    # parent[i] <= i, so parent[i]'s own root is already final when i is reached.
    for i in range(n):
        parent[i] = parent[parent[i]]
    return accepted, parent
