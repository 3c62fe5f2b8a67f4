"""The innermost loops (free word reduction, union-find, greedy forest scans),
implemented in ``_pure``.  Everything above this package is ordinary Python.
"""

from ._pure import greedy_forest, reduce_signed, union_find_labels

BACKEND = "pure"

__all__ = ["BACKEND", "reduce_signed", "union_find_labels", "greedy_forest"]
