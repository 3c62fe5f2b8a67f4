"""The innermost loops (free word reduction, and the one union-find scan that
yields both a graph's components and its greedy spanning forest),
implemented in ``_pure``.  Everything above this package is ordinary Python.
"""

from ._pure import forest_scan, reduce_signed

BACKEND = "pure"

__all__ = ["BACKEND", "reduce_signed", "forest_scan"]
