"""Deterministic DOT rendering of graphs with role-based edge styling.

Edges are drawn in canonical id order, so identical inputs yield identical
bytes.  Styling is by role: first-forest edges red, second-forest edges blue,
everything else gray; highlighted edges (witness loops) are drawn bold.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import DirectedGraph

FOREST_X_COLOR = "#c0392b"
FOREST_Y_COLOR = "#2980b9"
DEFAULT_COLOR = "#555555"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_dot(
    g: DirectedGraph,
    red_edges: Iterable[str] = (),
    blue_edges: Iterable[str] = (),
    bold_edges: Iterable[str] = (),
) -> str:
    """Render ``g`` as a DOT digraph, one node and edge per line."""
    red = set(red_edges)
    blue = set(blue_edges)
    bold = set(bold_edges)
    lines = ['digraph "G" {', "  node [shape=circle];"]
    for v in g.vertices:
        lines.append(f"  {_quote(v)};")
    vertex = g.vertices.__getitem__
    for e, s, t in zip(g.edge_ids, map(vertex, g._src_idx), map(vertex, g._tgt_idx)):
        color = FOREST_X_COLOR if e in red else FOREST_Y_COLOR if e in blue else DEFAULT_COLOR
        attrs = [f"label={_quote(e)}", f"color={_quote(color)}"]
        if e in bold:
            attrs.append("style=bold")
            attrs.append("penwidth=2.5")
        lines.append(f"  {_quote(s)} -> {_quote(t)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
