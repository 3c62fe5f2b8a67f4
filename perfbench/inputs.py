"""Seeded input generators.  They produce plain JSON documents and import
nothing from freeloop, so the program under test receives only these inputs.

Ids are random fixed-width ASCII tokens: their code-point order, which drives
every canonical choice in freeloop, is unrelated to the shape of the input.
"""

from __future__ import annotations

import random


def tokens(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{x:08x}" for x in rng.sample(range(16**8), count)]


def cycle_scenario(rng: random.Random, n: int) -> dict:
    """Separation scenario on an n-cycle: D and E are antipodal single
    vertices, a and b sit at the quarter points, so neither deleted set
    separates a from b but their union does."""
    names = tokens(rng, "v", n)
    edge_ids = tokens(rng, "e", n)
    edges = []
    for i in range(n):
        s, t = names[i], names[(i + 1) % n]
        if rng.random() < 0.5:
            s, t = t, s
        edges.append({"id": edge_ids[i], "src": s, "tgt": t})
    return {
        "space": {"vertices": names, "edges": edges},
        "d": [names[0]],
        "e": [names[n // 2]],
        "a": names[n // 4],
        "b": names[3 * n // 4],
    }


def _side_graph(rng, objects, ids, blocks):
    """Random multigraph with exactly ``blocks`` weak components: a random
    recursive tree spans each block, the remaining edges fall inside blocks."""
    order = objects[:]
    rng.shuffle(order)
    size = len(order) // blocks
    parts = [order[i * size : (i + 1) * size] for i in range(blocks - 1)]
    parts.append(order[(blocks - 1) * size :])
    pairs = []
    for part in parts:
        pairs.extend((part[rng.randrange(i)], part[i]) for i in range(1, len(part)))
    while len(pairs) < len(ids):
        part = parts[rng.randrange(blocks)]
        pairs.append((rng.choice(part), rng.choice(part)))
    rng.shuffle(pairs)
    edges = []
    for e, (s, t) in zip(ids, pairs):
        if rng.random() < 0.5:
            s, t = t, s
        edges.append({"id": e, "src": s, "tgt": t})
    return {"vertices": objects[:], "edges": edges}, parts


def pushout_instance(
    rng: random.Random, n_objects: int, n_edges: int, blocks_a: int = 3, blocks_b: int = 4
) -> dict:
    """Connected pushout instance: side A has ``blocks_a`` components and side
    B ``blocks_b``, every object carries one C loop, and 5% of B's edge ids
    repeat an A id, so W needs its side-prefixed ids."""
    objects = tokens(rng, "o", n_objects)
    ids = tokens(rng, "g", 2 * n_edges)
    a_ids = ids[:n_edges]
    shared = rng.sample(a_ids, n_edges // 20)
    b_ids = ids[n_edges : 2 * n_edges - len(shared)] + shared
    while True:
        graph_a, parts_a = _side_graph(rng, objects, a_ids, blocks_a)
        graph_b, parts_b = _side_graph(rng, objects, b_ids, blocks_b)
        if _blocks_connect(parts_a, parts_b):
            break
    loops = tokens(rng, "c", n_objects)
    return {
        "objects": objects,
        "graph_a": graph_a,
        "graph_b": graph_b,
        "c_loops": {v: [c] for v, c in zip(objects, loops)},
    }


def _blocks_connect(parts_a, parts_b) -> bool:
    """Whether the union of two partitions' blocks joins every object."""
    block_b = {v: j for j, part in enumerate(parts_b) for v in part}
    links = {(i, block_b[v]) for i, part in enumerate(parts_a) for v in part}
    reached_a, reached_b = {0}, set()
    grew = True
    while grew:
        grew = False
        for i, j in links:
            if (i in reached_a or j in reached_b) and not (i in reached_a and j in reached_b):
                reached_a.add(i)
                reached_b.add(j)
                grew = True
    return len(reached_a) == len(parts_a) and len(reached_b) == len(parts_b)


def tagged_walks(
    rng: random.Random, doc: dict, count: int, length: int, mean_run: int = 8, c_share: float = 0.05
) -> list[dict]:
    """Random walks of tagged generators over an instance document.

    Same-side runs have geometric length with mean ``mean_run``; a share
    ``c_share`` of letters are C loops, which do not end a run.  Returns
    ``count`` tagged-word documents of ``length`` letters.
    """
    moves: dict[str, dict[str, list]] = {"A": {}, "B": {}}
    for side, key in (("A", "graph_a"), ("B", "graph_b")):
        table = moves[side]
        for edge in doc[key]["edges"]:
            s, t = edge["src"], edge["tgt"]
            table.setdefault(s, []).append((edge["id"], 1, t))
            table.setdefault(t, []).append((edge["id"], -1, s))
    loops = doc["c_loops"]
    words = []
    for _ in range(count):
        cur = source = rng.choice(doc["objects"])
        side = rng.choice("AB")
        letters: list[dict] = []
        while len(letters) < length:
            if rng.random() < c_share and loops.get(cur):
                letters.append({"side": "C", "edge": rng.choice(loops[cur]), "sign": rng.choice((1, -1))})
                continue
            if rng.random() < 1 / mean_run or cur not in moves[side]:
                side = "B" if side == "A" else "A"
            edge, sign, cur = rng.choice(moves[side][cur])
            letters.append({"side": side, "edge": edge, "sign": sign})
        words.append({"source": source, "target": cur, "letters": letters})
    return words
