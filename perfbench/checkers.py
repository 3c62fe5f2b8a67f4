"""Output checkers that share no code with freeloop.

They read only the generated input documents and the program's outputs, and
use their own breadth-first search and stack reduction.  Each returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations


def edge_table(graph_doc: dict) -> dict[str, tuple[str, str]]:
    return {e["id"]: (e["src"], e["tgt"]) for e in graph_doc["edges"]}


def count_components(vertices, ends) -> int:
    """Number of weak components, by breadth-first search."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for s, t in ends:
        adj[s].append(t)
        adj[t].append(s)
    label: dict[str, int] = {}
    count = 0
    for start in vertices:
        if start in label:
            continue
        label[start] = count
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in label:
                        label[w] = count
                        nxt.append(w)
            frontier = nxt
        count += 1
    return count


def stack_reduce(letters: list[tuple]) -> list[tuple]:
    """Free reduction of (edge, sign) letters, or (side, edge, sign)."""
    out: list[tuple] = []
    for letter in letters:
        inverse = letter[:-1] + (-letter[-1],)
        if out and out[-1] == inverse:
            out.pop()
        else:
            out.append(letter)
    return out


def walk_problems(word: dict, ends: dict[str, tuple[str, str]], what: str) -> list[str]:
    """Problems that keep ``word`` from being a reduced walk on ``ends``."""
    letters = [(l["edge"], l["sign"]) for l in word["letters"]]
    cur = word["source"]
    for i, (edge, sign) in enumerate(letters):
        if edge not in ends or sign not in (1, -1):
            return [f"{what}: letter {i} ({edge!r}, {sign!r}) is not a signed edge"]
        s, t = ends[edge] if sign == 1 else ends[edge][::-1]
        if s != cur:
            return [f"{what}: letter {i} starts at {s!r}, walk is at {cur!r}"]
        cur = t
    problems = []
    if cur != word["target"]:
        problems.append(f"{what}: walk ends at {cur!r}, target is {word['target']!r}")
    if stack_reduce(letters) != letters:
        problems.append(f"{what}: not reduced")
    return problems


def check_pbp_cycle(scenario: dict, payload: dict) -> list[str]:
    """The certificate's loop is a closed, nonempty, reduced walk on the
    space's edges; on a cycle such a loop winds around, and k is 1."""
    if payload.get("pbi_fails") is not True or not payload.get("certificate"):
        return ["no certificate for a scenario where separation fails"]
    cert = payload["certificate"]
    loop = cert["loop_in_space"]
    n = len(scenario["space"]["edges"])
    problems = walk_problems(loop, edge_table(scenario["space"]), "loop_in_space")
    if loop["source"] != loop["target"]:
        problems.append("loop_in_space is not closed")
    if not loop["letters"] or len(loop["letters"]) % n:
        problems.append(f"loop_in_space has {len(loop['letters'])} letters, not a multiple of {n}")
    image = [(l["edge"], l["sign"]) for l in cert["retract_image"]["letters"]]
    if not image or stack_reduce(image) != image:
        problems.append("retract_image is empty or not reduced")
    if cert["k"] != 1:
        problems.append(f"k = {cert['k']}, a cycle has rank 1")
    return problems


def _forest_problems(name, tree_ids, side_ends, vertices, n_side) -> list[str]:
    if any(e not in side_ends for e in tree_ids):
        return [f"{name} names an edge outside its side"]
    ends = [side_ends[e] for e in tree_ids]
    if len(set(tree_ids)) != len(vertices) - n_side:
        return [f"{name} has {len(tree_ids)} edges, expected {len(vertices) - n_side}"]
    if count_components(vertices, ends) != n_side:
        return [f"{name} does not span its side's components"]
    return []


def check_retract(instance: dict, payload: dict) -> list[str]:
    """k equals the Euler rank of W found by BFS, and W has
    (n - n_a) + (n - n_b) edges, each the image of a forest edge."""
    objects = instance["objects"]
    n = len(objects)
    a_ends = edge_table(instance["graph_a"])
    b_ends = edge_table(instance["graph_b"])
    n_a = count_components(objects, a_ends.values())
    n_b = count_components(objects, b_ends.values())
    w_ends = edge_table(payload["w"])
    e_w = len(w_ends)
    c_w = count_components(payload["w"]["vertices"], w_ends.values())
    problems = []
    if sorted(payload["w"]["vertices"]) != sorted(objects):
        problems.append("W's vertices are not the objects")
    if e_w != (n - n_a) + (n - n_b):
        problems.append(f"W has {e_w} edges, expected {(n - n_a) + (n - n_b)}")
    if (payload["n_a"], payload["n_b"], payload["n_c"]) != (n_a, n_b, n):
        problems.append("component counts disagree with BFS")
    if payload["k"] != e_w - n + c_w or c_w != 1:
        problems.append(f"k = {payload['k']}, BFS Euler rank of W is {e_w - n + c_w}")
    if sum(item["rank"] for item in payload["per_component_ranks"]) != e_w - n + c_w:
        problems.append("per-component ranks do not sum to W's Euler rank")
    problems += _forest_problems("forest_x", payload["forest_x"], a_ends, objects, n_a)
    problems += _forest_problems("forest_y", payload["forest_y"], b_ends, objects, n_b)
    trees = {"A": set(payload["forest_x"]), "B": set(payload["forest_y"])}
    side_ends = {"A": a_ends, "B": b_ends}
    origins = payload["edge_origins"]
    if set(origins) != set(w_ends):
        problems.append("edge_origins does not cover W's edges")
    elif sorted((o["side"], o["edge"]) for o in origins.values()) != sorted(
        (side, e) for side, ids in trees.items() for e in ids
    ):
        problems.append("W's edges are not the forests' edges")
    elif any(side_ends[o["side"]][o["edge"]] != w_ends[w] for w, o in origins.items()):
        problems.append("a W edge's ends differ from its origin's")
    return problems


class TreePaths:
    """Tree paths in a forest by parent pointers from a BFS."""

    def __init__(self, vertices, tree_ids, ends):
        adj: dict[str, list] = {v: [] for v in vertices}
        for e in tree_ids:
            s, t = ends[e]
            adj[s].append((e, 1, t))
            adj[t].append((e, -1, s))
        self.up: dict[str, tuple] = {}
        self.depth: dict[str, int] = {}
        for start in vertices:
            if start in self.depth:
                continue
            self.depth[start] = 0
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for e, sign, w in adj[u]:
                        if w not in self.depth:
                            self.depth[w] = self.depth[u] + 1
                            self.up[w] = (e, -sign, u)
                            nxt.append(w)
                frontier = nxt

    def path(self, u: str, v: str) -> list[tuple[str, int]]:
        head, tail = [], []
        while self.depth[u] > self.depth[v]:
            e, sign, u = self.up[u]
            head.append((e, sign))
        while self.depth[v] > self.depth[u]:
            e, sign, v = self.up[v]
            tail.append((e, -sign))
        while u != v:
            e, sign, u = self.up[u]
            head.append((e, sign))
            e, sign, v = self.up[v]
            tail.append((e, -sign))
        return head + tail[::-1]


class RhoOracle:
    """Expected rho images: each A or B letter becomes the tree path between
    its ends in that side's forest, C letters vanish, and the result is
    reduced.  Built from the instance document, the chosen forests' edge ids
    and the W edge origins."""

    def __init__(self, instance: dict, tree_ids: dict[str, list[str]], origins: dict):
        self.ends = {"A": edge_table(instance["graph_a"]), "B": edge_table(instance["graph_b"])}
        self.paths = {
            side: TreePaths(instance["objects"], tree_ids[side], self.ends[side]) for side in "AB"
        }
        self.origins = origins
        self.w_id = {origin: w for w, origin in origins.items()}

    def expected(self, letters: list[dict]) -> list[tuple[str, int]]:
        raw = []
        for l in letters:
            if l["side"] == "C":
                continue
            s, t = self.ends[l["side"]][l["edge"]]
            if l["sign"] == -1:
                s, t = t, s
            raw += [(self.w_id[(l["side"], e)], sign) for e, sign in self.paths[l["side"]].path(s, t)]
        return stack_reduce(raw)

    def problems(self, word: dict, image: dict, back: dict) -> list[str]:
        w_ends = {
            w: self.ends[side][e] for w, (side, e) in self.origins.items()
        }
        problems = walk_problems(image, w_ends, "rho image")
        if (image["source"], image["target"]) != (word["source"], word["target"]):
            problems.append("rho image does not keep the word's ends")
        got = [(l["edge"], l["sign"]) for l in image["letters"]]
        if got != self.expected(word["letters"]):
            problems.append("rho image differs from the tree-path expansion")
        pulled = [(*self.origins[e], sign) for e, sign in got]
        if [(l["side"], l["edge"], l["sign"]) for l in back["letters"]] != pulled or (
            back["source"],
            back["target"],
        ) != (image["source"], image["target"]):
            problems.append("include_f does not relabel the image to its origins")
        return problems
