"""Seeded random instance generation.

The chordal core is built from the subtree-intersection model: pick a
random tree, give every vertex a random connected subtree, and join two
vertices iff their subtrees share a node.  Non-chordality is planted by
apex vertices whose removal provably restores the core, so the planted
set is always a solution and the optimum is at most the planted count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import Graph, DiGraph, check
from .chordal import clique_tree_of, is_chordal


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one seeded instance."""

    seed: int
    core_vertices: int = 12
    tree_nodes: int = 6
    subtree_extra: int = 2      # expected extra nodes per vertex subtree
    planted: int = 1            # apex vertices whose removal restores chordality
    apex_degree_lo: int = 3
    apex_degree_hi: int = 6
    noise_edges: int = 0        # extra random edges among planted vertices
    budget: int | None = None   # k; defaults to planted count

    def __post_init__(self):
        for name in ("core_vertices", "tree_nodes", "subtree_extra",
                     "planted", "apex_degree_lo", "apex_degree_hi",
                     "noise_edges", "budget"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"negative {name}: {getattr(self, name)}")
        if self.apex_degree_lo > self.apex_degree_hi:
            raise ValueError(
                f"apex_degree_lo {self.apex_degree_lo} exceeds"
                f" apex_degree_hi {self.apex_degree_hi}")


def random_tree(rng: random.Random, nodes: int) -> list[int | None]:
    """Random tree as a parent array; node 0 is the root."""
    parent: list[int | None] = [None]
    for v in range(1, nodes):
        parent.append(rng.randrange(v))
    return parent


def random_chordal(rng: random.Random, n: int, tree_nodes: int,
                   subtree_extra: int) -> Graph:
    """Random chordal graph from the subtree-intersection model."""
    if n == 0:
        return Graph(0)
    tree_nodes = max(1, tree_nodes)
    parent = random_tree(rng, tree_nodes)
    adj: list[list[int]] = [[] for _ in range(tree_nodes)]
    for v, p in enumerate(parent):
        if p is not None:
            adj[v].append(p)
            adj[p].append(v)
    subtrees: list[set[int]] = []
    for _ in range(n):
        start = rng.randrange(tree_nodes)
        sub = {start}
        extra = subtree_extra
        while extra > 0 and rng.random() < 0.7:
            frontier = sorted({w for u in sub for w in adj[u]} - sub)
            if not frontier:
                break
            sub.add(rng.choice(frontier))
            extra -= 1
        subtrees.append(sub)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if subtrees[u] & subtrees[v]
    ]
    g = Graph(n, edges)
    check(is_chordal(g), "subtree-intersection model produced a non-chordal graph")
    return g


def generate(spec: GeneratorSpec) -> tuple[Graph, int, frozenset[int]]:
    """Instance (graph, budget k, planted solution set).

    Removing the planted vertices always leaves the chordal core, so the
    optimum is at most ``spec.planted``.
    """
    rng = random.Random(spec.seed)
    core = random_chordal(rng, spec.core_vertices, spec.tree_nodes,
                          spec.subtree_extra)
    n_core = core.n
    edges = list(core.edges())
    planted = []
    for i in range(spec.planted):
        apex = n_core + i
        planted.append(apex)
        if n_core > 0:
            deg = rng.randint(min(spec.apex_degree_lo, n_core),
                              min(spec.apex_degree_hi, n_core))
            for u in rng.sample(range(n_core), deg):
                edges.append((apex, u))
    planted_set = frozenset(planted)
    for _ in range(spec.noise_edges):
        if len(planted) >= 2:
            a, b = rng.sample(planted, 2)
            edges.append((a, b))
    g = Graph(n_core + spec.planted, edges)
    check(is_chordal(g, set(g.vertices()) - planted_set),
          "planted set is not a solution")
    k = spec.planted if spec.budget is None else spec.budget
    return g, k, planted_set


def kernel_instance_pool(seed: int) -> tuple[Graph, int, list[int]]:
    """A kernelization test instance: (graph, budget, modulator).

    Cycles through shapes that exercise different reduction rules: plain
    planted instances, star pairs with many shared independent neighbors
    (pair forcing), parallel subtree-separated paths (path forcing), an
    oversized clique beside a lone modulator vertex, and long paths with
    pendant branches (irrelevant vertices and bypassing).
    """
    rng = random.Random(seed)
    shape = seed % 5
    if shape == 0:
        g, k, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=rng.randint(8, 13),
            planted=rng.randint(1, 3), noise_edges=rng.randint(0, 2)))
        return g, min(k, 3), sorted(planted)
    if shape == 1:
        k = rng.randint(0, 1)
        leaves = k + 2 + rng.randint(0, 2)
        x, y = leaves, leaves + 1
        edges = [(x, i) for i in range(leaves)]
        edges += [(y, i) for i in range(leaves)]
        if rng.random() < 0.5:
            edges.append((0, 1))
        return Graph(leaves + 2, edges), k, [x, y]
    if shape == 2:
        k = rng.randint(0, 1)
        paths = k + 2 + rng.randint(0, 1)
        edges = [(2, 3)]
        n = 4
        for _ in range(paths):
            a, b = n, n + 1
            n += 2
            edges += [(0, a), (a, b), (b, 1)]
        return Graph(n, edges), k, [0, 1]
    if shape == 3:
        size = rng.randint(6, 8)
        edges = [(u, v) for u in range(1, size) for v in range(u + 1, size)]
        if rng.random() < 0.5:
            edges.append((0, 1))
        return Graph(size, edges), 0, [0]
    length = rng.randint(10, 14)
    edges = [(i, i + 1) for i in range(length - 1)]
    apex, branch = length, length + 1
    mid = length // 2
    edges += [(apex, 0), (apex, length - 1), (branch, mid)]
    return Graph(length + 2, edges), 1, [apex]


def random_gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_dag(rng: random.Random, n: int, p: float) -> DiGraph:
    """Random DAG: random topological order, forward arcs with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                arcs.append((order[i], order[j]))
    return DiGraph(n, arcs)


def clique_path_graph(sizes: list[int]) -> Graph:
    """Path of cliques: consecutive clusters fully joined (interval graph).

    Long induced paths cross one cluster per hop, which is what diffuse
    fractional solutions need.
    """
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    edges = []
    for i, block in enumerate(blocks):
        edges += [(u, v) for u in block for v in block if u < v]
        if i + 1 < len(blocks):
            edges += [(u, v) for u in block for v in blocks[i + 1]]
    g = Graph(start, edges)
    check(is_chordal(g), "clique path construction is not chordal")
    return g


def random_diffuse_downward(seed: int):
    """Downward multicut instance with a spread-out fractional solution.

    A long path of cliques keeps every terminal path at nine or more
    vertices, so a uniform weight below 1/8 is feasible and nothing is
    caught by the threshold-deletion stage.  Returns the instance plus
    its fractional solution.
    """
    from .lp import FractionalSolution
    from .multicut import build_downward, dist_from

    rng = random.Random(seed)
    clusters = rng.randint(10, 13)
    g = clique_path_graph([rng.randint(1, 3) for _ in range(clusters)])
    tree = clique_tree_of(g)
    base = build_downward(g, tree)
    weight = 1.0 / rng.randint(9, 12)
    x = FractionalSolution({v: weight for v in g.vertices()})
    candidates = []
    for u in g.vertices():
        dist = dist_from(base.digraph, x, u)
        candidates += [
            (u, v) for v, cost in sorted(dist.items())
            if cost >= 1.0 and not g.has_edge(u, v) and u != v
        ]
    if not candidates:
        return None
    pairs = sorted(set(rng.sample(candidates,
                                  min(len(candidates), rng.randint(2, 6)))))
    return base.with_terminals(pairs), x


def random_staircase(seed: int, n: int = 12, a: int = 3, b: int = 3,
                     p: float = 0.35) -> tuple[DiGraph, list[int], list[int],
                                               list[tuple[int, int]]]:
    """Random skew multicut instance: DAG, source list, target list, pairs.

    The pair family is staircase-closed: each source u_i is paired with a
    prefix of the targets, and the prefixes grow with i.
    """
    rng = random.Random(seed)
    d = random_dag(rng, n, p)
    vertices = list(range(n))
    rng.shuffle(vertices)
    a = min(a, n // 2)
    b = min(b, n - a)
    tu = sorted(vertices[:a])
    tv = sorted(vertices[a:a + b])
    thresholds = sorted(rng.randint(0, b) for _ in range(a))
    pairs = [(tu[i], tv[j]) for i in range(a) for j in range(thresholds[i])]
    return d, tu, tv, pairs
