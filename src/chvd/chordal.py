"""Chordality recognition, clique trees, and tree-decomposition queries.

The recognizer is certified: it returns a perfect elimination ordering for
chordal inputs and a verified hole otherwise.  Clique trees support the
queries used throughout the reduction and approximation pipelines: top(v),
beta_inverse(v), adhesions, LCA, minimal connecting paths, and subtree
distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional

from .graphs import (
    Graph,
    Hole,
    check,
    components_within,
    induced_subgraph,
    is_clique,
    lightest_hole_through,
    shortcut_walk,
)


@dataclass(frozen=True)
class PEO:
    """Perfect elimination ordering: for each vertex, later neighbors form a clique."""

    ordering: tuple[int, ...]

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.ordering)}


def mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order; ties broken toward lowest id."""
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not visited[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        order.append(best)
        for w in g.neighbors(best):
            if not visited[w]:
                weight[w] += 1
    return order


def is_peo(g: Graph, ordering: Iterable[int]) -> bool:
    order = list(ordering)
    if sorted(order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not is_clique(g, later):
            return False
    return True


def find_hole_through(g: Graph, v: int) -> Optional[Hole]:
    """A shortest hole through v, in canonical form, or None if v lies on
    no hole."""
    found = lightest_hole_through(g, v, lambda _: 1, g.vertices(), math.inf)
    return None if found is None else found[0]


def find_any_hole(g: Graph) -> Optional[Hole]:
    for v in g.vertices():
        h = find_hole_through(g, v)
        if h is not None:
            return h
    return None


def recognize(g: Graph) -> PEO | Hole:
    """PEO when g is chordal, otherwise a verified hole witness."""
    order = list(reversed(mcs_order(g)))
    pos = {v: i for i, v in enumerate(order)}
    chordal = True
    for v in order:
        later = sorted((u for u in g.neighbors(v) if pos[u] > pos[v]),
                       key=lambda u: pos[u])
        if not later:
            continue
        u = later[0]
        if any(w != u and not g.has_edge(u, w) for w in later[1:]):
            chordal = False
            break
    if chordal:
        return PEO(tuple(order))
    hole = find_any_hole(g)
    check(hole is not None, "MCS order failed the fill-in check but no hole found")
    return hole


def is_chordal(g: Graph) -> bool:
    return isinstance(recognize(g), PEO)


class CliqueTree:
    """Rooted clique tree: bags are the maximal cliques of a chordal graph."""

    __slots__ = ("bags", "parent", "root", "_children", "_depth", "_inv")

    def __init__(self, bags: list[frozenset[int]], parent: list[Optional[int]],
                 root: int, n_vertices: int):
        self.bags: tuple[frozenset[int], ...] = tuple(bags)
        self.parent: tuple[Optional[int], ...] = tuple(parent)
        self.root = root
        children: list[list[int]] = [[] for _ in bags]
        for node, par in enumerate(parent):
            if par is not None:
                children[par].append(node)
        self._children = tuple(tuple(sorted(c)) for c in children)
        depth = [0] * len(bags)
        stack = [root]
        seen = {root}
        while stack:
            p = stack.pop()
            for c in self._children[p]:
                depth[c] = depth[p] + 1
                seen.add(c)
                stack.append(c)
        check(len(seen) == len(bags), "parent links do not form a tree rooted at root")
        self._depth = tuple(depth)
        inv: list[list[int]] = [[] for _ in range(n_vertices)]
        for node, bag in enumerate(self.bags):
            for v in bag:
                inv[v].append(node)
        self._inv = tuple(tuple(sorted(nodes)) for nodes in inv)

    def nodes(self) -> range:
        return range(len(self.bags))

    def children(self, node: int) -> tuple[int, ...]:
        return self._children[node]

    def depth(self, node: int) -> int:
        return self._depth[node]

    def beta_inverse(self, v: int) -> tuple[int, ...]:
        return self._inv[v]

    def top(self, v: int) -> int:
        """The node of beta_inverse(v) closest to the root."""
        nodes = self._inv[v]
        if not nodes:
            raise ValueError(f"vertex {v} appears in no bag")
        return min(nodes, key=lambda p: (self._depth[p], p))

    def adhesion(self, node: int) -> frozenset[int]:
        """Adhesion of the tree edge from node to its parent."""
        par = self.parent[node]
        if par is None:
            raise ValueError("root has no parent edge")
        return self.bags[node] & self.bags[par]

    def tree_edges(self) -> list[tuple[int, int]]:
        """Edges as (child, parent) pairs."""
        return [(c, p) for c, p in enumerate(self.parent) if p is not None]

    def lca(self, p: int, q: int) -> int:
        while p != q:
            if self._depth[p] < self._depth[q]:
                q = self.parent[q]
            else:
                p = self.parent[p]
        return p

    def node_distance(self, p: int, q: int) -> int:
        a = self.lca(p, q)
        return self._depth[p] + self._depth[q] - 2 * self._depth[a]

    def node_path(self, p: int, q: int) -> list[int]:
        """The unique tree path from p to q, inclusive."""
        a = self.lca(p, q)
        up = []
        x = p
        while x != a:
            up.append(x)
            x = self.parent[x]
        down = []
        x = q
        while x != a:
            down.append(x)
            x = self.parent[x]
        return up + [a] + list(reversed(down))

    def subtree_distance(self, v: int, node: int) -> int:
        """Tree distance from the subtree beta_inverse(v) to a node."""
        return min(self.node_distance(p, node) for p in self._inv[v])

    def subtrees_distance(self, u: int, v: int) -> int:
        """d_T(beta_inverse(u), beta_inverse(v)); 0 when they share a node."""
        return min(self.subtree_distance(u, p) for p in self._inv[v])

    def path_to_root(self, v: int) -> list[int]:
        """Node path from top(v) up to the root."""
        node = self.top(v)
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def first_bag_containing(self, s: AbstractSet[int]) -> Optional[int]:
        """The first node, in node order, whose bag contains s; None if none."""
        return next((q for q in self.nodes() if s <= self.bags[q]), None)

    def subtree_nodes(self, node: int) -> set[int]:
        out = {node}
        stack = [node]
        while stack:
            p = stack.pop()
            for c in self._children[p]:
                out.add(c)
                stack.append(c)
        return out

    def reroot(self, new_root: int) -> "CliqueTree":
        n_vertices = len(self._inv)
        adj: list[list[int]] = [[] for _ in self.bags]
        for c, p in self.tree_edges():
            adj[c].append(p)
            adj[p].append(c)
        parent: list[Optional[int]] = [None] * len(self.bags)
        stack = [new_root]
        seen = {new_root}
        while stack:
            p = stack.pop()
            for q in adj[p]:
                if q not in seen:
                    seen.add(q)
                    parent[q] = p
                    stack.append(q)
        return CliqueTree(list(self.bags), parent, new_root, n_vertices)


def _maximal_cliques_from_peo(g: Graph, peo: PEO) -> list[frozenset[int]]:
    pos = peo.position()
    candidates = []
    for v in peo.ordering:
        later = frozenset(u for u in g.neighbors(v) if pos[u] > pos[v])
        candidates.append(frozenset({v}) | later)
    maximal = []
    for i, c in enumerate(candidates):
        if any(i != j and c < other for j, other in enumerate(candidates)) or \
           any(c == other for other in candidates[:i]):
            continue
        maximal.append(c)
    return sorted(maximal, key=lambda c: sorted(c))


def build_clique_tree(g: Graph, peo: PEO, root: Optional[int] = None) -> CliqueTree:
    """Clique tree from a PEO: maximal cliques as bags, edges by a
    maximum-weight spanning tree over bag intersections."""
    if not is_peo(g, peo.ordering):
        raise ValueError("ordering is not a perfect elimination ordering for g")
    if g.n == 0:
        return CliqueTree([frozenset()], [None], 0, 0)
    bags = _maximal_cliques_from_peo(g, peo)
    b = len(bags)
    pairs = sorted(
        ((i, j) for i in range(b) for j in range(i + 1, b)),
        key=lambda ij: (-len(bags[ij[0]] & bags[ij[1]]), ij),
    )
    comp = list(range(b))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    adj: list[list[int]] = [[] for _ in range(b)]
    used = 0
    for i, j in pairs:
        if used == b - 1:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            comp[ri] = rj
            adj[i].append(j)
            adj[j].append(i)
            used += 1
    root_node = 0 if root is None else root
    parent: list[Optional[int]] = [None] * b
    stack = [root_node]
    seen = {root_node}
    while stack:
        p = stack.pop()
        for q in sorted(adj[p]):
            if q not in seen:
                seen.add(q)
                parent[q] = p
                stack.append(q)
    tree = CliqueTree(bags, parent, root_node, g.n)
    return tree


def clique_tree_of(g: Graph, root: Optional[int] = None) -> CliqueTree:
    """Recognize + build in one step; raises ValueError on non-chordal input."""
    res = recognize(g)
    if isinstance(res, Hole):
        raise ValueError("graph is not chordal")
    return build_clique_tree(g, res, root=root)


def validate_clique_tree(g: Graph, t: CliqueTree) -> None:
    """Check every CliqueTree invariant against g; raises InvariantError."""
    covered = set()
    for bag in t.bags:
        covered |= bag
        check(is_clique(g, bag), "bag is not a clique")
        check(len(bag) > 0 or g.n == 0, "empty bag in a nonempty graph")
        extenders = [w for w in set(g.vertices()) - bag
                     if all(g.has_edge(u, w) for u in bag)]
        check(not extenders or (len(bag) == 0 and g.n == 0),
              "bag is not a maximal clique")
    check(covered == set(g.vertices()), "bags do not cover all vertices")
    for u, v in g.edges():
        check(any(u in bag and v in bag for bag in t.bags),
              "edge not inside any bag")
    for v in g.vertices():
        nodes = set(t.beta_inverse(v))
        check(len(nodes) > 0, "vertex in no bag")
        inside = {p for p in nodes if t.parent[p] in nodes}
        check(len(inside) == len(nodes) - 1 or len(nodes) == 1,
              "beta_inverse(v) is not a connected subtree")
        if len(nodes) > 1:
            roots = [p for p in nodes if t.parent[p] not in nodes]
            check(len(roots) == 1, "beta_inverse(v) is not a connected subtree")
    for u in g.vertices():
        for v in range(u + 1, g.n):
            share = bool(set(t.beta_inverse(u)) & set(t.beta_inverse(v)))
            check(share == g.has_edge(u, v),
                  "shared-bag iff adjacent violated")


def minimal_path(t: CliqueTree, s: int, u: int) -> list[int]:
    """The unique minimal tree path connecting beta_inverse(s) and beta_inverse(u).

    Endpoints lie in the two subtrees, interior nodes in neither.  For
    adjacent vertices the subtrees intersect and the result is a single
    shared node (callers treat this as the shared-bag case).
    """
    s_nodes = set(t.beta_inverse(s))
    u_nodes = set(t.beta_inverse(u))
    common = s_nodes & u_nodes
    if common:
        return [min(common)]
    full = t.node_path(t.top(s), t.top(u))
    last_s = max(i for i, p in enumerate(full) if p in s_nodes)
    first_u = min(i for i, p in enumerate(full) if p in u_nodes)
    check(last_s < first_u, "subtrees interleave on the connecting path")
    return full[last_s : first_u + 1]


def path_adhesions(t: CliqueTree, node_path: list[int]) -> list[frozenset[int]]:
    """Adhesions of consecutive edges along a tree node path."""
    out = []
    for a, b in zip(node_path, node_path[1:]):
        out.append(t.bags[a] & t.bags[b])
    return out


def induced_path_avoiding(
    g: Graph, t: CliqueTree, s: int, u: int, forbidden: Iterable[int]
) -> Optional[list[int]]:
    """An induced su-path in g - forbidden, or None when the adhesions cut it.

    Walks the minimal tree path, picks one allowed vertex per adhesion, and
    shortcuts the resulting walk.
    """
    forb = set(forbidden)
    if s in forb or u in forb:
        raise ValueError("path endpoints may not be forbidden")
    if g.has_edge(s, u):
        return [s, u]
    path = minimal_path(t, s, u)
    picks = []
    for adh in path_adhesions(t, path):
        free = sorted(adh - forb)
        if not free:
            return None
        picks.append(free[0])
    return shortcut_walk(g, [s] + picks + [u])


def mis_chordal(g: Graph) -> frozenset[int]:
    """Maximum independent set of a chordal graph, greedy over a PEO."""
    res = recognize(g)
    if isinstance(res, Hole):
        raise ValueError("graph is not chordal")
    taken = []
    blocked = set()
    for v in res.ordering:
        if v not in blocked:
            taken.append(v)
            blocked.add(v)
            blocked.update(g.neighbors(v))
    return frozenset(taken)


def central_bag(g: Graph, t: CliqueTree, weights: dict[int, float]) -> frozenset[int]:
    """A bag whose removal leaves every component with at most half the weight.

    Bags are scanned in node-id order and the first satisfying one is
    returned, which makes ties deterministic.
    """
    total = sum(weights.get(v, 0.0) for v in g.vertices())
    for node in t.nodes():
        bag = t.bags[node]
        ok = True
        for comp in components_within(g, set(g.vertices()) - bag):
            if sum(weights.get(v, 0.0) for v in comp) > total / 2 + 1e-12:
                ok = False
                break
        if ok:
            return bag
    check(False, "no bag halves the weight, contradicting the balance guarantee")
    raise AssertionError  # unreachable


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted deterministically."""
    if g.n == 0:
        return []
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot_pool = p | x
        pivot = max(sorted(pivot_pool), key=lambda v: len(p & g.neighbor_set(v)))
        for v in sorted(p - g.neighbor_set(pivot)):
            expand(r | {v}, p & g.neighbor_set(v), x & g.neighbor_set(v))
            p.remove(v)
            x.add(v)

    expand(set(), set(g.vertices()), set())
    for c in out:
        check(
            not any(all(g.has_edge(u, w) for u in c) for w in
                    set(g.vertices()) - c),
            "enumerated clique is not maximal",
        )
    return sorted(out, key=lambda c: sorted(c))
