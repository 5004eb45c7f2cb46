"""Chordality recognition, clique trees, and tree-decomposition queries.

The recognizer is certified: it returns a perfect elimination ordering for
chordal inputs and a verified hole otherwise.  Clique trees support the
queries used throughout the reduction and approximation pipelines: top(v),
beta_inverse(v), adhesions, LCA, minimal connecting paths, and subtree
distances.  Chordality checks, clique trees, independent sets, maximal
cliques and hole searches of g[vertices] run on g itself, in its own ids,
with no renumbered copy.  ``hole_vertices`` finds the vertices that lie
on some hole, the only ones a minimal deletion set can hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import AbstractSet, Iterable, Optional, Sequence

from .graphs import (
    Graph,
    Hole,
    InvariantError,
    bfs_path,
    check,
    components_within,
    lightest_hole_through,
    mcs_order,
    verify_hole,
)


@dataclass(frozen=True)
class PEO:
    """Perfect elimination ordering: for each vertex, later neighbors form a clique."""

    ordering: tuple[int, ...]

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.ordering)}


def find_hole_through(
    g: Graph, v: int, allowed: Optional[Iterable[int]] = None
) -> Optional[Hole]:
    """A shortest hole through v in g[allowed] (in g when allowed is None),
    in canonical form, or None if v is not allowed or lies on no such
    hole."""
    found = lightest_hole_through(
        g, v, None, g.vertices() if allowed is None else allowed, math.inf)
    return None if found is None else found[0]


def find_any_hole(g: Graph,
                  allowed: Optional[Iterable[int]] = None) -> Optional[Hole]:
    """A shortest hole of g[allowed] (of g when allowed is None) through
    its first vertex that lies on one, or None if g[allowed] is chordal.

    It stays first-found rather than globally shortest (``lightest_hole``):
    ``recognize`` returns this hole as its witness and
    ``chvd kernelize --auto-modulator`` deletes it, so a global search
    would move both outputs, and it would run a search through every
    vertex where this one stops at the first hit."""
    inner = set(g.vertices() if allowed is None else allowed)
    for v in sorted(inner):
        h = find_hole_through(g, v, inner)
        if h is not None:
            return h
    return None


def _hole_through(g: Graph, v: int,
                  alive: AbstractSet[int]) -> Optional[list[int]]:
    """The vertices of a hole through v in g[alive], v first, or None.

    Walks the components of g[alive] - N[v] that touch N(v) and stops at
    the first vertex a of N(v) that one of them sees beside an earlier
    contact b not adjacent to a.  A shortest a-b path with its inner
    vertices outside N[v] then closes the hole with v.
    """
    around = g.neighbor_set
    near = around(v) & alive
    rest = alive - near - {v}
    unseen = set(rest)
    for c in near:
        for start in around(c) & unseen:
            if start not in unseen:
                continue
            unseen.discard(start)
            contact: set[int] = set()
            queue = [start]
            for u in queue:
                for a in around(u) & near:
                    if a in contact:
                        continue
                    if not contact <= around(a):
                        b = min(contact - around(a))
                        path = bfs_path(g.neighbors, [a], {b}, rest | {a, b})
                        return [v, *path]
                    contact.add(a)
                fresh = around(u) & unseen
                unseen -= fresh
                queue.extend(fresh)
    return None


def hole_vertices(g: Graph) -> frozenset[int]:
    """The vertices of g that lie on some hole.

    A vertex on no hole is in no minimal deletion set, and deleting it
    keeps every hole of g and creates none: a hole of g - u is an induced
    cycle of g, and a hole of g that avoids u is one of g - u.  So the
    search keeps a vertex set ``alive``, starting from all of g, whose
    induced graph has exactly g's holes, and deletes from it only vertices
    that lie on no hole of g[alive].

    - *Peel.*  A simplicial vertex lies on no hole, because its two
      neighbours on a hole would be nonadjacent.  Simplicial vertices of
      g[alive] are deleted until none is left; a deletion can make only
      the deleted vertex's neighbours simplicial, so only they are looked
      at again.
    - *Test.*  Every vertex v still alive and not yet found gets the
      component test (LB-simplicial, Berry and Bordat 1998): v lies on a
      hole of g[alive] iff some component C of g[alive] - N[v] sees two
      nonadjacent neighbours a, b of v.  If C does, a shortest a-b path
      through C is induced, misses N[v] inside, and has an inner vertex,
      so with v it closes a hole of length at least 4.  Conversely a hole
      v, a, ..., b through v has nonadjacent neighbours a, b of v, and
      the inner part of its a-b path avoids N[v] and is connected, so it
      lies in one such C, which sees a and b.  When the test succeeds,
      every vertex of the hole it closes is found; when it fails, v is
      deleted and the peel goes on from its neighbours.

    Found vertices are never deleted, so at the end every vertex of g is
    found, or was deleted while it lay on no hole of g[alive], hence of g.
    """
    around = g.neighbor_set
    alive = set(g.vertices())
    found: set[int] = set()

    def peel(queue: list[int]) -> None:
        while queue:
            u = queue.pop()
            if u not in alive or u in found:
                continue
            near = around(u) & alive
            if all(len(near - around(w)) == 1 for w in near):
                alive.discard(u)
                queue.extend(near)

    peel(list(g.vertices()))
    for v in g.vertices():
        if v not in alive or v in found:
            continue
        hole = _hole_through(g, v, alive)
        if hole is None:
            alive.discard(v)
            peel(list(around(v) & alive))
        else:
            check(verify_hole(g, Hole(tuple(hole))),
                  "component test built a non-hole")
            found.update(hole)
    return frozenset(found)


def _later_neighbours(g: Graph,
                      order: Sequence[int]) -> Optional[list[list[int]]]:
    """Per vertex of ``order``, its neighbours later in ``order``, or None
    when ``order`` is not a perfect elimination ordering of g[order].

    The fill-in check of Tarjan and Yannakakis: every later neighbour of v
    must be adjacent to the earliest one, u.  Those then lie among u's
    own later neighbours, so each later set is a clique exactly when the
    check passes at every vertex.
    """
    pos = {v: i for i, v in enumerate(order)}
    out = []
    for i, v in enumerate(order):
        later = [u for u in g.neighbors(v) if pos.get(u, -1) > i]
        if len(later) > 1:
            u = min(later, key=pos.__getitem__)
            adjacent = g.neighbor_set(u)
            if any(w != u and w not in adjacent for w in later):
                return None
        out.append(later)
    return out


def _peo_of(g: Graph, vertices: Optional[Iterable[int]]) -> tuple[
        list[int], Optional[list[list[int]]]]:
    """The reversed MCS order of g[vertices] and its later neighbours, or
    None in their place when g[vertices] is not chordal."""
    order = mcs_order(g, vertices)
    order.reverse()
    return order, _later_neighbours(g, order)


def recognize(g: Graph) -> PEO | Hole:
    """PEO when g is chordal, otherwise a verified hole witness."""
    order, later = _peo_of(g, None)
    if later is not None:
        return PEO(tuple(order))
    hole = find_any_hole(g)
    check(hole is not None, "MCS order failed the fill-in check but no hole found")
    return hole


def is_chordal(g: Graph, vertices: Optional[Iterable[int]] = None) -> bool:
    """Whether g[vertices] (g when vertices is None) is chordal.  Raises
    ValueError on an id outside 0..n-1."""
    return _peo_of(g, vertices)[1] is not None


def chordal_with(g: Graph, core: AbstractSet[int], v: int) -> bool:
    """Whether g[core + v] is chordal, given that g[core] is chordal.

    The precondition is not checked; a caller holds it as a certificate,
    such as a clique tree whose bags cover core.  Then every hole of
    g[core + v] passes through v, so the answer is yes exactly when the
    component test of ``hole_vertices`` finds no hole through v: every
    component of core - N[v] sees a clique of N(v).
    """
    return _hole_through(g, v, core | {v}) is None


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
        parent = list(self.parent)
        _hang(parent, new_root, None)
        return CliqueTree(list(self.bags), parent, new_root, len(self._inv))


def _hang(parent: list[Optional[int]], node: int,
          above: Optional[int]) -> None:
    """Make node the root of its tree in the forest ``parent`` by
    reversing the links on its path to the old root, then hang it below
    ``above`` (None leaves it a root)."""
    while node is not None:
        up = parent[node]
        parent[node] = above
        above, node = node, up


def _clique_tree(g: Graph, order: Sequence[int],
                 later: list[list[int]]) -> CliqueTree:
    """Clique tree of g[order], with bags in g's own ids, from a perfect
    elimination ordering and its later neighbours (``_later_neighbours``).

    The bags are the maximal cliques, sorted by their sorted members.
    Every maximal clique is a candidate {v} + later(v), and a candidate
    can only lie inside the candidate of a neighbour u earlier than v, so
    it is compared with those alone.  Tree edges are Kruskal's over bag
    pairs by decreasing intersection size, ties in pair order; the pairs
    that share nothing come last, in pair order, and join the parts of a
    disconnected graph.  The tree is rooted at bag 0.
    """
    if not order:
        return CliqueTree([frozenset()], [None], 0, g.n)
    candidate = {v: frozenset(later[i]).union((v,))
                 for i, v in enumerate(order)}
    inside = {w for i, u in enumerate(order) for w in later[i]
              if candidate[w] < candidate[u]}
    bags = sorted((c for v, c in candidate.items() if v not in inside),
                  key=sorted)
    b = len(bags)
    holders: dict[int, list[int]] = {}
    for i, bag in enumerate(bags):
        for v in bag:
            holders.setdefault(v, []).append(i)
    shared: dict[tuple[int, int], int] = {}
    for nodes in holders.values():
        for pair in combinations(nodes, 2):
            shared[pair] = shared.get(pair, 0) + 1
    pairs = sorted(shared, key=lambda ij: (-shared[ij], ij))
    comp = list(range(b))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    parent: list[Optional[int]] = [None] * b
    used = 0
    for i, j in chain(pairs, combinations(range(b), 2)):
        if used == b - 1:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            comp[ri] = rj
            _hang(parent, i, j)
            used += 1
    _hang(parent, 0, None)
    return CliqueTree(bags, parent, 0, g.n)


def clique_tree_of(g: Graph,
                   vertices: Optional[Iterable[int]] = None) -> CliqueTree:
    """Clique tree of g[vertices] (of g when vertices is None) with bags in
    g's own ids; a vertex outside ``vertices`` lies in no bag.  Raises
    ValueError when g[vertices] is not chordal, or on an id outside
    0..n-1."""
    order, later = _peo_of(g, vertices)
    if later is None:
        raise ValueError("graph is not chordal")
    return _clique_tree(g, order, later)


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


def _greedy_cliques(g: Graph, vertices: Optional[Iterable[int]]
                    ) -> Optional[list[list[int]]]:
    """The greedy clique cover of g[vertices] over a PEO: each vertex not
    yet covered opens a clique with its uncovered later neighbours.  None
    when g[vertices] is not chordal.

    A vertex opens a clique exactly when no earlier opener is adjacent to
    it, so the openers, each clique's first member, are the greedy
    independent set of the same scan, which is maximum on a chordal
    graph; the cover then has alpha(g[vertices]) cliques."""
    order, later = _peo_of(g, vertices)
    if later is None:
        return None
    covered: set[int] = set()
    out = []
    for v, after in zip(order, later):
        if v not in covered:
            clique = [v, *(u for u in after if u not in covered)]
            covered.update(clique)
            out.append(clique)
    return out


def mis_chordal(g: Graph,
                vertices: Optional[Iterable[int]] = None) -> frozenset[int]:
    """Maximum independent set of the chordal graph g[vertices] (of g when
    vertices is None), greedy over a PEO, in g's own ids."""
    cliques = _greedy_cliques(g, vertices)
    if cliques is None:
        raise ValueError("graph is not chordal")
    return frozenset(c[0] for c in cliques)


def clique_cover_chordal(h: Graph) -> list[frozenset[int]]:
    """Partition a chordal graph into alpha(H) cliques (greedy over a PEO):
    each vertex not yet covered, with its uncovered later neighbours.  The
    parts are cliques by the fill-in check of ``_later_neighbours``, and
    each vertex joins only the first part that finds it uncovered."""
    cliques = _greedy_cliques(h, None)
    if cliques is None:
        raise ValueError("clique cover requires a chordal graph")
    return [frozenset(c) for c in cliques]


def central_bag(g: Graph, t: CliqueTree, weights: dict[int, float]) -> frozenset[int]:
    """A bag whose removal leaves every component of the tree's graph (g
    on the union of the bags) with at most half the weight.

    Bags are scanned in node-id order and the first satisfying one is
    returned, which makes ties deterministic.
    """
    vertices = frozenset().union(*t.bags)
    total = sum(weights.get(v, 0.0) for v in sorted(vertices))
    for node in t.nodes():
        bag = t.bags[node]
        ok = True
        for comp in components_within(g, vertices - bag):
            if sum(weights.get(v, 0.0) for v in comp) > total / 2 + 1e-12:
                ok = False
                break
        if ok:
            return bag
    raise InvariantError(
        "no bag halves the weight, contradicting the balance guarantee")


def maximal_cliques(g: Graph, vertices: Optional[Iterable[int]] = None
                    ) -> list[frozenset[int]]:
    """All maximal cliques of g[vertices] (of g when vertices is None), in
    g's own ids (Bron-Kerbosch with pivoting), sorted deterministically."""
    inner = set(g.vertices() if vertices is None else vertices)
    if not inner:
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

    expand(set(), set(inner), set())
    for c in out:
        check(
            not any(all(g.has_edge(u, w) for u in c) for w in inner - c),
            "enumerated clique is not maximal",
        )
    return sorted(out, key=lambda c: sorted(c))
