"""Packing/covering duality for holes through a designated vertex.

Given g with g - v chordal, a v-flower is a set of holes pairwise
intersecting exactly in {v}.  A local search grows a flower until maximal
under three improvement steps; a greedy pass over the clique-tree
cutpoints of v's neighbours outside the flower then produces a hitting
set S with v not in S, g - S chordal, and |S| <= 12 * order(flower).
Each certificate is checked once, before it is returned.  The search
may run on an induced subgraph instead, in g's own ids, with the same
results as on a renumbered copy.  Each shortest path it needs is one
``graphs.bfs_path`` search of g restricted to a vertex set; a shortest
path has no chord, so a petal found that way is induced.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (
    Graph,
    Hole,
    bfs_path,
    check,
    check_vertex_ids,
    shortcut_walk,
    verify_hole,
)
from .chordal import CliqueTree, chordal_with, clique_tree_of


@dataclass(frozen=True)
class Flower:
    """Holes through the center, pairwise intersecting only at the center."""

    center: int
    petals: tuple[Hole, ...]

    @property
    def order(self) -> int:
        return len(self.petals)

    def vertex_set(self) -> frozenset[int]:
        """V(flower): union of petal vertices (empty for an empty flower)."""
        out: set[int] = set()
        for p in self.petals:
            out |= p.vertex_set()
        return frozenset(out)

    def paths(self) -> list[list[int]]:
        """Petal minus center: induced paths between nonadjacent neighbors."""
        out = []
        for petal in self.petals:
            vs = list(petal.vertices)
            i = vs.index(self.center)
            out.append(vs[i + 1 :] + vs[:i])
        return out

    def validate(self, g: Graph) -> None:
        """InvariantError unless each petal is a hole of g through the
        center and no two share another vertex (one running set).  What
        ``paths`` promises follows: a hole through v, less v, is an induced
        path between nonadjacent neighbours of v, interior outside N[v]."""
        v = self.center
        seen = {v}
        for petal in self.petals:
            check(v in petal.vertices, "petal misses the center")
            check(verify_hole(g, petal), "petal is not a hole")
            rest = petal.vertex_set() - {v}
            check(seen.isdisjoint(rest), "petals intersect outside the center")
            seen |= rest


def two_disjoint_paths(
    g: Graph, s1: int, t1: int, s2: int, t2: int,
    allowed: Optional[Iterable[int]] = None,
) -> Optional[tuple[list[int], list[int]]]:
    """Vertex-disjoint s1-t1 and s2-t2 paths in g[allowed] (in g when
    allowed is None), by exact DFS with pruning.

    Only induced s1-t1 candidates are enumerated: whenever disjoint paths
    exist, shortcutting each within its own vertices keeps them disjoint,
    so completeness is preserved while dense regions stop branching.
    A candidate that reaches t1 is closed with a BFS for the second path;
    branches where s2 and t2 are separated, or the tip cannot reach t1,
    are cut.
    """
    if len({s1, t1, s2, t2}) != 4:
        raise ValueError("endpoints must be four distinct vertices")
    everything = set(g.vertices() if allowed is None else allowed)

    def second_path(blocked: set[int]) -> Optional[list[int]]:
        return bfs_path(g.neighbors, [s2], {t2}, everything - blocked)

    path1 = [s1]
    on_path = {s1}

    def extend() -> Optional[tuple[list[int], list[int]]]:
        tip = path1[-1]
        for w in g.neighbors(tip):
            if w in on_path or w == s2 or w == t2 or w not in everything:
                continue
            # keep path1 induced: w may touch only the tip
            if any(g.has_edge(w, p) for p in path1[:-1]):
                continue
            path1.append(w)
            on_path.add(w)
            if w == t1:
                path2 = second_path(on_path)
                if path2 is not None:
                    return list(path1), path2
            else:
                tail = bfs_path(g.neighbors, [w], {t1},
                                (everything - on_path - {s2, t2}) | {w})
                if tail is not None and second_path(on_path) is not None:
                    found = extend()
                    if found is not None:
                        return found
            path1.pop()
            on_path.remove(w)
        return None

    if second_path({s1}) is None:
        return None
    return extend()


class FlowerSearch:
    """Shared state for the local search: g, the center v, and the fixed
    rooted clique tree, in g's ids, of a chordal g[S] with v outside S.
    The search runs in g[inside], inside = S + v.

    The tree is never rebuilt.  By default it is built here for S = V(g) -
    v, which raises ValueError when g - v is not chordal.  A caller that
    holds the tree of some S passes it as ``tree``, and its bags give S:
    ``kernel.annotate`` builds the tree of the core G - M once per pass
    and hands it to the search of every modulator vertex.  ``nbrs`` is
    N(v) & S in neighbour order and ``far`` is S - N(v): every petal
    path runs from one to another of ``nbrs`` through ``far``.
    """

    def __init__(self, g: Graph, v: int, tree: Optional[CliqueTree] = None):
        check_vertex_ids((v,), g.n)
        self.g = g
        self.v = v
        self.tree: CliqueTree = (
            clique_tree_of(g, (u for u in g.vertices() if u != v))
            if tree is None else tree)
        core = frozenset().union(*self.tree.bags)
        if v in core:
            raise ValueError(f"center {v} lies in a bag of the tree")
        self.inside = core | {v}
        self.nbrs = [u for u in g.neighbors(v) if u in core]
        self.far = core - set(self.nbrs)


def _step_add_hole(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """Step I: a fresh hole through v avoiding the current flower."""
    g, v = search.g, search.v
    used = f.vertex_set()
    candidates = [u for u in search.nbrs if u not in used]
    far = search.far - used
    for i, x in enumerate(candidates):
        for y in candidates[i + 1 :]:
            if g.has_edge(x, y):
                continue
            # A shortest path has no chord, so it is already induced.
            path = bfs_path(g.neighbors, [x], {y}, far | {x, y})
            if path is None:
                continue
            petal = Hole(tuple([v] + path)).canonical()
            return Flower(v, f.petals + (petal,))
    return None


def _step_split_petal(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """Step II: replace one petal by an order-two flower avoiding the rest."""
    g, v = search.g, search.v
    for idx, petal in enumerate(f.petals):
        others = f.vertex_set() - petal.vertex_set() - {v}
        found = two_flower(g, v, search.inside - others)
        if found is not None:
            rest = f.petals[:idx] + f.petals[idx + 1 :]
            return Flower(v, rest + found.petals)
    return None


def _step_shorten(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """Step III: swap a petal endpoint for one strictly closer in the tree."""
    g, v = search.g, search.v
    used = f.vertex_set()
    for idx, path in enumerate(f.paths()):
        ends = sorted((path[0], path[-1]))
        far = search.far - (used - set(path))
        for s, t in (tuple(ends), tuple(reversed(ends))):
            base = search.tree.subtrees_distance(s, t)
            for t_new in search.nbrs:
                if t_new in used or g.has_edge(s, t_new):
                    continue
                if search.tree.subtrees_distance(s, t_new) >= base:
                    continue
                # A shortest path has no chord, so it is already induced.
                new_path = bfs_path(g.neighbors, [s], {t_new},
                                    far | {s, t_new})
                if new_path is None:
                    continue
                petal = Hole(tuple([v] + new_path)).canonical()
                petals = f.petals[:idx] + (petal,) + f.petals[idx + 1 :]
                return Flower(v, petals)
    return None


def two_flower(g: Graph, v: int,
               allowed: Optional[Iterable[int]] = None) -> Optional[Flower]:
    """A v-flower of order two in g[allowed] (in g when allowed is None),
    or None when v is not allowed or no such flower exists.

    Tries all endpoint tuples (s1,t1,s2,t2) in N(v)^4 with both pairs
    nonadjacent and solves two-vertex-disjoint-paths in the graph with the
    rest of N[v] removed.
    """
    inside = set(g.vertices() if allowed is None else allowed)
    if v not in inside:
        return None
    nv = [u for u in g.neighbors(v) if u in inside]
    nonadjacent = [
        (a, b)
        for i, a in enumerate(nv)
        for b in nv[i + 1 :]
        if not g.has_edge(a, b)
    ]
    far = inside - g.closed_neighborhood(v)
    for i, (s1, t1) in enumerate(nonadjacent):
        for s2, t2 in nonadjacent[i + 1 :]:
            if {s1, t1} & {s2, t2}:
                continue
            found = two_disjoint_paths(g, s1, t1, s2, t2,
                                       far | {s1, t1, s2, t2})
            if found is None:
                continue
            petals = tuple(
                Hole(tuple([v] + shortcut_walk(g, p))).canonical()
                for p in found
            )
            flower = Flower(v, petals)
            flower.validate(g)
            return flower
    return None


def improve(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """One application of the lowest-numbered applicable improvement step."""
    for step in (_step_add_hole, _step_split_petal, _step_shorten):
        improved = step(search, f)
        if improved is not None:
            return improved
    return None


def hitting_set(search: FlowerSearch, f: Flower) -> frozenset[int]:
    """Greedy hole-hitting set from a maximal flower.

    Adds the endpoints of every petal path, plus adh(pi(u)) minus N(v)
    for every u in N(v) outside the flower.  The cutpoint pi(u) is the
    first edge on the tree path from top(u) to the root whose adhesion is
    contained in N(v) union the flower vertices; when there is none, u
    adds nothing.  Verified: inside V(flower) - v and the search graph,
    at most 12 vertices per petal (so 12 * order), and g - S chordal by
    ``chordal_with``, since the tree certifies inside - v chordal.
    """
    g, v, tree = search.g, search.v, search.tree
    s: set[int] = set()
    for path in f.paths():
        s.add(path[0])
        s.add(path[-1])
    flower_vs = f.vertex_set()
    nv = set(search.nbrs)
    cover = set(g.neighbors(v)) | flower_vs
    for u in sorted(nv - flower_vs):
        for node in tree.path_to_root(u):
            if tree.parent[node] is None:
                break
            adhesion = tree.adhesion(node)
            if adhesion <= cover:
                s |= adhesion - nv
                break
    result = frozenset(s)
    check(result <= flower_vs - {v}, "hitting set leaves the flower")
    for path in f.paths():
        check(len(result & set(path)) <= 12, "petal contributes more than 12 vertices")
    check(result <= search.inside, "hitting set outside the graph")
    check(chordal_with(g, search.inside - result - {v}, v),
          "hitting set misses a hole")
    return result


def flower_and_cover(
    g: Graph, v: int, tree: Optional[CliqueTree] = None
) -> tuple[Flower, frozenset[int]]:
    """Maximal v-flower plus a hitting set of size at most 12 * order.

    Requires g - v chordal.  Given ``tree``, the clique tree of a chordal
    g[S] with v outside S, the search runs in g[S + v] instead (see
    ``FlowerSearch``).  The improvement loop is capped at |V|^4 rounds,
    turning the termination proof into a runtime assertion.  The steps
    return their flowers unchecked; the last is validated once, before
    ``hitting_set`` reads its paths and checks the cover.
    """
    search = FlowerSearch(g, v, tree)
    f = Flower(v, ())
    cap = max(16, len(search.inside) ** 4)
    rounds = 0
    while True:
        improved = improve(search, f)
        if improved is None:
            break
        f = improved
        rounds += 1
        check(rounds <= cap, "flower local search exceeded its iteration cap")
    f.validate(g)
    return f, hitting_set(search, f)
