"""Packing/covering duality for holes through a designated vertex.

Given g with g - v chordal, a v-flower is a set of holes pairwise
intersecting exactly in {v}.  A local search grows a flower until maximal
under three improvement steps; a greedy pass over clique-tree cutpoints
then produces a hitting set S with v not in S, g - S chordal, and
|S| <= 12 * order(flower).  Both certificates are re-verified before
being returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    Graph,
    Hole,
    Subgraph,
    bfs_path,
    check,
    delete_vertices,
    is_induced_path,
    shortcut_walk,
    verify_hole,
)
from .chordal import CliqueTree, clique_tree_of, is_chordal, recognize, PEO


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
        v = self.center
        for petal in self.petals:
            check(v in petal.vertices, "petal misses the center")
            check(verify_hole(g, petal), "petal is not a hole")
        for i, a in enumerate(self.petals):
            for b in self.petals[i + 1 :]:
                check(a.vertex_set() & b.vertex_set() == {v},
                      "petals intersect outside the center")
        closed = g.closed_neighborhood(v)
        for path in self.paths():
            check(is_induced_path(g, path), "petal minus center is not induced")
            check(g.has_edge(v, path[0]) and g.has_edge(v, path[-1]),
                  "petal endpoints are not neighbors of the center")
            check(not g.has_edge(path[0], path[-1]),
                  "petal endpoints are adjacent")
            check(all(u not in closed for u in path[1:-1]),
                  "petal interior touches the closed neighborhood")


@dataclass(frozen=True)
class CutpointMap:
    """Per-vertex lowest tree edge whose adhesion is inside N(v) + flower.

    Edges are (child, parent) node pairs in the clique tree of g - v;
    None marks the NIL case.  ``flower_vertices`` records the flower the
    map was computed against.
    """

    edges: dict[int, Optional[tuple[int, int]]]
    flower_vertices: frozenset[int]


def two_disjoint_paths(
    g: Graph, s1: int, t1: int, s2: int, t2: int
) -> Optional[tuple[list[int], list[int]]]:
    """Vertex-disjoint s1-t1 and s2-t2 paths, by exact DFS with pruning.

    Only induced s1-t1 candidates are enumerated: whenever disjoint paths
    exist, shortcutting each within its own vertices keeps them disjoint,
    so completeness is preserved while dense regions stop branching.
    Each candidate is closed with a BFS for the second path; branches
    where s2 and t2 are separated, or the tip cannot reach t1, are cut.
    """
    if len({s1, t1, s2, t2}) != 4:
        raise ValueError("endpoints must be four distinct vertices")
    everything = set(g.vertices())

    def connected_avoiding(blocked: set[int]) -> bool:
        return bfs_path(g, s2, [t2], allowed=everything - blocked) is not None

    path1 = [s1]
    on_path = {s1}

    def extend() -> Optional[tuple[list[int], list[int]]]:
        tip = path1[-1]
        if tip == t1:
            rest = everything - on_path
            path2 = bfs_path(g, s2, [t2], allowed=rest)
            if path2 is not None:
                return list(path1), path2
            return None
        for w in g.neighbors(tip):
            if w in on_path or w == s2 or w == t2:
                continue
            # keep path1 induced: w may touch only the tip
            if any(g.has_edge(w, p) for p in path1[:-1]):
                continue
            path1.append(w)
            on_path.add(w)
            reach_ok = w == t1 or bfs_path(
                g, w, [t1],
                allowed=(everything - on_path - {s2, t2}) | {w},
            ) is not None
            if reach_ok and connected_avoiding(on_path):
                found = extend()
                if found is not None:
                    return found
            path1.pop()
            on_path.remove(w)
        return None

    if s2 in (s1, t1) or t2 in (s1, t1):
        return None
    if not connected_avoiding({s1}):
        return None
    return extend()


class FlowerSearch:
    """Shared state for the local search: g, center, and the fixed rooted
    clique tree of g - v (built once, never rebuilt)."""

    def __init__(self, g: Graph, v: int):
        self.g = g
        self.v = v
        self.sub: Subgraph = delete_vertices(g, {v})
        res = recognize(self.sub.graph)
        if not isinstance(res, PEO):
            raise ValueError("g - v is not chordal")
        self.tree: CliqueTree = clique_tree_of(self.sub.graph)
        self._new_of = {old: new for new, old in enumerate(self.sub.old_of)}

    def d_subtrees(self, a: int, b: int) -> int:
        """d_T(beta_inverse(a), beta_inverse(b)) in g's vertex ids."""
        return self.tree.subtrees_distance(self._new_of[a], self._new_of[b])

    def adhesion_old(self, child: int) -> frozenset[int]:
        return frozenset(self.sub.old_of[u] for u in self.tree.adhesion(child))


def _induced_path_between(
    g: Graph, x: int, y: int, removed: set[int]
) -> Optional[list[int]]:
    """Induced xy-path in g - removed (endpoints excluded from removal)."""
    allowed = (set(g.vertices()) - removed) | {x, y}
    # A shortest path of g[allowed] has no chord, so it is already induced.
    return bfs_path(g, x, [y], allowed=allowed)


def _step_add_hole(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """Step I: a fresh hole through v avoiding the current flower."""
    g, v = search.g, search.v
    used = f.vertex_set()
    candidates = [u for u in g.neighbors(v) if u not in used]
    closed = g.closed_neighborhood(v)
    for i, x in enumerate(candidates):
        for y in candidates[i + 1 :]:
            if g.has_edge(x, y):
                continue
            removed = (used | closed) - {x, y}
            path = _induced_path_between(g, x, y, removed)
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
        if others:
            sub = delete_vertices(g, others)
            local_v = sub.new_of(v)
            found = two_flower(sub.graph, local_v)
            if found is None:
                continue
            new_petals = tuple(
                Hole(tuple(sub.old_of[u] for u in p.vertices)).canonical()
                for p in found.petals
            )
        else:
            found = two_flower(g, v)
            if found is None:
                continue
            new_petals = tuple(p.canonical() for p in found.petals)
        petals = f.petals[:idx] + f.petals[idx + 1 :] + new_petals
        return Flower(v, petals)
    return None


def _step_shorten(search: FlowerSearch, f: Flower) -> Optional[Flower]:
    """Step III: swap a petal endpoint for one strictly closer in the tree."""
    g, v = search.g, search.v
    used = f.vertex_set()
    closed = g.closed_neighborhood(v)
    for idx, path in enumerate(f.paths()):
        ends = sorted((path[0], path[-1]))
        petal_vertices = set(path)
        for s, t in (tuple(ends), tuple(reversed(ends))):
            base = search.d_subtrees(s, t)
            for t_new in g.neighbors(v):
                if t_new in used or g.has_edge(s, t_new) or t_new == s:
                    continue
                if search.d_subtrees(s, t_new) >= base:
                    continue
                removed = ((closed - {s, t_new}) |
                           (used - petal_vertices - {v}))
                new_path = _induced_path_between(g, s, t_new, removed)
                if new_path is None:
                    continue
                petal = Hole(tuple([v] + new_path)).canonical()
                petals = f.petals[:idx] + (petal,) + f.petals[idx + 1 :]
                return Flower(v, petals)
    return None


def two_flower(g: Graph, v: int) -> Optional[Flower]:
    """A v-flower of order two, or None when no such flower exists.

    Tries all endpoint tuples (s1,t1,s2,t2) in N(v)^4 with both pairs
    nonadjacent and solves two-vertex-disjoint-paths in the graph with the
    rest of N[v] removed.
    """
    nv = list(g.neighbors(v))
    nonadjacent = [
        (a, b)
        for i, a in enumerate(nv)
        for b in nv[i + 1 :]
        if not g.has_edge(a, b)
    ]
    closed = g.closed_neighborhood(v)
    for i, (s1, t1) in enumerate(nonadjacent):
        for s2, t2 in nonadjacent[i + 1 :]:
            if {s1, t1} & {s2, t2}:
                continue
            keep = (set(g.vertices()) - closed) | {s1, t1, s2, t2}
            sub = delete_vertices(g, set(g.vertices()) - keep)
            m = sub.index
            found = two_disjoint_paths(sub.graph, m[s1], m[t1], m[s2], m[t2])
            if found is None:
                continue
            p1 = shortcut_walk(sub.graph, found[0])
            p2 = shortcut_walk(sub.graph, found[1])
            petals = tuple(
                Hole(tuple([v] + [sub.old_of[u] for u in p])).canonical()
                for p in (p1, p2)
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
            improved.validate(search.g)
            return improved
    return None


def cutpoints(search: FlowerSearch, f: Flower) -> CutpointMap:
    """The cutpoint above every vertex of g - v.

    pi(u) is the first edge on the path from top(u) to the root whose
    adhesion is contained in N(v) union the flower vertices.
    """
    g, v = search.g, search.v
    flower_vs = f.vertex_set()
    cover = set(g.neighbors(v)) | flower_vs
    edges: dict[int, Optional[tuple[int, int]]] = {}
    for u in g.vertices():
        if u == v:
            continue
        found: Optional[tuple[int, int]] = None
        for node in search.tree.path_to_root(search._new_of[u]):
            parent = search.tree.parent[node]
            if parent is None:
                break
            if search.adhesion_old(node) <= cover:
                found = (node, parent)
                break
        edges[u] = found
    return CutpointMap(edges, frozenset(flower_vs))


def hitting_set(search: FlowerSearch, f: Flower, cp: CutpointMap) -> frozenset[int]:
    """Greedy hole-hitting set from a maximal flower and its cutpoints.

    Adds the endpoints of every petal path, plus adh(pi(u)) minus N(v)
    for every u in N(v) outside the flower.  Verified: avoids v, stays
    inside the flower, leaves g - S chordal, and uses at most 12 vertices
    per petal.
    """
    g, v = search.g, search.v
    s: set[int] = set()
    for path in f.paths():
        s.add(path[0])
        s.add(path[-1])
    flower_vs = f.vertex_set()
    nv = set(g.neighbors(v))
    for u in sorted(nv - flower_vs):
        edge = cp.edges[u]
        if edge is None:
            continue
        s |= search.adhesion_old(edge[0]) - nv
    result = frozenset(s)
    check(v not in result, "hitting set contains the center")
    check(result <= flower_vs - {v}, "hitting set leaves the flower")
    for path in f.paths():
        check(len(result & set(path)) <= 12, "petal contributes more than 12 vertices")
    check(result.issubset(set(g.vertices())), "hitting set outside the graph")
    sub = delete_vertices(g, result)
    check(is_chordal(sub.graph), "hitting set misses a hole")
    return result


def flower_and_cover(
    g: Graph, v: int, max_rounds: Optional[int] = None
) -> tuple[Flower, frozenset[int]]:
    """Maximal v-flower plus a hitting set of size at most 12 * order.

    Requires g - v chordal.  The improvement loop is capped at |V|^4
    rounds, turning the termination proof into a runtime assertion.
    """
    search = FlowerSearch(g, v)
    f = Flower(v, ())
    cap = max_rounds if max_rounds is not None else max(16, g.n ** 4)
    rounds = 0
    while True:
        improved = improve(search, f)
        if improved is None:
            break
        f = improved
        rounds += 1
        check(rounds <= cap, "flower local search exceeded its iteration cap")
    cp = cutpoints(search, f)
    s = hitting_set(search, f, cp)
    f.validate(g)
    check(len(s) <= 12 * f.order, "hitting set exceeds 12 per petal overall")
    return f, s
