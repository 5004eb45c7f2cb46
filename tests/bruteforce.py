"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: subset enumeration, exhaustive
cycle checks, path enumeration.  These routines never call the library
code paths they are used to verify.  The ``ref_`` routines are the
exception in kind, not in spirit: each is the straightforward version of
a library routine that was later restructured for speed, kept as the
reference the fast one must reproduce byte for byte.
``ref_dijkstra_vertex_weights`` is the vertex-weighted heap search with
a weight callable, before unit weights ran by layers.
``ref_separate_chvd`` is the per-triple hole separator and shares only
the hole helpers of ``chvd.graphs``.  ``ref_shortest_hole_avoiding`` is
the loop ``lightest_hole`` replaced: ``lightest_hole_through`` for every
alive vertex, with no floor, under a unit table, so on the heap search.
``ref_lightest_hole`` is ``lightest_hole`` before it dropped each
vertex it had searched: every search runs in all of g[allowed].
``ref_separate_multicut`` runs one full ``ref_dijkstra_vertex_weights``
search per terminal pair, with no cutoff and no sharing between pairs of
one source, for the lightest violated path;
``ref_separate_multicut_paths`` adds the vertex-disjoint ones a multicut
round also returns.  ``ref_simplex_min_cover`` is the dense simplex
whose pivots rewrite every column, not only the pivot row's nonzero ones,
started cold on the whole pool; ``solve_fractional``'s kept tableau must
reach its values every round.  ``ref_template_toughness`` tests
every separator pair against every component, and
``ref_xy_good_bottommost`` recomputes every subtree for every pair; they
share ``components_within`` and the event plumbing of ``chvd.kernel``.
``ref_bfs_path``, ``ref_di_bfs_path``, ``ref_di_reachable``,
``ref_components_within`` and ``ref_min_vertex_cut`` are the hand-written
queue loops that one breadth-first search in ``chvd.graphs`` replaced;
``ref_min_vertex_cut`` also builds its split network over every vertex
and scans each node's heads in sorted order, so the ``alive`` restriction
is checked against it on an induced copy, and a search in any other
order must still reach its cut.  It keeps the ``deletable`` set, with
vertices outside it of unbounded capacity, which only the copy trick
below needs.
``ref_exact_chvd`` and ``ref_exact_multicut`` are the exact searches without
a pool of found sets: a fresh hole (or terminal-path) search at every node.
They call ``oracle.shortest_hole_avoiding`` by name, so a test can count
the hole searches of both.  ``ref_separator_marked_nodes`` builds one
clique tree per modulator pair to list the cliques of G(x, y).
``ref_chvd_clique_plus_chordal`` and ``ref_hit_holes_through`` are the
fold-back on a compact graph of exactly A + B, renumbering every
component and scope they work on; ``_remap`` carries x onto such a copy.
``ref_decompose`` and ``ref_balanced_clique_cut`` run the decomposition
and its balanced cut on the renumbered copy of g[vertices], cutting a
renumbered copy of every component and of every g - K, and map the
result back; where every greedy cut fails the cut is the deletion set
of the library's ``exact_chvd`` on that copy, which maps back to the
same set, plus a central bag of what it leaves.
``ref_staircase_fault`` is ``SkewInstance``'s staircase check that
visited, for every pair, every pair it implies.
``ref_split_residual`` is the residual neighbours generator that
``min_vertex_cut`` fed to ``bfs`` before its ``_split_residual_bfs``
read the flow tables directly.
``ref_induced_digraph`` is the renumbered copy of d[s] that
``DiGraph.induced`` built; ``ref_skew_multicut`` is the skew engine that
built a copy digraph with an undeletable copy of every terminal, cut it
with ``ref_min_vertex_cut`` on the renumbered copy of each alive set and
confined each half of the recursion to its side of the cut, where the
library cuts d itself, lets a cut take a terminal and recurses on the
alive set minus the cut; and ``ref_skew_on_copy`` runs it on the
renumbered copy of d[alive], as downward multicut did.
``ref_reverse_adjacency`` builds the in-neighbour lists that
``DiGraph`` no longer keeps, from its arcs, for the reverse searches
of ``ref_di_reachable`` and ``ref_skew_multicut``.
``ref_mcs_order`` is the O(n^2) scan that picks each next vertex of a
maximum cardinality search; ``ref_recognize``, ``ref_is_chordal``,
``ref_build_clique_tree``, ``ref_clique_tree_of`` and ``ref_mis_chordal``
are the recognition, clique trees and independent sets built on it, which
copy g[vertices] into a renumbered graph and compare every pair of
candidate cliques and of bags.  They share ``find_any_hole`` with
``chvd.chordal``.  ``ref_hole_vertices`` is the union of every induced
cycle of length at least four, each enumerated from its least vertex as
an induced path that closes; it reads only adjacency.
``ref_verify_hole`` is the hole check that ``verify_hole`` replaced: it
tests every pair of the hole's vertices, so it is quadratic in the
hole's length.

``cycle_graph`` and ``complete_graph`` build the cycle C_n and the
complete graph K_n that many test modules use.

The last section holds helpers that only tests call and the library does
not need: a perfect elimination ordering check, an induced path check,
a clique-tree invariant checker, an induced path through a clique tree's
adhesions, whole-graph components, a generator of graphs with no induced
C4 and a one-apex generator.
"""
from __future__ import annotations

import functools
import heapq
from collections import deque
from itertools import combinations

import math
from fractions import Fraction

from chvd.graphs import Graph, DiGraph, Hole, Subgraph, bfs, boundary, \
    check, components_within, extract_path, induced_subgraph, is_clique, \
    lightest_hole_through, shortcut_walk, verify_hole
from chvd import oracle
from chvd.approx import NO_INSTANCE, Decomposition, NoInstance
from chvd.chordal import PEO, CliqueTree, central_bag, clique_tree_of, \
    find_any_hole, find_hole_through, is_chordal, maximal_cliques, \
    minimal_path
from chvd.generate import GeneratorSpec, generate
from chvd.kernel import ReductionEvent, _finish
from chvd.lp import FEASIBILITY_TOL, FractionalSolution, at_least, \
    separate_multicut
from chvd.multicut import MulticutInstance, SkewInstance, build_downward, \
    dist_from, downward_multicut


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def bf_is_induced_cycle(g: Graph, subset: tuple[int, ...]) -> bool:
    """True iff the subset induces a cycle (every vertex degree two, connected)."""
    sub = set(subset)
    if len(sub) < 3:
        return False
    deg = {}
    for v in sub:
        d = sum(1 for u in g.neighbors(v) if u in sub)
        if d != 2:
            return False
        deg[v] = d
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in sub and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == sub


def bf_all_holes(g: Graph, max_n: int = 14) -> list[frozenset[int]]:
    """All hole vertex sets by subset enumeration (induced cycles, length >= 4)."""
    assert g.n <= max_n, "brute-force hole enumeration is exponential"
    holes = []
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            if bf_is_induced_cycle(g, subset):
                holes.append(frozenset(subset))
    return holes


def ref_hole_vertices(g: Graph, max_n: int = 16) -> frozenset[int]:
    """The vertices that lie on some hole, by enumerating the holes.

    Every hole is found from its least vertex s: an induced path
    s, p1, ..., pj of vertices above s grows by a neighbour w of pj that
    sees no earlier path vertex; when w sees s as well and j >= 2, the
    path closes an induced cycle of length j + 2 >= 4.
    """
    assert g.n <= max_n, "hole enumeration is exponential"
    adj = [set(g.neighbors(v)) for v in g.vertices()]
    found: set[int] = set()

    def extend(path: list[int], inside: set[int]) -> None:
        s, last = path[0], path[-1]
        for w in adj[last]:
            if w <= s or w in inside:
                continue
            seen = (adj[w] & inside) - {last}
            if not seen:
                extend(path + [w], inside | {w})
            elif seen == {s} and len(path) >= 3:
                found.update(path)
                found.add(w)

    for s in g.vertices():
        extend([s], {s})
    return frozenset(found)


def ref_verify_hole(g: Graph, h: Hole) -> bool:
    """True iff h is a chordless cycle of length >= 4 in g with distinct
    vertices, by testing every vertex pair for the edge it must (or must
    not) have."""
    vs = h.vertices
    k = len(vs)
    if k < 4 or len(set(vs)) != k:
        return False
    if any(not (0 <= v < g.n) for v in vs):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = (j - i == 1) or (i == 0 and j == k - 1)
            if g.has_edge(vs[i], vs[j]) != consecutive:
                return False
    return True


def bf_is_chordal(g: Graph) -> bool:
    return not bf_all_holes(g)


def bf_chordal_after_delete(g: Graph, deleted: set[int]) -> bool:
    keep = [v for v in g.vertices() if v not in deleted]
    idx = {v: i for i, v in enumerate(keep)}
    edges = [(idx[u], idx[v]) for u, v in g.edges() if u in idx and v in idx]
    return bf_is_chordal(Graph(len(keep), edges))


def bf_min_chvd(g: Graph, forbidden: set[int] = frozenset(),
                forced_pairs: list[tuple[int, int]] = ()) -> int | None:
    """Minimum size of a deletion set avoiding `forbidden` that makes g chordal
    and hits every forced pair; None if no such set exists at all."""
    candidates = [v for v in g.vertices() if v not in forbidden]
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            chosen = set(subset)
            if any(x not in chosen and y not in chosen for x, y in forced_pairs):
                continue
            if bf_chordal_after_delete(g, chosen):
                return size
    return None


def bf_all_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    cliques = []
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(set(maximal), key=lambda c: sorted(c))


def bf_max_independent_set(g: Graph) -> int:
    best = 0
    for size in range(g.n, -1, -1):
        for subset in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def bf_di_connected(d: DiGraph, s: int, t: int, removed: set[int]) -> bool:
    if s in removed or t in removed:
        return False
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for w in d.out_neighbors(u):
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return t in seen


def bf_min_multicut(d: DiGraph, pairs: list[tuple[int, int]],
                    budget: int | None = None) -> int | None:
    """Minimum vertex multicut size by subset enumeration."""
    limit = d.n if budget is None else budget
    for size in range(limit + 1):
        for subset in combinations(range(d.n), size):
            removed = set(subset)
            if all(not bf_di_connected(d, s, t, removed) for s, t in pairs):
                return size
    return None


def bf_min_vertex_cut(d: DiGraph, sources: set[int], sinks: set[int],
                      deletable: set[int]) -> int | None:
    """Minimum deletable set disconnecting sources from sinks; None if impossible."""
    pairs = [(s, t) for s in sources for t in sinks]
    cands = sorted(deletable)
    for size in range(len(cands) + 1):
        for subset in combinations(cands, size):
            removed = set(subset)
            if all(not bf_di_connected(d, s, t, removed) for s, t in pairs):
                return size
    return None


def _ref_dijkstra(g: Graph, source: int, weight, allowed: set[int]):
    """Vertex-weighted Dijkstra from one source inside ``allowed``."""
    dist = {source: weight(source)}
    prev = {source: source}
    heap = [(dist[source], source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for w in g.neighbors(u):
            if w not in allowed:
                continue
            nd = d + weight(w)
            if nd < dist.get(w, float("inf")) - 1e-15:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    return dist, prev


def ref_separate_chvd(g: Graph, x) -> Hole | None:
    """Per-triple hole separation: one full Dijkstra per (v1, v2, v3).

    For each consecutive triple of a potential hole, the cheapest v1-v3
    path avoiding N[v2]; the cheapest violated cycle found is shortcut to
    an induced one.  ``x`` is a ``FractionalSolution``.
    """
    best = None
    best_weight = 1.0 - FEASIBILITY_TOL
    for v2 in g.vertices():
        nbrs = g.neighbors(v2)
        allowed = set(g.vertices()) - g.closed_neighborhood(v2)
        for i, v1 in enumerate(nbrs):
            for v3 in nbrs[i + 1:]:
                if g.has_edge(v1, v3):
                    continue
                dist, prev = _ref_dijkstra(g, v1, x.value,
                                           allowed | {v1, v3})
                if v3 not in dist:
                    continue
                if dist[v3] + x.value(v2) < best_weight - 1e-12:
                    path = [v3]
                    while prev[path[-1]] != path[-1]:
                        path.append(prev[path[-1]])
                    path = shortcut_walk(g, path[::-1])
                    hole = Hole(tuple([v2] + path)).canonical()
                    assert verify_hole(g, hole)
                    w = x.mass(hole.vertices)
                    if w < best_weight - 1e-12:
                        best = hole
                        best_weight = w
    return best


def ref_dijkstra_vertex_weights(neighbors, source: int, weight,
                                allowed=None, targets=(), cutoff=math.inf):
    """The heap search with a weight callable, as it was before unit
    weights ran by layers and other weights came as a table."""
    dist = {source: weight(source)}
    prev = {source: source}
    heap = [(dist[source], source)]
    pending = set(targets)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if d >= cutoff:
            break
        if u in pending:
            pending.discard(u)
            if not pending:
                break
            continue
        for w in neighbors(u):
            if allowed is not None and w not in allowed and w not in pending:
                continue
            nd = d + weight(w)
            if nd < dist.get(w, math.inf) - 1e-15:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    return dist, prev


def ref_shortest_hole_avoiding(g: Graph, deleted) -> Hole | None:
    """A shortest hole of g - deleted: the lightest hole under a table of
    unit weights, which takes the heap search rather than the layered one,
    through every alive vertex, each search bounded by the shortest so far
    and none skipped."""
    alive = [v for v in g.vertices() if v not in deleted]
    unit = [1] * g.n
    best = None
    length = math.inf
    for b in alive:
        found = lightest_hole_through(g, b, unit, alive, length)
        if found is not None:
            best, length = found
    return best


def ref_lightest_hole(g: Graph, weights, allowed, below):
    """``lightest_hole`` before it dropped each vertex it had finished
    with: every search runs in all of g[allowed], so a hole is searched
    once through each of its vertices."""
    inner = set(allowed)
    low = (1 if weights is None
           else min((weights[v] for v in inner), default=0))
    floor = low + low + low + low
    best = None
    for v in g.vertices():
        if v not in inner:
            continue
        found = lightest_hole_through(g, v, weights, inner, below)
        if found is not None:
            best = found
            below = found[1]
            if below - 1e-12 <= floor:
                break
    return best


def ref_separate_multicut(d: DiGraph, pairs, x) -> list[int] | None:
    """Per-pair terminal path separation: one full search per (s, t)."""
    best = None
    best_weight = 1.0 - FEASIBILITY_TOL
    for s, t in pairs:
        dist, prev = ref_dijkstra_vertex_weights(d.out_neighbors, s, x.value)
        if t in dist and dist[t] < best_weight - 1e-12:
            best = extract_path(prev, t)
            best_weight = dist[t]
    return best


def ref_separate_multicut_paths(d: DiGraph, pairs, x,
                                cap: int) -> list[list[int]]:
    """Up to cap pairwise vertex-disjoint violated terminal paths, each
    from a full search of its own pair: ``ref_separate_multicut``'s path
    first, then the violated pairs by (weight, pair index), each kept
    when it meets no path kept before."""
    first = ref_separate_multicut(d, pairs, x)
    if first is None:
        return []
    violated = []
    for i, (s, t) in enumerate(pairs):
        dist, prev = ref_dijkstra_vertex_weights(d.out_neighbors, s, x.value)
        if t in dist and dist[t] < 1.0 - FEASIBILITY_TOL - 1e-12:
            violated.append((dist[t], i, extract_path(prev, t)))
    paths = [first]
    for _, _, path in sorted(violated):
        if len(paths) < cap and all(set(path).isdisjoint(p) for p in paths):
            paths.append(path)
    return paths


def ref_simplex_min_cover(n: int, constraint_sets, exact: bool = False) -> list:
    """The dense simplex: every pivot rewrites every column of every row."""
    m = len(constraint_sets)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    tol = Fraction(0) if exact else 1e-9
    if m == 0 or n == 0:
        return [zero] * n
    width = m + n + 1
    rows = []
    for v in range(n):
        row = [zero] * width
        for j, cset in enumerate(constraint_sets):
            if v in cset:
                row[j] = one
        row[m + v] = one
        row[-1] = one
        rows.append(row)
    zrow = [one] * m + [zero] * n + [zero]
    basis = [m + v for v in range(n)]
    for _ in range(8000 + 40 * (n + m) * (n + m)):
        enter = next((j for j in range(m + n) if zrow[j] > tol), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(n):
            a = rows[i][enter]
            if a > tol:
                ratio = rows[i][-1] / a
                if best is None or ratio < best - tol or (
                    abs(ratio - best) <= tol
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        check(leave >= 0, "reference packing LP is unbounded")
        piv = rows[leave][enter]
        rows[leave] = [a / piv for a in rows[leave]]
        for i in range(n):
            if i != leave and rows[i][enter] != zero:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if zrow[enter] != zero:
            f = zrow[enter]
            zrow = [a - f * b for a, b in zip(zrow, rows[leave])]
        basis[leave] = enter
    else:
        check(False, "reference simplex exceeded its pivot budget")
    return [-z if -z > zero else zero for z in zrow[m:m + n]]


def _ref_has_avoiding_path(g: Graph, comp, x: int, y: int) -> bool:
    """A path inside comp from N(x) to N(y) avoiding N(x) & N(y)."""
    shared = g.neighbor_set(x) & g.neighbor_set(y)
    for part in components_within(g, comp - shared):
        if (g.neighbor_set(x) & part) and (g.neighbor_set(y) & part):
            return True
    return False


def ref_template_toughness(inst, separator, label: str, witness: tuple):
    """Toughness template, testing every separator pair on every component."""
    assert inst.modulator <= separator
    comps = components_within(inst.g, set(inst.g.vertices()) - separator)
    if not comps:
        return None
    marked: set[int] = set()
    sep = sorted(separator)
    for i, x in enumerate(sep):
        for y in sep[i + 1:]:
            if not inst.g.has_edge(x, y):
                budget = inst.k + 2
                eligible = [
                    idx for idx, comp in enumerate(comps)
                    if (inst.g.neighbor_set(x) & comp)
                    and (inst.g.neighbor_set(y) & comp)
                ]
            else:
                budget = inst.k + 1
                eligible = [
                    idx for idx, comp in enumerate(comps)
                    if _ref_has_avoiding_path(inst.g, comp, x, y)
                ]
            marked.update(eligible[:budget])
    for idx, comp in enumerate(comps):
        if idx not in marked:
            return _finish(inst, ReductionEvent(
                rule=label,
                witness=witness + (min(comp),),
                deleted=tuple(sorted(comp)),
            ))
    return None


def ref_xy_good_bottommost(inst, core, tree, x: int, y: int) -> list[int]:
    """Maximally bottommost xy-good nodes, recomputing every subtree."""
    top_of = {v: tree.top(v) for v in core.graph.vertices()}
    nx = inst.g.neighbor_set(x)
    ny = inst.g.neighbor_set(y)
    good: dict[int, bool] = {}
    for q in tree.nodes():
        allowed_nodes = tree.subtree_nodes(q)
        inside = {
            core.old_of[v]
            for v in core.graph.vertices()
            if top_of[v] in allowed_nodes
        }
        good[q] = any((nx & part) and (ny & part)
                      for part in components_within(inst.g, inside))
    return sorted(
        q for q in tree.nodes()
        if good[q] and not any(good[c] for c in tree.children(q))
    )


def ref_components_within(g: Graph, allowed) -> list[frozenset[int]]:
    """Connected components of g restricted to the given vertex set."""
    allowed_set = set(allowed)
    seen: set[int] = set()
    comps = []
    for start in sorted(allowed_set):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = {start}
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w in allowed_set and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def ref_bfs_path(g: Graph, source: int, targets, allowed=None):
    """Shortest path (fewest vertices) from source to any target."""
    target_set = set(targets)
    allowed_set = set(allowed) if allowed is not None else None
    if allowed_set is not None and source not in allowed_set:
        return None
    if source in target_set:
        return [source]
    prev = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w in prev:
                continue
            if allowed_set is not None and w not in allowed_set:
                continue
            prev[w] = u
            if w in target_set:
                path = [w]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def ref_di_bfs_path(d: DiGraph, sources, targets, removed=()):
    """Shortest directed path from any source to any target avoiding removed."""
    removed_set = set(removed)
    target_set = set(targets) - removed_set
    if not target_set:
        return None
    prev: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if s in removed_set or s in prev:
            continue
        prev[s] = s
        if s in target_set:
            return [s]
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in d.out_neighbors(u):
            if w in prev or w in removed_set:
                continue
            prev[w] = u
            if w in target_set:
                path = [w]
                while prev[path[-1]] != path[-1]:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def ref_reverse_adjacency(d: DiGraph) -> list[list[int]]:
    """The in-neighbours of each vertex of d, in increasing id order,
    read off ``d.arcs()``."""
    into: list[list[int]] = [[] for _ in d.vertices()]
    for u, v in d.arcs():
        into[v].append(u)
    return into


def ref_di_reachable(d: DiGraph, sources, removed=(), reverse=False) -> set[int]:
    """Vertices reachable from sources (or reaching them when reverse=True)."""
    removed_set = set(removed)
    into = ref_reverse_adjacency(d) if reverse else None
    seen = set()
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if s not in removed_set and s not in seen:
            seen.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        nbrs = into[u] if reverse else d.out_neighbors(u)
        for w in nbrs:
            if w not in seen and w not in removed_set:
                seen.add(w)
                queue.append(w)
    return seen


def ref_min_vertex_cut(d: DiGraph, sources, sinks, deletable,
                       prefer_avoiding=()) -> frozenset[int]:
    """Vertex-split max-flow with its own augmenting and residual BFS."""
    n = d.n
    deletable_set = set(deletable)
    avoid_set = set(prefer_avoiding) & deletable_set
    unit = n + 2
    inf = unit * (n + 1)
    size = 2 * n + 2
    cap: list[dict[int, int]] = [dict() for _ in range(size)]

    def add(a: int, b: int, c: int) -> None:
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for v in range(n):
        if v in deletable_set:
            add(2 * v, 2 * v + 1, unit + 1 if v in avoid_set else unit)
        else:
            add(2 * v, 2 * v + 1, inf)
        for w in d.out_neighbors(v):
            add(2 * v + 1, 2 * w, inf)
    for s in set(sources):
        add(2 * n, 2 * s, inf)
    for t in set(sinks):
        add(2 * t + 1, 2 * n + 1, inf)

    src, dst = 2 * n, 2 * n + 1
    flow = 0
    while True:
        prev = {src: src}
        queue = deque([src])
        while queue and dst not in prev:
            a = queue.popleft()
            for b in sorted(cap[a]):
                if b not in prev and cap[a][b] > 0:
                    prev[b] = a
                    queue.append(b)
        if dst not in prev:
            break
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        bottleneck = min(cap[a][b] for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            cap[a][b] -= bottleneck
            cap[b][a] += bottleneck
        flow += bottleneck
        if flow >= inf:
            raise ValueError(
                "sources and sinks cannot be separated by deletable vertices"
            )
    reach = {src}
    queue = deque([src])
    while queue:
        a = queue.popleft()
        for b in cap[a]:
            if b not in reach and cap[a][b] > 0:
                reach.add(b)
                queue.append(b)
    return frozenset(
        v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach
    )


def ref_split_residual(out_neighbors, alive, capacity, through, carried):
    """The residual neighbours of a vertex-split flow as a generator over
    node ids (2v is v_in, 2v+1 is v_out), for ``bfs``: the tables are
    those of ``multicut._split_residual_bfs``, and ``alive`` is the set
    of its capacity keys."""
    def residual(a):
        v = a >> 1
        if a & 1:
            for w in out_neighbors(v):
                if w in alive:
                    yield 2 * w
            if through.get(v):
                yield a - 1
        else:
            if through.get(v, 0) < capacity[v]:
                yield a + 1
            for u in carried.get(v, ()):
                yield 2 * u + 1
    return residual


def ref_induced_digraph(d: DiGraph, s) -> Subgraph:
    """d[s] with ids remapped to 0..|s|-1 in their relative order."""
    keep = sorted(set(s))
    new_of = {old: new for new, old in enumerate(keep)}
    arcs = [
        (new_of[u], new_of[v])
        for u, v in d.arcs()
        if u in new_of and v in new_of
    ]
    return Subgraph(DiGraph(len(keep), arcs), tuple(keep))


def ref_staircase_fault(tu, tv, terminals) -> str | None:
    """The message ``SkewInstance`` raises on a pair family over tu x tv,
    or None when the family is staircase-closed, by checking every
    (i', j') with i' >= i and j' <= j for every pair (i, j)."""
    iu = {u: i for i, u in enumerate(tu)}
    iv = {v: j for j, v in enumerate(tv)}
    pairset = set(terminals)
    for u, v in terminals:
        if u not in iu or v not in iv:
            return "terminal pair endpoints outside tu x tv"
        for i2 in range(iu[u], len(tu)):
            for j2 in range(iv[v] + 1):
                if (tu[i2], tv[j2]) not in pairset:
                    return "pair family is not staircase-closed"
    return None


def ref_skew_multicut(inst: SkewInstance,
                      x: FractionalSolution) -> frozenset[int]:
    """Skew multicut on a copy digraph: d plus source copy n+i of tu[i]
    and target copy n+a+j of tv[j].  After each cut x0 the halves recurse
    on the paper's two sides of dd[alive - x0]: the vertices that reach
    tv1, found over a reverse adjacency of dd, and the vertices reached
    from tu2."""
    d, pairs = inst.base.d, list(inst.base.terminals)
    if separate_multicut(d, pairs, x):
        raise ValueError("fractional solution is infeasible for the instance")
    n = d.n
    a, b = len(inst.tu), len(inst.tv)
    arcs = list(d.arcs())
    arcs += [(n + i, u) for i, u in enumerate(inst.tu)]
    arcs += [(v, n + a + j) for j, v in enumerate(inst.tv)]
    dd = DiGraph(n + a + b, arcs)
    into = ref_reverse_adjacency(dd)
    iu = {u: i for i, u in enumerate(inst.tu)}
    iv = {v: j for j, v in enumerate(inst.tv)}
    index_pairs = [(iu[u], iv[v]) for u, v in pairs]

    def cut(sources, sinks, alive: set[int]) -> frozenset[int]:
        # the originals of dd[alive] are deletable, the copies are not
        sub = ref_induced_digraph(dd, alive)
        m = sub.index
        terminal_members = (set(inst.tu) | set(inst.tv)) & alive

        def local(vs):
            return [m[v] for v in vs if v in m]

        return frozenset(sub.to_parent(ref_min_vertex_cut(
            sub.graph, local(sources), local(sinks),
            local(v for v in alive if v < n), local(terminal_members))))

    def recurse(alive: set[int], active: list[tuple[int, int]]) -> frozenset[int]:
        reach = functools.cache(
            lambda i: bfs(dd.out_neighbors, [n + i], alive)[0])
        live = [(i, j) for i, j in active if n + a + j in reach(i)]
        if not live:
            return frozenset()
        sources = sorted({i for i, _ in live})
        if len(sources) == 1:
            sinks = {n + a + j for _, j in live}
            return cut([n + sources[0]], sinks, alive)
        mid = sources[len(sources) // 2]
        j_max = max(j for i, j in live if i <= mid)
        tv1 = {n + a + j for _, j in live if j <= j_max}
        tu2 = {n + i for i in sources if i >= mid}
        x0 = cut(tu2, tv1, alive)
        alive2 = alive - x0
        a1 = set(bfs(into.__getitem__, sorted(tv1 & alive2), alive2)[0])
        a2 = set(bfs(dd.out_neighbors, sorted(tu2 & alive2), alive2)[0])
        pairs1 = [(i, j) for i, j in live if i < mid]
        pairs2 = [(i, j) for i, j in live if i > mid and j > j_max]
        return x0 | recurse(a1, pairs1) | recurse(a2, pairs2)

    solution = recurse(set(dd.vertices()), index_pairs)
    check(inst.base.is_multicut(solution), "skew solution is not a multicut")
    return solution


def ref_skew_on_copy(inst: SkewInstance, x: FractionalSolution,
                     alive) -> frozenset[int]:
    """``ref_skew_multicut`` on the renumbered copy of d[alive], mapped
    back; terminals outside alive and their pairs drop out."""
    sub = ref_induced_digraph(inst.base.d, alive)
    m = sub.index
    pairs = tuple((m[u], m[v]) for u, v in inst.base.terminals
                  if u in m and v in m)
    copy = SkewInstance(MulticutInstance(sub.graph, pairs),
                        tuple(m[u] for u in inst.tu if u in m),
                        tuple(m[v] for v in inst.tv if v in m))
    return frozenset(sub.to_parent(ref_skew_multicut(copy, _remap(x, m))))


class _RefSearch:
    """Depth-first branching with a visited-set memo per budget."""

    def __init__(self):
        self.nodes = 0
        self.seen: dict[frozenset[int], int] = {}

    def visit(self, deleted: frozenset[int], budget: int) -> bool:
        if self.seen.get(deleted, -1) >= budget:
            return False
        self.seen[deleted] = budget
        self.nodes += 1
        return True

    def branch(self, deleted, budget, vertices, forbidden=frozenset()):
        for v in vertices:
            if v not in forbidden:
                res = self.solve(deleted | {v}, budget - 1)
                if res is not None:
                    return res
        return None

    def minimum(self, k: int):
        if k < 0:
            return None
        for budget in range(k + 1):
            res = self.solve(frozenset(), budget)
            if res is not None:
                return oracle.ExactResult(len(res), res, self.nodes)
        return None


class _RefChvd(_RefSearch):
    def __init__(self, g: Graph, forced_pairs, forbidden):
        super().__init__()
        self.g, self.forced, self.forbidden = g, forced_pairs, forbidden

    def solve(self, deleted: frozenset[int], budget: int):
        if not self.visit(deleted, budget):
            return None
        for x, y in self.forced:
            if x not in deleted and y not in deleted:
                if budget == 0:
                    return None
                return self.branch(deleted, budget, (x, y), self.forbidden)
        hole = oracle.shortest_hole_avoiding(self.g, deleted)
        if hole is None:
            return deleted
        if budget == 0:
            return None
        return self.branch(deleted, budget, hole.vertices, self.forbidden)


class _RefMulticut(_RefSearch):
    def __init__(self, d: DiGraph, pairs):
        super().__init__()
        self.d, self.pairs = d, pairs

    def solve(self, deleted: frozenset[int], budget: int):
        if not self.visit(deleted, budget):
            return None
        best = None
        for s, t in self.pairs:
            path = ref_di_bfs_path(self.d, [s], [t], removed=deleted)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            return deleted
        if budget == 0:
            return None
        return self.branch(deleted, budget, best[1:-1] + [best[0], best[-1]])


def ref_exact_chvd(g: Graph, k: int, forced_pairs=(), forbidden=frozenset()):
    """Minimum hole-hitting set of size <= k that hits every forced pair
    and avoids the forbidden set, or None."""
    return _RefChvd(g, tuple(forced_pairs), frozenset(forbidden)).minimum(k)


def ref_exact_multicut(d: DiGraph, pairs, k: int):
    """Minimum vertex multicut of size <= k (terminals deletable), or None."""
    return _RefMulticut(d, list(pairs)).minimum(k)


def ref_lca_closure(tree, nodes) -> frozenset[int]:
    """The least LCA-closed set of tree nodes holding ``nodes``: the LCAs
    of all pairs are added until a round adds none."""
    closed = set(nodes)
    while True:
        extra = {tree.lca(p, q) for p in closed for q in closed} - closed
        if not extra:
            return frozenset(closed)
        closed |= extra


def ref_separator_marked_nodes(inst) -> frozenset[int]:
    """Marked nodes of ``build_separator``, listing the maximal cliques of
    every G(x, y) from a clique tree of its own and the nonneighbour
    components of every x, with their boundaries, by its own search."""
    tree = inst.tree
    q0: set[int] = set()
    for x, y in inst.nonadjacent_pairs:
        common = inst.selector([x, y])
        if not common:
            continue
        for bag in clique_tree_of(inst.g, common).bags:
            q0.add(tree.first_bag_containing(bag))
    for x in sorted(inst.modulator):
        for comp in ref_components_within(inst.g,
                                          inst.selector(negatives=[x])):
            core_boundary = boundary(inst.g, comp) - inst.modulator
            q0.add(tree.first_bag_containing(core_boundary))
    return frozenset(q0)


def ref_hit_holes_through(g: Graph, part_a, part_b, clique_l, x):
    """``approx.hit_holes_through`` on a graph that is exactly g[A + B],
    as its own compact graph."""
    for v in part_b:
        check(x.value(v) <= FEASIBILITY_TOL, "x must vanish on the clique side")
    for v in part_a:
        check(x.value(v) < 0.1 + 1e-9, "x must stay below 1/10 on the chordal side")
    if not any(find_hole_through(g, w) is not None for w in sorted(clique_l)):
        return frozenset()
    sub = induced_subgraph(g, part_a)
    tree = clique_tree_of(sub.graph)
    l_local = frozenset(sub.to_sub(clique_l))
    root = tree.first_bag_containing(l_local)
    check(root is not None and tree.bags[root] == l_local,
          "L is not a maximal clique of g[A]")
    inst = build_downward(sub.graph, tree.reroot(root))
    x_local = _remap(x, sub.index)
    pairs = []
    for u in inst.digraph.vertices():
        dist = dist_from(inst.digraph, x_local, u)
        pairs += [
            (u, v)
            for v in sorted(inst.digraph.vertices())
            if v != u and at_least(dist.get(v, float("inf")), 0.1)
        ]
    x10 = FractionalSolution(
        {v: 10.0 * w for v, w in x_local.values.items()})
    cut = downward_multicut(inst.with_terminals(pairs), x10)
    result = frozenset(sub.old_of[v] for v in cut)
    remaining = induced_subgraph(g, set(g.vertices()) - result)
    for w in sorted(clique_l - result):
        check(find_hole_through(remaining.graph, remaining.new_of(w)) is None,
              "a hole through L survived the multicut")
    return result


def ref_chvd_clique_plus_chordal(g: Graph, part_a, part_b, x):
    """``approx.chvd_clique_plus_chordal`` on a graph that is exactly
    g[A + B], renumbering each component and each scope it works on."""
    solution: set[int] = {
        v for v in g.vertices() if at_least(x.value(v), 1.0 / 20)
    }
    alive_a = set(part_a) - solution
    alive_b = set(part_b) - solution
    x2 = FractionalSolution({v: 2.0 * x.value(v) for v in alive_a})
    rounds_per_vertex: dict[int, int] = {}
    cap = max(1.0, math.ceil(math.log2(1.0 + x2.objective) + 1e-9))
    while True:
        comps = components_within(g, alive_a)
        if not comps:
            break
        heaviest = max(comps, key=lambda c: (x2.mass(c), sorted(c)))
        if x2.mass(heaviest) < 1.0 - 1e-9:
            break
        for v in heaviest:
            rounds_per_vertex[v] = rounds_per_vertex.get(v, 0) + 1
            check(rounds_per_vertex[v] <= cap,
                  "component halving exceeded its logarithmic budget")
        comp_sub = induced_subgraph(g, heaviest)
        comp_tree = clique_tree_of(comp_sub.graph)
        weights = {
            u: x2.value(comp_sub.old_of[u]) for u in comp_sub.graph.vertices()
        }
        bag = central_bag(comp_sub.graph, comp_tree, weights)
        clique_l = frozenset(comp_sub.old_of[u] for u in bag)
        scope_sub = induced_subgraph(g, frozenset(heaviest) | alive_b)
        new_of = scope_sub.index
        cut = ref_hit_holes_through(
            scope_sub.graph,
            frozenset(new_of[v] for v in heaviest),
            frozenset(new_of[v] for v in alive_b),
            frozenset(new_of[v] for v in clique_l),
            _remap(x2, new_of),
        )
        cut_orig = {scope_sub.old_of[v] for v in cut}
        solution |= cut_orig
        alive_a -= cut_orig
        alive_a -= clique_l
    final = induced_subgraph(g, set(g.vertices()) - solution)
    check(is_chordal(final.graph), "clique-plus-chordal output is not chordal")
    return frozenset(solution)


def _remap(x: FractionalSolution, new_of: dict[int, int]) -> FractionalSolution:
    """x on a renumbered copy: the weights of the vertices in ``new_of``,
    under their new ids, in x's order."""
    return FractionalSolution(
        {new_of[v]: w for v, w in x.values.items() if v in new_of})


def _ref_balanced_cut_greedy(g: Graph, limit: float, budget: int):
    removed: set[int] = set()
    while len(removed) <= budget:
        comps = components_within(g, set(g.vertices()) - removed)
        big = [c for c in comps if len(c) > limit]
        if not big:
            return removed
        target = max(big, key=len)
        pick = max(sorted(target), key=lambda v: g.degree(v))
        removed.add(pick)
    return None


def _ref_balanced_clique_cut_compact(g: Graph, k: int):
    n = g.n
    if n == 0:
        return frozenset(), frozenset()
    cliques = maximal_cliques(g)
    big = [c for c in cliques if 4 * len(c) >= n]
    if big:
        best = max(big, key=lambda c: (len(c), sorted(c)))
        return frozenset(best), frozenset(best)
    best_pair = None
    for clique in cliques:
        rest = induced_subgraph(g, set(g.vertices()) - clique)
        cut = _ref_balanced_cut_greedy(rest.graph, 2.0 * rest.graph.n / 3.0, k)
        if cut is not None:
            z = frozenset(clique) | {rest.old_of[v] for v in cut}
            if best_pair is None or len(z) - len(clique) < \
                    len(best_pair[0]) - len(best_pair[1]):
                best_pair = (z, frozenset(clique))
    if best_pair is None:
        res = oracle.exact_chvd(g, k)
        if res is None:
            return NO_INSTANCE
        chordal = set(g.vertices()) - res.solution
        bag = central_bag(g, clique_tree_of(g, chordal),
                          {v: 1.0 for v in chordal})
        best_pair = (bag | res.solution, bag)
    z, kq = best_pair
    for comp in components_within(g, set(g.vertices()) - z):
        check(4 * len(comp) <= 3 * n, "balanced cut leaves an oversized component")
    return best_pair


def ref_balanced_clique_cut(g: Graph, k: int, vertices):
    """``approx.balanced_clique_cut`` on the renumbered copy of
    g[vertices], cutting a renumbered copy of every g - K, mapped back."""
    sub = induced_subgraph(g, vertices)
    res = _ref_balanced_clique_cut_compact(sub.graph, k)
    if isinstance(res, NoInstance):
        return res
    return tuple(frozenset(sub.to_parent(part)) for part in res)


def ref_decompose(g: Graph, k: int, vertices):
    """``approx.decompose`` on the renumbered copy of g[vertices], which
    cuts a renumbered copy of each component, mapped back."""
    work = induced_subgraph(g, vertices)
    h = work.graph
    n = h.n
    alive = set(h.vertices())
    cliques: list[frozenset[int]] = []
    residue: set[int] = set()
    max_steps = 0 if n <= 1 else max(
        math.floor(k * math.log(n) / math.log(1.5)),
        k * (math.floor(math.log(n / 4) / math.log(4 / 3)) + 1))
    steps = 0
    while True:
        target = None
        for comp in components_within(h, alive):
            if not is_chordal(h, comp):
                target = comp
                break
        if target is None:
            break
        steps += 1
        if steps > max_steps:
            return NO_INSTANCE
        sub = induced_subgraph(h, target)
        res = _ref_balanced_clique_cut_compact(sub.graph, k)
        if isinstance(res, NoInstance):
            return NO_INSTANCE
        z_local, k_local = res
        z = {sub.old_of[v] for v in z_local}
        kq = frozenset(sub.old_of[v] for v in k_local)
        cliques.append(kq)
        residue |= z - kq
        alive -= z
    dec = Decomposition(frozenset(alive), tuple(cliques), frozenset(residue))
    dec.validate(h, set(h.vertices()))
    check(len(cliques) <= max(max_steps, 0), "decomposition used too many cuts")
    return Decomposition(
        frozenset(work.to_parent(dec.chordal_part)),
        tuple(frozenset(work.to_parent(c)) for c in dec.cliques),
        frozenset(work.to_parent(dec.residue)))


# -- chordality on renumbered copies -------------------------------------------

def ref_mcs_order(g: Graph) -> list[int]:
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


def ref_recognize(g: Graph) -> PEO | Hole:
    """PEO when g is chordal, otherwise a verified hole witness."""
    order = list(reversed(ref_mcs_order(g)))
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


def ref_is_chordal(g: Graph, vertices=None) -> bool:
    """Whether g[vertices] (g when vertices is None) is chordal."""
    h = g if vertices is None else induced_subgraph(g, vertices).graph
    return isinstance(ref_recognize(h), PEO)


def _ref_maximal_cliques_from_peo(g: Graph, peo: PEO) -> list[frozenset[int]]:
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


def ref_build_clique_tree(g: Graph, peo: PEO) -> CliqueTree:
    """Clique tree from a PEO: maximal cliques as bags, edges by a
    maximum-weight spanning tree over bag intersections."""
    if not is_peo(g, peo.ordering):
        raise ValueError("ordering is not a perfect elimination ordering for g")
    if g.n == 0:
        return CliqueTree([frozenset()], [None], 0, 0)
    bags = _ref_maximal_cliques_from_peo(g, peo)
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
    parent: list[int | None] = [None] * b
    stack = [0]
    seen = {0}
    while stack:
        p = stack.pop()
        for q in sorted(adj[p]):
            if q not in seen:
                seen.add(q)
                parent[q] = p
                stack.append(q)
    return CliqueTree(bags, parent, 0, g.n)


def ref_clique_tree_of(g: Graph, vertices=None) -> CliqueTree:
    """Clique tree of g[vertices] (of g when vertices is None) with bags in
    g's own ids; a vertex outside ``vertices`` lies in no bag.  Raises
    ValueError when g[vertices] is not chordal."""
    sub = None if vertices is None else induced_subgraph(g, vertices)
    h = g if sub is None else sub.graph
    res = ref_recognize(h)
    if isinstance(res, Hole):
        raise ValueError("graph is not chordal")
    tree = ref_build_clique_tree(h, res)
    if sub is None:
        return tree
    bags = [frozenset(sub.old_of[v] for v in bag) for bag in tree.bags]
    return CliqueTree(bags, list(tree.parent), tree.root, g.n)


def ref_mis_chordal(g: Graph) -> frozenset[int]:
    """Maximum independent set of a chordal graph, greedy over a PEO."""
    res = ref_recognize(g)
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


# -- test-only helpers --------------------------------------------------------

def is_peo(g: Graph, ordering) -> bool:
    """True iff ordering lists every vertex of g once and the later
    neighbours of each vertex form a clique."""
    order = list(ordering)
    if sorted(order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not is_clique(g, later):
            return False
    return True


def is_induced_path(g: Graph, path) -> bool:
    """Consecutive vertices adjacent, all other pairs non-adjacent, no repeats."""
    if len(set(path)) != len(path):
        return False
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if g.has_edge(path[i], path[j]) != (j - i == 1):
                return False
    return True


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


def path_adhesions(t: CliqueTree, node_path: list[int]) -> list[frozenset[int]]:
    """Adhesions of consecutive edges along a tree node path."""
    out = []
    for a, b in zip(node_path, node_path[1:]):
        out.append(t.bags[a] & t.bags[b])
    return out


def induced_path_avoiding(
    g: Graph, t: CliqueTree, s: int, u: int, forbidden
) -> list[int] | None:
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


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of V(g) into connected components, ordered by smallest member."""
    return components_within(g, g.vertices())


def random_c4_free(rng, n: int, tries: int) -> Graph:
    """A graph with no induced C4: ``tries`` random vertex pairs in turn,
    each joined unless the edge u-v would close an induced C4 u-v-b-a."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(tries):
        u, v = rng.sample(range(n), 2)
        b_side = adj[v] - adj[u] - {u}
        if any(adj[a] & b_side for a in adj[u] - adj[v] - {v}):
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def random_near_chordal(seed: int, core_vertices: int = 12, tree_nodes: int = 6,
                        apex_degree_hi: int = 6) -> tuple[Graph, int]:
    """Graph g plus a center v with g - v chordal (one planted apex)."""
    g, _, planted = generate(GeneratorSpec(
        seed=seed,
        core_vertices=core_vertices,
        tree_nodes=tree_nodes,
        planted=1,
        apex_degree_lo=2,
        apex_degree_hi=apex_degree_hi,
    ))
    (v,) = planted
    return g, v
