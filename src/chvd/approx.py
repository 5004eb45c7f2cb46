"""The poly(opt) approximation pipeline.

Stages: fractional solve, heavy-vertex deletion (x >= 1/4, which also
makes the graph C4-free), balanced clique-plus-cut decomposition, then
folding the cliques back one at a time through the clique-plus-chordal
special case whose engine is the downward-oriented multicut.  Instances
with k <= 1 or n > 2^(k log k) go to the exact solver instead: that is the
original algorithm's guard for when its FPT running time is polynomial in n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .graphs import Graph, Subgraph, check, components_within, induced_subgraph
from .chordal import (
    central_bag,
    clique_tree_of,
    find_hole_through,
    is_chordal,
    maximal_cliques,
)
from .lp import ChvdProblem, FractionalSolution, at_least, solve_fractional
from .multicut import build_downward, dist_from, downward_multicut
from .oracle import exact_chvd


class NoInstance:
    """Returned when the input is correctly concluded to be a no-instance."""

    def __repr__(self) -> str:
        return "NoInstance"

    def __eq__(self, other) -> bool:
        return isinstance(other, NoInstance)

    def __hash__(self) -> int:
        return hash("NoInstance")


NO_INSTANCE = NoInstance()


@dataclass(frozen=True)
class Decomposition:
    """Partition into a chordal part, cliques, and a deleted residue."""

    chordal_part: frozenset[int]
    cliques: tuple[frozenset[int], ...]
    residue: frozenset[int]

    def validate(self, g: Graph) -> None:
        parts = [self.chordal_part, *self.cliques, self.residue]
        union: set[int] = set()
        for p in parts:
            check(not (union & p), "decomposition parts overlap")
            union |= p
        check(union == set(g.vertices()), "decomposition misses vertices")
        check(is_chordal(induced_subgraph(g, self.chordal_part).graph),
              "chordal part is not chordal")
        for kq in self.cliques:
            check(all(g.has_edge(u, v) for u in kq for v in kq if u < v),
                  "clique part is not complete")


def hit_holes_through(
    g: Graph,
    part_a: frozenset[int],
    part_b: frozenset[int],
    clique_l: frozenset[int],
    x: FractionalSolution,
) -> frozenset[int]:
    """A set X such that g - X has no hole through the clique L.

    Preconditions: g[A] chordal, g[B] complete, L a maximal clique of
    g[A], x zero on B and below 1/10 on A.  The terminal set pairs up
    vertices at fractional distance >= 1/10 in the downward orientation
    rooted at L, and 10x is a fractional solution for it.
    """
    for v in part_b:
        check(abs(x.value(v)) <= x.tolerance, "x must vanish on the clique side")
    for v in part_a:
        check(x.value(v) < 0.1 + 1e-9, "x must stay below 1/10 on the chordal side")
    if not _has_hole_meeting(g, clique_l):
        return frozenset()
    sub = induced_subgraph(g, part_a)
    tree = clique_tree_of(sub.graph)
    l_local = frozenset(sub.to_sub(clique_l))
    root = tree.first_bag_containing(l_local)
    check(root is not None and tree.bags[root] == l_local,
          "L is not a maximal clique of g[A]")
    inst = build_downward(sub.graph, tree.reroot(root))
    x_local = x.remapped(sub.index)
    pairs = []
    for u in inst.digraph.vertices():
        dist = dist_from(inst.digraph, x_local, u)
        pairs += [
            (u, v)
            for v in sorted(inst.digraph.vertices())
            if v != u and at_least(dist.get(v, float("inf")), 0.1)
        ]
    cut = downward_multicut(inst.with_terminals(pairs), x_local.scaled(10.0))
    result = frozenset(sub.old_of[v] for v in cut)
    remaining = induced_subgraph(g, set(g.vertices()) - result)
    for w in sorted(clique_l - result):
        check(find_hole_through(remaining.graph, remaining.new_of(w)) is None,
              "a hole through L survived the multicut")
    return result


def _has_hole_meeting(g: Graph, vertices: frozenset[int]) -> bool:
    return any(find_hole_through(g, w) is not None for w in sorted(vertices))


def chvd_clique_plus_chordal(
    g: Graph,
    part_a: frozenset[int],
    part_b: frozenset[int],
    x: FractionalSolution,
) -> frozenset[int]:
    """ChVD solution for g = chordal part A plus complete part B.

    Deletes the x >= 1/20 vertices, doubles the remaining weights on A,
    then repeatedly splits the heaviest component at a weight-central
    clique until every component is lighter than one.  The returned set
    leaves g chordal (verified).
    """
    solution: set[int] = {
        v for v in g.vertices() if at_least(x.value(v), 1.0 / 20)
    }
    alive_a = set(part_a) - solution
    alive_b = set(part_b) - solution
    x2 = FractionalSolution(
        {v: 2.0 * x.value(v) for v in alive_a}, tolerance=x.tolerance
    )
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
        scope = frozenset(heaviest) | frozenset(alive_b)
        scope_sub = induced_subgraph(g, scope)
        new_of = scope_sub.index
        cut = hit_holes_through(
            scope_sub.graph,
            frozenset(new_of[v] for v in heaviest),
            frozenset(new_of[v] for v in alive_b),
            frozenset(new_of[v] for v in clique_l),
            x2.remapped(new_of),
        )
        cut_orig = {scope_sub.old_of[v] for v in cut}
        solution |= cut_orig
        alive_a -= cut_orig
        alive_a -= clique_l
    final = induced_subgraph(g, set(g.vertices()) - solution)
    check(is_chordal(final.graph), "clique-plus-chordal output is not chordal")
    return frozenset(solution)


def _balanced_cut_exact(g: Graph, limit: float, budget: int) -> Optional[set[int]]:
    """Smallest vertex set whose removal caps every component at limit."""
    from itertools import combinations

    verts = sorted(g.vertices())
    for size in range(min(budget, len(verts)) + 1):
        for subset in combinations(verts, size):
            removed = set(subset)
            if all(
                len(c) <= limit
                for c in components_within(g, set(verts) - removed)
            ):
                return removed
    return None


def _balanced_cut_greedy(g: Graph, limit: float, budget: int) -> Optional[set[int]]:
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


# g - K at most this large gets the exact balanced cut, larger the greedy one
EXACT_CUT_LIMIT = 16


def balanced_clique_cut(
    g: Graph, k: int
) -> Union[NoInstance, tuple[frozenset[int], frozenset[int]]]:
    """A set Z and clique K inside it with components of g - Z at most 3n/4.

    A clique of size >= n/4 alone suffices; otherwise every maximal clique
    is tried with a balanced vertex cut of g - K within budget k (exact by
    enumeration at desk scale, greedy beyond).  NoInstance when no clique
    admits a cut within budget, which certifies opt > k for C4-free g.
    """
    n = g.n
    if n == 0:
        return frozenset(), frozenset()
    cliques = maximal_cliques(g)
    big = [c for c in cliques if 4 * len(c) >= n]
    if big:
        best = max(big, key=lambda c: (len(c), sorted(c)))
        return frozenset(best), frozenset(best)
    best_pair: Optional[tuple[frozenset[int], frozenset[int]]] = None
    for clique in cliques:
        rest = induced_subgraph(g, set(g.vertices()) - clique)
        limit = 2.0 * rest.graph.n / 3.0
        if rest.graph.n <= EXACT_CUT_LIMIT:
            cut = _balanced_cut_exact(rest.graph, limit, k)
        else:
            cut = _balanced_cut_greedy(rest.graph, limit, k)
        if cut is None:
            continue
        z = frozenset(clique) | {rest.old_of[v] for v in cut}
        if best_pair is None or len(z) - len(clique) < \
                len(best_pair[0]) - len(best_pair[1]):
            best_pair = (z, frozenset(clique))
    if best_pair is None:
        return NO_INSTANCE
    z, kq = best_pair
    for comp in components_within(g, set(g.vertices()) - z):
        check(4 * len(comp) <= 3 * n, "balanced cut leaves an oversized component")
    return best_pair


def decompose(
    g: Graph, k: int
) -> Union[NoInstance, Decomposition]:
    """Repeated balanced clique cuts on non-chordal components.

    Charges one step per cut and aborts as NoInstance past
    k * log_{3/2} n steps, matching the yes-instance termination bound.
    """
    n = g.n
    alive = set(g.vertices())
    cliques: list[frozenset[int]] = []
    residue: set[int] = set()
    max_steps = 0 if n <= 1 else math.floor(k * math.log(n) / math.log(1.5))
    steps = 0
    while True:
        target = None
        for comp in components_within(g, alive):
            if not is_chordal(induced_subgraph(g, comp).graph):
                target = comp
                break
        if target is None:
            break
        steps += 1
        if steps > max_steps:
            return NO_INSTANCE
        sub = induced_subgraph(g, target)
        res = balanced_clique_cut(sub.graph, k)
        if isinstance(res, NoInstance):
            return NO_INSTANCE
        z_local, k_local = res
        z = {sub.old_of[v] for v in z_local}
        kq = frozenset(sub.old_of[v] for v in k_local)
        cliques.append(kq)
        residue |= z - kq
        alive -= z
    dec = Decomposition(frozenset(alive), tuple(cliques), frozenset(residue))
    dec.validate(g)
    check(len(cliques) <= max(max_steps, 0), "decomposition used too many cuts")
    return dec


def approximate(
    g: Graph, k: int, tolerance: float = 1e-6, max_iters: int = 2000
) -> Union[NoInstance, frozenset[int]]:
    """Either conclude no-instance or return X with g - X chordal.

    Exact routing when k <= 1 or n > 2^(k log k), where the exact search
    runs in time polynomial in n; otherwise the LP pipeline: no-instance
    when |x| > 2k, then the 1/4 threshold, the decomposition, and the
    clique fold-back.
    """
    n = g.n
    if n <= 1:
        return frozenset()
    if k <= 1 or math.log2(n) > k * math.log2(k):
        res = exact_chvd(g, k)
        return NO_INSTANCE if res is None else frozenset(res.solution)
    x = solve_fractional(ChvdProblem(g), max_iters=max_iters,
                         tolerance=tolerance)
    if x.objective > 2 * k + 1e-6:
        return NO_INSTANCE
    solution: set[int] = {
        v for v in g.vertices() if at_least(x.value(v), 0.25)
    }
    work = induced_subgraph(g, set(g.vertices()) - solution)
    x_work = x.remapped(work.index)
    dec = decompose(work.graph, k)
    if isinstance(dec, NoInstance):
        return NO_INSTANCE
    solution |= {work.old_of[v] for v in dec.residue}
    part_a = set(dec.chordal_part)
    for kq in dec.cliques:
        scope = sorted(part_a | kq)
        scope_sub = induced_subgraph(work.graph, scope)
        new_of = scope_sub.index
        cut = chvd_clique_plus_chordal(
            scope_sub.graph,
            frozenset(new_of[v] for v in part_a),
            frozenset(new_of[v] for v in kq),
            x_work.remapped(new_of),
        )
        cut_orig = {scope_sub.old_of[v] for v in cut}
        solution |= {work.old_of[v] for v in cut_orig}
        part_a = (part_a | kq) - cut_orig
    final = induced_subgraph(g, set(g.vertices()) - solution)
    check(is_chordal(final.graph), "approximation output is not chordal")
    return frozenset(solution)
