"""The poly(opt) approximation pipeline.

Stages: fractional solve, heavy-vertex deletion (x >= 1/4, which also
makes the graph C4-free), balanced clique-plus-cut decomposition, then
folding the cliques back one at a time through the clique-plus-chordal
special case whose engine is the downward-oriented multicut.  Each of
these stages runs on the vertices that lie on some hole (``ChvdProblem``'s
variables, from ``chordal.hole_vertices``), in g's own ids: the other
vertices are on no hole, so g less a set X is chordal exactly when those
vertices less X induce a chordal graph.  Instances with k <= 1 or
n > 2^(k log k), for the input's n, go to the exact solver instead: that
is the original algorithm's guard for when its FPT running time is
polynomial in n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Optional, Union

from .graphs import Graph, check, components_within, \
    dijkstra_vertex_weights, is_clique
from .chordal import (
    CliqueTree,
    central_bag,
    clique_tree_of,
    find_hole_through,
    is_chordal,
    maximal_cliques,
)
from .lp import ChvdProblem, FractionalSolution, at_least, check_lp_options, \
    solve_fractional
from .multicut import build_downward, downward_multicut
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

    def validate(self, g: Graph, vertices: AbstractSet[int]) -> None:
        """InvariantError unless the parts partition ``vertices`` and the
        cliques are complete; ``decompose`` certified the chordal part."""
        parts = [self.chordal_part, *self.cliques, self.residue]
        union: set[int] = set()
        for p in parts:
            check(not (union & p), "decomposition parts overlap")
            union |= p
        check(union == vertices, "decomposition misses vertices")
        for kq in self.cliques:
            check(is_clique(g, kq), "clique part is not complete")


def hit_holes_through(
    g: Graph,
    tree: CliqueTree,
    part_b: frozenset[int],
    clique_l: frozenset[int],
    x: FractionalSolution,
) -> frozenset[int]:
    """A set X such that g[A + B] - X has no hole through the clique L,
    where ``tree`` is a clique tree of g[A] and A the union of its bags.

    Unchecked preconditions, which ``chvd_clique_plus_chordal`` builds:
    g[B] complete, L a bag of the tree, x zero on B and below 1/10 on A.
    The terminal set pairs u with each v that u reaches at fractional
    distance >= 1/10 in the downward orientation rooted at L, and 10x is
    a fractional solution for it.  A v that u does not reach would make a
    pair that no set needs to cut, so it is left out.
    """
    part_a = frozenset().union(*tree.bags)
    scope = part_a | part_b
    if all(find_hole_through(g, w, scope) is None for w in sorted(clique_l)):
        return frozenset()
    inst = build_downward(g, tree.reroot(tree.first_bag_containing(clique_l)))
    # the digraph has arcs only inside A, so every search stays there
    d = inst.digraph
    weights = [x.value(v) for v in d.vertices()]
    pairs = []
    for u in sorted(part_a):
        dist = dijkstra_vertex_weights(d.out_neighbors, u, weights)[0]
        pairs += [(u, v) for v in sorted(dist)
                  if v != u and at_least(dist[v], 0.1)]
    x10 = FractionalSolution(
        {v: 10.0 * w for v, w in x.values.items() if v in part_a})
    result = downward_multicut(inst.with_terminals(pairs), x10)
    for w in sorted(clique_l - result):
        check(find_hole_through(g, w, scope - result) is None,
              "a hole through L survived the multicut")
    return result


def chvd_clique_plus_chordal(
    g: Graph,
    part_a: frozenset[int],
    part_b: frozenset[int],
    x: FractionalSolution,
) -> frozenset[int]:
    """ChVD solution for g[A + B], with A inducing a chordal graph and B
    a complete one.

    Deletes the x >= 1/20 vertices, doubles the remaining weights on A,
    then repeatedly splits the heaviest component at a weight-central
    bag L of its clique tree, built once and handed on with L to
    ``hit_holes_through``, until every component is lighter than one.
    The returned set leaves g[A + B] chordal (verified).
    """
    solution: set[int] = {
        v for v in part_a | part_b if at_least(x.value(v), 1.0 / 20)
    }
    alive_a = set(part_a) - solution
    alive_b = part_b - solution
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
        tree = clique_tree_of(g, heaviest)
        clique_l = central_bag(g, tree, x2.values)
        cut = hit_holes_through(g, tree, alive_b, clique_l, x2)
        solution |= cut
        alive_a -= cut
        alive_a -= clique_l
    check(is_chordal(g, (part_a | part_b) - solution),
          "clique-plus-chordal output is not chordal")
    return frozenset(solution)


def _balanced_cut_greedy(g: Graph, rest: AbstractSet[int], limit: float,
                         budget: int) -> Optional[set[int]]:
    removed: set[int] = set()
    while len(removed) <= budget:
        comps = components_within(g, rest - removed)
        big = [c for c in comps if len(c) > limit]
        if not big:
            return removed
        target = max(big, key=len)
        pick = max(sorted(target), key=lambda v: len(g.neighbor_set(v) & rest))
        removed.add(pick)
    return None


def balanced_clique_cut(
    g: Graph, k: int, vertices: AbstractSet[int]
) -> Union[NoInstance, tuple[frozenset[int], frozenset[int]]]:
    """A set Z and clique K inside it with components of g[vertices] - Z
    at most 3n/4, where n = |vertices|.

    Each of its three routes proves the 3/4, which is not checked again.
    A clique K of size >= n/4 alone suffices: it leaves <= 3n/4 vertices
    all.  Otherwise every maximal clique K is tried with a greedy balanced
    vertex cut of g[vertices] - K within budget k, which leaves no
    component above 2/3 of g[vertices] - K, and the smallest cut wins.
    The greedy cut can miss one, so when no clique has a cut the exact
    oracle decides: opt > k on g[vertices] is NoInstance, and otherwise
    its solution X and a central bag K of the chordal g[vertices] - X
    give Z = K + X, which leaves no component above (n - |X|)/2
    (``central_bag`` raises InvariantError when no bag does).
    SearchBudgetExceeded comes only from the oracle.
    """
    n = len(vertices)
    if n == 0:
        return frozenset(), frozenset()
    cliques = maximal_cliques(g, vertices)
    big = [c for c in cliques if 4 * len(c) >= n]
    if big:
        best = max(big, key=lambda c: (len(c), sorted(c)))
        return frozenset(best), frozenset(best)
    found = []
    for clique in cliques:
        rest = vertices - clique
        cut = _balanced_cut_greedy(g, rest, 2.0 * len(rest) / 3.0, k)
        if cut is not None:
            found.append((clique, cut))
    if found:
        # the smallest cut, from the earliest clique on a tie
        clique, cut = min(found, key=lambda pair: len(pair[1]))
    else:
        # g[vertices] in g's ids: every other vertex is isolated, on no hole
        within = Graph(g.n, [(u, v) for u, v in g.edges()
                             if u in vertices and v in vertices])
        res = exact_chvd(within, k)
        if res is None:
            return NO_INSTANCE
        cut = res.solution
        chordal = vertices - cut
        clique = central_bag(g, clique_tree_of(g, chordal),
                             {v: 1.0 for v in chordal})
    return frozenset(clique) | cut, frozenset(clique)


def decompose(
    g: Graph, k: int, vertices: AbstractSet[int]
) -> Union[NoInstance, Decomposition]:
    """Repeated balanced clique cuts on the non-chordal components of
    g[vertices].

    Charges one step per cut and aborts as NoInstance past ``max_steps``,
    n = |vertices|.  That many suffice on a yes-instance, where every cut
    succeeds: ``balanced_clique_cut`` says no only when the exact oracle
    finds opt > k on its target, a subgraph of g[vertices].  The
    targets among g[vertices]'s own components are generation 0; the
    components that a cut of a generation-i target leaves are generation
    i + 1, until they are cut in turn.  The targets of one generation are
    disjoint and each holds a hole, which a solution must meet, so a
    generation has at most k targets.  A generation-i target has at most
    (3/4)^i n vertices (``balanced_clique_cut`` proves the 3/4 on each
    route) and a hole at least 4, so i <= log_{4/3}(n/4): at most
    k * (floor(log_{4/3}(n/4)) + 1) cuts in all.  The older bound
    k * log_{3/2} n is below it for some n >= 80 (11 against 12 cuts at
    n = 100, k = 1) and has no such proof, so ``max_steps`` takes the
    larger of the two.  Each cut adds one clique, so a decomposition has
    at most ``max_steps`` cliques.
    """
    n = len(vertices)
    alive = set(vertices)
    cliques: list[frozenset[int]] = []
    residue: set[int] = set()
    max_steps = 0 if n <= 1 else max(
        math.floor(k * math.log(n) / math.log(1.5)),
        k * (math.floor(math.log(n / 4) / math.log(4 / 3)) + 1))
    steps = 0
    while True:
        target = None
        for comp in components_within(g, alive):
            if not is_chordal(g, comp):
                target = comp
                break
        if target is None:
            break
        steps += 1
        if steps > max_steps:
            return NO_INSTANCE
        res = balanced_clique_cut(g, k, target)
        if isinstance(res, NoInstance):
            return NO_INSTANCE
        z, kq = res
        cliques.append(kq)
        residue |= z - kq
        alive -= z
    dec = Decomposition(frozenset(alive), tuple(cliques), frozenset(residue))
    dec.validate(g, vertices)
    return dec


def approximate(
    g: Graph, k: int, max_iters: int = 2000
) -> Union[NoInstance, frozenset[int]]:
    """Either conclude no-instance or return X with g - X chordal.

    A negative budget is a no-instance.  Exact routing when k <= 1 or
    n > 2^(k log k), where the exact search runs in time polynomial in n;
    otherwise the LP pipeline on H, the vertices that lie on some hole:
    the empty set when H is empty; otherwise no-instance when |x| > 2k,
    then the 1/4 threshold on H, the decomposition of what is left of H,
    and the clique fold-back.  Every hole of g lies in H, so a set that
    leaves g[H] chordal leaves g chordal.  The LP's x is feasible up to
    ``lp.FEASIBILITY_TOL``, its one tolerance.  Raises ValueError unless
    max_iters >= 1, on every route; CuttingPlaneCapExceeded when the LP
    runs max_iters cutting-plane rounds without converging; and
    SearchBudgetExceeded when the exact search runs past its node budget,
    on the exact route or in a balanced cut of the decomposition.
    """
    check_lp_options(max_iters)
    if k < 0:
        return NO_INSTANCE
    n = g.n
    if n <= 1:
        return frozenset()
    if k <= 1 or math.log2(n) > k * math.log2(k):
        res = exact_chvd(g, k)
        return NO_INSTANCE if res is None else frozenset(res.solution)
    problem = ChvdProblem(g)
    holes = problem.vertices
    if not holes:
        return frozenset()
    x = solve_fractional(problem, max_iters=max_iters)
    if x.objective > 2 * k + 1e-6:
        return NO_INSTANCE
    solution: set[int] = {v for v in holes if at_least(x.value(v), 0.25)}
    dec = decompose(g, k, set(holes) - solution)
    if isinstance(dec, NoInstance):
        return NO_INSTANCE
    solution |= dec.residue
    part_a = dec.chordal_part
    for kq in dec.cliques:
        cut = chvd_clique_plus_chordal(g, part_a, kq, x)
        solution |= cut
        part_a = (part_a | kq) - cut
    check(is_chordal(g, set(g.vertices()) - solution),
          "approximation output is not chordal")
    return frozenset(solution)
