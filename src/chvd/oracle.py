"""Exact desk-scale solvers: ChVD, annotated ChVD, and directed multicut.

These are the ground truth for every equivalence and ratio test.  The
solvers branch on the vertices of a shortest set still to hit: a hole, a
forced pair, or a surviving terminal path.  Every set found is kept in a
pool for the whole search, and a new search runs only when no pooled set
survives the deletions.  A greedy packing of vertex-disjoint surviving sets
is a lower bound that prunes, and a memo on the deleted set avoids
re-exploring permutations of the same deletions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import DiGraph, Graph, Hole, di_bfs_path, lightest_hole_through


@dataclass(frozen=True)
class ExactResult:
    """Optimum size, one optimal solution, and search statistics."""

    optimum: int
    solution: frozenset[int]
    nodes_explored: int


def shortest_hole_avoiding(g: Graph, deleted: frozenset[int]) -> Optional[Hole]:
    """A shortest hole of g - deleted (vertices kept in g's ids), in
    canonical form: the lightest hole under unit weights through each
    alive vertex in turn, each search bounded by the shortest so far."""
    alive = [v for v in g.vertices() if v not in deleted]
    best: Optional[Hole] = None
    length = math.inf
    for b in alive:
        found = lightest_hole_through(g, b, lambda _: 1, alive, length)
        if found is not None:
            best, length = found
    return best


class SearchBudgetExceeded(RuntimeError):
    """An exact search explored more nodes than its node budget allows."""

    def __init__(self, node_budget: int):
        super().__init__(
            f"exact search exceeded its node budget of {node_budget}")
        self.node_budget = node_budget


class _Search:
    """Depth-first branching over a pool of sets to hit, with a visited-set
    memo per budget and a node budget enforced while the search runs.  A
    subclass supplies find(deleted): a set that deleted does not hit yet, in
    branching order, or None when deleted hits every set."""

    def __init__(self, node_budget: int,
                 pool: Iterable[tuple[int, ...]] = (),
                 forbidden: frozenset[int] = frozenset()):
        self.node_budget = node_budget
        self.nodes = 0
        self.seen: dict[frozenset[int], int] = {}
        self.pool = list(pool)
        self.forbidden = forbidden

    def _visit(self, deleted: frozenset[int], budget: int) -> bool:
        """Count a new node; False if deleted was explored with this budget."""
        if self.seen.get(deleted, -1) >= budget:
            return False
        self.seen[deleted] = budget
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SearchBudgetExceeded(self.node_budget)
        return True

    def solve(self, deleted: frozenset[int], budget: int) -> Optional[frozenset[int]]:
        if not self._visit(deleted, budget):
            return None
        live = [s for s in self.pool if deleted.isdisjoint(s)]
        if not live:
            found = self.find(deleted)
            if found is None:
                return deleted
            self.pool.append(found)
            live = [found]
        if budget == 0:
            return None
        live.sort(key=len)
        packed: set[int] = set()
        disjoint = 0
        for s in live:
            if packed.isdisjoint(s):
                packed.update(s)
                disjoint += 1
                if disjoint > budget:
                    return None
        for v in live[0]:
            if v in self.forbidden:
                continue
            res = self.solve(deleted | {v}, budget - 1)
            if res is not None:
                return res
        return None

    def minimum(self, k: int) -> Optional[ExactResult]:
        """Try budgets 0..k in order; the first success is a minimum."""
        if k < 0:
            return None
        for budget in range(k + 1):
            res = self.solve(frozenset(), budget)
            if res is not None:
                return ExactResult(len(res), res, self.nodes)
        return None


class _Budgeted(_Search):
    """Hole branching, honouring forced pairs and forbidden vertices."""

    def __init__(self, g: Graph, node_budget: int,
                 forced_pairs: tuple[tuple[int, int], ...] = (),
                 forbidden: frozenset[int] = frozenset()):
        super().__init__(node_budget, forced_pairs, forbidden)
        self.g = g

    def find(self, deleted: frozenset[int]) -> Optional[tuple[int, ...]]:
        hole = shortest_hole_avoiding(self.g, deleted)
        return None if hole is None else hole.vertices


def exact_chvd(g: Graph, k: int, node_budget: int = 2_000_000) -> Optional[ExactResult]:
    """Minimum chordal deletion set of size <= k, or None (no solution within k).

    Optimality is certified by trying budgets 0..k in order; the first
    success is a minimum.  Raises SearchBudgetExceeded as soon as the
    search explores more than ``node_budget`` nodes.
    """
    return _Budgeted(g, node_budget).minimum(k)


def exact_chvd_avoiding(
    g: Graph, k: int, forbidden: Iterable[int],
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """Minimum hole-hitting set of size <= k avoiding the forbidden set."""
    return _Budgeted(g, node_budget,
                     forbidden=frozenset(forbidden)).minimum(k)


def exact_chvd_forced(
    g: Graph,
    k: int,
    forced_pairs: tuple[tuple[int, int], ...] = (),
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """Like exact_chvd with additional constraints: every forced pair must
    lose at least one endpoint."""
    return _Budgeted(g, node_budget, tuple(forced_pairs)).minimum(k)


class _MulticutBudgeted(_Search):
    """Terminal-path branching for directed multicut."""

    def __init__(self, d: DiGraph, pairs: list[tuple[int, int]],
                 node_budget: int):
        super().__init__(node_budget)
        self.d = d
        self.pairs = pairs

    def find(self, deleted: frozenset[int]) -> Optional[tuple[int, ...]]:
        paths = [di_bfs_path(self.d, [s], [t], removed=deleted)
                 for s, t in self.pairs]
        path = min((p for p in paths if p is not None), key=len, default=None)
        if path is None:
            return None
        # terminals are deletable, but internal vertices usually cut more
        return tuple(path[1:-1] + [path[0], path[-1]])


def exact_multicut(
    d: DiGraph, pairs: list[tuple[int, int]], k: int,
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """Minimum vertex multicut of size <= k (terminals deletable), or None."""
    return _MulticutBudgeted(d, list(pairs), node_budget).minimum(k)
