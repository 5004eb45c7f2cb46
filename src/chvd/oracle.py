"""Exact desk-scale solvers: ChVD and directed multicut.

These are the ground truth for every equivalence and ratio test.
``exact_chvd(g, k, forced, forbidden)`` is the one ChVD solver: its
options cover annotated ChVD (forced pairs to hit) and deletion sets that
avoid given vertices.  Both solvers run one search that branches on the
vertices of a shortest set still to hit: a hole, a forced pair, or a
surviving terminal path.  Every set found is kept in a pool for the whole
search, and a new search runs only when no pooled set survives the
deletions.  A greedy packing of vertex-disjoint surviving sets is a lower
bound that prunes, and a memo on the deleted set avoids re-exploring
permutations of the same deletions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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
    memo per budget and a node budget enforced while the search runs.
    find(deleted) returns a set that deleted does not hit yet, in branching
    order, or None when deleted hits every set."""

    def __init__(self,
                 find: Callable[[frozenset[int]], Optional[tuple[int, ...]]],
                 node_budget: int,
                 pool: Iterable[tuple[int, ...]] = (),
                 forbidden: Iterable[int] = ()):
        self.find = find
        self.node_budget = node_budget
        self.nodes = 0
        self.seen: dict[frozenset[int], int] = {}
        self.pool = list(pool)
        self.forbidden = frozenset(forbidden)

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


def _exact_chvd(g: Graph, k: int, forced: Iterable[tuple[int, int]],
                forbidden: Iterable[int],
                node_budget: int) -> Optional[ExactResult]:
    def find(deleted: frozenset[int]) -> Optional[tuple[int, ...]]:
        hole = shortest_hole_avoiding(g, deleted)
        return None if hole is None else hole.vertices

    return _Search(find, node_budget, forced, forbidden).minimum(k)


def exact_chvd(
    g: Graph,
    k: int,
    forced: Iterable[tuple[int, int]] = (),
    forbidden: Iterable[int] = (),
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """Minimum chordal deletion set of size <= k, or None (no solution within k).

    Every forced pair must lose at least one endpoint, and no forbidden
    vertex is deleted.  Optimality is certified by trying budgets 0..k in
    order; the first success is a minimum.  Raises SearchBudgetExceeded as
    soon as the search explores more than ``node_budget`` nodes.
    """
    return _exact_chvd(g, k, forced, forbidden, node_budget)


def exact_chvd_forced(
    g: Graph,
    k: int,
    forced_pairs: Iterable[tuple[int, int]] = (),
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """exact_chvd(g, k, forced_pairs) under the name that perfbench calls
    and traces.  It shares exact_chvd's body instead of calling it, so a
    traced call records one span, not two nested ones."""
    return _exact_chvd(g, k, forced_pairs, (), node_budget)


def exact_multicut(
    d: DiGraph, pairs: list[tuple[int, int]], k: int,
    node_budget: int = 2_000_000,
) -> Optional[ExactResult]:
    """Minimum vertex multicut of size <= k (terminals deletable), or None."""
    pairs = list(pairs)

    def find(deleted: frozenset[int]) -> Optional[tuple[int, ...]]:
        paths = [di_bfs_path(d, [s], [t], removed=deleted) for s, t in pairs]
        path = min((p for p in paths if p is not None), key=len, default=None)
        if path is None:
            return None
        # terminals are deletable, but internal vertices usually cut more
        return tuple(path[1:-1] + [path[0], path[-1]])

    return _Search(find, node_budget).minimum(k)
