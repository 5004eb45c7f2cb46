"""Output checks that share no code with the chvd package.

Graphs arrive here as a vertex count plus an edge list and are held as
plain adjacency sets, so a fault in chvd's own graph types, chordality
test or search code cannot make a wrong answer look right.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_chordal(adj: Sequence[set[int]], removed: Iterable[int] = ()) -> bool:
    """Maximum cardinality search, then a perfect-elimination check.

    The reverse of an MCS visit order is a perfect elimination ordering
    exactly when the graph is chordal (Tarjan and Yannakakis).  For every
    vertex, its neighbours later in that ordering must all be adjacent to
    the earliest of them.
    """
    gone = set(removed)
    alive = [v for v in range(len(adj)) if v not in gone]
    if not alive:
        return True
    weight = {v: 0 for v in alive}
    buckets: list[set[int]] = [set(alive)]
    top = 0
    visit_pos: dict[int, int] = {}
    for pos in range(len(alive)):
        while not buckets[top]:
            top -= 1
        v = min(buckets[top])
        buckets[top].discard(v)
        visit_pos[v] = pos
        for w in adj[v]:
            if w in weight and w not in visit_pos:
                buckets[weight[w]].discard(w)
                weight[w] += 1
                if weight[w] == len(buckets):
                    buckets.append(set())
                buckets[weight[w]].add(w)
                top = max(top, weight[w])
    # Elimination position is the reverse of the visit position, so the
    # neighbours "later in the elimination order" were visited earlier.
    for v in alive:
        earlier = [w for w in adj[v] if w in visit_pos
                   and visit_pos[w] < visit_pos[v]]
        if len(earlier) < 2:
            continue
        parent = max(earlier, key=visit_pos.__getitem__)
        if any(w != parent and w not in adj[parent] for w in earlier):
            return False
    return True


def find_hole(adj: Sequence[set[int]], removed: Iterable[int] = (),
              shortest: bool = False) -> Optional[list[int]]:
    """A hole (chordless cycle of length >= 4) avoiding ``removed``.

    For a vertex v and a neighbour a, a breadth-first search from a that
    never enters N[v] except at its end points reaches the neighbours c of
    v; for c not adjacent to a, v, a, ..., c is a hole, because a shortest
    path in an induced subgraph is induced and v sees none of its inner
    vertices.  Every hole arises this way, so None means chordal.  With
    ``shortest`` the shortest hole is returned, else the first found.
    """
    gone = set(removed)
    best: Optional[list[int]] = None
    for v in range(len(adj)):
        if v in gone:
            continue
        nv = adj[v] - gone
        for a in sorted(nv):
            targets = nv - adj[a] - {a}
            if not targets:
                continue
            prev = {a: a}
            depth = {a: 0}
            queue = deque([a])
            hit = None
            while queue and hit is None:
                u = queue.popleft()
                # a hole through u has at least depth(u) + 3 vertices
                if best is not None and depth[u] + 3 >= len(best):
                    break
                for w in adj[u]:
                    if w in prev or w in gone or w == v:
                        continue
                    if w in nv:
                        if w in targets:
                            prev[w] = u
                            hit = w
                            break
                        continue
                    prev[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
            if hit is None:
                continue
            path = [hit]
            while path[-1] != a:
                path.append(prev[path[-1]])
            hole = [v] + path[::-1]
            if not shortest:
                return hole
            if best is None or len(hole) < len(best):
                best = hole
                if len(best) == 4:
                    return best
    return best


def is_hole(adj: Sequence[set[int]], cycle: Sequence[int]) -> bool:
    """Cycle of distinct vertices, length >= 4, with no chord."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = cycle[j] in adj[cycle[i]]
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def hole_packing(adj: Sequence[set[int]],
                 removed: Iterable[int] = ()) -> list[list[int]]:
    """Greedy vertex-disjoint holes, shortest first.

    Any solution deletes a vertex of each, so the count is a lower bound
    on the optimum.
    """
    used = set(removed)
    packing = []
    while True:
        hole = find_hole(adj, used, shortest=True)
        if hole is None:
            return packing
        packing.append(hole)
        used |= set(hole)


def hits_pairs(solution: set[int], pairs: Iterable[tuple[int, int]]) -> bool:
    return all(x in solution or y in solution for x, y in pairs)


def is_deletion_set(adj: Sequence[set[int]], solution: Iterable[int],
                    forced: Iterable[tuple[int, int]] = ()) -> bool:
    """G - X chordal and every forced pair loses an endpoint."""
    chosen = set(solution)
    return hits_pairs(chosen, forced) and is_chordal(adj, chosen)


def smaller_solution(adj: Sequence[set[int]], size: int,
                     forced: Sequence[tuple[int, int]] = ()) -> Optional[set[int]]:
    """A deletion set of at most ``size`` vertices, or None if none exists.

    Exhaustive search: every solution deletes an endpoint of each forced
    pair and a vertex of each hole, so branching over the endpoints of an
    unhit pair, else over the vertices of a hole, reaches every minimal
    solution within the size.  None is a proof that the optimum is above
    ``size``.
    """
    def search(chosen: frozenset[int], budget: int) -> Optional[set[int]]:
        unhit = next(((x, y) for x, y in forced
                      if x not in chosen and y not in chosen), None)
        if unhit is not None:
            branch = unhit
        else:
            hole = find_hole(adj, chosen, shortest=True)
            if hole is None:
                return set(chosen)
            branch = hole
        if budget == 0:
            return None
        for v in branch:
            found = search(chosen | {v}, budget - 1)
            if found is not None:
                return found
        return None

    if size < 0:
        return None
    return search(frozenset(), size)


def reachable(out_adj: Sequence[Sequence[int]], source: int,
              removed: set[int]) -> set[int]:
    """Vertices reachable from source along arcs, avoiding removed ones."""
    if source in removed:
        return set()
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in out_adj[u]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return seen


def cuts_all_pairs(n: int, arcs: Iterable[tuple[int, int]],
                   pairs: Iterable[tuple[int, int]], cut: Iterable[int]) -> bool:
    """No terminal pair (s, t) keeps a directed s-t path after the cut."""
    out_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out_adj[u].append(v)
    removed = set(cut)
    return all(t not in reachable(out_adj, s, removed) for s, t in pairs)
