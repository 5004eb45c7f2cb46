"""Directed vertex multicut engines.

Three layers: a minimum vertex cut (vertex-split max-flow), Skew Multicut
(recursive halving over the source order, cost |x| * ceil(log2(a+1))),
and Multicut in downward-oriented chordal graphs (threshold deletion,
chordal auxiliary graph, clique cover, then one min cut plus one skew
instance per clique).  Every layer works in the caller's vertex ids and
builds no digraph; the min cut builds no flow network either, only flow
tables, and its cut does not depend on the order of the search.  Every
returned set is re-verified as a multicut.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .graphs import (
    DiGraph,
    Graph,
    bfs,
    bfs_path,
    check,
    check_vertex_ids,
    dijkstra_vertex_weights,
    extract_path,
    split_residual_bfs,
)
from .chordal import CliqueTree, clique_cover_chordal, minimal_path
from .lp import FractionalSolution, MulticutInstance, at_least


@dataclass(frozen=True)
class SkewInstance:
    """Multicut with a staircase pair structure between two ordered lists.

    Pairs are (source, target) with source in ``tu`` and target in ``tv``;
    whenever (tu[i], tv[j]) is a pair, so is (tu[i'], tv[j']) for every
    i' >= i and j' <= j.
    """

    base: MulticutInstance
    tu: tuple[int, ...]
    tv: tuple[int, ...]

    def __post_init__(self):
        for name, ids in (("tu", self.tu), ("tv", self.tv)):
            unique = set(ids)
            if len(unique) < len(ids):
                raise ValueError(f"{name} repeats a vertex")
            check_vertex_ids(unique, self.base.d.n)
        iu = {u: i for i, u in enumerate(self.tu)}
        iv = {v: j for j, v in enumerate(self.tv)}
        rows: list[set[int]] = [set() for _ in self.tu]
        for u, v in self.base.terminals:
            if u not in iu or v not in iv:
                raise ValueError("terminal pair endpoints outside tu x tv")
            rows[iu[u]].add(iv[v])
        # closed iff each source's targets are a prefix of tv and the
        # prefixes never shrink down tu
        width = 0
        for row in rows:
            if len(row) < width or (row and max(row) >= len(row)):
                raise ValueError("pair family is not staircase-closed")
            width = len(row)


def min_vertex_cut(
    d: DiGraph,
    sources: Sequence[int],
    sinks: Sequence[int],
    deletable: Sequence[int],
    prefer_avoiding: Sequence[int] = (),
    alive: Optional[AbstractSet[int]] = None,
) -> frozenset[int]:
    """Minimum-cardinality deletable vertex set disconnecting sources from sinks.

    Vertex-split max-flow: v becomes v_in -> v_out with capacity
    ``unit`` = |alive| + 2 when deletable and ``inf`` = unit * (|alive| + 1),
    more than any deletable cut costs, otherwise.  The arcs of d, into
    the sources and out of the sinks are unbounded: no minimum cut
    crosses them, so a bound of ``inf`` on them would change no cut.
    Raises ValueError when no deletable cut exists (an all-undeletable
    path).

    ``prefer_avoiding`` is a soft secondary objective: among minimum
    cuts, one using the fewest listed vertices is returned (their
    capacity is unit + 1, so cardinality stays the primary criterion).

    ``alive`` (every vertex when None) restricts the problem to d[alive]:
    other vertices, and terminals among them, are ignored.  Raises
    ValueError on an alive id outside 0..n-1.

    No network is built.  The flow through each split arc and the flow on
    each used arc of d are the only tables, and ``split_residual_bfs``
    reads the residual arcs off ``d.out_neighbors`` and those tables
    directly, with no neighbours function between them.  Which
    augmenting paths it takes does not matter: after any maximum flow,
    the nodes reachable from the source in the residual network are the
    same set, the intersection of the source sides of all minimum cuts.
    So the cut, the flow value and the refusal are those of any other
    order of search, and the last search, which fails, visits exactly
    that set.  The cut iterates in ``alive`` order.

    d is a DiGraph or anything else with ``n`` and ``out_neighbors``.
    """
    if alive is None:
        alive = range(d.n)
    else:
        check_vertex_ids(alive, d.n)
    unit = len(alive) + 2
    inf = unit * (len(alive) + 1)
    avoid_set = set(prefer_avoiding)
    capacity = {v: unit + 1 if v in avoid_set else unit for v in deletable}
    # node 2v is v_in, 2v+1 is v_out.  through[v] is the flow on v's split
    # arc; carried[w][v] is the flow on arc v -> w of d while positive.
    through: dict[int, int] = {}
    carried: dict[int, dict[int, int]] = {}
    starts = [2 * s for s in set(sources).intersection(alive)]
    ends = {2 * t + 1 for t in set(sinks).intersection(alive)}
    flow = 0
    while True:
        prev, end = split_residual_bfs(d.out_neighbors, alive, capacity,
                                       inf, through, carried, starts, ends)
        if end is None:
            break
        path = extract_path(prev, end)
        steps = list(zip(path, path[1:]))
        # the least residual capacity of the split arcs and backward arcs
        bottleneck = inf
        for a, b in steps:
            v, w = a >> 1, b >> 1
            if v != w:
                if not a & 1:           # arc w -> v of d, backward
                    bottleneck = min(bottleneck, carried[v][w])
            elif b > a:                 # v's split arc, forward
                bottleneck = min(bottleneck,
                                 capacity.get(v, inf) - through.get(v, 0))
            else:                       # v's split arc, backward
                bottleneck = min(bottleneck, through[v])
        for a, b in steps:
            v, w = a >> 1, b >> 1
            if v != w:
                if a & 1:
                    into = carried.setdefault(w, {})
                    into[v] = into.get(v, 0) + bottleneck
                else:
                    into = carried[v]
                    into[w] -= bottleneck
                    if not into[w]:
                        del into[w]
            elif b > a:
                through[v] = through.get(v, 0) + bottleneck
            else:
                through[v] -= bottleneck
        flow += bottleneck
        if flow >= inf:
            raise ValueError(
                "sources and sinks cannot be separated by deletable vertices"
            )
    cut = frozenset(
        v for v in alive if 2 * v in prev and 2 * v + 1 not in prev
    )
    cost = sum(capacity.get(v, inf) for v in cut)
    check(cost == flow, "max-flow / min-cut mismatch")
    return cut


class _CopyView:
    """d plus an undeletable copy of every terminal, read-only.

    Copy n+i points into tu[i], and tv[j] points into copy n+a+j.  Copy
    ids are all >= n, so appending one to a neighbour tuple keeps it
    sorted, as a DiGraph would.
    """

    __slots__ = ("n", "out_neighbors", "in_neighbors")

    def __init__(self, d: DiGraph, tu: Sequence[int], tv: Sequence[int]):
        n, a = d.n, len(tu)
        out = [d.out_neighbors(v) for v in d.vertices()]
        into = [d.in_neighbors(v) for v in d.vertices()]
        for j, v in enumerate(tv):
            out[v] += (n + a + j,)
        for i, u in enumerate(tu):
            into[u] += (n + i,)
        out += [(u,) for u in tu] + [()] * len(tv)
        into += [()] * a + [(v,) for v in tv]
        self.n = len(out)
        self.out_neighbors = out.__getitem__
        self.in_neighbors = into.__getitem__


def skew_multicut(inst: SkewInstance, x: FractionalSolution) -> frozenset[int]:
    """Integral skew multicut of size at most |x| * ceil(log2(|tu| + 1)).

    The copy trick wires a fresh undeletable copy into every source and
    out of every target, so a cut always exists; originals (including the
    terminal lists themselves) stay deletable.  The copies live in a
    read-only view of d, so no digraph is built.

    Raises ValueError when x is infeasible, with a terminal path lighter
    than 1 - ``lp.FEASIBILITY_TOL`` (``inst.base.separate``); that is the
    only check of x.
    """
    if inst.base.separate(x):
        raise ValueError("fractional solution is infeasible for the instance")
    return _skew_cut(inst, x, inst.base.d.vertices())


def _skew_cut(inst: SkewInstance, x: FractionalSolution,
              alive: AbstractSet[int]) -> frozenset[int]:
    """``skew_multicut`` on d[alive], in d's ids, past its entry check:
    terminals outside alive drop out with their pairs, and the caller
    holds that x cuts each pair inside alive (``skew_multicut`` by
    separation, ``downward_multicut`` by its distance split).  The cut is
    checked as a multicut of d[alive] within the log bound.
    """
    d = inst.base.d
    n = d.n
    tu = [u for u in inst.tu if u in alive]
    tv = [v for v in inst.tv if v in alive]
    a = len(tu)
    view = _CopyView(d, tu, tv)
    iu = {u: i for i, u in enumerate(tu)}
    iv = {v: j for j, v in enumerate(tv)}
    index_pairs = [(iu[u], iv[v]) for u, v in inst.base.terminals
                   if u in iu and v in iv]
    terminals = set(tu) | set(tv)

    def src_copy(i: int) -> int:
        return n + i

    def dst_copy(j: int) -> int:
        return n + a + j

    def recurse(alive: set[int], active: list[tuple[int, int]]) -> frozenset[int]:
        # one search per source copy: a pair is live iff its target copy
        # is reached
        reach = functools.cache(
            lambda i: bfs(view.out_neighbors, [src_copy(i)], alive)[0])
        live = [(i, j) for i, j in active if dst_copy(j) in reach(i)]
        if not live:
            return frozenset()
        sources = sorted({i for i, _ in live})
        originals = [v for v in alive if v < n]
        terminal_members = terminals & alive
        if len(sources) == 1:
            i = sources[0]
            sinks = {dst_copy(j) for _, j in live}
            return min_vertex_cut(view, [src_copy(i)], sinks, originals,
                                  terminal_members, alive=alive)
        mid = sources[len(sources) // 2]
        # largest target index over live pairs with source index <= mid:
        # staircase closure then pairs (i >= mid, j <= j_max) with the whole
        # original family, which is what the cut's LP bound needs
        j_max = max(j for i, j in live if i <= mid)
        tv1 = {dst_copy(j) for _, j in live if j <= j_max}
        tu2 = {src_copy(i) for i in sources if i >= mid}
        x0 = min_vertex_cut(view, tu2, tv1, originals, terminal_members,
                            alive=alive)
        alive2 = alive - x0
        a1 = set(bfs(view.in_neighbors, sorted(tv1 & alive2), alive2)[0])
        a2 = set(bfs(view.out_neighbors, sorted(tu2 & alive2), alive2)[0])
        check(not (a1 & a2), "reachability sides intersect after the cut")
        pairs1 = [(i, j) for i, j in live if i < mid]
        pairs2 = [(i, j) for i, j in live if i > mid and j > j_max]
        return x0 | recurse(a1, pairs1) | recurse(a2, pairs2)

    kept = set(alive)
    solution = recurse(kept.union(range(n, view.n)), index_pairs)
    check(solution <= kept, "skew solution leaves d[alive]")
    dead = set(d.vertices()) - kept
    check(inst.base.is_multicut(solution | dead),
          "skew solution is not a multicut")
    bound = x.objective * math.ceil(math.log2(a + 1)) if a else 0.0
    check(len(solution) <= bound + 1e-6, "skew solution exceeds the log bound")
    return solution


@dataclass(frozen=True)
class DownwardInstance:
    """A chordal graph oriented along a total order extending clique-tree
    ancestry, plus terminal pairs for the multicut."""

    g: Graph
    tree: CliqueTree
    order: tuple[int, ...]          # the tree's vertices, by the total order
    digraph: DiGraph
    terminals: tuple[tuple[int, int], ...] = ()

    def rank(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    def with_terminals(self, terminals) -> "DownwardInstance":
        return DownwardInstance(
            self.g, self.tree, self.order, self.digraph, tuple(terminals)
        )


def build_downward(g: Graph, tree: CliqueTree) -> DownwardInstance:
    """Orient g[S], S the union of the tree's bags, downward in g's ids:
    from lower to higher rank by top-node depth, then id, so acyclic."""
    vertices = frozenset().union(*tree.bags)
    order = sorted(vertices, key=lambda v: (tree.depth(tree.top(v)), v))
    rank = {v: i for i, v in enumerate(order)}
    arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges()
            if u in rank and v in rank]
    return DownwardInstance(g, tree, tuple(order), DiGraph(g.n, arcs))


def dist_from(d: DiGraph, x: FractionalSolution,
              source: int) -> dict[int, float]:
    """Vertex-weighted distances from one source, endpoints included."""
    weights = [x.value(v) for v in d.vertices()]
    return dijkstra_vertex_weights(d.out_neighbors, source, weights)[0]


def downward_multicut(
    inst: DownwardInstance, x: FractionalSolution
) -> frozenset[int]:
    """Integral multicut for a downward-oriented chordal instance.

    Stages: delete heavy vertices (x >= 1/8); build the auxiliary chordal
    graph H on surviving pairs via tree-interval overlap; cover H by
    cliques; per clique split pairs at fractional distance 1/2 from the
    shared bag and solve one min cut plus one skew multicut.  Vertices
    outside ``inst.order`` have no arc and are never deleted.

    Raises ValueError when x is infeasible, with a terminal path lighter
    than 1 - ``lp.FEASIBILITY_TOL``; the skew stages take 2x as it is.

    The entry check and the construction imply these facts, which are
    not checked again.  A live pair (u, v) has a u -> v path of alive
    vertices, each with x < 1/8, and ranks rise along it.
    - Its interval, the nodes strictly inside its minimal tree path, is
      not empty: else u and v share a bag, or the path's two nodes are
      adjacent and the live path crosses their adhesion at some w.  The
      path u -> v or u -> w -> v then weighs under 3/8, which the entry
      check refuses.
    - H is chordal, as an intersection graph of subtrees of a tree
      (Gavril 1974), and the pairs of each of its cliques share a tree
      node (the Helly property of subtrees).
    - That node lies inside each member's interval, so its bag separates
      u from v and holds neither: the live path crosses it at an alive w
      with rank[w] > rank[u], and beta_p is not empty.
    Kept are the lemma's checks: disjoint cores for pairs not adjacent in
    H, at most 2|x| cliques, the distance split, the down pairs' distance
    from the bag, the min cut's 2|x| bound and the multicut certificate.
    """
    d = inst.digraph
    base = MulticutInstance(d, inst.terminals)
    if base.separate(x):
        raise ValueError("fractional solution is infeasible for the instance")
    rank = inst.rank()
    weights = [x.value(v) for v in d.vertices()]
    x0 = {v for v in inst.order if at_least(weights[v], 1.0 / 8)}
    solution: set[int] = set(x0)

    alive = set(inst.order) - x0
    # alive is fixed from here on, so each source's distances are computed
    # once; every source is alive.  Every distance read below is compared
    # with 1/2 or clipped at 1, so the searches stop at 1: entries below it
    # are exact, and every other entry, or a missing one, is at least 1.
    dist = functools.cache(lambda source: dijkstra_vertex_weights(
        d.out_neighbors, source, weights, allowed=alive, cutoff=1.0)[0])
    live_pairs = []
    cores: dict[tuple[int, int], frozenset[int]] = {}
    for u, v in base.terminals:
        path = bfs_path(d.out_neighbors, [u], {v}, alive)
        if path is not None:
            live_pairs.append((u, v))
            cores[(u, v)] = frozenset(path[2:-2])
    if not live_pairs:
        check(base.is_multicut(solution), "threshold deletion missed a pair")
        return frozenset(solution)

    tree = inst.tree
    intervals = {(u, v): frozenset(minimal_path(tree, u, v)[1:-1])
                 for u, v in live_pairs}
    hn = len(live_pairs)
    h = Graph(hn, [
        (i, j)
        for i in range(hn)
        for j in range(i + 1, hn)
        if intervals[live_pairs[i]] & intervals[live_pairs[j]]
    ])
    cover = clique_cover_chordal(h)
    for i in range(hn):
        for j in range(i + 1, hn):
            if not h.has_edge(i, j):
                check(not (cores[live_pairs[i]] & cores[live_pairs[j]]),
                      "non-adjacent pairs share shortest-path cores")

    check(len(cover) <= max(1.0, 2 * x.objective + 1e-6),
          "clique cover needs at least 2|x| parts")
    # the skew stage's weights: 2x on the alive vertices, in id order.
    # Each skew pair (w, v) has w in the beta_p of a down pair with target
    # v, so its paths weigh at least 2 * dv >= 1 - 2e-6 under them (the
    # check below): the skew stage takes them without separating again.
    x_local = FractionalSolution({v: 2 * x.value(v) for v in sorted(alive)})

    for part in sorted(cover, key=sorted):
        members = [live_pairs[i] for i in sorted(part)]
        s_node = min(frozenset.intersection(*(intervals[p] for p in members)))
        bag_alive = sorted(w for w in tree.bags[s_node] if w in alive)
        up: list[tuple[int, int]] = []
        down: list[tuple[int, int, list[int]]] = []
        for u, v in members:
            du_map = dist(u)
            du = min((du_map.get(w, float("inf")) for w in bag_alive),
                     default=float("inf"))
            beta_p = sorted(
                (w for w in bag_alive if rank[u] <= rank[w]),
                key=lambda w: rank[w],
            )
            dv = float("inf")
            for w in beta_p:
                dv = min(dv, dist(w).get(v, float("inf")))
            check(min(du, 1.0) + min(dv, 1.0) >= 1.0 - 1e-6,
                  "distance split claim fails")
            if at_least(du, 0.5):
                up.append((u, v))
            else:
                check(dv >= 0.5 - 1e-6, "downward pair too close to its bag")
                down.append((u, v, beta_p))
        if up:
            cut = min_vertex_cut(d, [u for u, _ in up], bag_alive, alive,
                                 alive=alive)
            check(len(cut) <= 2 * x.objective + 1e-6,
                  "upward min cut exceeds twice the fractional mass")
            solution |= cut
        if down:
            tu = sorted(bag_alive, key=lambda w: rank[w])
            ordered = sorted(down, key=lambda item: (rank[item[0]], rank[item[1]]))
            seen_targets = set()
            tv = []
            skew_pairs = []
            for u, v, beta_p in ordered:
                if v in seen_targets:
                    continue
                seen_targets.add(v)
                tv.append(v)
                skew_pairs.extend((w, v) for w in beta_p)
            skew = SkewInstance(MulticutInstance(d, tuple(skew_pairs)),
                                tuple(tu), tuple(tv))
            solution |= _skew_cut(skew, x_local, alive)

    check(base.is_multicut(solution), "assembled set is not a multicut")
    return frozenset(solution)
