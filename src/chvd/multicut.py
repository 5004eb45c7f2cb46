"""Directed vertex multicut engines.

Three layers: a minimum vertex cut (vertex-split max-flow), Skew Multicut
(recursive halving over the source order, cost |x| * ceil(log2(a+1))),
and Multicut in downward-oriented chordal graphs (threshold deletion,
chordal auxiliary graph, clique cover, then one min cut plus one skew
instance per clique).  Every layer works in the caller's vertex ids on
the caller's digraph, restricted to a set of alive vertices, and builds
no digraph; every alive vertex is deletable, terminals included.  The
min cut builds no flow network either, only flow tables, which its
residual search reads, and its cut does not depend on the order of the
search.  Every returned set is re-verified as a multicut.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet, Callable, Container, Iterable, Optional, Sequence,
)

from .graphs import (
    DiGraph,
    Graph,
    bfs,
    bfs_path,
    check,
    check_vertex_ids,
    dijkstra_vertex_weights,
    extract_path,
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
    alive: AbstractSet[int],
    prefer_avoiding: Sequence[int] = (),
) -> frozenset[int]:
    """Minimum-cardinality set of alive vertices disconnecting sources
    from sinks in d[alive].

    Vertex-split max-flow: each alive v becomes v_in -> v_out with
    capacity ``unit`` = |alive| + 2.  Other vertices, and terminals among
    them, are ignored.  A cut may take a terminal: every path from a
    source starts on its split arc and every path to a sink ends on its
    split arc.  The arcs of d, into the sources and out of the sinks are
    unbounded, so a cut is a set of split arcs.  Raises ValueError on an
    alive id outside 0..n-1.

    ``prefer_avoiding`` is a soft secondary objective: among minimum
    cuts, one using the fewest listed vertices is returned.  Their
    capacity is unit + 1; a cut of k vertices, a of them listed, costs
    k * unit + a, and a <= k <= |alive| < unit, so cardinality stays the
    primary criterion.

    No network is built.  The flow through each split arc and the flow on
    each used arc of d are the only tables, and ``_split_residual_bfs``
    reads the residual arcs off ``d.out_neighbors`` and those tables
    directly, with no neighbours function between them.  Which
    augmenting paths it takes does not matter: after any maximum flow,
    the nodes reachable from the source in the residual network are the
    same set, the intersection of the source sides of all minimum cuts.
    So the cut and the flow value are those of any other order of
    search, and the last search, which fails, visits exactly that set.
    The cut iterates in ``alive`` order.

    d is a DiGraph or anything else with ``n`` and ``out_neighbors``.
    """
    check_vertex_ids(alive, d.n)
    unit = len(alive) + 2
    avoid_set = set(prefer_avoiding)
    capacity = {v: unit + 1 if v in avoid_set else unit for v in alive}
    # node 2v is v_in, 2v+1 is v_out.  through[v] is the flow on v's split
    # arc; carried[w][v] is the flow on arc v -> w of d while positive.
    through: dict[int, int] = {}
    carried: dict[int, dict[int, int]] = {}
    starts = [2 * s for s in set(sources).intersection(alive)]
    ends = {2 * t + 1 for t in set(sinks).intersection(alive)}
    flow = 0
    while True:
        prev, end = _split_residual_bfs(d.out_neighbors, capacity, through,
                                        carried, starts, ends)
        if end is None:
            break
        path = extract_path(prev, end)
        steps = list(zip(path, path[1:]))
        # the least residual capacity of the split arcs and backward arcs;
        # the path ends along the end's split arc
        t = end >> 1
        bottleneck = capacity[t] - through.get(t, 0)
        for a, b in steps:
            v, w = a >> 1, b >> 1
            if v != w:
                if not a & 1:           # arc w -> v of d, backward
                    bottleneck = min(bottleneck, carried[v][w])
            elif b > a:                 # v's split arc, forward
                bottleneck = min(bottleneck, capacity[v] - through.get(v, 0))
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
    cut = frozenset(
        v for v in alive if 2 * v in prev and 2 * v + 1 not in prev
    )
    check(sum(capacity[v] for v in cut) == flow, "max-flow / min-cut mismatch")
    return cut


def _split_residual_bfs(
    out_neighbors: Callable[[int], Iterable[int]],
    capacity: dict[int, int],
    through: dict[int, int],
    carried: dict[int, dict[int, int]],
    starts: Iterable[int],
    ends: Container[int],
) -> tuple[dict[int, int], Optional[int]]:
    """``bfs`` over the residual network of ``min_vertex_cut``'s flow,
    read off its flow tables instead of a neighbours function.

    Node 2v is v_in and 2v+1 is v_out.  The alive vertices are the keys
    of ``capacity``: each alive v has its split arc v_in -> v_out, of
    capacity ``capacity[v]``, and each arc v -> w of ``out_neighbors``
    between alive vertices is an unbounded arc v_out -> w_in.
    ``through[v]`` is the flow on v's split arc and ``carried[w][v]`` the
    flow on arc v -> w while positive; absent entries are 0.  The
    residual arcs of a node, in the order the search takes them: out of
    v_out, the arcs of d to alive w, then back along v's split arc if it
    carries flow; out of v_in, along v's split arc if it has room, then
    back along each arc u -> v that carries flow, in ``carried[v]``
    order.

    ``starts`` are in-nodes and ``ends`` out-nodes, and no flow leaves
    an end: a flow pushed along the paths this search returns stops at
    the first end it meets.  So an end is reached along its split arc
    only, and only there is it looked for.  Returns what ``bfs`` returns:
    the predecessor map, in discovery order, with every start its own
    predecessor, and the first end discovered, or None.  The search stops
    at that end.
    """
    prev: dict[int, int] = {}
    queue: deque[int] = deque()
    for a in starts:
        if a not in prev:
            prev[a] = a
            queue.append(a)
    pop, push = queue.popleft, queue.append
    while queue:
        a = pop()
        v = a >> 1
        if a & 1:
            for w in out_neighbors(v):
                b = 2 * w
                if b not in prev and w in capacity:
                    prev[b] = a
                    push(b)
            if through.get(v) and a - 1 not in prev:
                prev[a - 1] = a
                push(a - 1)
        else:
            if a + 1 not in prev and through.get(v, 0) < capacity[v]:
                prev[a + 1] = a
                if a + 1 in ends:
                    return prev, a + 1
                push(a + 1)
            for u in carried.get(v, ()):
                b = 2 * u + 1
                if b not in prev:
                    prev[b] = a
                    push(b)
    return prev, None


def skew_multicut(inst: SkewInstance, x: FractionalSolution) -> frozenset[int]:
    """Integral skew multicut of size at most |x| * ceil(log2(|tu| + 1)).

    Every vertex stays deletable, the terminal lists too.  Among the
    minimum cuts of each step, one with the fewest terminals is taken.

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

    Each step cuts d itself, from sources tu[i] to targets tv[j], and a
    cut may take a terminal.  This is the cut of the copy trick, which
    wires an undeletable copy into every source and out of every target:
    a terminal's split arc lies on every path from or to it, so it costs
    ``unit`` to cut, as the copy's only neighbour did.  The costs of the
    cuts are the same, so is the order ``prefer_avoiding`` puts on them
    (fewest vertices, then fewest terminals), and the minimum cut with
    the least source side is the same set.

    Both halves recurse on alive - x0, where the paper confines the
    first to a1, the vertices that reach tv1, and the second to a2, those
    reached from tu2; the cuts are the same.  A half's active pairs are
    the staircase pairs of an index box live at every step above it, so
    (closure, and alive only shrinks) a path between its sources and
    sinks is a path of an active pair: it ends in tv1 (first half) or
    starts in tu2 (second), so it lies in a1 (a2).  On alive - x0 a half
    sees the same live pairs, split, sources and sinks, and the same R,
    the vertices reached from its sources that reach its sinks.  A vertex
    outside R is never in a ``min_vertex_cut`` cut: dropping it leaves a
    cheaper cut.  ``unit`` = |alive| + 2 only rescales the order (cut
    size, avoided terminals) while it exceeds |R|, and a cut's source
    side, restricted to R, is the same on both alive sets: the minimum
    cut with the least source side is the same set, at every depth.
    """
    d = inst.base.d
    tu = [u for u in inst.tu if u in alive]
    tv = [v for v in inst.tv if v in alive]
    iu = {u: i for i, u in enumerate(tu)}
    iv = {v: j for j, v in enumerate(tv)}
    index_pairs = [(iu[u], iv[v]) for u, v in inst.base.terminals
                   if u in iu and v in iv]
    terminals = set(tu) | set(tv)

    def recurse(alive: set[int], active: list[tuple[int, int]]) -> frozenset[int]:
        # one search per source: a pair is live iff its target is reached
        reach = functools.cache(
            lambda i: bfs(d.out_neighbors, [tu[i]], alive)[0])
        live = [(i, j) for i, j in active if tv[j] in reach(i)]
        if not live:
            return frozenset()
        sources = sorted({i for i, _ in live})
        if len(sources) == 1:
            sinks = {tv[j] for _, j in live}
            return min_vertex_cut(d, [tu[sources[0]]], sinks, alive,
                                  terminals)
        mid = sources[len(sources) // 2]
        # largest target index over live pairs with source index <= mid:
        # staircase closure then pairs (i >= mid, j <= j_max) with the whole
        # original family, which is what the cut's LP bound needs
        j_max = max(j for i, j in live if i <= mid)
        tv1 = {tv[j] for _, j in live if j <= j_max}
        tu2 = {tu[i] for i in sources if i >= mid}
        x0 = min_vertex_cut(d, tu2, tv1, alive, terminals)
        alive2 = alive - x0
        pairs1 = [(i, j) for i, j in live if i < mid]
        pairs2 = [(i, j) for i, j in live if i > mid and j > j_max]
        return x0 | recurse(alive2, pairs1) | recurse(alive2, pairs2)

    solution = recurse(set(alive), index_pairs)
    dead = set(d.vertices()).difference(alive)
    check(inst.base.is_multicut(solution | dead),
          "skew solution is not a multicut")
    a = len(tu)
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
            cut = min_vertex_cut(d, [u for u, _ in up], bag_alive, alive)
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
