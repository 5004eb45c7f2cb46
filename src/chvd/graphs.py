"""Core graph types: undirected graphs, directed graphs, and holes, with
the graph queries shared by every layer: the boundary N(S) - S of a
vertex set, the clique test, one breadth-first search and one path
search over any neighbours function, the same search over the residual
network of a vertex-split flow, one vertex-weighted search, maximum
cardinality search, and the lightest hole, through a vertex or in the
whole graph.

Vertices are dense integers 0..n-1.  Graphs are immutable after
construction; every mutating operation (vertex deletion, edge addition,
induced subgraph) returns a new object.  Deletions remap vertex ids, and
the remapping is always returned alongside the new graph so provenance
survives chains of reductions.  Renumbering happens only when a kernel
event is applied: every other layer works on g restricted to a vertex
set, in g's own ids.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from collections import deque
from functools import cached_property
from typing import (
    AbstractSet, Callable, Collection, Container, Iterable, Iterator,
    Optional, Sequence,
)


class InvariantError(AssertionError):
    """A runtime invariant promised by the library was violated."""


def check(condition: bool, message: str) -> None:
    """Raise InvariantError unless condition holds."""
    if not condition:
        raise InvariantError(message)


class Graph:
    """Simple undirected graph on vertex ids 0..n-1.

    Adjacency is stored as one sorted tuple per vertex, which gives
    deterministic iteration order (several marking rules depend on it).
    A parallel frozenset per vertex gives O(1) membership; the sets are
    built on the first membership query (``neighbor_set``, ``has_edge``,
    ``closed_neighborhood``), so graphs that are only emitted, compared
    or iterated never pay for them.
    """

    __slots__ = ("_adj", "_adjset", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self._m = m

    def _build_sets(self) -> tuple[frozenset[int], ...]:
        # frozenset(set(...)) sizes the hash tables like the set it copies,
        # smaller than a frozenset built straight from a tuple.
        self._adjset = tuple(frozenset(set(a)) for a in self._adj)
        return self._adjset

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        try:
            return self._adjset[v]
        except AttributeError:
            return self._build_sets()[v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.neighbor_set(v) | {v}

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        try:
            return v in self._adjset[u]
        except AttributeError:
            return v in self._build_sets()[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def add_edges(self, new_edges: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n, list(self.edges()) + list(new_edges))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Subgraph:
    """An induced subgraph of a Graph, with its id remapping.

    ``old_of[new_id]`` is the id the vertex had in the parent graph.  The
    reverse map ``index`` (old id to new id, also behind ``new_of`` and
    ``to_sub``) is built once, on first use.
    """

    graph: Graph
    old_of: tuple[int, ...]

    @cached_property
    def index(self) -> dict[int, int]:
        return {old: new for new, old in enumerate(self.old_of)}

    def new_of(self, old_id: int) -> int:
        return self.index[old_id]

    def to_parent(self, new_ids: Iterable[int]) -> set[int]:
        return {self.old_of[v] for v in new_ids}

    def to_sub(self, old_ids: Iterable[int]) -> set[int]:
        idx = self.index
        return {idx[v] for v in old_ids}


def check_vertex_ids(vertices: Collection[int], n: int) -> None:
    """Raise ValueError, naming the least one, on ids outside 0..n-1."""
    if vertices and (min(vertices) < 0 or max(vertices) >= n):
        bad = min(v for v in vertices if not 0 <= v < n)
        raise ValueError(f"unknown vertex id {bad}")


def induced_subgraph(g: Graph, s: Iterable[int]) -> Subgraph:
    """Induced subgraph on vertex set s, ids remapped to 0..|s|-1.

    The remapping preserves relative vertex order.
    """
    keep = sorted(set(s))
    check_vertex_ids(keep, g.n)
    new_of = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_of[u], new_of[v])
        for u, v in g.edges()
        if u in new_of and v in new_of
    ]
    return Subgraph(Graph(len(keep), edges), tuple(keep))


def delete_vertices(g: Graph, s: Iterable[int]) -> Subgraph:
    drop = set(s)
    return induced_subgraph(g, (v for v in g.vertices() if v not in drop))


def components_within(g: Graph, allowed: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of g restricted to the given vertex set,
    ordered by smallest member."""
    remaining = set(allowed)
    comps = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        found = bfs(g.neighbors, [start], remaining)[0]
        remaining.difference_update(found)
        # Adding the vertices one at a time, in discovery order, fixes the
        # order the frozenset iterates in; float sums over a component
        # (x.mass) follow that order.
        comps.append(frozenset(set(iter(found))))
    return comps


def boundary(g: Graph, s: AbstractSet[int]) -> frozenset[int]:
    """N(s) - s: the vertices outside s with a neighbour in s."""
    out: set[int] = set()
    for v in s:
        out.update(g.neighbors(v))
    return frozenset(out - s)


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    vs = sorted(set(s))
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def bfs(
    neighbors: Callable[[int], Iterable[int]],
    sources: Iterable[int],
    allowed: Optional[Container[int]] = None,
    targets: Container[int] = (),
) -> tuple[dict[int, int], Optional[int]]:
    """Breadth-first search from sources, taken in the order given.

    ``neighbors`` gives the out-neighbours of a vertex, as for
    ``dijkstra_vertex_weights``, so the search runs on a Graph, a DiGraph,
    its reverse or a residual network.  Unlike there, ``allowed`` (every
    vertex when None) binds sources and targets too.  Returns the
    predecessor map, in discovery order, with every source its own
    predecessor, and the first target discovered, or None.  The search
    stops at that target; a source that is a target stops it at once.

    Vertices are discovered first-in first-out and keep the predecessor
    that found them first, so ``extract_path`` gives a path with fewest
    vertices, the same one on every run.  (A heap, as in the weighted
    search, would break ties between equal distances by vertex id
    instead, and change which path is returned.)
    """
    prev: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sources:
        if s in prev or (allowed is not None and s not in allowed):
            continue
        prev[s] = s
        if s in targets:
            return prev, s
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in neighbors(u):
            if w in prev or (allowed is not None and w not in allowed):
                continue
            prev[w] = u
            if w in targets:
                return prev, w
            queue.append(w)
    return prev, None


def mcs_order(g: Graph, vertices: Optional[Iterable[int]] = None) -> list[int]:
    """Maximum cardinality search visit order of g[vertices] (of g when
    vertices is None), in g's own ids.

    Each step visits an unvisited vertex with the most visited neighbours,
    the lowest id among ties.  A lazy heap pops ``(-weight, id)`` pairs;
    a vertex's weight only grows, so its live entry comes out before any
    stale one.  Raises ValueError on an id outside 0..n-1.
    """
    vs = g.vertices() if vertices is None else sorted(set(vertices))
    check_vertex_ids(vs, g.n)
    weight = dict.fromkeys(vs, 0)
    heap = [(0, v) for v in vs]         # sorted, hence already a heap
    order = []
    while heap:
        w, v = heapq.heappop(heap)
        if weight.get(v) != -w:         # visited, or a stale entry
            continue
        del weight[v]
        order.append(v)
        for u in g.neighbors(v):
            if u in weight:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return order


def bfs_path(
    neighbors: Callable[[int], Iterable[int]],
    sources: Iterable[int],
    targets: Container[int],
    allowed: Optional[Container[int]] = None,
) -> Optional[list[int]]:
    """A path with fewest vertices from the sources to any target inside
    ``allowed`` (every vertex when None), or None.

    ``bfs`` finds it, on the same terms: ``neighbors`` gives out-neighbours,
    so the search runs on a Graph or a DiGraph; sources are taken in the
    order given; ``allowed`` binds sources and targets too.  The path is
    the same one on every run.
    """
    prev, t = bfs(neighbors, sources, allowed, targets)
    return None if t is None else extract_path(prev, t)


def split_residual_bfs(
    out_neighbors: Callable[[int], Iterable[int]],
    alive: Container[int],
    capacity: dict[int, int],
    unbounded: int,
    through: dict[int, int],
    carried: dict[int, dict[int, int]],
    starts: Iterable[int],
    ends: Container[int],
) -> tuple[dict[int, int], Optional[int]]:
    """``bfs`` over the residual network of a vertex-split flow, read off
    its flow tables instead of a neighbours function.

    Node 2v is v_in and 2v+1 is v_out.  Each alive v has its split arc
    v_in -> v_out, of capacity ``capacity.get(v, unbounded)``, and each
    arc v -> w of ``out_neighbors`` between alive vertices is an
    unbounded arc v_out -> w_in.  ``through[v]`` is the flow on v's split
    arc and ``carried[w][v]`` the flow on arc v -> w while positive;
    absent entries are 0.  The residual arcs of a node, in the order the
    search takes them: out of v_out, the arcs of d to alive w, then back
    along v's split arc if it carries flow; out of v_in, along v's split
    arc if it has room, then back along each arc u -> v that carries
    flow, in ``carried[v]`` order.

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
                if b not in prev and w in alive:
                    prev[b] = a
                    push(b)
            if through.get(v) and a - 1 not in prev:
                prev[a - 1] = a
                push(a - 1)
        else:
            if (a + 1 not in prev
                    and through.get(v, 0) < capacity.get(v, unbounded)):
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


@dataclass(frozen=True)
class Hole:
    """An induced cycle of length at least four, stored as a cyclic sequence."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def canonical(self) -> "Hole":
        """Rotate/reflect so the smallest vertex comes first, then its smaller neighbor."""
        vs = self.vertices
        k = len(vs)
        i = vs.index(min(vs))
        fwd = tuple(vs[(i + j) % k] for j in range(k))
        bwd = tuple(vs[(i - j) % k] for j in range(k))
        return Hole(min(fwd, bwd))


def verify_hole(g: Graph, h: Hole) -> bool:
    """True iff h is a chordless cycle of length >= 4 in g with distinct vertices.

    The ids must be distinct, in range and at least four; each vertex must
    see the next one, so the cycle's edges are all there, and exactly two
    vertices of h, so there is no chord.  One pass, linear in the total
    degree of h's vertices."""
    vs = h.vertices
    on = frozenset(vs)
    if len(vs) < 4 or len(on) != len(vs) or min(vs) < 0 or max(vs) >= g.n:
        return False
    for u, after in zip(vs, vs[1:] + vs[:1]):
        near = g.neighbor_set(u)
        if after not in near or len(on & near) != 2:
            return False
    return True


def shortcut_walk(g: Graph, walk: Sequence[int]) -> list[int]:
    """Shortcut an st-walk to an induced st-path within the walk's vertices.

    A shortest st-path in g[V(walk)] is induced in g, so one BFS suffices.
    Raises InvariantError if s and t are disconnected in g[V(walk)], which
    cannot happen for a genuine walk and signals corrupted input.
    """
    if not walk:
        raise ValueError("empty walk")
    s, t = walk[0], walk[-1]
    path = bfs_path(g.neighbors, [s], {t}, set(walk))
    check(path is not None, "walk endpoints disconnected within walk vertices")
    return path


def dijkstra_vertex_weights(
    neighbors: Callable[[int], Sequence[int]],
    source: int,
    weights: Sequence[float],
    allowed: Optional[Container[int]] = None,
    targets: Collection[int] = (),
    cutoff: float = math.inf,
) -> tuple[dict[int, float], dict[int, int]]:
    """Shortest vertex-weighted distances from source; path cost includes
    both endpoints.

    ``weights`` is a table indexed by vertex id, nonnegative and finite.
    ``neighbors`` gives the out-neighbours of a vertex, so the search runs
    on a Graph or a DiGraph alike.  ``allowed`` limits the vertices the
    search may enter; the source and ``targets`` are admitted even
    outside it.  A target gets a distance but is never expanded, so no
    path passes through it.  The search stops early once every target is
    settled, or when it pops a distance ``>= cutoff``.  Distances and
    predecessors of the vertices settled by then are exact; any other
    entry of the result is an upper bound no smaller than the last popped
    distance.  A heap pops ``(distance, id)`` pairs.

    A vertex settles on first touch.  Every push is a popped distance
    plus a nonnegative weight, so the heap pops distances in ascending
    order, and w is first reached from the in-neighbour popped first.
    A later in-neighbour pops a distance no smaller, and rounded addition
    is monotone, so it cannot offer w less: w's first distance and
    predecessor are final, w enters the heap once, and no entry is ever
    stale.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    pending = set(targets)
    prev = {source: source}
    dist = {source: weights[source]}
    heap = [(dist[source], source)]
    while heap:
        d, u = heappop(heap)
        if d >= cutoff:
            break
        if u in pending:
            pending.discard(u)
            if not pending:
                break
            continue
        for w in neighbors(u):
            if w in dist or (allowed is not None and w not in allowed
                             and w not in pending):
                continue
            nd = d + weights[w]
            dist[w] = nd
            prev[w] = u
            heappush(heap, (nd, w))
    return dist, prev


def _unit_layers(
    neighbor_set: Callable[[int], AbstractSet[int]],
    source: int,
    allowed: set[int],
    targets: Collection[int],
    cutoff: float,
) -> tuple[dict[int, int], dict[int, int]]:
    """The targets of ``dijkstra_vertex_weights`` under unit weights.

    The search runs by breadth-first layers, each sorted by vertex id: the
    order in which the heap pops ``(distance, id)`` pairs, since under
    unit weights every vertex is first reached at its final distance, from
    the first vertex of the layer before that has it as a neighbour.  So
    every target at a distance below ``cutoff`` gets the heap's distance
    (an int, the source counting 1) and predecessor chain.  Returns the
    distances of those targets and the predecessors of every vertex
    reached.  Unlike the heap, which settles what it returns, the search
    stops as soon as the last target is reached, and it builds no layer
    at or beyond ``cutoff``.  Targets are never expanded; a source that
    is a target is the only one returned.  ``neighbor_set`` gives a
    vertex's neighbours as a set.
    """
    prev = {source: source}
    if source in targets:
        return {source: 1}, prev
    dist: dict[int, int] = {}
    pending = set(targets)
    fresh = allowed - pending
    fresh.discard(source)
    layer = [source]
    d = 2
    while layer and d < cutoff:
        found: list[int] = []
        for u in layer:
            around = neighbor_set(u)
            reached = pending & around
            if reached:
                pending -= reached
                for w in reached:
                    dist[w] = d
                    prev[w] = u
                if not pending:
                    return dist, prev
            new = fresh & around
            if new:
                fresh -= new
                prev.update(dict.fromkeys(new, u))
                found.extend(new)
        found.sort()
        layer = found
        d += 1
    return dist, prev


def extract_path(prev: dict[int, int], t: int) -> list[int]:
    """The source-to-t path recorded in a predecessor map."""
    path = [t]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _cutoff_below(limit: float, offset: float) -> float:
    """A distance c, within a few ulps of limit - offset, such that every
    d >= c has d + offset >= limit in floating point (rounded addition is
    monotone, so checking c itself suffices)."""
    c = limit - offset
    while c + offset < limit:
        c = math.nextafter(c, math.inf)
    return c


def lightest_hole_through(
    g: Graph,
    v: int,
    weights: Optional[Sequence[float]],
    allowed: Iterable[int],
    below: float,
) -> Optional[tuple[Hole, float]]:
    """The lightest hole through v in g[allowed], if it weighs < below - 1e-12.

    Returns ``(hole, weight)`` with the hole in canonical form, or None;
    None also when v is not allowed.  ``weights`` is a table indexed by
    vertex id, or None for unit weights, which give a shortest hole.  A
    hole's weight is the sum of its vertices' weights.

    Every hole through v is v followed by a u1-u2 path whose inner
    vertices avoid N[v], for nonadjacent neighbours u1, u2 of v.  The
    path has an inner vertex, so a neighbour of v with no neighbour in
    allowed - N[v] lies on no hole through v and is dropped.  For each
    remaining neighbour u1, one search from u1 over allowed - N[v] settles
    every later neighbour u2 not adjacent to u1 at once; these u2 are
    targets, which get a distance but are never expanded.  Since nothing
    passes through a target, the other vertices settle in the same order
    as in a search from u1 to a single u2, up to the moment u2 settles,
    so each u2 gets the same distance and predecessor chain.  Under a
    table the search is ``dijkstra_vertex_weights``; under unit weights
    it is ``_unit_layers``, which gives each target the same entries.

    The targets are then walked in neighbour order; the lightest cycle so
    far is shortcut to an induced one and kept.  A search stops once a
    distance plus the weight of v reaches the best weight at its start
    (less 1e-12): a u2 reached later fails that test, and the best weight
    only falls while the targets are walked, so the cutoff never changes
    the result.  For the same reason any ``below`` above the lightest
    weight gives the same hole.
    """
    inner = set(allowed)
    if v not in inner:
        return None
    around = g.neighbor_set
    nbrs = [u for u in g.neighbors(v) if u in inner]
    inner -= around(v)
    inner.discard(v)
    nbrs = [u for u in nbrs if not around(u).isdisjoint(inner)]
    wv = 1 if weights is None else weights[v]
    limit = below - 1e-12
    cutoff = _cutoff_below(limit, wv)
    best: Optional[tuple[Hole, float]] = None
    for i, u1 in enumerate(nbrs):
        adjacent = around(u1)
        targets = [u2 for u2 in nbrs[i + 1 :] if u2 not in adjacent]
        if not targets:
            continue
        if weights is None:
            dist, prev = _unit_layers(around, u1, inner, targets, cutoff)
        else:
            dist, prev = dijkstra_vertex_weights(
                g.neighbors, u1, weights, inner, targets, cutoff)
        for u2 in targets:
            if u2 in dist and dist[u2] + wv < limit:
                path = shortcut_walk(g, extract_path(prev, u2))
                hole = Hole(tuple([v] + path)).canonical()
                check(verify_hole(g, hole), "hole search built a non-hole")
                w = (len(hole) if weights is None
                     else sum(weights[u] for u in hole.vertices))
                if w < limit:
                    best = (hole, w)
                    limit = w - 1e-12
                    cutoff = _cutoff_below(limit, wv)
    return best


def lightest_hole(
    g: Graph,
    weights: Optional[Sequence[float]],
    allowed: Iterable[int],
    below: float,
    bounds: Optional[list[float]] = None,
) -> Optional[tuple[Hole, float]]:
    """The lightest hole of g[allowed], if it weighs < below - 1e-12.

    Runs ``lightest_hole_through`` for allowed vertices, each search
    bounded by the best weight so far, and returns the ``(hole, weight)``
    found at the first vertex, in ``g.vertices()`` order, whose search
    reaches the least weight.  ``weights`` is a table indexed by vertex
    id, nonnegative, or None for unit weights; a negative weight on an
    allowed vertex raises ValueError.

    Each hole is searched once, at its least vertex: the search through v
    runs in g[allowed] less every vertex before v.  This returns what
    searching all of g[allowed] at every vertex would.  When v's search
    runs, every earlier vertex w has had its own search, or been passed
    over, under a bound no lower than the current one, so every hole
    through w weighs at least bound - 1e-12, and no search at v could
    accept one.  Under unit weights a shortest path is induced, so a
    chain through w that passed the test would itself close a hole
    through w below the bound, which is impossible; the search at v
    settles every chain it accepts as it would with w present.  Under
    zero weights the shortcut may drop a zero-weight w from a chain, and
    ties are settled by the property test against the loop that drops
    nothing.

    The scan visits the allowed vertices in (bound, id) order and stops
    at the first vertex whose bound rules out a hole its search could
    accept.  Without ``bounds`` every bound is the floor, so the scan
    runs in id order and stops once the best weight, less 1e-12, is at
    or below the floor.  A hole has at least four vertices, so its
    weight, summed as ``lightest_hole_through`` sums it, is at least the
    floor: four copies of the least allowed weight, added the same way
    (rounded addition is monotone, and further terms are nonnegative).
    Under unit weights the floor is 4; when some hole weighs 0, the loop
    stops at the first one.

    ``bounds`` is a table, indexed by vertex id, of lower bounds on the
    length of the shortest hole through v in g[allowed] less every
    vertex before v; it is read and written back under unit weights only
    (anything else raises ValueError).  Deleting vertices never creates
    a hole, so a table learned for one allowed set stays a table of lower
    bounds for any subset of it.  The search at v is bounded by the best
    length plus one if v precedes the best hole's vertex (it would win a
    tie), and by the best length otherwise, so the order changes which
    vertices are searched but not the hole returned: each vertex not
    searched has a hole no shorter, and no earlier on a tie, than the
    best, and the winning vertex's search gives the same hole under any
    bound above its length.  Each search writes back what it proves, the
    length it found or its bound (infinite when nothing bounded it).
    """
    if bounds is not None and weights is not None:
        raise ValueError("hole-length bounds need unit weights")
    inner = set(allowed)
    ids = [v for v in g.vertices() if v in inner]
    low = (1 if weights is None
           else min((weights[v] for v in ids), default=0))
    if low < 0:
        bad = min(v for v in ids if weights[v] < 0)
        raise ValueError(f"negative weight {weights[bad]} at vertex {bad}")
    floor = low + low + low + low
    lower = ([floor] * len(ids) if bounds is None
             else [max(floor, bounds[v]) for v in ids])
    # a stable sort of ids, which ascend, breaks ties by id
    order = (range(len(ids)) if bounds is None
             else sorted(range(len(ids)), key=lower.__getitem__))
    best: Optional[tuple[Hole, float]] = None
    first = -1
    for i in order:
        v = ids[i]
        limit = below + 1 if v < first else below
        if lower[i] >= limit - 1e-12:
            break
        found = lightest_hole_through(g, v, weights, ids[i:], limit)
        if bounds is not None:
            bounds[v] = limit if found is None else found[1]
        if found is not None:
            best = found
            below = found[1]
            first = v
    return best


class DiGraph:
    """Directed graph on vertex ids 0..n-1 with out- and in-neighbor sets.

    Arcs are ordered pairs; no self-loops.  Acyclicity is not an invariant
    of the type and is checked by callers where required.
    """

    __slots__ = ("_out", "_in", "_m")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        out: list[set[int]] = [set() for _ in range(n)]
        into: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in out[u]:
                continue
            out[u].add(v)
            into[v].add(u)
            m += 1
        self._out = tuple(tuple(sorted(s)) for s in out)
        self._in = tuple(tuple(sorted(s)) for s in into)
        self._m = m

    @property
    def n(self) -> int:
        return len(self._out)

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._out[u]:
                yield (u, v)

    def is_acyclic(self) -> bool:
        indeg = [len(self._in[v]) for v in range(self.n)]
        queue = deque(v for v in range(self.n) if indeg[v] == 0)
        seen = 0
        while queue:
            u = queue.popleft()
            seen += 1
            for w in self._out[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == self.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiGraph) and self._out == other._out

    def __hash__(self) -> int:
        return hash(self._out)

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"

