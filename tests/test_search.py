"""The one breadth-first search against the queue loops it replaced, the
one vertex-weighted search against the heap search with a weight
callable, and the lightest-hole loop against the one that searched every
hole through each of its vertices."""
import ast
import math
import random
from pathlib import Path

import pytest

from chvd import graphs
from chvd.generate import random_dag, random_gnp
from chvd.graphs import (
    DiGraph,
    Graph,
    bfs,
    bfs_path,
    components_within,
    dijkstra_vertex_weights,
    extract_path,
    lightest_hole,
)
from chvd.multicut import min_vertex_cut
from bruteforce import (
    connected_components,
    ref_bfs_path,
    ref_components_within,
    ref_di_bfs_path,
    ref_di_reachable,
    ref_dijkstra_vertex_weights,
    ref_induced_digraph,
    ref_lightest_hole,
    ref_min_vertex_cut,
    ref_split_residual,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "chvd"


def random_digraph(rng, n, p):
    """Arcs in both directions allowed, so the digraph may have cycles."""
    return DiGraph(n, [(u, v) for u in range(n) for v in range(n)
                       if u != v and rng.random() < p])


def some(rng, n, share):
    return {v for v in range(n) if rng.random() < share}


def test_components_match_reference_in_iteration_order():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 60)
        g = random_gnp(rng, n, rng.uniform(0.0, 0.15))
        allowed = some(rng, n, rng.uniform(0.3, 1.0))
        got = components_within(g, allowed)
        want = ref_components_within(g, allowed)
        assert got == want
        assert [list(c) for c in got] == [list(c) for c in want]
        assert connected_components(g) == ref_components_within(g, range(n))


def test_bfs_path_matches_reference():
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randint(1, 40)
        g = random_gnp(rng, n, rng.uniform(0.03, 0.3))
        source = rng.randrange(n)
        targets = rng.sample(range(n), rng.randint(0, min(3, n)))
        if rng.random() < 0.2:
            targets.append(source)
        allowed = None
        if rng.random() < 0.7:
            allowed = some(rng, n, rng.uniform(0.4, 1.0))
            if rng.random() < 0.8:
                allowed.add(source)
        assert (bfs_path(g.neighbors, [source], set(targets), allowed)
                == ref_bfs_path(g, source, targets, allowed=allowed))


def test_di_bfs_path_and_reach_match_reference():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 40)
        d = random_digraph(rng, n, rng.uniform(0.02, 0.2))
        sources = rng.sample(range(n), rng.randint(1, min(4, n)))
        targets = rng.sample(range(n), rng.randint(1, min(4, n)))
        if rng.random() < 0.2:
            targets.append(sources[-1])
        removed = some(rng, n, rng.uniform(0.0, 0.4))
        if rng.random() < 0.2:
            removed.add(targets[0])
        alive = set(d.vertices()) - removed
        assert (bfs_path(d.out_neighbors, sorted(set(sources)), set(targets),
                         alive)
                == ref_di_bfs_path(d, sources, targets, removed=removed))
        for reverse in (False, True):
            nbrs = d.in_neighbors if reverse else d.out_neighbors
            assert (set(bfs(nbrs, sorted(set(sources)), alive)[0])
                    == ref_di_reachable(d, sources, removed, reverse=reverse))


def test_bfs_discovery_order_and_first_target():
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: 3 is found from 1, the first in FIFO order
    d = DiGraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    prev, found = bfs(d.out_neighbors, [0])
    assert list(prev.items()) == [(0, 0), (1, 0), (2, 0), (3, 1), (4, 3)]
    assert found is None
    assert bfs(d.out_neighbors, [0], targets={3, 4}) == (
        {0: 0, 1: 0, 2: 0, 3: 1}, 3)
    # sources are taken in the order given; the first that is a target wins
    assert bfs(d.out_neighbors, [2, 1], targets={1, 2})[1] == 2
    # a source outside allowed is skipped, and so is every target outside it
    assert bfs(d.out_neighbors, [1, 0], allowed={0, 2, 3}, targets={3}) == (
        {0: 0, 2: 0, 3: 2}, 3)


def test_min_vertex_cut_matches_reference():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(2, 24)
        d = random_digraph(rng, n, rng.uniform(0.05, 0.3))
        sources = rng.sample(range(n), rng.randint(1, min(3, n)))
        sinks = rng.sample(range(n), rng.randint(1, min(3, n)))
        deletable = some(rng, n, rng.uniform(0.5, 1.0))
        avoid = some(rng, n, 0.3)
        try:
            want = ref_min_vertex_cut(d, sources, sinks, deletable, avoid)
        except ValueError:
            with pytest.raises(ValueError):
                min_vertex_cut(d, sources, sinks, deletable, avoid)
            continue
        got = min_vertex_cut(d, sources, sinks, deletable, avoid)
        assert got == want and list(got) == list(want)


def test_min_vertex_cut_on_alive_matches_the_induced_copy():
    """A cut restricted to alive equals the reference cut of d[alive],
    renumbered and mapped back; dead terminals are ignored."""
    rng = random.Random(15)
    refused = cut = 0
    for trial in range(300):
        n = rng.randint(2, 24)
        p = rng.uniform(0.05, 0.3)
        d = random_dag(rng, n, p) if trial % 2 else random_digraph(rng, n, p)
        alive = some(rng, n, rng.uniform(0.3, 1.0))
        sources = rng.sample(range(n), rng.randint(1, min(4, n)))
        sinks = rng.sample(range(n), rng.randint(1, min(4, n)))
        deletable = some(rng, n, rng.uniform(0.5, 1.0))
        avoid = some(rng, n, 0.3)
        sub = ref_induced_digraph(d, alive)
        m = sub.index

        def local(vs):
            return [m[v] for v in vs if v in m]

        try:
            want = ref_min_vertex_cut(sub.graph, local(sources), local(sinks),
                                      local(deletable), local(avoid))
        except ValueError:
            with pytest.raises(ValueError):
                min_vertex_cut(d, sources, sinks, deletable, avoid,
                               alive=alive)
            refused += 1
            continue
        got = min_vertex_cut(d, sources, sinks, deletable, avoid, alive=alive)
        assert got == frozenset(sub.old_of[v] for v in want)
        cut += bool(got)
    assert refused >= 20 and cut >= 50


class ReorderedView:
    """d, read-only, with every out- and in-neighbour tuple reordered."""

    def __init__(self, d, reorder):
        self.n = d.n
        out = [reorder(d.out_neighbors(v)) for v in d.vertices()]
        into = [reorder(d.in_neighbors(v)) for v in d.vertices()]
        self.out_neighbors = out.__getitem__
        self.in_neighbors = into.__getitem__


def test_min_vertex_cut_does_not_depend_on_neighbour_order():
    """Every maximum flow leaves the same residual reach, so any order of
    search gives the reference cut, listed in alive order, and refuses
    where the reference refuses."""
    rng = random.Random(16)
    refused = cut = avoided = 0
    for trial in range(300):
        n = rng.randint(2, 24)
        p = rng.uniform(0.05, 0.3)
        d = random_dag(rng, n, p) if trial % 2 else random_digraph(rng, n, p)
        alive = some(rng, n, rng.uniform(0.3, 1.0)) if trial % 3 else None
        sources = rng.sample(range(n), rng.randint(1, min(4, n)))
        sinks = rng.sample(range(n), rng.randint(1, min(4, n)))
        deletable = some(rng, n, rng.uniform(0.5, 1.0))
        avoid = some(rng, n, rng.uniform(0.2, 0.6))
        sub = ref_induced_digraph(d, range(n) if alive is None else alive)
        m = sub.index

        def local(vs):
            return [m[v] for v in vs if v in m]

        try:
            want = frozenset(sub.old_of[v] for v in ref_min_vertex_cut(
                sub.graph, local(sources), local(sinks), local(deletable),
                local(avoid)))
        except ValueError:
            want = None
        order = range(n) if alive is None else alive
        for reorder in (lambda t: t[::-1],
                        lambda t: tuple(rng.sample(t, len(t)))):
            view = ReorderedView(d, reorder)
            if want is None:
                with pytest.raises(ValueError):
                    min_vertex_cut(view, sources, sinks, deletable, avoid,
                                   alive=alive)
                continue
            got = min_vertex_cut(view, sources, sinks, deletable, avoid,
                                 alive=alive)
            assert got == want
            assert list(got) == list(frozenset(v for v in order if v in want))
        refused += want is None
        cut += bool(want)
        avoided += bool(want and want & avoid)
    assert refused >= 25 and cut >= 100 and avoided >= 40


def push_one(path, through, carried):
    """One more unit of flow along a residual path of split nodes."""
    for a, b in zip(path, path[1:]):
        v, w = a >> 1, b >> 1
        if v == w:
            through[v] = through.get(v, 0) + (1 if b > a else -1)
        elif a & 1:
            into = carried.setdefault(w, {})
            into[v] = into.get(v, 0) + 1
        else:
            carried[v][w] -= 1
            if not carried[v][w]:
                del carried[v][w]


def random_residual_path(rng, residual, starts, ends):
    """A path from a start to an end by a depth-first search that takes
    residual arcs in random order, or None: longer than a breadth-first
    one, so the flow pushed along it leaves arcs to cancel."""
    seen = set()
    stack = [[a] for a in rng.sample(starts, len(starts))]
    while stack:
        path = stack.pop()
        if path[-1] in seen:
            continue
        seen.add(path[-1])
        if path[-1] in ends:
            return path
        nxt = list(residual(path[-1]))
        rng.shuffle(nxt)
        stack.extend(path + [b] for b in nxt if b not in seen)
    return None


def test_split_residual_search_matches_bfs_over_the_residual_generator():
    """On random DAGs, alive sets and flow states built by a few
    augmentations, the residual search reads the flow tables as bfs
    over the residual generator does: it takes the residual arcs in the
    generator's order, so both give the same predecessors, in the same
    order, and the same end; with no path to an end both reach the same
    nodes, and otherwise the path takes residual arcs only."""
    rng = random.Random(41)
    blocked = found = back_split = back_arc = 0
    for _ in range(1000):
        # layers of two to four vertices, arcs from each layer to the
        # next: flows between the first and last layer cross often
        width, depth = rng.randint(2, 4), rng.randint(2, 5)
        n = width * depth
        p = rng.uniform(0.4, 0.8)
        d = DiGraph(n, [(u, v) for u in range(n - width)
                        for v in range((u // width + 1) * width,
                                       (u // width + 2) * width)
                        if rng.random() < p])
        alive = (range(n) if rng.random() < 0.3
                 else some(rng, n, rng.uniform(0.7, 1.0)))
        sources = rng.sample(range(width), rng.randint(1, 2))
        sinks = rng.sample(range(n - width, n), rng.randint(1, 2))
        starts = [2 * s for s in sources if s in alive]
        ends = {2 * t + 1 for t in sinks if t in alive}
        # terminals are mostly unbounded, so the flow often takes
        # several paths, and the inner vertices are mostly unit
        capacity = {v: rng.choice([1, 1, 2])
                    for v in some(rng, n, rng.uniform(0.5, 1.0))
                    if v not in sources + sinks or rng.random() < 0.2}
        unbounded = rng.choice([3, 100])
        through: dict = {}
        carried: dict = {}
        residual = ref_split_residual(d.out_neighbors, alive, capacity,
                                      unbounded, through, carried)
        for _ in range(rng.randint(1, 8)):
            got_prev, got_end = graphs.split_residual_bfs(
                d.out_neighbors, alive, capacity, unbounded, through,
                carried, starts, ends)
            want_prev, want_end = bfs(residual, starts, targets=ends)
            assert got_end == want_end
            assert list(got_prev.items()) == list(want_prev.items())
            # nodes the search reached backward along a split arc, or
            # along an arc of d
            back_split += any(b < a and a >> 1 == b >> 1
                              for b, a in got_prev.items())
            back_arc += any(a >> 1 != b >> 1 and not a & 1
                            for b, a in got_prev.items())
            if got_end is None:
                blocked += 1
                break
            assert got_end in ends
            path = extract_path(got_prev, got_end)
            assert path[0] in starts
            assert all(b in residual(a) for a, b in zip(path, path[1:]))
            found += 1
            push_one(random_residual_path(rng, residual, starts, ends),
                     through, carried)
    assert blocked >= 500 and found >= 1000
    assert back_split >= 20 and back_arc >= 200


def test_vertex_weighted_search_matches_the_heap_reference():
    """A weight table runs on the heap and gives the frozen heap search's
    distances and predecessors, values and insertion order; unit weights
    run by layers and give every target that the heap settles below the
    cutoff its distance and path, and no other target a distance below
    the cutoff; both under any allowed set, targets and cutoff."""
    rng = random.Random(29)
    stopped = cut = settled = beyond = 0
    for trial in range(1200):
        n = rng.randint(1, 16)
        p = rng.choice([0.15, 0.3, 0.5])
        if trial % 2:
            neighbors = random_gnp(rng, n, p).neighbors
        else:
            neighbors = random_dag(rng, n, p).out_neighbors
        source = rng.randrange(n)
        allowed = None if rng.random() < 0.3 else some(rng, n, rng.random())
        targets = rng.sample(range(n), rng.randint(0, min(n, 3)))
        if rng.random() < 0.1:
            targets.append(source)
        cutoff = rng.choice([math.inf, rng.randint(1, 5),
                             rng.randint(1, 5) + 0.5])
        table = [rng.choice([0, 0.0, 0.5, 1, rng.random()])
                 for _ in range(n)]
        got = dijkstra_vertex_weights(neighbors, source, table,
                                      allowed, targets, cutoff)
        want = ref_dijkstra_vertex_weights(neighbors, source,
                                           table.__getitem__, allowed,
                                           targets, cutoff)
        assert [list(m.items()) for m in got] == \
            [list(m.items()) for m in want]
        full = ref_dijkstra_vertex_weights(neighbors, source,
                                           table.__getitem__, allowed)
        stopped += targets != [] and len(got[0]) < len(full[0])
        cut += cutoff < math.inf and len(got[0]) < len(full[0])

        dist, prev = graphs._unit_layers(
            lambda u: frozenset(neighbors(u)), source,
            set(range(n) if allowed is None else allowed), targets, cutoff)
        want_dist, want_prev = ref_dijkstra_vertex_weights(
            neighbors, source, lambda _: 1, allowed, targets, cutoff)
        reach = ref_dijkstra_vertex_weights(
            neighbors, source, lambda _: 1, allowed, targets)[0]
        for t in set(targets):
            below = t in want_dist and want_dist[t] < cutoff
            assert (t in dist and dist[t] < cutoff) == below
            if below:
                assert type(dist[t]) is int and dist[t] == want_dist[t]
                assert extract_path(prev, t) == extract_path(want_prev, t)
                settled += 1
            beyond += t in reach and not below
    assert stopped >= 100 and cut >= 100 and settled >= 500 and beyond >= 100


def hole_weightings(rng, n):
    """Unit, all zero, zero-heavy dyadic and uniform small weights: the
    zero-heavy ones put many holes on one weight, where ties decide."""
    return (None,
            [0.0] * n,
            [rng.choice([0, 0.25, 0.5]) for _ in range(n)],
            [rng.choice([0, 0, 1 / 8, 1 / 3]) for _ in range(n)],
            [rng.uniform(0.0, 0.4) for _ in range(n)])


def test_lightest_hole_matches_the_loop_that_drops_no_vertex():
    """Dropping each vertex once its search has returned gives the same
    hole and weight as searching all of g[allowed] at every vertex, under
    any allowed set and bound."""
    rng = random.Random(31)
    found = none = 0
    for _ in range(3000):
        n = rng.randint(5, 22)
        g = random_gnp(rng, n, rng.choice([0.15, 0.2, 0.3, 0.45]))
        allowed = (range(n) if rng.random() < 0.5
                   else some(rng, n, rng.uniform(0.5, 1.0)))
        # a unit hole weighs at least 4, so a length bounds it
        length = rng.choice([5, 6, math.inf])
        below = rng.choice([1 - 1e-6, 0.75, math.inf])
        for weights in hole_weightings(rng, n):
            bound = length if weights is None else below
            got = lightest_hole(g, weights, allowed, bound)
            assert got == ref_lightest_hole(g, weights, allowed, bound)
            found += got is not None
            none += got is None
    assert found >= 3000 and none >= 3000


def test_lightest_hole_takes_length_bounds_under_unit_weights_only():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="unit weights"):
        lightest_hole(g, [0.25] * 4, range(4), 1.0, [0] * 4)
    bounds = [0] * 4
    assert lightest_hole(g, None, range(4), math.inf, bounds)[1] == 4
    assert bounds == [4, 0, 0, 0]


def test_lightest_hole_refuses_a_negative_allowed_weight():
    """The floor and the weighted search both rest on weights >= 0: a
    negative weight on an allowed vertex is refused, one outside the
    allowed set is never read."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    weights = [0.5, -1, 0.5, 0.5, 0.0]
    with pytest.raises(ValueError, match="negative weight -1 at vertex 1"):
        lightest_hole(g, weights, range(5), math.inf)
    assert lightest_hole(g, weights, [0, 2, 3, 4], math.inf) is None
    assert lightest_hole(g, [0.5, 0.25, 0.5, 0.5, -1], range(4),
                         math.inf)[1] == 1.75


def test_lightest_hole_searches_through_v_without_earlier_vertices(
        monkeypatch):
    """The search through v sees the allowed vertices from v on, and
    every allowed vertex is searched until the floor stops the loop."""
    rng = random.Random(37)
    calls = []
    search = graphs.lightest_hole_through

    def spying(g, v, weights, allowed, below):
        calls.append((v, set(allowed)))
        return search(g, v, weights, allowed, below)

    monkeypatch.setattr(graphs, "lightest_hole_through", spying)
    full = 0
    for _ in range(300):
        n = rng.randint(5, 16)
        g = random_gnp(rng, n, rng.choice([0.2, 0.3]))
        allowed = some(rng, n, rng.uniform(0.5, 1.0))
        for weights in hole_weightings(rng, n):
            calls.clear()
            lightest_hole(g, weights, allowed, math.inf)
            for v, seen in calls:
                assert seen == {u for u in allowed if u >= v}
            searched = [v for v, _ in calls]
            assert searched == sorted(allowed)[:len(searched)]
            full += len(searched) == len(allowed) > 1
    assert full >= 300


def test_only_graphs_module_writes_a_search():
    """Queues and heaps live in graphs.py; every other module calls its
    searches instead of writing one."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):  # collections.deque(...)
                names = {node.attr}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
                names.add(node.module or "")
            else:
                continue
            if names & {"heapq", "deque", "collections.deque"}:
                offenders.append(path.name)
    assert offenders == []
