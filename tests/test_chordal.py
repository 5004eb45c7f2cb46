"""Recognition, clique trees, and tree-decomposition queries."""
import math
import random
from itertools import combinations

import pytest

from chvd.graphs import (
    Graph,
    Hole,
    bfs_path,
    components_within,
    induced_subgraph,
    lightest_hole_through,
    mcs_order,
    verify_hole,
)
from chvd.chordal import (
    PEO,
    central_bag,
    chordal_with,
    clique_tree_of,
    find_any_hole,
    find_hole_through,
    hole_vertices,
    is_chordal,
    maximal_cliques,
    minimal_path,
    mis_chordal,
    recognize,
)
from chvd.generate import kernel_instance_pool, random_chordal, random_gnp
from chvd.oracle import exact_chvd
from bruteforce import (
    bf_all_holes,
    bf_all_maximal_cliques,
    bf_is_chordal,
    bf_max_independent_set,
    complete_graph,
    cycle_graph,
    induced_path_avoiding,
    is_peo,
    path_adhesions,
    ref_clique_tree_of,
    ref_hole_vertices,
    ref_is_chordal,
    ref_mcs_order,
    ref_mis_chordal,
    ref_recognize,
    validate_clique_tree,
)


def test_hole_vertices_match_the_induced_cycle_enumeration():
    """On 600 seeded random graphs with n <= 10 and on the kernel pool,
    the vertices found are exactly the union of the holes."""
    rng = random.Random(131)
    partial = 0
    for trial in range(600):
        g = random_gnp(rng, rng.randint(0, 10),
                       rng.choice([0.15, 0.25, 0.35, 0.5, 0.7]))
        got = hole_vertices(g)
        assert got == ref_hole_vertices(g)
        partial += 0 < len(got) < g.n
    for seed in range(30):
        g, _, _ = kernel_instance_pool(seed)
        assert hole_vertices(g) == ref_hole_vertices(g)
    # many graphs have vertices both on and off every hole
    assert partial >= 100


def test_exact_optimum_is_the_optimum_on_the_hole_vertices():
    """exact_chvd's optimum on g equals its optimum on an induced copy
    of g on the hole vertices, on 500 seeded random graphs."""
    rng = random.Random(137)
    dropped = 0
    for trial in range(500):
        g = random_gnp(rng, rng.randint(6, 14),
                       rng.choice([0.15, 0.25, 0.35, 0.5]))
        keep = sorted(hole_vertices(g))
        new_of = {v: i for i, v in enumerate(keep)}
        h = Graph(len(keep), [(new_of[u], new_of[v]) for u, v in g.edges()
                              if u in new_of and v in new_of])
        assert exact_chvd(g, g.n).optimum == exact_chvd(h, h.n).optimum
        dropped += g.n - h.n
    assert dropped >= 500


def test_hole_vertices_edge_cases():
    rng = random.Random(139)
    for _ in range(20):
        g = random_chordal(rng, rng.randint(0, 30), rng.randint(1, 8), 2)
        assert hole_vertices(g) == frozenset()
    assert hole_vertices(complete_graph(5)) == frozenset()
    for n in range(4, 12):
        assert hole_vertices(cycle_graph(n)) == frozenset(range(n))
    # C4 0-1-2-3 with an ear 4 on 0-1 and an ear 5 on 0-4 (4 turns
    # simplicial once 5 is peeled), a pendant tree 6-9 at 2, and a
    # triangle ear 10-11 on 3
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    ears = [(4, 0), (4, 1), (5, 4), (5, 0), (6, 2), (7, 6), (8, 6), (9, 7),
            (10, 3), (11, 3), (10, 11)]
    assert hole_vertices(Graph(12, c4 + ears)) == frozenset(range(4))
    # two C4s joined through 8, which is never simplicial and lies on no
    # hole, so only the component test drops it
    second = [(u + 4, v + 4) for u, v in c4]
    assert hole_vertices(Graph(9, c4 + second + [(8, 0), (8, 4)])) == \
        frozenset(range(8))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_recognize_c4_returns_hole():
    res = recognize(cycle_graph(4))
    assert isinstance(res, Hole)
    assert len(res) == 4


def test_recognize_trees_and_cliques_return_peo():
    for g in [path_graph(6), complete_graph(5), Graph(1), Graph(0)]:
        res = recognize(g)
        assert isinstance(res, PEO)
        assert is_peo(g, res.ordering)


def test_recognize_matches_bruteforce_on_random_graphs():
    rng = random.Random(5)
    for trial in range(60):
        g = random_gnp(rng, rng.randint(1, 9), 0.35)
        res = recognize(g)
        if isinstance(res, PEO):
            assert bf_is_chordal(g)
        else:
            assert not bf_is_chordal(g)
            assert verify_hole(g, res)


def test_recognize_random_chordal_plus_cycle_edge():
    rng = random.Random(19)
    found_hole = 0
    for trial in range(200):
        g = random_chordal(rng, rng.randint(4, 14), rng.randint(2, 7), 2)
        assert isinstance(recognize(g), PEO)
        nonedges = [(u, v) for u in g.vertices() for v in range(u + 1, g.n)
                    if not g.has_edge(u, v)]
        if not nonedges:
            continue
        g2 = g.add_edges([rng.choice(nonedges)])
        res = recognize(g2)
        if isinstance(res, Hole):
            assert verify_hole(g2, res)
            found_hole += 1
    assert found_hole > 10


def test_build_clique_tree_path_graph():
    g = path_graph(4)
    t = clique_tree_of(g)
    assert sorted(sorted(b) for b in t.bags) == [[0, 1], [1, 2], [2, 3]]
    validate_clique_tree(g, t)


def test_build_clique_tree_k5_single_bag():
    g = complete_graph(5)
    t = clique_tree_of(g)
    assert len(t.bags) == 1
    assert t.bags[0] == frozenset(range(5))
    validate_clique_tree(g, t)


def test_clique_tree_invariants_random():
    rng = random.Random(23)
    for trial in range(40):
        g = random_chordal(rng, rng.randint(1, 14), rng.randint(1, 7), 2)
        t = clique_tree_of(g)
        validate_clique_tree(g, t)


def test_empty_adhesions_hang_from_the_root():
    """Kruskal joins the parts of a disconnected chordal graph only by
    pairs of bag 0, the root, with the bags of other parts, so every tree
    edge with an empty adhesion hangs from the root, on the whole graph
    and on a vertex subset alike (``kernel.component_context`` relies on
    it)."""
    rng = random.Random(31)
    empty = 0
    for trial in range(400):
        g = random_chordal(rng, rng.randint(1, 8), rng.randint(1, 4), 1)
        for _ in range(rng.randint(1, 3)):
            g = _disjoint_union(g, random_chordal(
                rng, rng.randint(1, 8), rng.randint(1, 4), 1))
        s = [v for v in g.vertices() if trial % 2 == 0 or rng.random() < 0.8]
        t = clique_tree_of(g, s)
        for c in t.nodes():
            p = t.parent[c]
            if p is not None and not t.bags[c] & t.bags[p]:
                assert p == t.root
                empty += 1
    assert empty >= 600


def test_adhesion_of_the_root_is_refused():
    t = clique_tree_of(Graph(3, [(0, 1), (1, 2)]))
    child = next(c for c in t.nodes() if t.parent[c] is not None)
    assert t.adhesion(child) == frozenset({1})
    with pytest.raises(ValueError, match="root has no parent edge"):
        t.adhesion(t.root)


def test_top_and_reroot():
    g = complete_graph(3)
    t = clique_tree_of(g)
    for v in g.vertices():
        assert t.top(v) == t.root
    g = path_graph(4)
    t = clique_tree_of(g)
    ab = next(i for i, b in enumerate(t.bags) if b == frozenset({0, 1}))
    t = t.reroot(ab)
    assert t.root == ab
    mid = next(i for i, b in enumerate(t.bags) if b == frozenset({1, 2}))
    assert t.top(2) == mid


def test_reroot_at_every_node_is_the_bfs_rooting_of_the_same_edges():
    def edges(parent):
        return {frozenset((c, p)) for c, p in enumerate(parent)
                if p is not None}

    rng = random.Random(29)
    shapes = 0
    for _ in range(60):
        g = random_chordal(rng, rng.randint(4, 30), rng.randint(2, 14),
                           rng.randint(0, 2))
        t = clique_tree_of(g)
        adj = {q: [] for q in t.nodes()}
        for c, p in edges(t.parent):
            adj[c].append(p)
            adj[p].append(c)
        shapes += len(t.bags) >= 4
        for r in t.nodes():
            got = t.reroot(r)
            assert got.root == r and got.bags == t.bags
            assert edges(got.parent) == edges(t.parent)
            want = [None] * len(t.bags)
            queue, seen = [r], {r}
            for p in queue:
                for q in adj[p]:
                    if q not in seen:
                        seen.add(q)
                        want[q] = p
                        queue.append(q)
            assert list(got.parent) == want
            assert got.reroot(t.root).parent == t.parent
    assert shapes >= 30


def test_lca_against_naive_root_paths():
    rng = random.Random(31)
    for trial in range(30):
        g = random_chordal(rng, rng.randint(2, 14), rng.randint(2, 7), 2)
        t = clique_tree_of(g)

        def root_path(p):
            out = [p]
            while t.parent[out[-1]] is not None:
                out.append(t.parent[out[-1]])
            return out

        for p in t.nodes():
            for q in t.nodes():
                common = [x for x in root_path(p) if x in set(root_path(q))]
                assert t.lca(p, q) == common[0]


def test_minimal_path_p4():
    g = path_graph(4)
    t = clique_tree_of(g)
    path = minimal_path(t, 0, 3)
    assert len(path) == 3
    assert 0 in t.bags[path[0]] and 3 in t.bags[path[-1]]
    # adjacent pair: single shared node
    assert len(minimal_path(t, 1, 2)) == 1


def test_minimal_path_adhesions_cut_all_paths():
    # Observation: every st-path in g hits adh(e) for every edge e on the
    # minimal tree path; checked by path enumeration.
    rng = random.Random(37)
    for trial in range(20):
        g = random_chordal(rng, rng.randint(3, 12), rng.randint(2, 6), 2)
        t = clique_tree_of(g)
        for s in g.vertices():
            for u in range(s + 1, g.n):
                if g.has_edge(s, u):
                    continue
                nodes = minimal_path(t, s, u)
                if len(nodes) < 2:
                    continue
                for adh in path_adhesions(t, nodes):
                    # deleting the adhesion must disconnect s from u
                    allowed = set(g.vertices()) - set(adh)
                    if s in allowed and u in allowed:
                        assert bfs_path(g.neighbors, [s], {u},
                                        allowed) is None


def test_induced_path_avoiding_p4():
    g = path_graph(4)
    t = clique_tree_of(g)
    assert induced_path_avoiding(g, t, 0, 3, set()) == [0, 1, 2, 3]
    assert induced_path_avoiding(g, t, 0, 3, {1}) is None


def test_induced_path_avoiding_matches_bfs_oracle():
    rng = random.Random(41)
    for trial in range(120):
        g = random_chordal(rng, rng.randint(2, 12), rng.randint(2, 6), 2)
        t = clique_tree_of(g)
        verts = list(g.vertices())
        s, u = rng.sample(verts, 2) if g.n >= 2 else (0, 0)
        if g.n < 2:
            continue
        forbidden = {v for v in verts if v not in (s, u) and rng.random() < 0.3}
        res = induced_path_avoiding(g, t, s, u, forbidden)
        allowed = set(verts) - forbidden
        reachable = bfs_path(g.neighbors, [s], {u}, allowed) is not None
        assert (res is not None) == reachable
        if res is not None:
            assert res[0] == s and res[-1] == u
            assert not (set(res) & forbidden)
            for i, a in enumerate(res):
                for j in range(i + 2, len(res)):
                    assert not g.has_edge(a, res[j])


def test_internal_path_vertices_meet_the_tree_path():
    # every internal vertex of an induced st-path appears in a bag on the
    # minimal tree path connecting the endpoint subtrees
    rng = random.Random(67)
    for trial in range(40):
        g = random_chordal(rng, rng.randint(3, 12), rng.randint(2, 6), 2)
        t = clique_tree_of(g)
        for s in g.vertices():
            for u in range(s + 1, g.n):
                if g.has_edge(s, u):
                    continue
                path = induced_path_avoiding(g, t, s, u, set())
                if path is None:
                    continue
                tree_nodes = set(minimal_path(t, s, u))
                for w in path[1:-1]:
                    assert set(t.beta_inverse(w)) & tree_nodes


def test_mis_chordal_extremes_and_oracle():
    assert len(mis_chordal(complete_graph(4))) == 1
    assert len(mis_chordal(Graph(6))) == 6
    rng = random.Random(43)
    for trial in range(30):
        g = random_chordal(rng, rng.randint(1, 12), rng.randint(1, 6), 2)
        mis = mis_chordal(g)
        assert all(not g.has_edge(u, v) for u in mis for v in mis if u < v)
        assert len(mis) == bf_max_independent_set(g)


def test_mis_rejects_nonchordal():
    with pytest.raises(ValueError):
        mis_chordal(cycle_graph(5))


def test_proposition_alpha_vs_omega():
    # alpha(G) >= |V(G)| / omega(G) for chordal graphs
    rng = random.Random(47)
    for trial in range(30):
        g = random_chordal(rng, rng.randint(1, 14), rng.randint(1, 7), 2)
        omega = max(len(c) for c in maximal_cliques(g))
        assert len(mis_chordal(g)) * omega >= g.n


def test_central_bag_path_and_clique():
    g = path_graph(5)
    t = clique_tree_of(g)
    bag = central_bag(g, t, {v: 1.0 for v in g.vertices()})
    assert bag == frozenset({2, 3}) or bag == frozenset({1, 2})
    k4 = complete_graph(4)
    t4 = clique_tree_of(k4)
    assert central_bag(k4, t4, {v: 1.0 for v in k4.vertices()}) == frozenset(range(4))


def test_central_bag_random_weights_verified():
    rng = random.Random(53)
    for trial in range(30):
        g = random_chordal(rng, rng.randint(1, 12), rng.randint(1, 6), 2)
        t = clique_tree_of(g)
        weights = {v: rng.random() for v in g.vertices()}
        bag = central_bag(g, t, weights)
        total = sum(weights.values())
        for comp in components_within(g, set(g.vertices()) - bag):
            assert sum(weights[v] for v in comp) <= total / 2 + 1e-9


def test_find_hole_through():
    c5 = cycle_graph(5)
    for v in c5.vertices():
        h = find_hole_through(c5, v)
        assert h is not None and v in h.vertices
    # simplicial vertex in a chordal graph: no hole
    g = path_graph(4)
    assert find_hole_through(g, 0) is None


def test_find_hole_through_matches_enumeration():
    rng = random.Random(59)
    for trial in range(40):
        g = random_gnp(rng, rng.randint(4, 10), 0.3)
        holes = bf_all_holes(g)
        for v in g.vertices():
            expected = any(v in h for h in holes)
            got = find_hole_through(g, v)
            assert (got is not None) == expected
            if got is not None:
                assert verify_hole(g, got) and v in got.vertices


def test_find_hole_through_is_a_shortest_hole_through_v():
    rng = random.Random(67)
    for trial in range(40):
        g = random_gnp(rng, rng.randint(4, 11), 0.35)
        holes = bf_all_holes(g)
        for v in g.vertices():
            got = find_hole_through(g, v)
            lengths = [len(h) for h in holes if v in h]
            if got is None:
                assert not lengths
            else:
                assert verify_hole(g, got) and v in got.vertices
                assert len(got) == min(lengths)


def test_maximal_cliques_small_and_oracle():
    assert maximal_cliques(complete_graph(4)) == [frozenset(range(4))]
    c5 = cycle_graph(5)
    assert sorted(sorted(c) for c in maximal_cliques(c5)) == \
        [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    rng = random.Random(61)
    for trial in range(30):
        g = random_gnp(rng, rng.randint(1, 10), 0.4)
        got = maximal_cliques(g)
        assert got == bf_all_maximal_cliques(g)
        # the n^2 bound applies to C4-free graphs
        if bf_is_chordal(g):
            assert len(got) <= g.n * g.n


def test_is_chordal_wrapper():
    assert is_chordal(complete_graph(4))
    assert not is_chordal(cycle_graph(6))


def test_first_bag_containing_returns_first_match_in_node_order():
    rng = random.Random(23)
    for _ in range(20):
        g = random_chordal(rng, 12, 5, 2)
        t = clique_tree_of(g)
        for node in t.nodes():
            for s in (t.bags[node], frozenset(sorted(t.bags[node])[:1])):
                expected = next(q for q in t.nodes() if s <= t.bags[q])
                assert t.first_bag_containing(s) == expected
        assert t.first_bag_containing(frozenset(g.vertices())) is None \
            or len(t.bags) == 1


def test_clique_tree_of_vertices_labels_bags_in_the_callers_ids():
    rng = random.Random(41)
    for _ in range(40):
        g = random_chordal(rng, rng.randint(1, 14), rng.randint(1, 6), 2)
        s = {v for v in g.vertices() if rng.random() < 0.6}
        sub = induced_subgraph(g, s)
        local = clique_tree_of(sub.graph)
        t = clique_tree_of(g, s)
        assert t.bags == tuple(frozenset(sub.old_of[v] for v in bag)
                               for bag in local.bags)
        assert (t.parent, t.root) == (local.parent, local.root)
        for u in set(g.vertices()) - s:
            assert t.beta_inverse(u) == ()
            with pytest.raises(ValueError):
                t.top(u)
        for v in s:
            assert t.top(v) == local.top(sub.new_of(v))


def test_clique_tree_of_vertices_rejects_a_hole_inside_them():
    rng = random.Random(43)
    rejected = 0
    for _ in range(60):
        g = random_gnp(rng, rng.randint(4, 10), 0.4)
        s = {v for v in g.vertices() if rng.random() < 0.8}
        assert is_chordal(g, s) == is_chordal(induced_subgraph(g, s).graph)
        if bf_is_chordal(induced_subgraph(g, s).graph):
            assert is_chordal(g, s)
            clique_tree_of(g, s)
            continue
        with pytest.raises(ValueError):
            clique_tree_of(g, s)
        rejected += 1
    assert rejected >= 10


def test_find_hole_through_allowed_matches_the_induced_subgraph():
    rng = random.Random(47)
    found = 0
    for _ in range(40):
        g = random_gnp(rng, rng.randint(4, 11), 0.35)
        s = {v for v in g.vertices() if rng.random() < 0.8}
        sub = induced_subgraph(g, s)
        for v in sorted(s):
            local = find_hole_through(sub.graph, sub.new_of(v))
            got = find_hole_through(g, v, s)
            if local is None:
                assert got is None
            else:
                assert got == Hole(tuple(sub.old_of[u]
                                         for u in local.vertices)).canonical()
                found += 1
    assert found >= 20


def test_no_hole_through_a_vertex_outside_allowed():
    c4 = cycle_graph(4)
    assert find_hole_through(c4, 0, [0, 1, 2, 3]) == Hole((0, 1, 2, 3))
    assert find_hole_through(c4, 0, [1, 2, 3]) is None
    for weights in (None, [0.0] * 4, [0.25] * 4):
        assert lightest_hole_through(c4, 0, weights, [1, 2, 3],
                                     math.inf) is None
    rng = random.Random(53)
    for _ in range(40):
        g = random_gnp(rng, rng.randint(4, 11), 0.35)
        s = {v for v in g.vertices() if rng.random() < 0.7}
        for v in g.vertices():
            if v not in s:
                assert find_hole_through(g, v, s) is None


def test_central_bag_of_a_subgraph_tree_matches_the_induced_subgraph():
    rng = random.Random(71)
    for _ in range(30):
        g = random_chordal(rng, rng.randint(2, 14), rng.randint(1, 6), 2)
        s = {v for v in g.vertices() if rng.random() < 0.7} or {0}
        sub = induced_subgraph(g, s)
        weights = {v: rng.random() for v in g.vertices()}
        local = central_bag(sub.graph, clique_tree_of(sub.graph),
                            {u: weights[sub.old_of[u]]
                             for u in sub.graph.vertices()})
        got = central_bag(g, clique_tree_of(g, s), weights)
        assert got == frozenset(sub.old_of[u] for u in local)


def _disjoint_union(g, h):
    return Graph(g.n + h.n, list(g.edges())
                 + [(u + g.n, v + g.n) for u, v in h.edges()])


def _random_graph_and_subset(rng):
    """A chordal graph, a sparse random graph or a disjoint union of two
    chordal graphs, with an empty, singleton, partial or full subset."""
    shape = rng.randrange(3)
    if shape == 0:
        g = random_chordal(rng, rng.randint(0, 16), rng.randint(1, 7), 2)
    elif shape == 1:
        g = random_gnp(rng, rng.randint(0, 12), rng.choice((0.2, 0.35, 0.5)))
    else:
        g = _disjoint_union(
            random_chordal(rng, rng.randint(1, 8), rng.randint(1, 4), 1),
            random_chordal(rng, rng.randint(1, 8), rng.randint(1, 4), 1))
    size = rng.choice((0, 1, None, None, g.n))
    if size is None:
        s = {v for v in g.vertices() if rng.random() < rng.random()}
    else:
        s = set(rng.sample(range(g.n), min(size, g.n)))
    return g, s


def test_chordality_in_place_matches_the_copying_reference():
    """The heap-ordered search on g restricted to a set gives the same
    answer, bags, tree, independent set and PEO or hole as the O(n^2)
    scan on a renumbered copy."""
    rng = random.Random(89)
    seen = {"empty": 0, "singleton": 0, "disconnected": 0, "hole": 0,
            "chordal graph": 0}
    for _ in range(600):
        g, s = _random_graph_and_subset(rng)
        sub = induced_subgraph(g, s)
        assert mcs_order(g) == ref_mcs_order(g)
        assert mcs_order(g, s) == [sub.old_of[v]
                                   for v in ref_mcs_order(sub.graph)]
        for vertices in (s, None):
            chordal = ref_is_chordal(g, vertices)
            assert is_chordal(g, vertices) == chordal
            if not chordal:
                seen["hole"] += 1
                with pytest.raises(ValueError):
                    clique_tree_of(g, vertices)
                with pytest.raises(ValueError):
                    mis_chordal(g, vertices)
                continue
            want = ref_clique_tree_of(g, vertices)
            got = clique_tree_of(g, vertices)
            assert (got.bags, got.parent, got.root) == \
                (want.bags, want.parent, want.root)
            if vertices is None:
                assert mis_chordal(g) == ref_mis_chordal(g)
                continue
            assert mis_chordal(g, s) == \
                sub.to_parent(ref_mis_chordal(sub.graph))
            seen["empty"] += not s
            seen["singleton"] += len(s) == 1
            seen["disconnected"] += len(components_within(g, s)) > 1
        assert recognize(g) == ref_recognize(g)
        assert recognize(sub.graph) == ref_recognize(sub.graph)
        seen["chordal graph"] += isinstance(recognize(g), PEO)
    assert min(seen.values()) >= 50, seen


def test_cliques_and_first_hole_in_place_match_the_renumbered_copy():
    """maximal_cliques(g, S) and find_any_hole(g, S) equal the same calls
    on the renumbered copy of g[S], mapped back."""
    rng = random.Random(97)
    holes = 0
    for trial in range(400):
        if trial % 2:
            g, s = _random_graph_and_subset(rng)
        else:
            g = random_gnp(rng, rng.randint(4, 14), rng.choice((0.25, 0.4)))
            s = {v for v in g.vertices() if rng.random() < 0.8}
        sub = induced_subgraph(g, s)
        assert maximal_cliques(g, s) == [
            frozenset(sub.to_parent(c)) for c in maximal_cliques(sub.graph)]
        want = find_any_hole(sub.graph)
        got = find_any_hole(g, s)
        assert got == (None if want is None else
                       Hole(tuple(sub.old_of[v] for v in want.vertices)))
        assert find_any_hole(g, None) == find_any_hole(g)
        holes += got is not None
    assert holes >= 75


def test_chordality_queries_name_an_unknown_vertex():
    g = path_graph(9)
    for query in (is_chordal, clique_tree_of, mis_chordal):
        with pytest.raises(ValueError, match="unknown vertex id 99"):
            query(g, [99])
        with pytest.raises(ValueError, match="unknown vertex id -1"):
            query(g, [3, -1, 99])


def test_one_vertex_test_matches_recognition():
    """g[core + v] is chordal exactly when every component of the core
    minus N(v) meets N(v) in a clique."""
    rng = random.Random(97)
    answers = {True: 0, False: 0}
    for _ in range(400):
        core_graph = random_chordal(rng, rng.randint(1, 14),
                                    rng.randint(1, 6), 2)
        n = core_graph.n
        v = n
        p = rng.choice((0.15, 0.3, 0.6))
        g = Graph(n + 1, list(core_graph.edges())
                  + [(u, v) for u in range(n) if rng.random() < p])
        core = frozenset(range(n))
        want = is_chordal(g, core | {v})
        assert chordal_with(g, core, v) == want
        answers[want] += 1
    assert min(answers.values()) >= 60, answers
