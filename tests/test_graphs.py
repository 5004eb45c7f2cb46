"""Graph-core operations against brute-force checks."""
import copy
import pickle
import random

import pytest

from chvd.graphs import (
    DiGraph,
    Graph,
    Hole,
    bfs_path,
    boundary,
    delete_vertices,
    induced_subgraph,
    is_clique,
    shortcut_walk,
    verify_hole,
)
from chvd.chordal import find_hole_through
from chvd.generate import random_gnp
from bruteforce import connected_components, is_induced_path, ref_verify_hole


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_graph_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(1) == (0, 2)
    for u, v in g.edges():
        assert g.has_edge(u, v) and g.has_edge(v, u)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError, match="negative vertex count"):
        Graph(-1)
    # duplicate edges collapse
    assert Graph(3, [(0, 1), (1, 0)]).m == 1


def test_induced_subgraph_k4_restriction():
    g = complete_graph(4)
    sub = induced_subgraph(g, {0, 1, 2})
    assert sub.graph == complete_graph(3)
    assert sub.old_of == (0, 1, 2)


def test_induced_subgraph_identity_on_c5():
    g = cycle_graph(5)
    sub = induced_subgraph(g, range(5))
    assert sub.graph == g


def test_induced_subgraph_matches_bruteforce_filter():
    rng = random.Random(7)
    for trial in range(25):
        g = random_gnp(rng, 10, 0.4)
        s = sorted(rng.sample(range(10), 5))
        sub = induced_subgraph(g, s)
        expected = {(min(a, b), max(a, b)) for a, b in g.edges()
                    if a in s and b in s}
        got = {(min(sub.old_of[a], sub.old_of[b]), max(sub.old_of[a], sub.old_of[b]))
               for a, b in sub.graph.edges()}
        assert got == expected


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(3), {5})


def test_delete_vertices_removes_incident_edges():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = delete_vertices(g, {1})
    assert sub.graph.m == 1
    assert sub.to_parent(sub.graph.vertices()) == {0, 2, 3}


def test_connected_components_trivial_cases():
    assert connected_components(Graph(3)) == [frozenset({0}), frozenset({1}),
                                              frozenset({2})]
    assert connected_components(cycle_graph(4)) == [frozenset(range(4))]
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert connected_components(two_triangles) == [frozenset({0, 1, 2}),
                                                   frozenset({3, 4, 5})]


def test_connected_components_partition_and_reachability():
    rng = random.Random(11)
    for trial in range(25):
        g = random_gnp(rng, 9, 0.2)
        comps = connected_components(g)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
            # every part passes a BFS-reachability check
            start = min(comp)
            for v in comp:
                assert bfs_path(g.neighbors, [start], {v}) is not None
        assert union == set(g.vertices())
        for c1 in comps:
            for c2 in comps:
                if c1 is not c2:
                    assert not any(g.has_edge(u, v) for u in c1 for v in c2)


def test_boundary_is_the_open_neighbourhood_of_the_set():
    rng = random.Random(17)
    for trial in range(200):
        n = rng.randint(1, 25)
        g = random_gnp(rng, n, rng.uniform(0.0, 0.4))
        s = (frozenset() if trial % 10 == 0 else
             frozenset(v for v in g.vertices() if rng.random() < 0.3))
        want = {w for w in g.vertices() if w not in s
                and any(g.has_edge(w, v) for v in s)}
        assert boundary(g, s) == want


def test_is_clique():
    g = Graph(3, [(0, 1), (1, 2)])
    assert is_clique(g, set())
    assert is_clique(g, {2})
    assert is_clique(g, {0, 1})
    assert not is_clique(g, {0, 1, 2})


def test_verify_hole():
    c4 = cycle_graph(4)
    assert verify_hole(c4, Hole((0, 1, 2, 3)))
    assert not verify_hole(c4, Hole((0, 1, 2)))
    k4 = complete_graph(4)
    assert not verify_hole(k4, Hole((0, 1, 2, 3)))
    assert not verify_hole(c4, Hole((0, 1, 1, 3)))
    assert not verify_hole(c4, Hole((0, 2, 1, 3)))


def test_verify_hole_agrees_with_the_pairwise_check():
    """Random id sequences (repeats and out-of-range ids included), every
    hole ``find_hole_through`` returns in each rotation and reflection,
    and each such hole with one chord added."""
    rng = random.Random(32)
    cases = holes = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_gnp(rng, n, rng.choice([0.2, 0.35, 0.5]))
        for _ in range(3):
            seq = Hole(tuple(rng.randint(-1, n)
                             for _ in range(rng.randint(0, 12))))
            assert verify_hole(g, seq) == ref_verify_hole(g, seq)
            cases += 1
        for v in g.vertices():
            hole = find_hole_through(g, v)
            if hole is None:
                continue
            holes += 1
            vs = hole.vertices
            k = len(vs)
            for i in range(k):
                turned = vs[i:] + vs[:i]
                for h in (Hole(turned), Hole(turned[::-1])):
                    assert verify_hole(g, h) and ref_verify_hole(g, h)
                    cases += 1
            i = rng.randrange(k)
            j = (i + rng.randint(2, k - 2)) % k
            chorded = g.add_edges([(vs[i], vs[j])])
            assert not verify_hole(chorded, hole)
            assert not ref_verify_hole(chorded, hole)
            cases += 1
    assert holes >= 100 and cases >= 2000


def test_shortcut_walk_trivial():
    g = Graph(3, [(0, 1), (1, 2)])
    assert shortcut_walk(g, [0, 1, 0, 1, 2]) == [0, 1, 2]
    g2 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert shortcut_walk(g2, [0, 1, 2]) == [0, 2]


def test_shortcut_walk_random_output_is_induced():
    rng = random.Random(3)
    for trial in range(40):
        g = random_gnp(rng, 10, 0.35)
        start = rng.randrange(10)
        walk = [start]
        for _ in range(8):
            nbrs = g.neighbors(walk[-1])
            if not nbrs:
                break
            walk.append(rng.choice(nbrs))
        path = shortcut_walk(g, walk)
        assert path[0] == walk[0] and path[-1] == walk[-1]
        assert set(path) <= set(walk)
        assert is_induced_path(g, path)


def test_digraph_basics_and_acyclicity():
    d = DiGraph(3, [(0, 1), (1, 2)])
    assert 1 in d.out_neighbors(0) and 0 not in d.out_neighbors(1)
    assert d.is_acyclic()
    assert not DiGraph(2, [(0, 1), (1, 0)]).is_acyclic()
    assert bfs_path(d.out_neighbors, [0], {2}) == [0, 1, 2]
    assert bfs_path(d.out_neighbors, [2], {0}) is None
    assert bfs_path(d.out_neighbors, [0], {2}, {0, 2}) is None
    with pytest.raises(ValueError, match="negative vertex count"):
        DiGraph(-1)


def test_graph_copies_compare_and_hash_before_first_membership_query():
    def fresh():
        return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

    g = fresh()
    assert not hasattr(g, "_adjset")
    clones = [pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)]
    assert g == fresh() and hash(g) == hash(fresh())
    assert not hasattr(g, "_adjset")
    for clone in clones:
        assert clone == g and hash(clone) == hash(g)
        assert clone.has_edge(0, 4) and not clone.has_edge(0, 2)
        assert clone.neighbor_set(1) == frozenset({0, 2})
        assert clone.closed_neighborhood(1) == frozenset({0, 1, 2})
    built = fresh()
    built.has_edge(0, 1)
    assert pickle.loads(pickle.dumps(built)) == built == g


def test_subgraph_index_matches_old_of():
    g = random_gnp(random.Random(5), 12, 0.3)
    sub = delete_vertices(g, [0, 3, 7])
    assert [sub.new_of(old) for old in sub.old_of] == list(range(sub.graph.n))
    assert sub.to_sub(sub.old_of) == set(sub.graph.vertices())
    with pytest.raises(KeyError):
        sub.new_of(3)
