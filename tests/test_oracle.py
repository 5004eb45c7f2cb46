"""Exact solvers against subset enumeration."""
import random

import pytest

from chvd.graphs import Graph, DiGraph, verify_hole
from chvd import graphs, oracle
from chvd.oracle import SearchBudgetExceeded, exact_chvd, \
    exact_chvd_forced, exact_multicut, shortest_hole_avoiding
from chvd.generate import GeneratorSpec, generate, random_dag, random_gnp
from bruteforce import (
    bf_all_holes,
    bf_chordal_after_delete,
    bf_di_connected,
    bf_min_chvd,
    bf_min_multicut,
    ref_exact_chvd,
    ref_exact_multicut,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_exact_chvd_trivial():
    g = Graph(5, [(0, 1), (1, 2)])
    res = exact_chvd(g, 0)
    assert res is not None and res.optimum == 0 and res.solution == frozenset()

    c4 = cycle_graph(4)
    assert exact_chvd(c4, 0) is None
    res = exact_chvd(c4, 1)
    assert res is not None and res.optimum == 1 and len(res.solution) == 1
    assert exact_chvd(c4, -1) is None


def test_exact_chvd_agrees_with_enumeration():
    rng = random.Random(71)
    for trial in range(50):
        g = random_gnp(rng, rng.randint(4, 9), 0.4)
        k = rng.randint(0, 3)
        expected = bf_min_chvd(g)
        res = exact_chvd(g, k)
        if expected is not None and expected <= k:
            assert res is not None and res.optimum == expected
            assert bf_chordal_after_delete(g, set(res.solution))
        else:
            assert res is None


def test_exact_chvd_on_planted_instances():
    for seed in range(25):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=9,
                                               planted=2, noise_edges=1))
        res = exact_chvd(g, k)
        assert res is not None and res.optimum <= len(planted)
        assert bf_chordal_after_delete(g, set(res.solution))


def test_exact_chvd_forced_reduces_to_plain():
    rng = random.Random(73)
    for trial in range(20):
        g = random_gnp(rng, 8, 0.4)
        plain = exact_chvd(g, 3)
        forced = exact_chvd_forced(g, 3, ())
        assert (plain is None) == (forced is None)
        if plain is not None:
            assert plain.optimum == forced.optimum


def test_exact_chvd_forced_pair_on_chordal_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = exact_chvd_forced(g, 1, ((0, 3),))
    assert res is not None and res.optimum == 1
    assert res.solution <= {0, 3}
    assert exact_chvd_forced(g, 0, ((0, 3),)) is None


def test_exact_chvd_forced_agrees_with_enumeration():
    rng = random.Random(79)
    for trial in range(30):
        g = random_gnp(rng, 7, 0.35)
        pairs = []
        if g.n >= 4:
            pairs = [(0, 1), (2, 3)]
        expected = bf_min_chvd(g, forced_pairs=pairs)
        res = exact_chvd_forced(g, 4, tuple(pairs))
        if expected is not None and expected <= 4:
            assert res is not None and res.optimum == expected
        else:
            assert res is None


def two_cycles_with_chords(rng):
    """Two cycles on random vertex sets plus sparse random edges, so that
    holes of several lengths occur, through different vertices."""
    n = rng.randint(5, 12)
    edges = []
    for _ in range(2):
        cycle = rng.sample(range(n), rng.randint(4, n))
        edges += [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < 0.1]
    return Graph(n, edges)


def test_shortest_hole_avoiding_agrees_with_enumeration():
    rng = random.Random(89)
    for trial in range(40):
        g = two_cycles_with_chords(rng)
        deleted = frozenset(v for v in g.vertices() if rng.random() < 0.1)
        lengths = [len(h) for h in bf_all_holes(g) if not h & deleted]
        hole = shortest_hole_avoiding(g, deleted)
        if not lengths:
            assert hole is None
            continue
        assert hole is not None and verify_hole(g, hole)
        assert not hole.vertex_set() & deleted
        assert len(hole) == min(lengths)


def test_shortest_hole_avoiding_runs_one_search_per_vertex_neighbour_pair(
        monkeypatch):
    g, _, planted = generate(GeneratorSpec(seed=3, core_vertices=40,
                                           tree_nodes=13, planted=4,
                                           noise_edges=1))
    deleted = frozenset(sorted(planted)[:1])
    calls = []
    search = graphs.dijkstra_vertex_weights

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "dijkstra_vertex_weights", counting)
    assert shortest_hole_avoiding(g, deleted) is not None
    alive = [v for v in g.vertices() if v not in deleted]
    assert 0 < len(calls) <= sum(g.degree(v) for v in alive)


def test_exact_multicut_trivial():
    d = DiGraph(3, [(0, 1), (1, 2)])
    res = exact_multicut(d, [], 0)
    assert res is not None and res.optimum == 0
    res = exact_multicut(d, [(0, 2)], 1)
    assert res is not None and res.optimum == 1 and res.solution == frozenset({1})


def test_exact_multicut_agrees_with_enumeration():
    rng = random.Random(83)
    for trial in range(40):
        d = random_dag(rng, rng.randint(3, 8), 0.35)
        verts = list(d.vertices())
        pairs = []
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(verts, 2)
            pairs.append((s, t))
        expected = bf_min_multicut(d, pairs)
        res = exact_multicut(d, pairs, d.n)
        assert res is not None and res.optimum == expected
        assert all(not bf_di_connected(d, s, t, set(res.solution))
                   for s, t in pairs)


def test_node_budget_is_enforced_during_the_search(monkeypatch):
    # four disjoint C4s: the minimum (4) is found only at budget level 4
    g = Graph(16, [(4 * c + i, 4 * c + (i + 1) % 4)
                   for c in range(4) for i in range(4)])
    needed = exact_chvd(g, 4).nodes_explored
    assert exact_chvd(g, 4, node_budget=needed).optimum == 4
    with pytest.raises(SearchBudgetExceeded):
        exact_chvd(g, 4, node_budget=needed - 1)

    searched = []
    original = oracle.shortest_hole_avoiding

    def counting(graph, deleted):
        searched.append(deleted)
        return original(graph, deleted)

    monkeypatch.setattr(oracle, "shortest_hole_avoiding", counting)
    for solve in (lambda: exact_chvd(g, 4, node_budget=3),
                  lambda: exact_chvd_forced(g, 4, ((0, 4),), node_budget=3)):
        searched.clear()
        with pytest.raises(SearchBudgetExceeded) as info:
            solve()
        assert info.value.node_budget == 3
        # the search stops at the fourth node, inside the first level that
        # needs it, instead of finishing that level first
        assert len(searched) <= 3


def test_multicut_node_budget_is_enforced():
    d = DiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert exact_multicut(d, [(0, 2), (3, 5)], 2, node_budget=100).optimum == 2
    with pytest.raises(SearchBudgetExceeded):
        exact_multicut(d, [(0, 2), (3, 5)], 2, node_budget=2)


def assert_same_optimum(res, ref):
    assert (res is None) == (ref is None)
    if res is not None:
        assert res.optimum == ref.optimum == len(res.solution)


def test_exact_chvd_matches_pool_free_reference():
    rng = random.Random(101)
    for trial in range(60):
        g = (two_cycles_with_chords(rng) if trial % 2
             else random_gnp(rng, rng.randint(5, 11), 0.4))
        k = rng.randint(0, 4)
        res = exact_chvd(g, k)
        assert_same_optimum(res, ref_exact_chvd(g, k))
        if res is not None:
            assert bf_chordal_after_delete(g, set(res.solution))


def test_exact_chvd_forced_matches_pool_free_reference():
    rng = random.Random(103)
    for trial in range(40):
        g = two_cycles_with_chords(rng)
        pairs = tuple(tuple(rng.sample(range(g.n), 2))
                      for _ in range(rng.randint(1, 3)))
        k = rng.randint(1, 5)
        res = exact_chvd_forced(g, k, pairs)
        assert_same_optimum(res, ref_exact_chvd(g, k, forced_pairs=pairs))
        if res is not None:
            assert all(x in res.solution or y in res.solution
                       for x, y in pairs)
            assert bf_chordal_after_delete(g, set(res.solution))


def test_exact_chvd_avoiding_matches_pool_free_reference():
    rng = random.Random(107)
    for trial in range(40):
        g = two_cycles_with_chords(rng)
        forbidden = frozenset(v for v in g.vertices() if rng.random() < 0.3)
        k = rng.randint(0, 4)
        res = exact_chvd(g, k, forbidden=forbidden)
        assert_same_optimum(res, ref_exact_chvd(g, k, forbidden=forbidden))
        if res is not None:
            assert not res.solution & forbidden
            assert bf_chordal_after_delete(g, set(res.solution))


def test_exact_chvd_forced_and_forbidden_match_pool_free_reference():
    rng = random.Random(127)
    solved = 0
    for trial in range(40):
        g = two_cycles_with_chords(rng)
        pairs = tuple(tuple(rng.sample(range(g.n), 2))
                      for _ in range(rng.randint(1, 3)))
        forbidden = frozenset(v for v in g.vertices() if rng.random() < 0.2)
        k = rng.randint(1, 5)
        res = exact_chvd(g, k, forced=pairs, forbidden=forbidden)
        assert_same_optimum(
            res, ref_exact_chvd(g, k, forced_pairs=pairs, forbidden=forbidden))
        if res is not None:
            solved += 1
            assert not res.solution & forbidden
            assert all(x in res.solution or y in res.solution
                       for x, y in pairs)
            assert bf_chordal_after_delete(g, set(res.solution))
    assert 0 < solved < 40


def test_forced_pair_with_both_endpoints_forbidden_has_no_solution():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for k in range(g.n + 1):
        assert exact_chvd(g, k, forced=[(0, 3)], forbidden=[0, 3]) is None
    # with one endpoint allowed, the pair is hit through it
    res = exact_chvd(g, g.n, forced=[(0, 3)], forbidden=[0])
    assert res.solution == frozenset({3})


def test_exact_chvd_forced_is_exact_chvd_with_forced_pairs():
    rng = random.Random(131)
    for trial in range(20):
        g = two_cycles_with_chords(rng)
        pairs = tuple(tuple(rng.sample(range(g.n), 2))
                      for _ in range(rng.randint(0, 3)))
        k = rng.randint(0, 5)
        assert exact_chvd_forced(g, k, pairs) == exact_chvd(g, k, pairs)


def test_exact_multicut_matches_pool_free_reference():
    rng = random.Random(109)
    for trial in range(40):
        d = random_dag(rng, rng.randint(3, 10), 0.35)
        pairs = [tuple(rng.sample(range(d.n), 2))
                 for _ in range(rng.randint(1, 4))]
        k = rng.randint(0, 4)
        res = exact_multicut(d, pairs, k)
        assert_same_optimum(res, ref_exact_multicut(d, pairs, k))
        if res is not None:
            assert all(not bf_di_connected(d, s, t, set(res.solution))
                       for s, t in pairs)


def ladder_44():
    g, k, _ = generate(GeneratorSpec(seed=3, core_vertices=40, tree_nodes=13,
                                     planted=4, noise_edges=1))
    return g, k


def test_exact_solvers_are_deterministic():
    g, k = ladder_44()
    assert exact_chvd(g, k) == exact_chvd(g, k)
    forced = ((0, 5), (7, 11))
    assert exact_chvd_forced(g, k, forced) == exact_chvd_forced(g, k, forced)
    d = random_dag(random.Random(113), 10, 0.35)
    pairs = [(0, 9), (1, 8), (2, 7)]
    assert exact_multicut(d, pairs, 5) == exact_multicut(d, pairs, 5)


def counting_hole_searches(monkeypatch):
    """Record (deleted, hole found) for every oracle.shortest_hole_avoiding call."""
    calls = []
    original = oracle.shortest_hole_avoiding

    def counting(graph, deleted):
        hole = original(graph, deleted)
        calls.append((deleted, hole))
        return hole

    monkeypatch.setattr(oracle, "shortest_hole_avoiding", counting)
    return calls


def test_pooled_search_runs_few_hole_searches(monkeypatch):
    g, k = ladder_44()
    calls = counting_hole_searches(monkeypatch)
    ref = ref_exact_chvd(g, k)
    ref_calls = len(calls)
    calls.clear()
    res = exact_chvd(g, k)
    assert res is not None and res.optimum == ref.optimum
    assert 4 * len(calls) <= ref_calls
    # a hole search runs only where every hole found so far is hit
    for i, (deleted, _) in enumerate(calls):
        assert all(hole.vertex_set() & deleted for _, hole in calls[:i])


def test_packing_bound_prunes_disjoint_holes(monkeypatch):
    # four disjoint C4s need four deletions; with k = 3 the packing of the
    # four pooled holes refutes every node without further hole searches
    g = Graph(16, [(4 * c + i, 4 * c + (i + 1) % 4)
                   for c in range(4) for i in range(4)])
    calls = counting_hole_searches(monkeypatch)
    assert exact_chvd(g, 3) is None
    assert len(calls) <= 4
    # without the bound the search walks over a hundred nodes here
    assert exact_chvd(g, 3, node_budget=40) is None
