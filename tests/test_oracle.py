"""Exact solvers against subset enumeration."""
import hashlib
import math
import random

import pytest

from chvd.graphs import Graph, DiGraph, Hole, verify_hole
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
    ref_shortest_hole_avoiding,
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
    search = graphs._unit_layers

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "_unit_layers", counting)
    assert shortest_hole_avoiding(g, deleted) is not None
    alive = [v for v in g.vertices() if v not in deleted]
    assert 0 < len(calls) <= sum(g.degree(v) for v in alive)


def few_chord_cycles(rng):
    """Two or three cycles of length 4 to 8 on random vertices plus a few
    chords, so that a 4-hole often lies on later vertices than a longer
    hole does."""
    n = rng.randint(8, 20)
    edges = []
    for _ in range(rng.randint(2, 3)):
        cycle = rng.sample(range(n), rng.randint(4, 8))
        edges += [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < 0.03]
    return Graph(n, edges)


def test_shortest_hole_avoiding_matches_the_loop_without_a_floor():
    rng = random.Random(131)
    for trial in range(40):
        g = few_chord_cycles(rng)
        deleted = frozenset(v for v in g.vertices() if rng.random() < 0.15)
        assert (shortest_hole_avoiding(g, deleted)
                == ref_shortest_hole_avoiding(g, deleted))


def test_shortest_hole_avoiding_stops_at_the_first_four_hole(monkeypatch):
    # vertex 0 lies on a C4; a tail leads to a C5 and a C6 further on
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(v, v + 1) for v in range(3, 12)]
    edges += [(12 + i, 12 + (i + 1) % 5) for i in range(5)]
    edges += [(16, 17)] + [(17 + i, 17 + (i + 1) % 6) for i in range(6)]
    g = Graph(23, edges)
    calls = []
    search = graphs.lightest_hole_through

    def counting(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "lightest_hole_through", counting)
    assert shortest_hole_avoiding(g, frozenset()) == Hole((0, 1, 2, 3))
    assert calls == [0]
    # with the C4 broken, no hole reaches the floor: every alive vertex
    # is searched, and the C5 wins
    calls.clear()
    hole = shortest_hole_avoiding(g, frozenset({1}))
    assert hole is not None and hole.vertex_set() == set(range(12, 17))
    assert len(calls) == g.n - 1


def least_vertex_hole_lengths(g, alive):
    """For each alive v, the length of the shortest hole of g[alive]
    whose least vertex is v (inf if none), by enumeration."""
    lengths = dict.fromkeys(alive, math.inf)
    for hole in bf_all_holes(g):
        if hole <= alive:
            v = min(hole)
            lengths[v] = min(lengths[v], len(hole))
    return lengths


def test_hole_bounds_learned_with_fewer_deletions_keep_the_shortest_hole(
        monkeypatch):
    """A table learned at D, passed on to a superset D' of D, gives the
    hole that the search without a table and the reference give, and
    every entry it holds for an alive vertex stays a lower bound."""
    rng = random.Random(149)
    searched = []
    search = graphs.lightest_hole_through

    def counting(*args, **kwargs):
        searched.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "lightest_hole_through", counting)
    skipped = found = 0
    for trial in range(150):
        n = rng.randint(6, 13)
        g = random_gnp(rng, n, rng.choice([0.2, 0.3, 0.45]))
        deleted = frozenset(v for v in g.vertices() if rng.random() < 0.1)
        more = deleted | {v for v in g.vertices() if rng.random() < 0.2}
        table = [0] * n
        for d in (deleted, more):
            searched.clear()
            without = shortest_hole_avoiding(g, d)
            plain = len(searched)
            searched.clear()
            hole = shortest_hole_avoiding(g, d, table)
            assert hole == without == ref_shortest_hole_avoiding(g, d)
            alive = frozenset(g.vertices()) - d
            lengths = least_vertex_hole_lengths(g, alive)
            assert all(table[v] <= lengths[v] for v in alive)
            if d is more:
                skipped += len(searched) < plain
                found += hole is not None
    assert skipped >= 60 and found >= 40


def test_hole_bounds_save_searches_in_the_exact_solver(monkeypatch):
    """On the n = 44 ladder instance (generate seed 3, k = 4), the kept
    tables cut the searches through a vertex against the same solve with
    a fresh table at every search node."""
    g, k = ladder_44()
    calls = []
    search = graphs.lightest_hole_through

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "lightest_hole_through", counting)
    res = exact_chvd(g, k)
    with_tables = len(calls)
    original = oracle.shortest_hole_avoiding

    def fresh_table(graph, deleted, bounds=None):
        return original(graph, deleted, [0] * graph.n)

    monkeypatch.setattr(oracle, "shortest_hole_avoiding", fresh_table)
    calls.clear()
    assert exact_chvd(g, k) == res
    assert (with_tables, len(calls)) == (485, 828)


# sha256 of (optimum, sorted solution, nodes_explored) per solve below,
# recorded before the hole search gained its floor
EXACT_DIGEST = (
    "88f1718b125f432c1769e204e4b16a4c4da6e260aad8053d9a09d48278b7fdcb")


def test_exact_chvd_outputs_are_pinned():
    results = []
    for seed in range(6):
        g, _, _ = generate(GeneratorSpec(seed=seed, core_vertices=24,
                                         tree_nodes=8, planted=3,
                                         noise_edges=1))
        rng = random.Random(seed)
        pairs = tuple(tuple(rng.sample(range(g.n), 2)) for _ in range(2))
        for forced in ((), pairs):
            res = exact_chvd(g, 5, forced=forced)
            results.append(None if res is None else (
                res.optimum, sorted(res.solution), res.nodes_explored))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == EXACT_DIGEST


def test_exact_chvd_refuses_forced_ids_outside_the_graph():
    with pytest.raises(ValueError, match="unknown vertex id 5"):
        exact_chvd(Graph(2), 1, forced=[(5, 9)])
    with pytest.raises(ValueError, match="unknown vertex id -1"):
        exact_chvd_forced(Graph(3), 1, [(-1, 2)])


def test_exact_chvd_refuses_forbidden_ids_outside_the_graph():
    with pytest.raises(ValueError, match="unknown vertex id 4"):
        exact_chvd(cycle_graph(4), 1, forbidden=[0, 4])


def test_exact_chvd_refuses_a_forced_pair_with_equal_endpoints():
    with pytest.raises(ValueError, match="equal endpoints"):
        exact_chvd(Graph(3), 1, forced=[(0, 2), (1, 1)])


def test_exact_multicut_refuses_terminal_ids_outside_the_graph():
    with pytest.raises(ValueError, match="unknown vertex id 5"):
        exact_multicut(DiGraph(3, [(0, 1), (1, 2)]), [(0, 5)], 2)


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

    def counting(graph, deleted, bounds=None):
        searched.append(deleted)
        return original(graph, deleted, bounds)

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

    def counting(graph, deleted, bounds=None):
        hole = original(graph, deleted, bounds)
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
