"""Cutting-plane LP, simplex, and separation oracles."""
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from chvd.graphs import Graph, DiGraph
from chvd.lp import (
    ChvdProblem,
    FractionalSolution,
    MulticutProblem,
    at_least,
    separate_chvd,
    separate_multicut,
    simplex_min_cover,
    solve_fractional,
)
from chvd import graphs, lp
from chvd.chordal import hole_vertices
from chvd.generate import GeneratorSpec, generate, random_dag, random_gnp, \
    random_staircase
from chvd.oracle import exact_chvd
from bruteforce import bf_all_holes, cycle_graph, \
    ref_dijkstra_vertex_weights, ref_separate_chvd, ref_separate_multicut, \
    ref_separate_multicut_paths, ref_simplex_min_cover


def test_simplex_single_constraint():
    xs = simplex_min_cover(3, [frozenset({0, 1})])
    assert abs(sum(xs) - 1.0) < 1e-9
    assert xs[2] == 0.0


def test_simplex_disjoint_constraints():
    xs = simplex_min_cover(4, [frozenset({0, 1}), frozenset({2, 3})])
    assert abs(sum(xs) - 2.0) < 1e-9


def test_simplex_overlapping_constraints():
    # constraints {0,1}, {1,2}: x = e_1 is optimal
    xs = simplex_min_cover(3, [frozenset({0, 1}), frozenset({1, 2})])
    assert abs(sum(xs) - 1.0) < 1e-9


def test_simplex_exact_matches_float():
    rng = random.Random(97)
    for trial in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, 6)
        sets = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(m)
        ]
        approx = simplex_min_cover(n, sets)
        exact = ref_simplex_min_cover(n, sets, exact=True)
        assert abs(sum(approx) - float(sum(exact, Fraction(0)))) < 1e-9
        for cset in sets:
            assert sum(exact[v] for v in cset) >= 1
            assert sum(approx[v] for v in cset) >= 1 - 1e-9


def test_simplex_matches_the_dense_reference():
    """The sparse pivots return every value of the dense tableau, float
    for float."""
    rng = random.Random(98)
    for trial in range(120):
        n = rng.randint(1, 16)
        m = rng.randint(0, 24)
        sets = [
            frozenset(rng.sample(range(n), rng.randint(1, min(n, 8))))
            for _ in range(m)
        ]
        got = simplex_min_cover(n, sets)
        want = ref_simplex_min_cover(n, sets)
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))


@dataclass(frozen=True)
class ReferenceRounds:
    """A problem on the n vertices 0..n-1 whose separation first checks
    the round's x against the dense reference over the pool so far, repr
    for repr, then asks the inner problem and pools every set it
    returns."""

    inner: object
    n: int
    pools: list

    @property
    def vertices(self) -> range:
        # the reference solves over every vertex, so the LP does too
        return range(self.n)

    def separate(self, x):
        pool = self.pools[-1] if self.pools else []
        if pool:
            want = ref_simplex_min_cover(self.n, pool)
            assert list(map(repr, x.values.values())) == list(map(repr, want))
        found = self.inner.separate(x)
        if found:
            self.pools.append(pool + found)
        return found


@dataclass(frozen=True)
class Scripted:
    """Separation that hands out the given rounds of sets in order, then
    an empty list."""

    n: int
    rounds: list

    @property
    def vertices(self) -> range:
        return range(self.n)

    def separate(self, x):
        return self.rounds.pop(0) if self.rounds else []


def counting_adds(monkeypatch):
    """Patch ``_Tableau.add`` to list, per call on a tableau that has
    pivoted, the recorded pivot it rewound to, or None when it kept the
    whole record.  A rewind must keep the record before its pivot, and
    that pivot must have entered a slack."""
    outcomes = []
    add = lp._Tableau.add

    def counting(self, cset):
        record = list(self.record)
        add(self, cset)
        if record:
            p = len(self.record)
            assert self.record == record[:p]
            if p < len(record):
                assert record[p][1]
                outcomes.append(p)
            else:
                outcomes.append(None)

    monkeypatch.setattr(lp._Tableau, "add", counting)
    return outcomes


def test_simplex_matches_the_dense_reference_every_cutting_plane_round(
        monkeypatch):
    """solve_fractional keeps one tableau across rounds and rewinds it
    when a new column parts from its record; every round's x is still
    the dense cold simplex's, float for float."""
    outcomes = counting_adds(monkeypatch)
    pools = []
    for seed in range(4):
        g, _, _ = generate(GeneratorSpec(seed=seed, core_vertices=30,
                                         tree_nodes=10, planted=4,
                                         noise_edges=1))
        problem = ReferenceRounds(ChvdProblem(g), g.n, [])
        solve_fractional(problem)
        pools += problem.pools
        d, _, _, pairs = random_staircase(seed, n=40, a=8, b=8, p=0.3)
        problem = ReferenceRounds(MulticutProblem(d, tuple(pairs)), d.n, [])
        solve_fractional(problem)
        pools += problem.pools
    assert len(pools) >= 50 and max(map(len, pools)) >= 12
    rewinds = len(outcomes) - outcomes.count(None)
    assert outcomes.count(None) >= 10 and rewinds >= 3


# Each set is violated by the x of the round that adds it.  The third
# round ends on a pivot that entered a slack, where the fourth column
# {0, 1} already has reduced cost 1: a cold start enters that column
# there instead, so the kept tableau rewinds to that pivot and the
# column joins there.  The fifth column keeps the whole record.  Taking
# the fourth without the rewind would end at x = (0, 1, 0, 1), not the
# cold (1/2, 1/2, 1/2, 1/2).
REFUSED_POOL = ({0, 1, 2}, {1, 3}, {2, 3}, {0, 1}, {0, 3})


def test_a_slack_pivot_rewinds_for_the_column_a_cold_start_would_enter(
        monkeypatch):
    outcomes = counting_adds(monkeypatch)
    sets = [frozenset(s) for s in REFUSED_POOL]
    third = lp._Tableau(range(4), sets[:3])
    third.solve()
    last = len(third.record) - 1
    assert third.record[last][1] and third.snapshots[-1][0] == last
    problem = ReferenceRounds(Scripted(4, [[s] for s in sets]), 4, [])
    x = solve_fractional(problem)
    assert outcomes == [None, None, last, None]
    assert len(problem.pools) == 5
    assert x.values == {v: 0.5 for v in range(4)}


# The fourth round hands out three sets, each violated by the third
# round's x = (0, 1/2, 1/2, 1/2).  The kept tableau takes {2}, rewinds
# for {0, 1} as above, and then takes {0, 3}: every set is offered, and
# no second tableau is built.  The fifth round's two sets are both
# taken.
MULTI_SET_ROUNDS = ([{0, 1, 2}], [{1, 3}], [{2, 3}], [{2}, {0, 1}, {0, 3}],
                    [{1}, {3}])


def test_a_round_offers_every_set_to_the_one_tableau(monkeypatch):
    outcomes = counting_adds(monkeypatch)
    cold_pools = []
    init = lp._Tableau.__init__

    def counting_init(self, vertices, constraint_sets):
        cold_pools.append(len(constraint_sets))
        init(self, vertices, constraint_sets)

    monkeypatch.setattr(lp._Tableau, "__init__", counting_init)
    rounds = [[frozenset(s) for s in r] for r in MULTI_SET_ROUNDS]
    problem = ReferenceRounds(Scripted(4, rounds), 4, [])
    x = solve_fractional(problem)
    # pivot 3 is the third round's closing slack pivot, as above
    assert outcomes == [None, None, None, 3, None, None, None]
    assert cold_pools == [1]
    assert list(map(len, problem.pools)) == [1, 2, 3, 6, 8]
    assert x.values == {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_the_kept_tableau_spends_the_cold_pivot_budget(monkeypatch):
    """The budget counts every pivot since the cold start against the
    cold bound for the current pool, and raises where a cold solve of the
    whole pool raises."""
    sets = [frozenset(s) for s in REFUSED_POOL]
    cold = {}
    for m in range(1, len(sets) + 1):
        tableau = lp._Tableau(range(4), sets[:m])
        tableau.solve()
        cold[m] = len(tableau.record)
    # the last round continues the fourth round's cold start, so its own
    # pivots alone stay below the budget
    assert cold[5] > cold[5] - cold[4] > 0
    for spare, raises in ((0, True), (1, False)):
        monkeypatch.setattr(lp, "_pivot_budget", lambda n, m: (
            cold[m] + spare if m == len(sets) else 10 ** 6))
        problem = Scripted(4, [[s] for s in sets])
        if raises:
            with pytest.raises(graphs.InvariantError, match="pivot budget"):
                simplex_min_cover(4, sets)
            with pytest.raises(graphs.InvariantError, match="pivot budget"):
                solve_fractional(problem)
        else:
            assert simplex_min_cover(4, sets) == \
                ref_simplex_min_cover(4, sets)
            assert solve_fractional(problem).values == {
                v: 0.5 for v in range(4)}


def test_a_rewound_tableau_is_the_cold_tableau_over_its_pool(monkeypatch):
    """Random pools on up to 8 vertices, offered in rounds of 1-4 sets:
    after every solve the kept tableau has a cold start's x, record
    length, basis and rows, and a snapshot at each slack pivot of its
    record and nowhere else."""
    rebuilt = []
    rewind = lp._Tableau._rewind

    def counting(self, p):
        m = next(s[3] for s in self.snapshots if s[0] == p)
        rebuilt.append(len(self.sets) - m)
        rewind(self, p)

    monkeypatch.setattr(lp._Tableau, "_rewind", counting)
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(1, 8)
        unused = list(dict.fromkeys(
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(16, 48))))
        kept, x = None, [0.0] * n
        while True:
            # as in cutting planes, a round offers sets violated by x
            violated = [c for c in unused if sum(x[v] for v in c) < 1 - 1e-6]
            if not violated:
                break
            rnd = rng.sample(violated, min(len(violated), rng.randint(1, 4)))
            unused = [c for c in unused if c not in rnd]
            if kept is None:
                kept = lp._Tableau(range(n), rnd)
            else:
                for cset in rnd:
                    kept.add(cset)
            x = kept.solve()
            cold = lp._Tableau(range(n), kept.sets)
            assert list(map(repr, x)) == list(map(repr, cold.solve()))
            assert len(kept.record) == len(cold.record)
            assert kept.basis == cold.basis
            assert repr(kept.rows) == repr(cold.rows)
            slack = [p for p, pivot in enumerate(kept.record) if pivot[1]]
            assert [s[0] for s in kept.snapshots] == slack
    # some rewinds rebuild columns added after their snapshot
    assert len(rebuilt) >= 50 and sum(k > 0 for k in rebuilt) >= 5


def test_simplex_value_is_lp_optimal_vs_enumeration():
    # tiny LPs: compare against an epsilon-grid... instead compare to the
    # known integral bound from below and fractional C5 value 5/4... use
    # structured cases with known optima.
    # C5 hole constraints (each of the 5 holes is the full C5): value 1
    sets = [frozenset(range(5))]
    assert abs(sum(simplex_min_cover(5, sets)) - 1.0) < 1e-9
    # intersecting triangle cover: {0,1},{1,2},{0,2} -> LP optimum 1.5
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    assert abs(sum(simplex_min_cover(3, sets)) - 1.5) < 1e-9


def test_separate_chvd_on_c4():
    g = cycle_graph(4)
    zero = FractionalSolution({v: 0.0 for v in g.vertices()})
    hole = separate_chvd(g, zero)
    assert hole is not None and hole.vertex_set() == {0, 1, 2, 3}
    quarter = FractionalSolution({v: 0.25 for v in g.vertices()})
    assert separate_chvd(g, quarter) is None


def test_separate_chvd_matches_enumeration():
    rng = random.Random(101)
    for trial in range(40):
        g = random_gnp(rng, rng.randint(4, 9), 0.35)
        x = FractionalSolution({v: rng.choice([0.0, 0.2, 0.5, 1.0])
                                for v in g.vertices()})
        holes = bf_all_holes(g)
        violated = [h for h in holes if sum(x.value(v) for v in h) < 1 - 1e-6]
        got = separate_chvd(g, x)
        assert (got is not None) == bool(violated)
        if got is not None:
            assert x.mass(got.vertices) < 1 - 1e-6


def ladder_instance_n44():
    g, _, _ = generate(GeneratorSpec(seed=3, core_vertices=40, tree_nodes=13,
                                     planted=4, noise_edges=1))
    return g


def test_separate_chvd_matches_reference_on_random_graphs():
    rng = random.Random(109)
    for trial in range(40):
        g = random_gnp(rng, rng.randint(5, 16), rng.choice([0.2, 0.3, 0.45]))
        # the light weights put holes near the threshold, where the
        # search cutoff acts
        for weights in ([0.0, 0.1, 0.25, 0.5, 1.0], [0.1, 0.15, 0.2, 0.25]):
            x = FractionalSolution({v: rng.choice(weights)
                                    for v in g.vertices()})
            assert separate_chvd(g, x) == ref_separate_chvd(g, x)


def test_separate_chvd_matches_reference_under_zero_uniform_and_random_x(
        monkeypatch):
    # a zero or uniform x puts the first 4-hole on the floor, which stops
    # the loop early; a random x mostly does not, and the last draw puts
    # many holes just above the floor
    rng = random.Random(113)
    searches = []
    search = graphs.lightest_hole_through

    def counting(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "lightest_hole_through", counting)
    stopped = full = 0
    for trial in range(40):
        g = random_gnp(rng, rng.randint(5, 16), rng.choice([0.2, 0.3, 0.45]))
        for x in (FractionalSolution({}),
                  FractionalSolution({v: 0.2 for v in g.vertices()}),
                  FractionalSolution({v: rng.uniform(0.0, 0.4)
                                      for v in g.vertices()}),
                  FractionalSolution({v: rng.choice([0.1, 0.11, 0.15, 0.25])
                                      for v in g.vertices()})):
            searches.clear()
            assert separate_chvd(g, x) == ref_separate_chvd(g, x)
            if len(searches) < g.n:
                stopped += 1
            else:
                full += 1
    assert stopped and full


@dataclass(frozen=True)
class BothSeparators:
    """A ChvdProblem that runs both separators and asserts they agree."""

    g: Graph
    rounds: list

    @property
    def vertices(self) -> range:
        return self.g.vertices()

    def separate(self, x):
        hole = separate_chvd(self.g, x)
        assert hole == ref_separate_chvd(self.g, x)
        self.rounds.append(hole)
        return [] if hole is None else [hole.vertex_set()]


def test_separate_chvd_matches_reference_every_cutting_plane_round():
    g = ladder_instance_n44()
    problem = BothSeparators(g, [])
    solve_fractional(problem)
    assert len(problem.rounds) > 1 and problem.rounds[-1] is None


def test_separate_chvd_runs_one_search_per_vertex_neighbour_pair(monkeypatch):
    g = ladder_instance_n44()
    calls = []
    search = graphs.dijkstra_vertex_weights

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "dijkstra_vertex_weights", counting)
    zero = FractionalSolution({v: 0.0 for v in g.vertices()})
    assert separate_chvd(g, zero) is not None
    assert 0 < len(calls) <= sum(g.degree(v) for v in g.vertices())


def test_fractional_solution_refuses_a_negative_or_nan_value():
    for bad in (-1e-300, -5.0, float("nan"), -float("inf")):
        with pytest.raises(ValueError, match=r"^x\(3\) = .* is not >= 0$"):
            FractionalSolution({0: 0.5, 3: bad})
    x = FractionalSolution({0: 0.0, 1: -0.0, 2: 0.25})
    assert x.objective == 0.25


def test_fractional_solution_stays_read_only_after_construction():
    """x >= 0 holds for as long as x lives: a write through ``values``
    raises TypeError, and a change to the dict it was built from does
    not reach it.  On a staircase, shifting the LP's x at tu[0] by -5 in
    place now fails at the write, where it used to pass silently and let
    the skew engine fail on an internal invariant."""
    given = {0: 0.5, 3: 0.25}
    x = FractionalSolution(given)
    with pytest.raises(TypeError):
        x.values[3] = -5.0
    with pytest.raises(TypeError):
        del x.values[0]
    given[3] = -5.0
    given[7] = 1.0
    assert x.value(3) == 0.25 and x.value(7) == 0.0
    assert x.mass([0, 3, 7]) == x.objective == 0.75
    assert dict(x.values) == {0: 0.5, 3: 0.25}
    assert x == FractionalSolution({0: 0.5, 3: 0.25})
    d, tu, _, pairs = random_staircase(0)
    y = solve_fractional(MulticutProblem(d, tuple(pairs)))
    with pytest.raises(TypeError):
        y.values[tu[0]] -= 5


def test_feasibility_tolerance_is_pinned_at_both_separation_sites():
    """A set weighing 1 - 2e-6 is violated and one weighing 1 - 5e-7 is
    not: the cutoff is 1 - FEASIBILITY_TOL, at 1e-6, for holes and for
    terminal paths alike."""
    assert lp.FEASIBILITY_TOL == 1e-6
    g = cycle_graph(5)
    d = DiGraph(3, [(0, 1), (1, 2)])
    for weight, violated in ((1 - 2e-6, True), (1 - 5e-7, False)):
        x = FractionalSolution({2: weight})
        hole = separate_chvd(g, x)
        assert (hole is not None) == violated
        assert hole is None or hole.vertex_set() == set(range(5))
        assert separate_multicut(d, [(0, 2)], x) == (
            [[0, 1, 2]] if violated else [])


def test_separate_multicut_basic():
    d = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    x = FractionalSolution({v: 0.0 for v in d.vertices()})
    paths = separate_multicut(d, [(0, 3)], x)
    assert paths == [[0, 1, 2, 3]]
    x = FractionalSolution({1: 1.0})
    assert separate_multicut(d, [(0, 3)], x) == []
    assert separate_multicut(d, [(3, 0)], x) == []
    # the first path is the earliest pair's unless a later one is lighter
    # by more than 1e-12
    d = DiGraph(4, [(0, 1), (2, 3)])
    pairs = [(0, 1), (2, 3)]
    for lighter, first in ((5e-13, 0), (1e-9, 1)):
        x = FractionalSolution({0: 0.5, 2: 0.5 - lighter})
        paths = separate_multicut(d, pairs, x)
        assert paths == [list(pairs[first]), list(pairs[1 - first])]
        assert paths[0] == ref_separate_multicut(d, pairs, x)


def random_separation_cases(seed, trials=40):
    """Random DAGs with pairs from few sources, each with two weightings
    as FractionalSolutions: a heavy draw, and a light one scaled so that
    the lightest terminal path sits just below, at or just above the
    threshold."""
    rng = random.Random(seed)
    for trial in range(trials):
        d = random_dag(rng, rng.randint(4, 18), rng.choice([0.2, 0.3, 0.45]))
        # few sources, so that each is shared by several pairs
        sources = rng.sample(range(d.n), rng.randint(1, 3))
        pairs = [(rng.choice(sources), rng.randrange(d.n))
                 for _ in range(rng.randint(1, 8))]
        heavy = {v: rng.choice([0.0, 0.1, 0.25, 0.5, 1.0])
                 for v in d.vertices()}
        # the light draw puts the lightest terminal path just below, at or
        # just above the threshold, where the search cutoff acts; its
        # zero weights leave a path's last vertices at the distance of
        # its target
        light = {v: rng.choice([0.0, rng.uniform(0.05, 0.3)])
                 for v in d.vertices()}
        lightest = min((ref_dijkstra_vertex_weights(
            d.out_neighbors, s, light.get)[0].get(t, math.inf)
            for s, t in pairs), default=math.inf)
        if 0 < lightest < math.inf:
            target = 1 - 1e-6 - rng.choice([1e-3, 1e-9, 2e-12, 0.0, -1e-9])
            light = {v: w * target / lightest for v, w in light.items()}
        yield d, pairs, [FractionalSolution(heavy), FractionalSolution(light)]


def test_separate_multicut_matches_reference_on_random_dags():
    found = 0
    for d, pairs, xs in random_separation_cases(113):
        for x in xs:
            got = separate_multicut(d, pairs, x)
            want = ref_separate_multicut(d, pairs, x)
            assert (got == []) == (want is None)
            if got:
                assert got[0] == want
            found += bool(got)
    assert 0 < found < 80


def test_separate_multicut_returns_disjoint_violated_paths_on_random_dags():
    several = 0
    for d, pairs, xs in random_separation_cases(131, trials=60):
        for x in xs:
            paths = separate_multicut(d, pairs, x)
            assert len(paths) <= lp.MAX_PATHS_PER_ROUND == 16
            used = set()
            for path in paths:
                assert (path[0], path[-1]) in pairs
                assert all(w in d.out_neighbors(u)
                           for u, w in zip(path, path[1:]))
                assert x.mass(path) < 1 - lp.FEASIBILITY_TOL
                assert used.isdisjoint(path)
                used.update(path)
            want = ref_separate_multicut(d, pairs, x)
            assert (paths == []) == (want is None)
            if paths:
                assert paths[0] == want
            assert paths == ref_separate_multicut_paths(d, pairs, x, 16)
            several += len(paths) > 1
    assert several >= 10, several


def test_separate_multicut_keeps_at_most_sixteen_paths():
    d = DiGraph(40, [(2 * i, 2 * i + 1) for i in range(20)])
    pairs = [(2 * i, 2 * i + 1) for i in range(20)]
    # pair i weighs (i mod 5) / 10: the first path is pair 0's, then the
    # others by (weight, index) until sixteen are kept
    x = FractionalSolution({2 * i: (i % 5) / 10 for i in range(20)})
    paths = separate_multicut(d, pairs, x)
    assert paths == [list(pairs[i]) for i in
                     (0, 5, 10, 15, 1, 6, 11, 16, 2, 7, 12, 17, 3, 8, 13, 18)]
    assert paths == ref_separate_multicut_paths(d, pairs, x, 16)


@dataclass(frozen=True)
class BothMulticutSeparators:
    """A MulticutProblem that runs both separators and asserts that the
    first path is the reference's, and that there is none exactly when the
    reference finds none."""

    d: DiGraph
    pairs: tuple
    rounds: list

    @property
    def vertices(self) -> range:
        return self.d.vertices()

    def separate(self, x):
        paths = separate_multicut(self.d, self.pairs, x)
        want = ref_separate_multicut(self.d, self.pairs, x)
        assert (paths == []) == (want is None)
        if paths:
            assert paths[0] == want
        self.rounds.append(paths)
        return [frozenset(path) for path in paths]


def test_separate_multicut_matches_reference_every_cutting_plane_round():
    d, _, _, pairs = random_staircase(0, n=72, a=12, b=12, p=0.25)
    problem = BothMulticutSeparators(d, tuple(pairs), [])
    solve_fractional(problem)
    assert len(problem.rounds) > 1 and problem.rounds[-1] == []


def test_separate_multicut_runs_one_search_per_source(monkeypatch):
    d, _, _, pairs = random_staircase(0, n=72, a=12, b=12, p=0.25)
    sources = {s for s, _ in pairs}
    assert len(sources) < len(pairs)
    calls = []
    search = lp.dijkstra_vertex_weights

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    # lp imports the search by name, so patch it there
    monkeypatch.setattr(lp, "dijkstra_vertex_weights", counting)
    zero = FractionalSolution({v: 0.0 for v in d.vertices()})
    assert separate_multicut(d, pairs, zero)
    assert 0 < len(calls) <= len(sources)


@dataclass(frozen=True)
class Pooled:
    """A problem that hands on the inner problem's variables and sets,
    and pools every set it returns."""

    inner: object
    pool: list

    @property
    def vertices(self):
        return self.inner.vertices

    def separate(self, x):
        found = self.inner.separate(x)
        self.pool.extend(found)
        return found


def test_chvd_problem_keys_x_on_the_hole_vertices():
    """On holes with hole-free attachments, x holds exactly the vertices
    on a hole, and equals the dense reference over all n, float for float,
    with 0 on every other vertex."""
    # C6 0-5 with an ear 6 on 0-1, a path 7-8 hanging from 3, a triangle
    # 9-10 on 4, and a C4 12-15 joined to 2 through 11
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 0), (6, 1), (7, 3), (8, 7), (9, 4), (10, 4), (9, 10),
              (11, 2), (11, 12), (12, 13), (13, 14), (14, 15), (15, 12)]
    inputs = [Graph(16, edges), ladder_instance_n44()]
    for seed in range(3):
        g, _, _ = generate(GeneratorSpec(seed=seed, core_vertices=30,
                                         tree_nodes=10, planted=4,
                                         noise_edges=1))
        inputs.append(g)
    for g in inputs:
        holes = hole_vertices(g)
        assert 0 < len(holes) < g.n
        problem = Pooled(ChvdProblem(g), [])
        x = solve_fractional(problem)
        assert set(x.values) == holes
        assert list(x.values) == sorted(holes)
        want = ref_simplex_min_cover(g.n, problem.pool)
        assert repr(x.objective) == repr(sum(want))
        got = [repr(x.value(v)) for v in g.vertices()]
        assert got == list(map(repr, want))
    assert hole_vertices(inputs[0]) == {0, 1, 2, 3, 4, 5, 12, 13, 14, 15}


def test_solve_fractional_chordal_graph_is_zero():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    x = solve_fractional(ChvdProblem(g))
    assert x.objective < 1e-9


def test_solve_fractional_single_c4():
    g = cycle_graph(4)
    x = solve_fractional(ChvdProblem(g))
    assert abs(x.objective - 1.0) < 1e-6
    assert separate_chvd(g, x) is None


def test_solve_fractional_disjoint_c4s():
    t = 3
    edges = []
    for i in range(t):
        base = 4 * i
        edges += [(base + j, base + (j + 1) % 4) for j in range(4)]
    g = Graph(4 * t, edges)
    x = solve_fractional(ChvdProblem(g))
    assert abs(x.objective - t) < 1e-6


def test_solve_fractional_below_integral_optimum():
    rng = random.Random(103)
    for trial in range(25):
        g = random_gnp(rng, rng.randint(4, 10), 0.35)
        x = solve_fractional(ChvdProblem(g))
        assert separate_chvd(g, x) is None
        res = exact_chvd(g, g.n)
        assert x.objective <= res.optimum + 1e-6
        # scaling keeps feasibility
        assert separate_chvd(g, FractionalSolution(
            {v: 1.5 * w for v, w in x.values.items()})) is None


def test_solve_fractional_multicut():
    d = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    x = solve_fractional(MulticutProblem(d, ((0, 4), (1, 3))))
    assert separate_multicut(d, [(0, 4), (1, 3)], x) == []
    assert x.objective <= 1.0 + 1e-6


def test_multicut_problem_rejects_a_pair_outside_the_graph():
    d = DiGraph(3, [(0, 1), (1, 2)])
    for pair, bad in (((0, 3), 3), ((-1, 2), -1)):
        with pytest.raises(ValueError, match=f"unknown vertex id {bad}$"):
            MulticutProblem(d, (pair,))
    assert solve_fractional(MulticutProblem(d, ((0, 2),))).objective == 1.0


def test_solve_fractional_multicut_random():
    rng = random.Random(107)
    for trial in range(20):
        d = random_dag(rng, rng.randint(3, 8), 0.4)
        verts = list(d.vertices())
        pairs = tuple(
            tuple(rng.sample(verts, 2)) for _ in range(rng.randint(1, 3))
        )
        x = solve_fractional(MulticutProblem(d, pairs))
        assert separate_multicut(d, list(pairs), x) == []


def test_solve_fractional_exact_mode_cross_check():
    """The float loop meets C5's exact optimum, 1, and leaves no hole."""
    g = cycle_graph(5)
    x = solve_fractional(ChvdProblem(g))
    assert abs(x.objective - 1.0) < 1e-9
    assert separate_chvd(g, x) is None


# options0-3 were the tolerance cases, removed with that parameter
@pytest.mark.parametrize("options", [
    pytest.param({"max_iters": 0}, id="options4"),
    pytest.param({"max_iters": -3}, id="options5"),
])
def test_solve_fractional_rejects_out_of_range_options(options):
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        solve_fractional(ChvdProblem(g), **options)


def test_at_least_threshold_semantics():
    assert at_least(0.25, 0.25)
    assert at_least(0.25 - 5e-10, 0.25)
    assert not at_least(0.2499, 0.25)
