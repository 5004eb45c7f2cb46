"""Approximation pipeline: decomposition, clique fold-back, end to end."""
import functools
import math
import random

import pytest

from chvd import approx
from chvd.graphs import Graph, InvariantError, components_within, \
    induced_subgraph, is_clique
from chvd.chordal import clique_tree_of, is_chordal
from chvd.lp import ChvdProblem, FractionalSolution, solve_fractional
from chvd.approx import (
    NO_INSTANCE,
    NoInstance,
    balanced_clique_cut,
    chvd_clique_plus_chordal,
    decompose,
    hit_holes_through,
    approximate,
)
from chvd.generate import GeneratorSpec, clique_path_graph, generate, \
    random_chordal, random_gnp
from chvd.multicut import downward_multicut as multicut_engine
from chvd.oracle import SearchBudgetExceeded, exact_chvd
from bruteforce import (
    _remap,
    bf_chordal_after_delete,
    random_c4_free,
    ref_balanced_clique_cut,
    ref_chvd_clique_plus_chordal,
    ref_decompose,
    ref_hit_holes_through,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_hit_holes_through_chordal_input_returns_empty():
    g = clique_path_graph([2, 2, 2])
    all_a = frozenset(g.vertices())
    x = FractionalSolution({v: 0.05 for v in g.vertices()})
    got = hit_holes_through(g, all_a, frozenset(), frozenset({0, 1, 2, 3}),
                            x)
    assert got == frozenset()


def test_hit_holes_through_long_hole():
    # hole of length 21 with uniform weights below 1/10 on the chordal part
    n = 21
    ring = cycle_graph(n)
    # chordal side: the ring minus one vertex (a path); clique side: {0}
    part_b = frozenset({0})
    part_a = frozenset(range(1, n))
    x = FractionalSolution({v: 1.0 / 21 for v in range(1, n)})
    # L: any maximal clique of the path, say the edge {10, 11}
    got = hit_holes_through(ring, part_a, part_b, frozenset({10, 11}), x)
    assert got
    remaining = induced_subgraph(ring, set(ring.vertices()) - got)
    assert is_chordal(remaining.graph)


def test_hit_holes_through_on_a_vertex_set_matches_the_compact_reference(
        monkeypatch):
    """A chordal A and one apex b at random ids of a larger graph: the
    fold-back in g's ids cuts the holes through L as the reference on the
    renumbered g[A + b] does, and many calls reach the downward multicut
    with terminal pairs."""
    with_pairs = []

    def downward(inst, x):
        with_pairs.append(bool(inst.terminals))
        return multicut_engine(inst, x)

    monkeypatch.setattr(approx, "downward_multicut", downward)
    for seed in range(200):
        rng = random.Random(seed)
        core = random_chordal(rng, rng.randint(15, 35), rng.randint(8, 20), 1)
        n = core.n + 1 + rng.randint(0, 5)
        ids = rng.sample(range(n), core.n + 1)
        edges = {tuple(sorted((ids[u], ids[v]))) for u, v in core.edges()}
        edges |= {tuple(sorted((ids[-1], ids[u])))
                  for u in rng.sample(range(core.n), rng.randint(2, 6))}
        g = Graph(n, sorted(edges))
        part_a, part_b = frozenset(ids[:-1]), frozenset(ids[-1:])
        clique_l = rng.choice(clique_tree_of(g, part_a).bags)
        x = FractionalSolution({v: rng.uniform(0, 1 / 11) for v in part_a})
        scope = induced_subgraph(g, part_a | part_b)
        want = ref_hit_holes_through(
            scope.graph, *(frozenset(scope.to_sub(s))
                           for s in (part_a, part_b, clique_l)),
            _remap(x, scope.index))
        assert hit_holes_through(g, part_a, part_b, clique_l, x) == \
            frozenset(scope.to_parent(want))
    assert sum(with_pairs) >= 40


def test_chvd_clique_plus_chordal_chordal_graph():
    g = clique_path_graph([2, 2])
    x = FractionalSolution({v: 0.0 for v in g.vertices()})
    got = chvd_clique_plus_chordal(g, frozenset(g.vertices()), frozenset(), x)
    assert got == frozenset()


def test_chvd_clique_plus_chordal_single_hole():
    # B = one vertex closing a path into a C4
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    part_b = frozenset({0})
    part_a = frozenset({1, 2, 3})
    x = solve_fractional(ChvdProblem(g))
    got = chvd_clique_plus_chordal(g, part_a, part_b, x)
    assert bf_chordal_after_delete(g, set(got))


def test_balanced_clique_cut_complete_graph():
    g = complete_graph(6)
    res = balanced_clique_cut(g, 0, set(g.vertices()))
    assert not isinstance(res, NoInstance)
    z, kq = res
    assert z == kq == frozenset(range(6))


def test_balanced_clique_cut_two_cliques_joined():
    # two K4s sharing one vertex: the shared vertex plus one clique balance
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    g = Graph(7, edges)
    res = balanced_clique_cut(g, 1, set(g.vertices()))
    assert not isinstance(res, NoInstance)
    z, kq = res
    from chvd.graphs import components_within
    for comp in components_within(g, set(g.vertices()) - z):
        assert 4 * len(comp) <= 3 * g.n


# C4-free, and chordal once vertex 8 is deleted, yet no maximal clique K
# has a greedy balanced cut of one vertex: the cut {8} of g - {1, 10} is
# the exact oracle's deletion set, and {1, 10} a central bag of g - {8}
MISSED_BY_GREEDY = Graph(27, [
    (0, 3), (1, 5), (1, 10), (2, 5), (2, 18), (2, 20), (2, 22), (3, 4),
    (3, 16), (3, 21), (5, 23), (6, 7), (6, 13), (7, 14), (7, 19), (7, 26),
    (8, 9), (8, 13), (8, 16), (8, 18), (9, 10), (9, 11), (10, 19), (10, 21),
    (11, 12), (14, 24), (15, 16), (17, 19), (17, 25), (18, 22), (19, 26),
    (20, 22)])


def test_balanced_clique_cut_finds_the_cut_the_greedy_search_misses():
    g = MISSED_BY_GREEDY
    vertices = set(g.vertices())
    assert is_chordal(g, vertices - {8})
    for clique in approx.maximal_cliques(g, vertices):
        rest = vertices - clique
        assert approx._balanced_cut_greedy(g, rest, 2.0 * len(rest) / 3.0,
                                           1) is None
    assert balanced_clique_cut(g, 1, vertices) == (
        frozenset({1, 8, 10}), frozenset({1, 10}))
    assert ref_balanced_clique_cut(g, 1, vertices) == (
        frozenset({1, 8, 10}), frozenset({1, 10}))


def test_balanced_clique_cut_spends_a_budget_on_the_missed_cut(monkeypatch):
    monkeypatch.setattr(approx, "exact_chvd",
                        functools.partial(exact_chvd, node_budget=1))
    g = MISSED_BY_GREEDY
    with pytest.raises(SearchBudgetExceeded):
        balanced_clique_cut(g, 1, set(g.vertices()))


def test_balanced_clique_cut_says_no_only_when_the_exact_search_does(
        monkeypatch):
    """Every NoInstance is confirmed by exact_chvd on g[vertices] and every
    cut is valid.  The first family is C4-free.  In the second, sparse
    random graphs with C4s, most greedy cuts miss and the oracle says no.
    In the third, relabelings of MISSED_BY_GREEDY, the greedy cut misses
    on some and the oracle's deletion set with a central bag is the cut."""
    oracle_answers = []
    oracle = approx.exact_chvd

    def recording(*args, **kwargs):
        res = oracle(*args, **kwargs)
        oracle_answers.append(res is not None)
        return res

    monkeypatch.setattr(approx, "exact_chvd", recording)
    rng = random.Random(151)
    draws = []
    for trial in range(150):
        n = rng.randint(20, 33)
        draws.append((random_c4_free(rng, n, rng.randint(n, 2 * n)),
                      rng.choice([1, 2, 3])))
    rng = random.Random(152)
    for trial in range(600):
        g = random_gnp(rng, rng.randint(12, 24), rng.uniform(0.15, 0.3))
        draws.append((g, rng.choice([1, 2, 3])))
    rng = random.Random(153)
    for trial in range(100):
        ids = rng.sample(range(MISSED_BY_GREEDY.n), MISSED_BY_GREEDY.n)
        draws.append((Graph(MISSED_BY_GREEDY.n, [
            (ids[u], ids[v]) for u, v in MISSED_BY_GREEDY.edges()]), 1))
    answers = {"no": 0, "cut": 0}
    for g, k in draws:
        vertices = set(g.vertices())
        res = balanced_clique_cut(g, k, vertices)
        if isinstance(res, NoInstance):
            assert exact_chvd(g, k) is None
            answers["no"] += 1
        else:
            z, kq = res
            assert kq <= z and is_clique(g, kq) and len(z - kq) <= k
            for comp in components_within(g, vertices - z):
                assert 4 * len(comp) <= 3 * g.n
            answers["cut"] += 1
    assert answers["no"] >= 10 and answers["cut"] >= 10
    assert len(oracle_answers) >= 200 and sum(oracle_answers) >= 10


def test_decompose_chordal_graph():
    g = clique_path_graph([2, 3, 2])
    dec = decompose(g, 2, set(g.vertices()))
    assert not isinstance(dec, NoInstance)
    assert dec.chordal_part == frozenset(g.vertices())
    assert dec.cliques == () and dec.residue == frozenset()


def test_decompose_single_c4():
    g = cycle_graph(4)
    dec = decompose(g, 2, set(g.vertices()))
    assert not isinstance(dec, NoInstance)
    dec.validate(g, set(g.vertices()))
    assert len(dec.cliques) <= 1 or dec.cliques


def test_decompose_k0_nonchordal_is_no_instance():
    assert isinstance(decompose(cycle_graph(4), 0, set(range(4))), NoInstance)


def test_decompose_bounds_its_steps_by_the_vertex_set(monkeypatch):
    """Ten disjoint C4s need ten cuts.  The step bound allows nine for
    their 40 vertices, and twenty for the whole 1040-vertex graph.  On 25
    disjoint C4s (n = 100, k = 1) it allows k * (floor(log_{4/3}(n/4)) + 1)
    = 12 cuts, one more than k * log_{3/2} n, and decompose says no after
    exactly that many."""
    g = Graph(1040, [(4 * i + j, 4 * i + (j + 1) % 4)
                     for i in range(10) for j in range(4)])
    holes = set(range(40))
    assert decompose(g, 1, holes) == NO_INSTANCE
    assert ref_decompose(g, 1, holes) == NO_INSTANCE
    assert len(decompose(g, 1, set(g.vertices())).cliques) == 10
    cuts = []
    cut = approx.balanced_clique_cut

    def counting(*args, **kwargs):
        cuts.append(1)
        return cut(*args, **kwargs)

    monkeypatch.setattr(approx, "balanced_clique_cut", counting)
    g = Graph(100, [(4 * i + j, 4 * i + (j + 1) % 4)
                    for i in range(25) for j in range(4)])
    assert decompose(g, 1, set(g.vertices())) == NO_INSTANCE
    assert len(cuts) == 12


def test_decompose_never_says_no_to_a_c4_free_yes_instance():
    """The step bound suffices on C4-free inputs with opt <= k."""
    rng = random.Random(163)
    yes = several = 0
    for _ in range(200):
        n = rng.randint(20, 40)
        g = random_c4_free(rng, n, rng.randint(n, 2 * n))
        k = rng.choice([1, 2, 3])
        if exact_chvd(g, k) is None:
            continue
        vertices = set(g.vertices())
        dec = decompose(g, k, vertices)
        assert not isinstance(dec, NoInstance)
        dec.validate(g, vertices)
        yes += 1
        several += len(dec.cliques) >= 2
    assert yes >= 50 and several >= 25


def test_approximate_chordal():
    g = clique_path_graph([3, 2, 3])
    assert approximate(g, 2) == frozenset()


def test_approximate_answers_no_to_a_negative_budget():
    # the n <= 1 shortcut would answer the empty set
    for n in (0, 1, 3):
        assert approximate(Graph(n), -1) == NO_INSTANCE


def test_approximate_disjoint_c4s():
    t = 3
    edges = []
    for i in range(t):
        base = 4 * i
        edges += [(base + j, base + (j + 1) % 4) for j in range(4)]
    g = Graph(4 * t, edges)
    got = approximate(g, t)
    assert not isinstance(got, NoInstance)
    assert len(got) >= t
    assert bf_chordal_after_delete(g, set(got))


def disjoint_c4s(t):
    return Graph(4 * t, [(4 * i + j, 4 * i + (j + 1) % 4)
                         for i in range(t) for j in range(4)])


def test_approximate_answers_no_on_the_lp_route(monkeypatch):
    """Nine disjoint C4s at k = 4 (n = 36) take the LP route, whose
    optimum |x*| = 9 exceeds 2k: a "no" that the oracle confirms.  Eight
    C4s give |x*| = 8 <= 2k and a deletion set."""
    objectives = []
    solve = approx.solve_fractional

    def spying(*args, **kwargs):
        x = solve(*args, **kwargs)
        objectives.append(x.objective)
        return x

    monkeypatch.setattr(approx, "solve_fractional", spying)
    g = disjoint_c4s(9)
    assert approximate(g, 4) == NO_INSTANCE
    assert len(objectives) == 1 and objectives[0] == pytest.approx(9)
    assert exact_chvd(g, 4) is None
    objectives.clear()
    g = disjoint_c4s(8)
    got = approximate(g, 4)
    assert len(objectives) == 1 and objectives[0] == pytest.approx(8)
    assert not isinstance(got, NoInstance)
    assert is_chordal(g, set(g.vertices()) - got)


def test_approximate_yes_instances_never_rejected():
    ratios = []
    for seed in range(40):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2, noise_edges=1))
        opt = exact_chvd(g, k)
        if opt is None:
            continue
        got = approximate(g, k)
        assert not isinstance(got, NoInstance)
        assert bf_chordal_after_delete(g, set(got))
        if opt.optimum:
            ratios.append(len(got) / opt.optimum)
    assert ratios


def test_approximate_lp_path_on_yes_instances():
    # k = 3 with n <= 27 stays inside the size guard, so the LP pipeline
    # (threshold, decomposition, fold-back) runs rather than the oracle
    solved = 0
    for seed in range(30):
        g, _, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=13, planted=3, noise_edges=1))
        k = 3
        got = approximate(g, k)
        opt = exact_chvd(g, k)
        if opt is not None:
            assert not isinstance(got, NoInstance)
        if not isinstance(got, NoInstance):
            # recognizer validated against brute force elsewhere; these
            # instances exceed the subset-enumeration cap
            assert is_chordal(
                induced_subgraph(g, set(g.vertices()) - got).graph)
            solved += 1
    assert solved >= 20


def test_approximate_at_n_1606_works_on_its_145_hole_vertices():
    """At n = 1,606 the LP has one variable per hole vertex, 145 of them,
    and the answer leaves g chordal with 8 vertices."""
    g, k, _ = generate(GeneratorSpec(seed=11, core_vertices=1600,
                                     tree_nodes=533, planted=6,
                                     noise_edges=1))
    assert (g.n, k) == (1606, 6)
    assert len(ChvdProblem(g).vertices) == 145
    got = approximate(g, k)
    assert not isinstance(got, NoInstance) and len(got) == 8
    assert is_chordal(g, set(g.vertices()) - got)


def test_approximate_no_instance_detection():
    # many disjoint C4s, queried with a tiny budget: fractional mass
    # exceeds 2k, so the LP path must reject
    t = 8
    edges = []
    for i in range(t):
        base = 4 * i
        edges += [(base + j, base + (j + 1) % 4) for j in range(4)]
    g = Graph(4 * t, edges)
    got = approximate(g, 3)
    assert isinstance(got, NoInstance)
    assert exact_chvd(g, 3) is None


def subdivided_grid(rows, cols):
    """A rows x cols grid with every edge subdivided once: holes of length 8."""
    edges = []
    n = rows * cols
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < rows and c2 < cols:
                    edges += [(r * cols + c, n), (n, r2 * cols + c2)]
                    n += 1
    return Graph(n, edges)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantError as exc:
        return f"InvariantError: {exc}"


def test_fold_back_matches_the_compact_reference(monkeypatch):
    """Every fold-back call approximate() makes under an injected diffuse x
    gives the set (or the InvariantError) of the reference that works on
    the renumbered graph g[A + B]."""
    reach = {"fold": 0, "hit": 0, "downward": 0}
    originals = {"fold": approx.chvd_clique_plus_chordal,
                 "hit": approx.hit_holes_through,
                 "downward": approx.downward_multicut}
    refs = {"fold": ref_chvd_clique_plus_chordal,
            "hit": ref_hit_holes_through}

    def compared(stage):
        def call(g, part_a, part_b, *rest):
            reach[stage] += 1
            *cliques, x = rest
            got = _outcome(originals[stage], g, part_a, part_b, *rest)
            scope = induced_subgraph(g, part_a | part_b)
            want = _outcome(refs[stage], scope.graph,
                            *(frozenset(scope.to_sub(s))
                              for s in (part_a, part_b, *cliques)),
                            _remap(x, scope.index))
            if not isinstance(want, str):
                want = frozenset(scope.to_parent(want))
            assert got == want
            if isinstance(got, str):
                raise InvariantError(got)
            return got
        return call

    def downward(*args):
        reach["downward"] += 1
        return originals["downward"](*args)

    monkeypatch.setattr(approx, "chvd_clique_plus_chordal", compared("fold"))
    monkeypatch.setattr(approx, "hit_holes_through", compared("hit"))
    monkeypatch.setattr(approx, "downward_multicut", downward)
    runs = 0
    for seed in range(20):
        rng = random.Random(seed)
        grid = subdivided_grid(rng.randint(3, 5), rng.randint(4, 7))
        planted, _, _ = generate(GeneratorSpec(
            seed=seed, core_vertices=rng.randint(20, 40),
            planted=rng.randint(2, 4), noise_edges=1))
        for g in (grid, planted):
            for diffuse in ({v: 1 / 24 for v in g.vertices()},
                            {v: rng.uniform(0, 1 / 21) for v in g.vertices()}):
                x = FractionalSolution(diffuse)
                # budget: above |x| / 2 and on the LP route
                k = max(3, math.ceil(x.objective / 2))
                while math.log2(g.n) > k * math.log2(k):
                    k += 1
                monkeypatch.setattr(approx, "solve_fractional",
                                    lambda *args, **kwargs: x)
                try:
                    approximate(g, k)
                except InvariantError:
                    pass
                runs += 1
    assert runs == 80
    assert reach["fold"] >= 40 and reach["hit"] >= 10
    assert reach["downward"] >= 2


def _embedded(rng, base):
    """base at random ids of a larger graph whose extra vertices have
    random edges to anything; returns the graph and base's image."""
    n = base.n + rng.randint(2, 6)
    ids = rng.sample(range(n), base.n)
    edges = {tuple(sorted((ids[u], ids[v]))) for u, v in base.edges()}
    for e in sorted(set(range(n)) - set(ids)):
        edges |= {tuple(sorted((e, w))) for w in range(n)
                  if w != e and rng.random() < 0.2}
    return Graph(n, sorted(edges)), frozenset(ids)


def test_decompose_and_balanced_cut_match_the_renumbered_reference():
    """decompose and balanced_clique_cut on g restricted to a vertex set
    give the outcome (result, NoInstance or InvariantError text) of the
    same stages run on the renumbered copy of g[vertices], mapped back.

    Each base graph sits at random ids inside a larger graph, and the
    vertex sets are its image and that image less about a tenth.  Sparse
    random graphs on 18 to 24 vertices run at k = 1 on their image, where
    nearly all are no-instances that decompose finds in its first
    balanced cut, so they are not cut a second time on their own."""
    no_instances = with_clique = cuts = 0
    for seed in range(110):
        rng = random.Random(seed)
        g, image = _embedded(rng, random_gnp(rng, rng.randint(18, 24),
                                             rng.uniform(0.2, 0.3)))
        got = _outcome(decompose, g, 1, image)
        assert got == _outcome(ref_decompose, g, 1, image)
        no_instances += isinstance(got, NoInstance)
    for seed in range(26):
        rng = random.Random(seed)
        if seed < 20:
            base, _, _ = generate(GeneratorSpec(
                seed=seed, core_vertices=rng.randint(8, 16),
                planted=rng.randint(1, 3), noise_edges=1))
        else:
            base = subdivided_grid(3, 3 + seed % 2)
        g, image = _embedded(rng, base)
        for vertices in (image, {v for v in image if rng.random() < 0.9}):
            for k in (1, 2, 3, 5):
                got = _outcome(decompose, g, k, vertices)
                assert got == _outcome(ref_decompose, g, k, vertices)
                no_instances += isinstance(got, NoInstance)
                with_clique += not isinstance(got, (NoInstance, str)) and \
                    bool(got.cliques)
                got = _outcome(balanced_clique_cut, g, k, vertices)
                assert got == _outcome(ref_balanced_clique_cut, g, k, vertices)
                cuts += not isinstance(got, (NoInstance, str))
    assert no_instances >= 100 and with_clique >= 100 and cuts >= 100


def test_approximate_says_no_only_when_the_exact_search_does(monkeypatch):
    """At k = 2-4 every NoInstance of approximate() is confirmed by
    exact_chvd and every returned set leaves g chordal.  The middle
    family is dense enough that the LP route sometimes leaves holes below
    the 1/4 threshold, so the decomposition's balanced cut runs."""
    cuts = []
    cut = approx.balanced_clique_cut

    def counting(*args, **kwargs):
        cuts.append(1)
        return cut(*args, **kwargs)

    monkeypatch.setattr(approx, "balanced_clique_cut", counting)
    rng = random.Random(3)
    answers = {"no": 0, "set": 0, "cut": 0}
    for trial in range(90):
        k = rng.randint(2, 4)
        if trial % 3 == 0:
            g = random_gnp(rng, rng.randint(6, 14), rng.uniform(0.3, 0.5))
        elif trial % 3 == 1:
            g = random_gnp(rng, rng.randint(16, 24), rng.uniform(0.2, 0.25))
        else:
            n = rng.randint(10, 26)
            g = random_c4_free(rng, n, rng.randint(n, 3 * n))
        cuts.clear()
        got = approximate(g, k)
        answers["cut"] += bool(cuts)
        if isinstance(got, NoInstance):
            assert exact_chvd(g, k) is None
            answers["no"] += 1
        else:
            assert is_chordal(g, set(g.vertices()) - got)
            answers["set"] += 1
    assert answers["no"] >= 10 and answers["set"] >= 50 and answers["cut"]
