"""Min vertex cut, skew multicut, and downward-oriented chordal multicut."""
import hashlib
import math
import random

import pytest

from chvd import multicut
from chvd.graphs import DiGraph, Graph, bfs_path, induced_subgraph
from chvd.chordal import PEO, clique_tree_of, recognize
from chvd.lp import FractionalSolution, separate_multicut, solve_fractional
from chvd.multicut import (
    DownwardInstance,
    MulticutInstance,
    SkewInstance,
    build_downward,
    clique_cover_chordal,
    dist_from,
    downward_multicut,
    min_vertex_cut,
    skew_multicut,
)
from chvd.generate import (
    random_chordal,
    random_dag,
    random_diffuse_downward,
    random_staircase,
)
from chvd.lp import at_least
from chvd.oracle import exact_multicut
from bruteforce import bf_di_connected, bf_min_vertex_cut, \
    ref_dijkstra_vertex_weights, ref_induced_digraph, ref_skew_on_copy, \
    ref_staircase_fault


def test_min_vertex_cut_single_path():
    """Every alive vertex is deletable, terminals too: the least source
    side takes the source, unless the terminals are to be avoided; a
    dead vertex is ignored, and a dead path needs no cut."""
    d = DiGraph(3, [(0, 1), (1, 2)])
    assert min_vertex_cut(d, [0], [2], range(3)) == frozenset({0})
    assert min_vertex_cut(d, [0], [2], range(3), [0, 2]) == frozenset({1})
    assert min_vertex_cut(d, [0], [2], {0, 2}) == frozenset()
    assert min_vertex_cut(d, [0], [2], {0, 1}) == frozenset()


def test_min_vertex_cut_disconnected():
    d = DiGraph(4, [(0, 1), (2, 3)])
    assert min_vertex_cut(d, [0], [3], range(4)) == frozenset()


def test_min_vertex_cut_matches_bruteforce():
    rng = random.Random(109)
    for trial in range(40):
        d = random_dag(rng, rng.randint(3, 9), 0.4)
        verts = list(d.vertices())
        k = rng.randint(1, max(1, d.n // 2))
        sources = set(rng.sample(verts, k))
        sinks = set(rng.sample([v for v in verts if v not in sources],
                               min(k, d.n - k)))
        deletable = set(verts)
        expected = bf_min_vertex_cut(d, sources, sinks, deletable)
        got = min_vertex_cut(d, sources, sinks, deletable)
        assert len(got) == expected
        assert all(not bf_di_connected(d, s, t, set(got))
                   for s in sources for t in sinks)


def test_is_multicut_matches_pairwise_reachability():
    rng = random.Random(110)
    answers = set()
    for trial in range(200):
        d = random_dag(rng, rng.randint(2, 10), 0.35)
        verts = list(d.vertices())
        pairs = tuple(tuple(rng.sample(verts, 2))
                      for _ in range(rng.randint(1, 4)))
        removed = set(rng.sample(verts, rng.randint(0, d.n // 2)))
        want = not any(bf_di_connected(d, s, t, removed) for s, t in pairs)
        assert MulticutInstance(d, pairs).is_multicut(removed) == want
        answers.add(want)
    assert answers == {True, False}

def test_skew_empty_sources():
    d = DiGraph(3, [(0, 1)])
    inst = SkewInstance(MulticutInstance(d, ()), (), ())
    x = FractionalSolution({})
    assert skew_multicut(inst, x) == frozenset()


def test_skew_single_source_single_path():
    # one pair across one internal vertex of weight 1: bound 1*ceil(log 2)=1
    d = DiGraph(3, [(0, 1), (1, 2)])
    inst = SkewInstance(MulticutInstance(d, ((0, 2),)), (0,), (2,))
    x = FractionalSolution({1: 1.0})
    got = skew_multicut(inst, x)
    assert got == frozenset({1})


def test_skew_requires_staircase_closure():
    d = DiGraph(4, [(0, 2), (1, 3)])
    # (tu[0], tv[1]) present without (tu[1], tv[0]) closure: invalid
    with pytest.raises(ValueError):
        SkewInstance(MulticutInstance(d, ((0, 3),)), (0, 1), (2, 3))


def test_staircase_check_matches_the_reference():
    """Seeded families: staircases, then pairs dropped, added inside
    tu x tv, added with an endpoint outside it, or repeated."""
    rng = random.Random(31)
    d = DiGraph(10, [])
    verdicts = {}
    for _ in range(3000):
        vertices = rng.sample(range(10), rng.randint(0, 10))
        cut = rng.randint(0, len(vertices))
        tu, tv = tuple(vertices[:cut]), tuple(vertices[cut:])
        widths = sorted(rng.randint(0, len(tv)) for _ in tu)
        pairs = [(u, tv[j]) for u, w in zip(tu, widths) for j in range(w)]
        for _ in range(rng.randint(0, 2)):
            move = rng.randrange(4)
            if move == 0 and pairs:
                pairs.remove(rng.choice(pairs))
            elif move == 1 and tu and tv:
                pairs.append((rng.choice(tu), rng.choice(tv)))
            elif move == 2:
                pairs.append((rng.randrange(10), rng.randrange(10)))
            elif move == 3 and pairs:
                pairs.append(rng.choice(pairs))
        rng.shuffle(pairs)
        want = ref_staircase_fault(tu, tv, pairs)
        try:
            SkewInstance(MulticutInstance(d, tuple(pairs)), tu, tv)
            got = None
        except ValueError as err:
            got = str(err)
        outside = any(u not in tu or v not in tv for u, v in pairs)
        if want is None or not outside:
            assert got == want
        else:
            assert got is not None
        verdicts[want] = verdicts.get(want, 0) + 1
    assert len(verdicts) == 3 and min(verdicts.values()) >= 200


def test_skew_instance_rejects_a_repeated_source():
    d = DiGraph(4, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="tu repeats a vertex"):
        SkewInstance(MulticutInstance(d, ((0, 3),)), (0, 0), (3,))


def test_skew_instance_rejects_a_repeated_target():
    d = DiGraph(4, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="tv repeats a vertex"):
        SkewInstance(MulticutInstance(d, ((0, 3),)), (0,), (3, 3))


def test_is_multicut_rejects_an_unknown_id():
    inst = MulticutInstance(DiGraph(3, [(0, 1), (1, 2)]), ((0, 2),))
    assert inst.is_multicut({1}) and not inst.is_multicut(set())
    with pytest.raises(ValueError, match="unknown vertex id 99"):
        inst.is_multicut({99})
    with pytest.raises(ValueError, match="unknown vertex id -1"):
        inst.is_multicut([-1, 1])


def test_min_vertex_cut_rejects_an_unknown_alive_id():
    d = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="unknown vertex id 9"):
        min_vertex_cut(d, [0], [3], {0, 1, 2, 3, 9})
    with pytest.raises(ValueError, match="unknown vertex id -1"):
        min_vertex_cut(d, [0], [3], {-1, 0, 1, 2, 3})


def test_skew_rejects_infeasible_fraction():
    d = DiGraph(3, [(0, 1), (1, 2)])
    inst = SkewInstance(MulticutInstance(d, ((0, 2),)), (0,), (2,))
    with pytest.raises(ValueError):
        skew_multicut(inst, FractionalSolution({1: 0.25}))


def test_downward_rejects_infeasible_fraction():
    """An adjacent pair, and a pair two arcs apart whose tree interval is
    empty, under an x that leaves both alive: the entry check refuses x,
    so the later stages never meet such a pair."""
    g = Graph(3, [(0, 1), (1, 2)])
    inst = build_downward(g, clique_tree_of(g))
    u, w, v = inst.order
    assert w == 1
    light = FractionalSolution(dict.fromkeys(g.vertices(), 0.1))
    for pair in ((u, w), (u, v)):
        with pytest.raises(ValueError, match="infeasible"):
            downward_multicut(inst.with_terminals([pair]), light)
    assert downward_multicut(inst.with_terminals([(u, v)]),
                             FractionalSolution({w: 1.0})) == {w}


def test_engines_refuse_a_negative_or_nan_x_as_an_input_error():
    """Such an x is refused when it is built, with ValueError; the
    engines, given it, used to fail on an internal invariant instead."""
    nan = float("nan")
    d, tu, tv, pairs = random_staircase(0)
    base = MulticutInstance(d, tuple(pairs))
    x = solve_fractional(base)
    inst = SkewInstance(base, tuple(tu), tuple(tv))
    shifted = dict(x.values)
    shifted[tu[0]] -= 5
    for values in (dict.fromkeys(x.values, nan), shifted):
        with pytest.raises(ValueError, match="is not >= 0"):
            skew_multicut(inst, FractionalSolution(values))
    down, y = random_diffuse_downward(0)
    with pytest.raises(ValueError, match="is not >= 0"):
        downward_multicut(down, FractionalSolution(
            dict.fromkeys(y.values, nan)))


def test_skew_random_staircases_bound_and_validity():
    solved = 0
    for seed in range(120):
        d, tu, tv, pairs = random_staircase(seed, n=11, a=3, b=3)
        if not pairs:
            continue
        base = MulticutInstance(d, tuple(pairs))
        x = solve_fractional(base)
        inst = SkewInstance(base, tuple(tu), tuple(tv))
        got = skew_multicut(inst, x)
        assert inst.base.is_multicut(got)
        bound = x.objective * math.ceil(math.log2(len(tu) + 1))
        assert len(got) <= bound + 1e-6
        opt = exact_multicut(d, pairs, d.n)
        assert opt is not None and len(got) >= opt.optimum
        solved += 1
    assert solved >= 60


def test_skew_on_alive_matches_the_copy_digraph_on_a_renumbered_copy():
    """The skew stage on d[alive] in d's ids, as downward_multicut runs it,
    gives the cut the copy-digraph engine gives on the renumbered copy of
    d[alive]; dead terminals drop out of the instance."""
    rng = random.Random(43)
    cut = dead_terminals = 0
    for trial in range(300):
        n = rng.randint(4, 18)
        d, tu, tv, pairs = random_staircase(
            trial, n=n, a=rng.randint(1, n // 2), b=rng.randint(1, n // 2),
            p=rng.choice([0.2, 0.35, 0.5]))
        alive = {v for v in d.vertices() if rng.random() < 0.8}
        dead_terminals += bool((set(tu) | set(tv)) - alive)
        sub = ref_induced_digraph(d, alive)
        m = sub.index
        local = tuple((m[u], m[v]) for u, v in pairs if u in m and v in m)
        x_sub = solve_fractional(MulticutInstance(sub.graph, local))
        x = FractionalSolution({sub.old_of[v]: w
                                for v, w in x_sub.values.items()})
        inst = SkewInstance(MulticutInstance(d, tuple(pairs)),
                            tuple(tu), tuple(tv))
        want = ref_skew_on_copy(inst, x, alive)
        got = multicut._skew_cut(inst, x, alive)
        assert got == want, trial
        assert sorted(got) == sorted(want)
        cut += bool(got)
    assert cut >= 60 and dead_terminals >= 150, (cut, dead_terminals)


def test_multicut_engines_build_no_digraph(monkeypatch):
    instances = [out for seed in range(30)
                 if (out := random_diffuse_downward(seed)) is not None]
    staircases = [random_staircase(seed, n=24, a=6, b=6) for seed in range(10)]
    xs = [solve_fractional(MulticutInstance(d, tuple(pairs)))
          for d, _, _, pairs in staircases]
    builds = []
    original_init = DiGraph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original_init(self, *args, **kwargs)

    skews = []
    original_skew = multicut._skew_cut

    def counting_skew(*args, **kwargs):
        skews.append(args)
        return original_skew(*args, **kwargs)

    monkeypatch.setattr(DiGraph, "__init__", counting_init)
    monkeypatch.setattr(multicut, "_skew_cut", counting_skew)
    for inst, x in instances:
        downward_multicut(inst, x)
    reached = len(skews)
    for (d, tu, tv, pairs), x in zip(staircases, xs):
        skew = SkewInstance(MulticutInstance(d, tuple(pairs)),
                            tuple(tu), tuple(tv))
        multicut.skew_multicut(skew, x)
    assert builds == []
    assert reached >= 20


def test_skew_cuts_run_on_the_instance_digraph(monkeypatch):
    """Every min cut of the skew harness, from skew_multicut and from
    downward_multicut, runs on the instance's own digraph, with every
    source, sink and alive id below its n: no terminal copies."""
    instances = [out for seed in range(30)
                 if (out := random_diffuse_downward(seed)) is not None]
    staircases = [random_staircase(seed, n=24, a=6, b=6) for seed in range(10)]
    cuts = []
    original_cut = multicut.min_vertex_cut

    def recording_cut(d, *args, **kwargs):
        # sources, sinks, alive and the vertices to avoid
        cuts.append((d, set().union(*args, *kwargs.values())))
        return original_cut(d, *args, **kwargs)

    def checked_cuts(d):
        for got, ids in cuts:
            assert got is d
            assert all(0 <= v < d.n for v in ids)
        count = len(cuts)
        cuts.clear()
        return count

    monkeypatch.setattr(multicut, "min_vertex_cut", recording_cut)
    seen = 0
    for inst, x in instances:
        downward_multicut(inst, x)
        seen += checked_cuts(inst.digraph)
    for d, tu, tv, pairs in staircases:
        base = MulticutInstance(d, tuple(pairs))
        skew_multicut(SkewInstance(base, tuple(tu), tuple(tv)),
                      solve_fractional(base))
        seen += checked_cuts(d)
    assert seen >= 40, seen


# Recorded with the per-pair terminal path separator (one full search per
# pair): repr(|x*|) and the sorted skew output of each staircase.
STAIRCASE_DIGEST = (
    "90f99907ecae6aea9345c0c69ffc4dac87d7c72dc5066451669f2db08536607d")


def test_staircase_lp_and_skew_outputs_are_pinned():
    h = hashlib.sha256()
    for seed in range(6):
        d, tu, tv, pairs = random_staircase(seed, n=72, a=12, b=12, p=0.25)
        base = MulticutInstance(d, tuple(pairs))
        x = solve_fractional(base)
        inst = SkewInstance(base, tuple(tu), tuple(tv))
        cut = skew_multicut(inst, x)
        h.update(f"{seed} {x.objective!r} {sorted(cut)}\n".encode())
    assert h.hexdigest() == STAIRCASE_DIGEST



# Recorded with a terminal path search per live skew pair: the sorted skew
# output of staircases 56-79.  Three of them (59, 74 and 78) change when
# the liveness test ignores the vertices an earlier level cut.
SKEW_DIGEST = (
    "40357681740cd1d1f8f11cdfd06bd40e470c0820bc5fb3c3a78decbaff66dac9")


def test_skew_outputs_of_more_staircases_are_pinned():
    h = hashlib.sha256()
    for seed in range(56, 80):
        d, tu, tv, pairs = random_staircase(seed, n=72, a=12, b=12, p=0.25)
        base = MulticutInstance(d, tuple(pairs))
        x = solve_fractional(base)
        inst = SkewInstance(base, tuple(tu), tuple(tv))
        h.update(f"{seed} {sorted(skew_multicut(inst, x))}\n".encode())
    assert h.hexdigest() == SKEW_DIGEST

# Recorded with min cuts on renumbered copies of the live subgraph, a
# terminal path search per skew pair and dense simplex pivots: the
# terminals and sorted downward output of each diffuse instance.
DOWNWARD_DIGEST = (
    "e9853dfb472d4d4d639146452a83b7c39df4b3d61b5e32b94cf972094e7237fa")


def test_diffuse_downward_outputs_are_pinned():
    h = hashlib.sha256()
    for seed in range(30):
        out = random_diffuse_downward(seed)
        if out is None:
            continue
        inst, x = out
        cut = downward_multicut(inst, x)
        h.update(f"{seed} {list(inst.terminals)} {sorted(cut)}\n".encode())
    assert h.hexdigest() == DOWNWARD_DIGEST


def _branching_downward(seed):
    """A diffuse downward instance on a branching clique tree: two or
    three paths of cliques hang off one centre clique, the tree is rooted
    at a bag holding the centre, and x is uniform below 1/8.  Pairs in
    different branches have disjoint tree intervals, so the auxiliary
    graph H is not complete and its clique cover has several parts."""
    rng = random.Random(seed)
    centre = list(range(rng.randint(1, 3)))
    edges = [(u, v) for u in centre for v in centre if u < v]
    n = len(centre)
    for _ in range(rng.randint(2, 3)):
        prev = centre
        for _ in range(rng.randint(8, 11)):
            block = list(range(n, n + rng.randint(1, 2)))
            n += len(block)
            edges += [(u, v) for u in block for v in block if u < v]
            edges += [(u, v) for u in prev for v in block]
            prev = block
    g = Graph(n, edges)
    tree = clique_tree_of(g)
    base = build_downward(
        g, tree.reroot(tree.first_bag_containing(frozenset(centre))))
    x = FractionalSolution(dict.fromkeys(g.vertices(),
                                         1.0 / rng.randint(9, 12)))
    candidates = []
    for u in g.vertices():
        dist = dist_from(base.digraph, x, u)
        candidates += [(u, v) for v, cost in sorted(dist.items())
                       if cost >= 1.0 and not g.has_edge(u, v)]
    if not candidates:
        return None
    pairs = sorted(set(rng.sample(candidates,
                                  min(len(candidates), rng.randint(2, 6)))))
    return base.with_terminals(pairs), x


# Recorded before the checks that the construction implies were deleted
# from downward_multicut: the terminals and sorted output of each
# branching instance.
BRANCHING_DIGEST = (
    "31f1d42172a7ca07fe75fa8808ca4296306507e323bf81d06fb76476ae90ee65")


def test_downward_multicut_covers_a_branching_tree_by_several_cliques(
        monkeypatch):
    """On branching clique trees H has several cover parts (the path of
    cliques of the diffuse instances never gives more than one), and the
    cut is a multicut between the optimum and 2|x|."""
    parts = []
    cover = multicut.clique_cover_chordal

    def recording_cover(h):
        found = cover(h)
        parts.append(len(found))
        return found

    monkeypatch.setattr(multicut, "clique_cover_chordal", recording_cover)
    h = hashlib.sha256()
    for seed in range(40):
        out = _branching_downward(seed)
        if out is None:
            continue
        inst, x = out
        cut = downward_multicut(inst, x)
        assert MulticutInstance(inst.digraph, inst.terminals).is_multicut(cut)
        opt = exact_multicut(inst.digraph, list(inst.terminals), inst.g.n)
        assert opt.optimum <= len(cut) <= 2 * x.objective
        h.update(f"{seed} {list(inst.terminals)} {sorted(cut)}\n".encode())
    assert sum(p >= 2 for p in parts) >= 10, parts
    assert h.hexdigest() == BRANCHING_DIGEST


def test_downward_searches_cut_off_at_one_change_no_output(monkeypatch):
    # diffuse instances beyond the pinned seeds, solved once as they are
    # and once with every search in the multicut module unbounded
    instances = [out for seed in range(30, 60)
                 if (out := random_diffuse_downward(seed)) is not None]
    assert len(instances) >= 20
    bounded = [sorted(downward_multicut(inst, x)) for inst, x in instances]
    search = multicut.dijkstra_vertex_weights
    shortened = []

    def unbounded(*args, cutoff=math.inf, **kwargs):
        full = search(*args, **kwargs)
        if cutoff < math.inf:
            cut = search(*args, cutoff=cutoff, **kwargs)
            shortened.append(len(cut[0]) < len(full[0]))
        return full

    monkeypatch.setattr(multicut, "dijkstra_vertex_weights", unbounded)
    assert [sorted(downward_multicut(inst, x))
            for inst, x in instances] == bounded
    # the cutoff does act: 28 of these 135 searches stop short
    assert sum(shortened) >= 20


def test_dist_from_matches_the_heap_reference_on_random_dags():
    rng = random.Random(37)
    for _ in range(60):
        d = random_dag(rng, rng.randint(1, 16), rng.choice([0.2, 0.4]))
        x = FractionalSolution({v: rng.choice([0.0, 0.1, 0.5, rng.random()])
                                for v in d.vertices() if rng.random() < 0.8})
        for u in d.vertices():
            want = ref_dijkstra_vertex_weights(d.out_neighbors, u, x.value)
            assert list(dist_from(d, x, u).items()) == list(want[0].items())


def test_build_downward_single_bag():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = build_downward(g, clique_tree_of(g))
    assert inst.digraph.is_acyclic()
    assert inst.digraph.m == 3


def test_build_downward_path_points_away_from_root():
    g = Graph(3, [(0, 1), (1, 2)])
    t = clique_tree_of(g)
    root = next(i for i, b in enumerate(t.bags) if b == frozenset({0, 1}))
    inst = build_downward(g, t.reroot(root))
    # vertex 2 appears only in the deeper bag, so arcs run toward it
    assert 2 in inst.digraph.out_neighbors(1)


def test_build_downward_order_is_topological():
    rng = random.Random(113)
    for trial in range(25):
        g = random_chordal(rng, rng.randint(1, 12), rng.randint(1, 6), 2)
        inst = build_downward(g, clique_tree_of(g))
        r = inst.rank()
        for u, v in inst.digraph.arcs():
            assert r[u] < r[v]
        assert inst.digraph.is_acyclic()


def test_build_downward_on_a_vertex_set_matches_the_renumbered_copy():
    """build_downward(g, tree of g[A]) orients g[A] in g's ids, with the
    order and arcs of the renumbered copy of g[A], mapped back, under any
    root."""
    rng = random.Random(61)
    for _ in range(200):
        g = random_chordal(rng, rng.randint(1, 16), rng.randint(1, 6), 2)
        part = {v for v in g.vertices() if rng.random() < 0.7}
        sub = induced_subgraph(g, part)
        tree = clique_tree_of(g, part)
        root = rng.randrange(len(tree.bags))
        got = build_downward(g, tree.reroot(root))
        want = build_downward(sub.graph,
                              clique_tree_of(sub.graph).reroot(root))
        assert got.digraph.n == g.n
        assert got.order == tuple(sub.old_of[v] for v in want.order)
        assert sorted(got.digraph.arcs()) == sorted(
            (sub.old_of[u], sub.old_of[v]) for u, v in want.digraph.arcs())


def test_clique_cover_chordal_is_the_greedy_cover_of_the_recognized_peo():
    rng = random.Random(131)
    for _ in range(60):
        g = random_chordal(rng, rng.randint(0, 14), rng.randint(1, 6), 2)
        order = recognize(g)
        assert isinstance(order, PEO)
        pos = order.position()
        want, covered = [], set()
        for v in order.ordering:
            if v not in covered:
                group = {v} | {u for u in g.neighbors(v)
                               if pos[u] > pos[v] and u not in covered}
                covered |= group
                want.append(group)
        assert clique_cover_chordal(g) == want
    with pytest.raises(ValueError, match="requires a chordal graph"):
        clique_cover_chordal(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_clique_cover_chordal_partitions():
    rng = random.Random(127)
    for trial in range(25):
        g = random_chordal(rng, rng.randint(1, 10), rng.randint(1, 5), 2)
        cover = clique_cover_chordal(g)
        seen = set()
        for part in cover:
            assert not (part & seen)
            seen |= part
        assert seen == set(g.vertices())


def test_downward_multicut_no_terminals():
    g = Graph(3, [(0, 1), (1, 2)])
    inst = build_downward(g, clique_tree_of(g))
    assert downward_multicut(inst, FractionalSolution({})) == frozenset()


def test_downward_multicut_heavy_vertex_caught_by_threshold():
    g = Graph(3, [(0, 1), (1, 2)])
    base = build_downward(g, clique_tree_of(g))
    s, t = base.order[0], base.order[-1]
    mid = base.order[1]
    inst = base.with_terminals([(s, t)])
    got = downward_multicut(inst, FractionalSolution({mid: 1.0}))
    assert mid in got
    assert inst.digraph is not None


def _random_downward_instance(seed):
    rng = random.Random(seed)
    g = random_chordal(rng, rng.randint(6, 13), rng.randint(2, 6), 2)
    base = build_downward(g, clique_tree_of(g))
    r = base.rank()
    candidates = [
        (u, v) for u in g.vertices() for v in g.vertices()
        if r[u] < r[v] and not g.has_edge(u, v)
        and bfs_path(base.digraph.out_neighbors, [u], {v}) is not None
    ]
    if not candidates:
        return None
    pairs = tuple(sorted(rng.sample(candidates,
                                    min(len(candidates), rng.randint(1, 3)))))
    return base.with_terminals(pairs)


def test_downward_multicut_diffuse_instances_reach_cover_stage():
    # uniform weights below 1/8: nothing dies at the threshold, so the
    # auxiliary graph, clique cover, and skew conversion all run
    reached = 0
    for seed in range(30):
        out = random_diffuse_downward(seed)
        if out is None:
            continue
        inst, x = out
        x0 = {v for v in inst.digraph.vertices()
              if at_least(x.value(v), 1 / 8)}
        live = [
            (u, v) for u, v in inst.terminals
            if bfs_path(inst.digraph.out_neighbors, [u], {v},
                        set(inst.digraph.vertices()) - x0) is not None
        ]
        got = downward_multicut(inst, x)
        assert all(
            bfs_path(inst.digraph.out_neighbors, [s], {t},
                     set(inst.digraph.vertices()) - got) is None
            for s, t in inst.terminals
        )
        if live:
            reached += 1
    assert reached >= 20


def test_downward_multicut_takes_a_down_pair_at_the_feasibility_edge():
    """A down pair whose 2 dv lies in [1 - 2e-6, 1 - 1e-6): x is feasible,
    and 2x leaves the skew pair (1, 11) a path below 1 - FEASIBILITY_TOL,
    so the skew stage must not separate 2x again."""
    # the path 8 - 10 - 6 - 4 - 2 - 0 - 1 - 3 - ... - 11, rooted at {8, 10}
    # and oriented away from it; the pair (8, 11) shares the bag {0, 1},
    # the least node of its interval
    p = [8, 10, 6, 4, 2, 0, 1, 3, 5, 7, 9, 11]
    g = Graph(len(p), list(zip(p, p[1:])))
    tree = clique_tree_of(g)
    inst = build_downward(g, tree.reroot(tree.first_bag_containing(
        frozenset(p[:2])))).with_terminals([(p[0], p[-1])])
    du, dv = 0.5 - 2e-7, 0.5 - 7e-7
    x = FractionalSolution({**{v: du / 6 for v in p[:6]},
                            **{v: dv / 6 for v in p[6:]}})
    d = inst.digraph
    assert dist_from(d, x, p[0])[p[5]] < 0.5
    two_dv = 2 * dist_from(d, x, p[6])[p[-1]]
    assert 1 - 2e-6 <= two_dv < 1 - 1e-6
    x2 = FractionalSolution({v: 2 * w for v, w in x.values.items()})
    assert separate_multicut(d, [(p[6], p[-1])], x2) != []
    got = downward_multicut(inst, x)
    assert MulticutInstance(d, inst.terminals).is_multicut(got)
    assert got == {3}


def test_downward_multicut_random_instances():
    solved = 0
    for seed in range(150):
        inst = _random_downward_instance(seed)
        if inst is None:
            continue
        x = solve_fractional(MulticutInstance(inst.digraph, inst.terminals))
        got = downward_multicut(inst, x)
        assert all(
            bfs_path(inst.digraph.out_neighbors, [s], {t},
                     set(inst.digraph.vertices()) - got) is None
            for s, t in inst.terminals
        )
        opt = exact_multicut(inst.digraph, list(inst.terminals), inst.g.n)
        assert opt is not None and len(got) >= opt.optimum
        solved += 1
        if solved >= 60:
            break
    assert solved >= 40
