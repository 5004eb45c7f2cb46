"""Flower local search and the 12k hitting set built from its cutpoints."""
import random

import pytest

from chvd import flower, kernel
from chvd.graphs import (
    Graph, Hole, InvariantError, delete_vertices, induced_subgraph,
)
from chvd.chordal import CliqueTree, chordal_with, clique_tree_of, is_chordal
from chvd.flower import (
    Flower,
    FlowerSearch,
    flower_and_cover,
    hitting_set,
    improve,
    two_disjoint_paths,
    two_flower,
)
from chvd.generate import GeneratorSpec, generate, kernel_instance_pool
from bruteforce import bf_min_chvd, random_near_chordal


def bf_all_petals(g, v):
    """All induced paths between nonadjacent neighbors of v with interior
    outside N[v], by exhaustive DFS (test oracle)."""
    closed = set(g.neighbors(v)) | {v}
    petals = []

    def extend(path):
        tip = path[-1]
        if len(path) >= 2 and g.has_edge(v, tip):
            if not g.has_edge(path[0], tip) and \
                    all(u not in closed for u in path[1:-1]):
                induced = all(
                    not g.has_edge(path[i], path[j])
                    for i in range(len(path))
                    for j in range(i + 2, len(path))
                )
                if induced:
                    petals.append(tuple(path))
            # any longer path has this tip, a neighbour of v, inside it
            return
        for w in g.neighbors(tip):
            if w in path or w == v:
                continue
            if w in closed and not (g.has_edge(v, w) and len(path) >= 1):
                continue
            # a chord back to the path stays in every extension of it
            if any(g.has_edge(w, p) for p in path[:-1]):
                continue
            path.append(w)
            extend(path)
            path.pop()

    for s in g.neighbors(v):
        extend([s])
    # deduplicate reversals
    seen = set()
    out = []
    for p in petals:
        key = min(p, tuple(reversed(p)))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def bf_has_two_flower(g, v):
    petals = bf_all_petals(g, v)
    for i, p in enumerate(petals):
        for q in petals[i + 1 :]:
            if not (set(p) & set(q)):
                return True
    return False


def two_c4s_sharing_v():
    # v=0; petals 1-2-3 and 4-5-6
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6),
                     (6, 0)])


def test_two_flower_on_disjoint_c4s():
    g = two_c4s_sharing_v()
    f = two_flower(g, 0)
    assert f is not None and f.order == 2
    f.validate(g)


def test_validate_refuses_a_petal_that_misses_the_center():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                  (7, 4)])
    Flower(0, (Hole((0, 1, 2, 3)),)).validate(g)
    with pytest.raises(InvariantError, match="petal misses the center"):
        Flower(0, (Hole((0, 1, 2, 3)), Hole((4, 5, 6, 7)))).validate(g)


def test_validate_refuses_a_petal_with_a_chord():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    with pytest.raises(InvariantError, match="petal is not a hole"):
        Flower(0, (Hole((0, 1, 2, 3)),)).validate(g)


def test_validate_refuses_petals_that_share_a_vertex_besides_the_center():
    # K_{2,4} on {0, 2} and {1, 3, 4, 5}: two holes through 0, both via 2
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2), (2, 5),
                  (5, 0)])
    first, second = Hole((0, 1, 2, 3)), Hole((0, 4, 2, 5))
    Flower(0, (first,)).validate(g)
    Flower(0, (second,)).validate(g)
    with pytest.raises(InvariantError,
                       match="petals intersect outside the center"):
        Flower(0, (first, second)).validate(g)


def test_validate_accepts_every_flower_of_the_kernel_pool(monkeypatch):
    returned = []

    def recording(g, v, tree=None):
        f, s = flower_and_cover(g, v, tree)
        returned.append((g, f))
        return f, s

    monkeypatch.setattr(kernel, "flower_and_cover", recording)
    for seed in range(30):
        g, k, modulator = kernel_instance_pool(seed)
        kernel.annotate(g, k, modulator)
    for g, f in returned:
        f.validate(g)
    # 46 flowers with 18 petals in all
    assert len(returned) >= 40 and sum(f.order for _, f in returned) >= 15


def test_hitting_set_certificate_agrees_with_full_chordality(monkeypatch):
    """The tree certifies inside - v chordal, so the one-vertex component
    test through v decides whether g[inside - S] is chordal: for the real
    cover of every hitting set annotate builds on kernel-pool seeds 0-29,
    and for that cover less any one of its vertices."""
    reached = []
    original = flower.hitting_set

    def recording(search, f):
        cover = original(search, f)
        reached.append((search, cover))
        return cover

    monkeypatch.setattr(flower, "hitting_set", recording)
    for seed in range(30):
        g, k, modulator = kernel_instance_pool(seed)
        kernel.annotate(g, k, modulator)
    verdicts = set()
    for search, cover in reached:
        g, v = search.g, search.v
        for s in [cover, *(cover - {u} for u in cover)]:
            want = is_chordal(g, search.inside - s)
            assert chordal_with(g, search.inside - s - {v}, v) == want
            verdicts.add(want)
    assert len(reached) >= 40 and verdicts == {True, False}


def test_hitting_set_refuses_a_cover_that_skips_the_adhesions(monkeypatch):
    """With every adhesion read as empty the greedy cover keeps only the
    petal ends, and the certificate must refuse it on some pool
    instance."""
    original = flower.hitting_set

    def skipping(search, f):
        with monkeypatch.context() as m:
            m.setattr(CliqueTree, "adhesion", lambda self, node: frozenset())
            return original(search, f)

    monkeypatch.setattr(flower, "hitting_set", skipping)
    refused = 0
    for seed in range(30):
        g, k, modulator = kernel_instance_pool(seed)
        try:
            kernel.annotate(g, k, modulator)
        except InvariantError as exc:
            assert str(exc) == "hitting set misses a hole"
            refused += 1
    assert refused >= 1


def test_two_flower_of_a_vertex_outside_allowed_is_none():
    g = two_c4s_sharing_v()
    assert two_flower(g, 0, set(g.vertices())) is not None
    assert two_flower(g, 0, set(g.vertices()) - {0}) is None


def test_two_flower_absent_single_c4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert two_flower(g, 0) is None


def test_two_flower_matches_bruteforce():
    hits = 0
    for seed in range(60):
        g, v = random_near_chordal(seed, core_vertices=10, tree_nodes=6,
                                   apex_degree_hi=8)
        expected = bf_has_two_flower(g, v)
        got = two_flower(g, v)
        assert (got is not None) == expected
        if got is not None:
            got.validate(g)
            hits += 1
    assert hits > 5


def test_two_flower_on_allowed_matches_the_induced_subgraph():
    rng = random.Random(89)
    hits = 0
    for seed in range(40):
        g, v = random_near_chordal(seed, core_vertices=10, tree_nodes=6,
                                   apex_degree_hi=8)
        allowed = {u for u in g.vertices() if u == v or rng.random() < 0.8}
        sub = induced_subgraph(g, allowed)
        local = two_flower(sub.graph, sub.new_of(v))
        got = two_flower(g, v, allowed)
        if local is None:
            assert got is None
            continue
        assert got.petals == tuple(
            Hole(tuple(sub.old_of[u] for u in p.vertices)).canonical()
            for p in local.petals)
        assert got.vertex_set() <= allowed
        hits += 1
    assert hits >= 5


def test_two_disjoint_paths_direct():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    found = two_disjoint_paths(g, 0, 2, 3, 5)
    assert found is not None
    p1, p2 = found
    assert p1[0] == 0 and p1[-1] == 2 and p2[0] == 3 and p2[-1] == 5
    assert not (set(p1) & set(p2))
    # forcing both paths through a single cut vertex is impossible
    h = Graph(5, [(0, 2), (2, 1), (3, 2), (2, 4)])
    assert two_disjoint_paths(h, 0, 1, 3, 4) is None


def test_step1_fires_on_plain_hole():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    search = FlowerSearch(g, 0)
    f = improve(search, Flower(0, ()))
    assert f is not None and f.order == 1


def test_improve_fixed_point_on_maximal_flower():
    g = two_c4s_sharing_v()
    search = FlowerSearch(g, 0)
    f = Flower(0, ())
    while True:
        nxt = improve(search, f)
        if nxt is None:
            break
        f = nxt
    assert f.order == 2
    assert improve(search, f) is None


def test_step3_replaces_petal():
    # Petal (1,4,6,7) with a closer endpoint 5 available: step III must
    # replace it with the hole on (v,1,4,5).
    # Clique tree of g - v: {1,4} - {4,5,6} - {6,7}, so the endpoint pair
    # (1,7) is at tree distance 2 while (1,5) is at distance 1.
    v = 0
    g = Graph(8, [(v, 1), (v, 5), (v, 7),
                  (1, 4), (4, 5), (4, 6), (5, 6), (6, 7)])
    petal = Hole((v, 1, 4, 6, 7))
    search = FlowerSearch(g, v)
    base = Flower(v, (petal,))
    base.validate(g)
    improved = improve(search, base)
    assert improved is not None and improved.order == 1
    assert improved.petals[0].vertex_set() == {v, 1, 4, 5}


def test_flower_and_cover_chordal_graph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (1, 3)])
    assert is_chordal(g)
    f, s = flower_and_cover(g, 0)
    assert f.order == 0 and s == frozenset()


def test_flower_and_cover_c6():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    f, s = flower_and_cover(g, 0)
    assert f.order == 1
    assert len(s) <= 12
    assert is_chordal(delete_vertices(g, s).graph)


def test_flower_and_cover_disjoint_c5s():
    # t C5s sharing only v: flower order t, |S| <= 12t, g - S chordal
    t = 3
    edges = []
    nxt = 1
    for _ in range(t):
        ring = [0] + list(range(nxt, nxt + 4))
        nxt += 4
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    g = Graph(1 + 4 * t, edges)
    f, s = flower_and_cover(g, 0)
    assert f.order == t
    assert len(s) <= 12 * t
    assert 0 not in s
    assert is_chordal(delete_vertices(g, s).graph)


def test_flower_requires_near_chordal():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                  (7, 4)])
    with pytest.raises(ValueError):
        flower_and_cover(g, 0)


def test_hitting_set_matches_the_cutpoint_definition():
    """The hitting set is the petal endpoints plus adh(pi(u)) - N(v) for
    each u in N(v) outside the flower, pi(u) walked up from top(u) as
    defined."""
    reached = 0
    for seed in range(20):
        g, v = random_near_chordal(seed, core_vertices=10, tree_nodes=5)
        search = FlowerSearch(g, v)
        tree = search.tree
        f = Flower(v, ())
        while True:
            nxt = improve(search, f)
            if nxt is None:
                break
            f = nxt
        nv = set(g.neighbors(v))
        cover = nv | f.vertex_set()
        expected = {u for path in f.paths() for u in (path[0], path[-1])}
        for u in nv - f.vertex_set():
            for node in tree.path_to_root(u):
                if tree.parent[node] is None:
                    break
                if tree.adhesion(node) <= cover:
                    reached += bool(tree.adhesion(node) - nv - expected)
                    expected |= tree.adhesion(node) - nv
                    break
        assert hitting_set(search, f) == expected
    assert reached >= 2


def test_improve_increases_the_potential():
    # potential: order first, then falling endpoint tree distance
    for seed in range(15):
        g, v = random_near_chordal(seed, core_vertices=11, tree_nodes=6,
                                   apex_degree_hi=7)
        search = FlowerSearch(g, v)
        f = Flower(v, ())

        def potential(fl):
            dists = sum(search.tree.subtrees_distance(p[0], p[-1])
                        for p in fl.paths())
            return (fl.order, -dists)

        steps = 0
        while True:
            nxt = improve(search, f)
            if nxt is None:
                break
            assert potential(nxt) > potential(f)
            f = nxt
            steps += 1
            assert steps <= g.n ** 3


def test_duality_on_random_instances():
    for seed in range(40):
        g, v = random_near_chordal(seed, core_vertices=9, tree_nodes=5)
        f, s = flower_and_cover(g, v)
        assert v not in s
        assert len(s) <= 12 * f.order
        assert is_chordal(delete_vertices(g, s).graph)
        if g.n <= 13:
            opt = bf_min_chvd(g, forbidden={v})
            assert opt is not None
            assert f.order <= opt <= len(s)


def test_flower_and_cover_given_the_core_tree_matches_a_copy():
    """Given the core tree, the search runs in g[core + v] with g's ids and
    finds the same flower and cover as on a renumbered copy."""
    petals = 0
    for seed in range(30):
        g, _, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=12, planted=2 + seed % 3,
            noise_edges=1))
        core = set(g.vertices()) - planted
        tree = clique_tree_of(g, core)
        for v in sorted(planted):
            sub = delete_vertices(g, planted - {v})
            f0, s0 = flower_and_cover(sub.graph, sub.new_of(v))
            want = (tuple(Hole(tuple(sub.old_of[u] for u in p.vertices))
                          .canonical() for p in f0.petals),
                    sub.to_parent(s0))
            f, s = flower_and_cover(g, v, tree)
            assert (f.petals, s) == want
            petals += f0.order
    assert petals >= 30


def test_flower_search_center_outside_the_given_tree():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    search = FlowerSearch(g, 0, clique_tree_of(g, [1, 2, 3]))
    assert search.inside == {0, 1, 2, 3}
    with pytest.raises(ValueError, match="center 1 lies in a bag"):
        FlowerSearch(g, 1, clique_tree_of(g, [1, 2, 3]))


@pytest.mark.parametrize("center", [-1, 5])
@pytest.mark.parametrize("with_tree", [False, True])
def test_flower_search_refuses_a_center_outside_the_graph(center, with_tree):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    tree = clique_tree_of(g, [0, 1, 2, 3]) if with_tree else None
    with pytest.raises(ValueError, match=f"unknown vertex id {center}"):
        FlowerSearch(g, center, tree)
    with pytest.raises(ValueError, match=f"unknown vertex id {center}"):
        flower_and_cover(g, center, tree)
