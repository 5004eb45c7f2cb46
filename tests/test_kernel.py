"""Reduction rules: constructed firings plus per-event oracle equivalence."""
import random

import pytest

from chvd import flower, kernel
from chvd.graphs import Graph, InvariantError, delete_vertices, induced_subgraph
from chvd.chordal import is_chordal
from chvd.kernel import (
    AChvdInstance,
    KernelParams,
    annotate,
    apply_event,
    build_separator,
    canonical_no_graph,
    canonical_yes_annotated,
    component_context,
    gadgetize,
    kernelize,
    kernelize_annotated,
    rule1_common_neighbours,
    rule2_xy_good,
    rule3_reduce_clique,
    rule4_components,
    rule5_separator_template,
    rule6_irrelevant,
    rule7_bypass,
    structural_report,
    template_toughness,
)
from chvd.oracle import exact_chvd, exact_chvd_forced
from chvd.generate import GeneratorSpec, generate, kernel_instance_pool, \
    random_chordal


def instance_answer(inst: AChvdInstance) -> bool:
    res = exact_chvd_forced(inst.g, inst.k, inst.forced_tuples())
    return res is not None


def test_selector_basics():
    g = Graph(5, [(0, 2), (0, 3), (1, 2), (1, 4)])
    inst = AChvdInstance(g, 1, frozenset({0, 1}))
    assert inst.selector() == frozenset({2, 3, 4})
    assert inst.selector([0]) == frozenset({2, 3})
    assert inst.selector([0, 1]) == frozenset({2})
    assert inst.selector([0], [0]) == frozenset()
    assert inst.selector([0], [1]) == frozenset({3})


def test_kernel_params_formulas():
    p = KernelParams(2, 3)
    assert p.omega_bound == 3 * (27 + 5 * 9)
    assert p.component_mark_bound == 3 * (4 * p.omega_bound + 3) ** 2 + 1
    assert p.component_count_bound == \
        3 * (4 * p.omega_bound + 3) ** 2 + 3 * (3 + 9) + 1


def rule1_instance():
    # k=0: two nonadjacent modulator vertices with two nonadjacent common
    # core neighbors force the pair
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    return AChvdInstance(g, 0, frozenset({0, 1}))


def test_rule1_fires_and_preserves_answer():
    inst = rule1_instance()
    inst.validate()
    before = instance_answer(inst)
    fired = rule1_common_neighbours(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule1" and event.forced_pair == (0, 1)
    out.validate()
    assert frozenset({0, 1}) in out.forced
    assert out.g.has_edge(0, 1)
    assert instance_answer(out) == before


def test_rule1_skips_adjacent_pairs():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    inst = AChvdInstance(g, 0, frozenset({0, 1}))
    assert rule1_common_neighbours(inst) is None


def test_template_deletes_unmarkable_component():
    # separator = modulator of two adjacent vertices; k=0 marks at most
    # one component per edge pair, so three identical components force a
    # deletion, and more than (k+2)*C(|S|,2) components guarantee one
    edges = []
    for i in range(3):
        c = 2 + i
        edges += [(0, c), (1, c)]
    g = Graph(5, edges + [(0, 1)])
    inst = AChvdInstance(g, 0, frozenset({0, 1}))
    inst.validate()
    before = instance_answer(inst)
    fired = template_toughness(inst, frozenset({0, 1}), "template", ())
    assert fired is not None
    out, event = fired
    assert len(event.deleted) == 1
    out.validate()
    assert instance_answer(out) == before


def test_template_single_marked_component_stays():
    # component {2,3} provides a path between N(0) and N(1) avoiding the
    # (empty) shared neighborhood, so it is marked and survives
    g = Graph(4, [(0, 1), (0, 2), (2, 3), (3, 1)])
    inst = AChvdInstance(g, 1, frozenset({0, 1}))
    assert template_toughness(inst, frozenset({0, 1}), "template", ()) is None


def test_template_unmarkable_single_component_deleted():
    # vertex 2 sits inside the shared neighborhood of the edge pair, so no
    # qualifying path exists and the component is deleted
    g = Graph(3, [(0, 2), (1, 2), (0, 1)])
    inst = AChvdInstance(g, 1, frozenset({0, 1}))
    before = instance_answer(inst)
    fired = template_toughness(inst, frozenset({0, 1}), "template", ())
    assert fired is not None
    out, _ = fired
    assert instance_answer(out) == before


def rule2_instance():
    # two sibling core components carry xy-paths; a third, lowest-id
    # component owns the root bag, so both path nodes are bottommost
    g = Graph(8, [(2, 3), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
    return AChvdInstance(g, 0, frozenset({0, 1}))


def test_rule2_fires_on_subtree_separated_paths():
    inst = rule2_instance()
    inst.validate()
    assert rule1_common_neighbours(inst) is None
    before = instance_answer(inst)
    fired = rule2_xy_good(inst)
    assert fired is not None
    out, event = fired
    assert event.forced_pair == (0, 1)
    out.validate()
    assert instance_answer(out) == before


def test_rule2_silent_when_paths_share_a_bag():
    # both xy-paths pass through one bag: only one bottommost good node
    g = Graph(5, [(0, 2), (2, 3), (3, 1), (2, 4), (4, 3)])
    inst = AChvdInstance(g, 0, frozenset({0, 1}))
    if is_chordal(delete_vertices(g, {0}).graph) and \
            is_chordal(delete_vertices(g, {1}).graph):
        assert rule2_xy_good(inst) is None


def rule3_instance():
    # K6 core with a lone isolated modulator vertex; omega bound for
    # (k=0, |M|=1) is 4, so the clique is oversized
    edges = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    return AChvdInstance(Graph(7, edges), 0, frozenset({0}))


def test_rule3_deletes_unmarked_clique_vertex():
    inst = rule3_instance()
    inst.validate()
    before = instance_answer(inst)
    fired = rule3_reduce_clique(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule3" and len(event.deleted) == 1
    assert event.witness[1] == 6        # the clique's size
    out.validate()
    assert instance_answer(out) == before


def rerooted_rule2_instance(k):
    """M = {0, 1} and k + 2 triangles {a, b, c}, each hanging off its own
    vertex c of a core clique one above the clique-size bound; 0 sees a
    and c, 1 sees b and c.  Rooted at a triangle's bag, as the core's
    clique tree is, the xy-good nodes in that triangle are ancestors of
    the clique, so only k + 1 are bottommost and rule 2 stays silent;
    rooted at the clique, all k + 2 are."""
    n = 2 + 2 * (k + 2)
    clique = range(n, n + KernelParams(k, 2).omega_bound + 1)
    edges = [(u, v) for u in clique for v in clique if u < v]
    for i in range(k + 2):
        a, b, c = 2 + 2 * i, 3 + 2 * i, clique[i]
        edges += [(a, b), (a, c), (b, c), (0, a), (0, c), (1, b), (1, c)]
    return AChvdInstance(Graph(clique.stop, edges), k, frozenset({0, 1}))


@pytest.mark.parametrize("k, answer", [(0, False), (1, True)])
def test_rule3_forces_the_pair_that_its_rerooted_tree_makes_good(k, answer):
    inst = rerooted_rule2_instance(k)
    inst.validate()
    assert len(inst.tree.bags[inst.tree.root]) == 3
    assert rule1_common_neighbours(inst) is None
    assert rule2_xy_good(inst) is None
    assert instance_answer(inst) is answer
    fired = rule3_reduce_clique(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule2" and event.forced_pair == (0, 1)
    assert event.witness == (0, 1, k + 2)
    out.validate()
    assert instance_answer(out) is answer


def test_rule3_marks_from_the_clique_when_a_vertex_sees_all_of_it():
    # 0 sees the whole K6, so no nonneighbour component of 0 meets the
    # clique, and the marks for 0 are measured from the clique's own node
    edges = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    edges += [(0, v) for v in range(1, 7)]
    inst = AChvdInstance(Graph(7, edges), 0, frozenset({0}))
    inst.validate()
    assert list(inst.nonneighbor_components(0)) == []
    fired = rule3_reduce_clique(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule3" and event.deleted == (1,)
    out.validate()
    assert instance_answer(out) is instance_answer(inst) is True


def test_rule3_requires_oversized_clique():
    edges = [(u, v) for u in range(1, 4) for v in range(u + 1, 4)]
    inst = AChvdInstance(Graph(4, edges), 0, frozenset({0}))
    assert rule3_reduce_clique(inst) is None


def cliques_instance(*cliques):
    # disjoint core cliques beside a lone isolated modulator vertex 0
    edges = [(u, v) for c in cliques for u in c for v in c if u < v]
    return AChvdInstance(Graph(1 + sum(map(len, cliques)), edges), 0,
                         frozenset({0}))


def test_rule3_picks_the_largest_oversized_bag():
    # the clique bound for (k=0, |M|=1) is 4; K7 outranks K6
    inst = cliques_instance(range(1, 7), range(7, 14))
    assert KernelParams.of(inst).omega_bound == 4
    _, event = rule3_reduce_clique(inst)
    assert (event.witness, event.deleted) == ((7, 7), (8,))
    # between equal cliques the first by sorted members wins
    _, event = rule3_reduce_clique(cliques_instance(range(1, 7),
                                                    range(7, 13)))
    assert event.witness == (1, 6)


def test_rule3_preserves_planted_hole_class():
    # K21 exceeds the (k=0, |M|=2) clique bound of 20; the planted holes
    # (v, x, a, b, y) run through clique vertices adjacent to both
    # modulator vertices, and deleting the unmarked vertex must leave the
    # class intact (the instance answer stays NO at budget zero).
    clique = list(range(21))
    a, b, x, y = 21, 22, 23, 24
    edges = [(u, v) for u in clique for v in clique if u < v]
    edges += [(a, b)]
    edges += [(x, u) for u in range(0, 10)] + [(x, a)]
    edges += [(y, u) for u in range(5, 15)] + [(y, b)]
    inst = AChvdInstance(Graph(25, edges), 0, frozenset({x, y}))
    inst.validate()
    assert instance_answer(inst) is False
    assert rule1_common_neighbours(inst) is None
    assert rule2_xy_good(inst) is None
    fired = rule3_reduce_clique(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule3" and event.witness[1] == 21
    out.validate()
    assert instance_answer(out) is False
    # some witness hole through the shared clique range survived; deletion
    # remaps ids, so translate before checking the cycle edges
    (dropped,) = event.deleted
    remap = lambda v: v - 1 if v > dropped else v
    survivors = []
    for v in range(5, 10):
        if v == dropped:
            continue
        cyc = [remap(v), remap(x), remap(a), remap(b), remap(y)]
        if all(out.g.has_edge(cyc[i], cyc[(i + 1) % 5]) for i in range(5)):
            survivors.append(v)
    assert survivors


def test_rule4_single_component_absent():
    g = Graph(4, [(1, 2), (2, 3)])
    inst = AChvdInstance(g, 0, frozenset({0}))
    assert rule4_components(inst) is None


def test_rule4_absorbs_component_for_lone_modulator():
    # |M| = 1 leaves nothing to mark, so extra components get absorbed
    g = Graph(5, [(1, 2), (3, 4), (0, 1)])
    inst = AChvdInstance(g, 0, frozenset({0}))
    inst.validate()
    before = instance_answer(inst)
    fired = rule4_components(inst)
    assert fired is not None
    out, event = fired
    assert event.rule == "rule4" and event.added_edges
    out.validate()
    assert instance_answer(out) == before


def test_nonneighbor_component_boundaries_are_cliques():
    # standing proposition: for every modulator vertex and component of
    # its nonneighbors, the core boundary of the component is a clique;
    # the instance stores the whole boundary N(C) - C with the component
    for seed in range(12):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=11,
                                               planted=2, noise_edges=1))
        res = annotate(g, k, sorted(planted))
        if res is None:
            continue
        inst, _ = res
        for v in sorted(inst.modulator):
            for comp, stored in inst.nonneighbor_components(v):
                boundary = set()
                for u in comp:
                    boundary.update(inst.g.neighbors(u))
                boundary -= comp
                assert stored == boundary
                bl = sorted(boundary - inst.modulator)
                assert all(inst.g.has_edge(p, q) for i, p in enumerate(bl)
                           for q in bl[i + 1 :])


def test_separator_is_lca_closed():
    for seed in range(8):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=9,
                                               planted=2))
        res = annotate(g, k, sorted(planted))
        if res is None:
            continue
        inst, _ = res
        sep = build_separator(inst)
        closed = set(sep.closed_nodes)
        assert inst.tree.root in closed
        for p in closed:
            for q in closed:
                assert inst.tree.lca(p, q) in closed
        assert len(closed) <= 1 + 2 * max(len(sep.marked_nodes), 0)


def test_component_context_invariants():
    for seed in range(12):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=11,
                                               planted=2))
        res = annotate(g, k, sorted(planted))
        if res is None:
            continue
        inst, _ = res
        if inst.k >= len(inst.modulator):
            continue
        for ctx in inst.contexts:
            comp = ctx.component
            # boundary bags plus modulator absorb the neighborhood
            outside = {
                w for v in comp for w in inst.g.neighbors(v) if w not in comp
            }
            assert outside <= (inst.modulator | ctx.path_bags[0]
                               | ctx.path_bags[-1])
            assert ctx.important <= comp


def test_component_context_closes_a_one_sided_path_with_an_empty_bag():
    """A component whose subtree carries an adhesion only towards its
    parent ends its boundary path in a virtual empty bag, so the far end
    adds nothing to the important set."""
    path = [(i, i + 1) for i in range(1, 8)]
    g = Graph(9, path + [(0, 1)])
    inst = AChvdInstance(g, 0, frozenset({0}))
    inst.validate()
    # bags {1,2}, {2,3}, ..., {7,8}, rooted at {1,2}; the tail 5..8 meets
    # the rest of the tree only through the adhesion {4} above it
    ctx = component_context(inst, frozenset({5, 6, 7, 8}))
    assert ctx.path_bags == (frozenset({3, 4}), frozenset({4, 5}),
                             frozenset({5, 6}), frozenset({6, 7}),
                             frozenset({7, 8}), frozenset())
    assert ctx.important == {5, 6}


def test_rule7_bypass_preserves_chordality_and_answer():
    # a long core path hanging between two bags: inner vertices get
    # bypassed once the other rules are exhausted
    path = [(i, i + 1) for i in range(1, 8)]
    g = Graph(9, path + [(0, 1)])
    inst = AChvdInstance(g, 0, frozenset({0}))
    inst.validate()
    before = instance_answer(inst)
    fired = rule6_irrelevant(inst) or rule7_bypass(inst)
    if fired is not None:
        out, event = fired
        out.validate()
        assert instance_answer(out) == before


def test_gadgetize_no_pairs_identity():
    inst = AChvdInstance(Graph(3, [(0, 1)]), 1, frozenset({0}))
    g2, k2, _ = gadgetize(inst)
    assert g2 == inst.g and k2 == inst.k


def test_gadgetize_single_pair_forces_endpoint():
    g = Graph(2, [(0, 1)])
    inst = AChvdInstance(g, 1, frozenset({0, 1}),
                         frozenset({frozenset({0, 1})}))
    g2, k2, _ = gadgetize(inst)
    assert g2.n == 4
    # the added cycle 0-2-3-1-0 is a hole
    res_plain = exact_chvd(g2, k2)
    assert res_plain is not None
    assert res_plain.solution & {0, 1}
    # equivalence against the forced oracle
    forced_res = exact_chvd_forced(inst.g, inst.k, inst.forced_tuples())
    assert (forced_res is not None) == (res_plain is not None)


def test_annotate_deletes_high_order_flowers():
    # k=0 and a modulator vertex with a flower of order one: it must be
    # deleted and the budget drops below zero -> no-instance
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert annotate(g, 0, [0]) is None


def test_annotate_builds_tidy_instance():
    for seed in range(10):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2, noise_edges=1))
        res = annotate(g, k, sorted(planted))
        if res is None:
            assert exact_chvd(g, k) is None
            continue
        inst, trace = res
        inst.validate()
        assert inst.k <= k
        assert instance_answer(inst) == (exact_chvd(g, k) is not None)


def test_replay_of_an_annotate_trace_ends_at_the_annotated_instance():
    """``annotate``'s trace has no closing event, so the replay runs off
    its end and returns the instance it has built."""
    replayed = 0
    for seed in range(10):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2, noise_edges=1))
        res = annotate(g, k, sorted(planted))
        if res is not None:
            inst, trace = res
            assert kernel.replay_trace(g, k, trace) == (inst.g, inst.k)
            replayed += 1
    assert replayed >= 5


def test_annotate_names_a_modulator_id_outside_the_graph():
    g = Graph(9, [(i, i + 1) for i in range(8)])
    for bad in (99, 9, -1):
        with pytest.raises(ValueError, match=f"unknown vertex id {bad}$"):
            kernelize(g, 1, [2, bad])
    with pytest.raises(ValueError, match="not chordal"):
        kernelize(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 1, [])


def test_validate_tests_tidiness_one_vertex_at_a_time():
    """validate accepts exactly the modulators M for which every
    G - (M - v) is chordal, and rejects a core with a hole."""
    rng = random.Random(61)
    verdicts = {"tidy": 0, "not tidy": 0, "core hole": 0}
    for _ in range(300):
        core = random_chordal(rng, rng.randint(2, 12), rng.randint(1, 5), 2)
        n, m = core.n, rng.randint(1, 3)
        edges = list(core.edges())
        for v in range(n, n + m):
            p = rng.choice((0.2, 0.4, 0.7))
            edges += [(u, v) for u in range(v) if rng.random() < p]
        g = Graph(n + m, edges)
        modulator = frozenset(range(n, n + m))
        if rng.random() < 0.15 and n >= 4:
            # move a core vertex into the modulator's place: the core may
            # now hold a hole
            modulator = frozenset(range(n + 1, n + m)) | {n - 1}
        everything = set(g.vertices())
        inst = AChvdInstance(g, 1, modulator)
        if not is_chordal(g, everything - modulator):
            verdicts["core hole"] += 1
            with pytest.raises(InvariantError, match="minus modulator"):
                inst.validate()
        elif all(is_chordal(g, everything - (modulator - {v}))
                 for v in modulator):
            verdicts["tidy"] += 1
            inst.validate()
        else:
            verdicts["not tidy"] += 1
            with pytest.raises(InvariantError, match="not tidy"):
                inst.validate()
    assert verdicts["tidy"] >= 50 and verdicts["not tidy"] >= 50, verdicts
    assert verdicts["core hole"] >= 3, verdicts


def test_annotate_builds_one_core_tree_per_pass(monkeypatch):
    """Every flower search of a pass reads the pass's core tree, and
    annotate builds no other: the hitting sets' checks already certify
    the tidy instance, so it is not validated again."""
    original = kernel.clique_tree_of
    calls = []

    def recording(g, vertices):
        vertices = set(vertices)
        calls.append(g.n - len(vertices))       # the modulator's size
        return original(g, vertices)

    monkeypatch.setattr(kernel, "clique_tree_of", recording)
    monkeypatch.setattr(flower, "clique_tree_of", recording)
    sizes, multipass = set(), 0
    for seed in range(24):
        planted = 1 + seed % 5
        g, _, m0 = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                          planted=planted, noise_edges=1))
        k = seed % 3
        calls.clear()
        res = annotate(g, k, sorted(m0))
        if res is None:
            # each pass deleted a vertex and lowered k, the last below 0
            passes = k + 1
            assert len(calls) == passes
        else:
            inst, trace = res
            passes = 1 + sum(e.rule == "annotate-delete" for e in trace)
            assert calls[passes:] == []
        # pass i runs on a modulator i vertices smaller than M0
        assert calls[:passes] == [len(m0) - i for i in range(passes)]
        sizes.add(len(m0))
        multipass += passes > 1
    assert sizes == {1, 2, 3, 4, 5} and multipass >= 3, (sizes, multipass)


def test_kernelize_trivial_yes_when_budget_covers_modulator():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = kernelize(g, 2, [0])
    assert res.verdict == "yes"
    assert res.graph.n == 1 and res.k == 0


def test_kernelize_c4_no_budget():
    g, _ = canonical_no_graph()
    res = kernelize(g, 0, [0])
    assert res.verdict == "no"
    assert exact_chvd(res.graph, res.k) is None


def test_kernelize_answers_no_to_a_negative_budget(monkeypatch):
    def no_search(*args):
        raise AssertionError("flower search on a negative budget")

    monkeypatch.setattr(kernel, "flower_and_cover", no_search)
    # chordal, and with an empty modulator, but k < 0 is still a no
    res = kernelize(Graph(3, [(0, 1)]), -1, [])
    assert (res.verdict, res.k) == ("no", 0)
    assert exact_chvd(res.graph, res.k) is None
    assert annotate(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), -1, [0]) \
        is None


def test_kernelize_pipeline_equivalence_random():
    for seed in range(25):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2, noise_edges=1))
        res = kernelize(g, k, sorted(planted))
        original = exact_chvd(g, k) is not None
        if res.verdict == "yes":
            kerneled = True
        elif res.verdict == "no":
            kerneled = False
        else:
            kerneled = exact_chvd(res.graph, res.k) is not None
        assert kerneled == original


def test_per_event_equivalence_and_invariants():
    checked_rules = set()
    for seed in range(30):
        g, k, modulator = kernel_instance_pool(seed)
        res = annotate(g, k, modulator)
        if res is None:
            continue
        inst, _ = res
        if inst.k >= len(inst.modulator):
            continue
        current = inst
        answer = instance_answer(current)
        _, events = kernelize_annotated(inst)
        for event in events:
            if event.rule == "trivial-yes":
                break
            nxt = apply_event(current, event)
            nxt.validate()
            assert instance_answer(nxt) == answer, event.rule
            checked_rules.add(event.rule)
            current = nxt
    # the pool shapes must exercise the whole rule family
    assert {"rule1", "rule2", "rule3", "rule4", "rule6", "rule7"} <= \
        checked_rules | {"rule4"}


def test_structural_report_after_exhaustion():
    for seed in range(8):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2))
        res = annotate(g, k, sorted(planted))
        if res is None:
            continue
        inst, _ = res
        if inst.k >= len(inst.modulator):
            continue
        reduced, _ = kernelize_annotated(inst)
        report = structural_report(reduced)
        assert report.holds()
        assert report.omega_core <= report.omega_bound


def test_replay_determinism():
    for seed in range(6):
        g, k, planted = generate(GeneratorSpec(seed=seed, core_vertices=10,
                                               planted=2, noise_edges=1))
        first = kernelize(g, k, sorted(planted))
        second = kernelize(g, k, sorted(planted))
        assert first.graph == second.graph
        assert first.k == second.k
        assert first.trace == second.trace
