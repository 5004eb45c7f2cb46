"""The kernel engine against its straightforward references and pinned traces."""
import hashlib
import random
import sys

from chvd import kernel
from chvd.chordal import clique_tree_of
from chvd.generate import GeneratorSpec, generate, kernel_instance_pool
from chvd.graphs import components_within, delete_vertices, induced_subgraph
from chvd.kernel import (
    rule3_reduce_clique,
    annotate,
    apply_event,
    bottommost_good,
    build_separator,
    kernelize,
    kernelize_annotated,
    rule4_components,
    rule6_irrelevant,
    rule7_bypass,
    structural_report,
    template_toughness,
)
from bruteforce import (
    ref_lca_closure,
    ref_separator_marked_nodes,
    ref_template_toughness,
    ref_xy_good_bottommost,
)


def kernel_digest(res) -> str:
    """Digest of a kernel: verdict, budget, output graph and full trace."""
    edges = tuple(res.graph.edges())
    blob = repr((res.verdict, res.k, res.graph.n, edges, res.trace))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Recorded with the per-pair template and per-pair rule 2 engine.
POOL_DIGESTS = {
    0: "57eb297e11c7f105", 1: "2b27e60874afa44b", 2: "e1f1a7a7fc6f73ec",
    3: "9384dc63ca6d1cb8", 4: "d6ad11d5b03401ad", 5: "bac6a0d32b58efe9",
    6: "f962f2146bf317b9", 7: "43756eb6191d118d", 8: "04c97cc945f09615",
    9: "6d9502b1446dd963", 10: "f78299a37168bbc6", 11: "e284f2b61773e39e",
    12: "4f860ebf8fe7b406", 13: "5fe9f4fae2ffddc2", 14: "88568b4e3e18a214",
    15: "2975cc83f12be03f", 16: "018c13afb1c0f6ed", 17: "4f860ebf8fe7b406",
    18: "04c97cc945f09615", 19: "88568b4e3e18a214", 20: "c398d7b5e6911e7d",
    21: "f962f2146bf317b9", 22: "e1f1a7a7fc6f73ec", 23: "71b9efd60876927a",
    24: "6d9502b1446dd963", 25: "fca8013e7f32dd1d", 26: "cd459d1e57003b30",
    27: "4f860ebf8fe7b406", 28: "9384dc63ca6d1cb8", 29: "2e9effe11f5754a1",
}
LADDER_DIGEST = "7cb7388e8318dad0"     # seed 1, n = 103: 13 events, n = 38


def test_kernel_pool_traces_are_pinned():
    for seed, expected in POOL_DIGESTS.items():
        g, k, modulator = kernel_instance_pool(seed)
        assert kernel_digest(kernelize(g, k, modulator)) == expected, seed


def ladder_instance():
    g, k, planted = generate(GeneratorSpec(seed=1, core_vertices=99,
                                           tree_nodes=33, planted=4,
                                           noise_edges=1))
    return g, k, sorted(planted)


def test_planted_ladder_trace_is_pinned():
    res = kernelize(*ladder_instance())
    assert (len(res.trace), res.graph.n) == (13, 38)
    assert kernel_digest(res) == LADDER_DIGEST


def small_instances(seeds):
    """Small planted instances, then the kernel pool's shapes."""
    for seed in seeds:
        g, k, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=16, tree_nodes=5, planted=3,
            noise_edges=1))
        yield g, k, sorted(planted)
    for seed in seeds:
        yield kernel_instance_pool(seed)


def annotated_states(seeds):
    """Every intermediate instance of kernelizing small instances."""
    for g, k, modulator in small_instances(seeds):
        res = annotate(g, k, modulator)
        if res is None or res[0].k >= len(res[0].modulator):
            continue
        inst = res[0]
        yield inst
        _, events = kernelize_annotated(inst)
        for event in events:
            inst = apply_event(inst, event)
            yield inst


def rule4_separators(inst):
    """The per-pair boundary separators rule 4 hands to the template."""
    ms = sorted(inst.modulator)
    for x in ms:
        comps_x = components_within(inst.g, inst.selector(negatives=[x]))
        for y in ms:
            if y == x:
                continue
            boundary = set()
            for comp in comps_x:
                if inst.g.neighbor_set(y) & comp:
                    for v in comp:
                        boundary.update(inst.g.neighbors(v))
                    boundary -= comp
            yield frozenset(boundary) | inst.modulator


def test_template_matches_reference():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for inst in annotated_states(range(12)):
        rest = sorted(set(inst.g.vertices()) - inst.modulator)
        separators = set(rule4_separators(inst))
        separators.add(inst.modulator)
        for p in (0.2, 0.4, 0.6):
            separators.add(inst.modulator
                           | frozenset(v for v in rest if rng.random() < p))
        for sep in sorted(separators, key=sorted):
            got = template_toughness(inst, sep, "t", (0,))
            assert got == ref_template_toughness(inst, sep, "t", (0,))
            outcomes[got is not None] += 1
    # both outcomes must be exercised for the comparison to mean anything
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def test_xy_good_bottommost_matches_reference_on_rerooted_trees():
    pairs_with_nodes = 0
    for inst in annotated_states(range(8)):
        core = delete_vertices(inst.g, inst.modulator)
        if core.graph.n == 0:
            continue
        base = clique_tree_of(core.graph)
        for root in base.nodes():
            ref_tree = base.reroot(root)
            good = bottommost_good(inst, inst.tree.reroot(root))
            pairs = inst.nonadjacent_pairs
            assert tuple(good) == pairs
            for x, y in pairs:
                got = good[(x, y)]
                assert got == ref_xy_good_bottommost(inst, core, ref_tree,
                                                     x, y)
                pairs_with_nodes += bool(got)
    assert pairs_with_nodes >= 10


def test_rule4_runs_the_template_once_per_separator(monkeypatch):
    original = kernel.template_toughness
    separators = []

    def recording(inst, separator, label, witness):
        separators.append(separator)
        return original(inst, separator, label, witness)

    monkeypatch.setattr(kernel, "template_toughness", recording)
    for seed in range(3):
        g, k, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=16, tree_nodes=5, planted=3,
            noise_edges=1))
        inst, _ = annotate(g, k, sorted(planted))
        reduced, _ = kernelize_annotated(inst)
        separators.clear()
        assert rule4_components(reduced) is None
        m = len(reduced.modulator)
        assert len(separators) == len(set(separators)) < m * (m - 1)


def test_each_instance_builds_its_core_tree_once(monkeypatch):
    original = kernel.clique_tree_of
    calls = []

    def recording(g, vertices=None):
        calls.append(g if vertices is None
                     else induced_subgraph(g, vertices).graph)
        return original(g, vertices)

    monkeypatch.setattr(kernel, "clique_tree_of", recording)
    chains = 0
    for g, k, modulator in [ladder_instance()] + [
            kernel_instance_pool(seed) for seed in range(10)]:
        res = annotate(g, k, modulator)
        if res is None:
            continue
        inst = res[0]
        calls.clear()
        _, events = kernelize_annotated(inst)
        cores = {delete_vertices(inst.g, inst.modulator).graph}
        for event in events:
            inst = apply_event(inst, event)
            cores.add(delete_vertices(inst.g, inst.modulator).graph)
        core_calls = sum(graph in cores for graph in calls)
        assert core_calls <= len(events) + 1, (core_calls, len(events))
        chains += 1
    assert chains == 11


def test_each_instance_finds_its_nonneighbor_components_once(monkeypatch):
    original = kernel.components_within
    calls = []

    def recording(g, allowed):
        # only the searches of the instance's nonneighbour table count, by x
        caller = sys._getframe(1)
        if caller.f_code is kernel.AChvdInstance.nonneighbor_components \
                .__code__:
            calls.append(caller.f_locals["x"])
        return original(g, allowed)

    monkeypatch.setattr(kernel, "components_within", recording)
    states = 0
    for inst in annotated_states(range(6)):
        fresh = {x: original(inst.g, inst.selector(negatives=[x]))
                 for x in inst.modulator}
        calls.clear()
        for _ in range(2):
            rule4_components(inst)
            build_separator(inst)
            structural_report(inst)
            rule3_reduce_clique(inst)
        # the separator and the report read every x
        assert sorted(calls) == sorted(inst.modulator)
        for x, comps in fresh.items():
            assert [c for c, _ in inst.nonneighbor_components(x)] == comps
        states += 1
    assert states >= 30


def test_each_instance_finds_each_nonneighbor_boundary_once(monkeypatch):
    original = kernel.boundary
    # these take boundaries of components of other vertex sets, which may
    # coincide with a nonneighbour component
    elsewhere = {kernel.template_toughness.__code__,
                 kernel.component_context.__code__,
                 kernel.bottommost_good.__code__}
    calls = []

    def recording(g, comp):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in elsewhere:
            frame = frame.f_back
        if frame is None:
            calls.append(comp)
        return original(g, comp)

    monkeypatch.setattr(kernel, "boundary", recording)
    states = shared = 0
    for inst in annotated_states(range(6)):
        comps = [c for x in sorted(inst.modulator)
                 for c in components_within(inst.g,
                                            inst.selector(negatives=[x]))]
        calls.clear()
        for _ in range(2):
            rule4_components(inst)
            rule3_reduce_clique(inst)
            build_separator(inst)
            structural_report(inst)
        assert sorted(calls, key=sorted) == sorted(comps, key=sorted)
        # rule 4 reads a component once for every modulator neighbour
        shared += any(
            sum(bool(inst.g.neighbor_set(y) & c) for y in inst.modulator) > 1
            for c in comps)
        states += 1
    assert states >= 30 and shared >= 10


def test_each_instance_builds_each_component_context_once(monkeypatch):
    original = kernel.component_context
    calls = []

    def recording(inst, comp):
        calls.append(comp)
        return original(inst, comp)

    monkeypatch.setattr(kernel, "component_context", recording)
    states = 0
    for inst in annotated_states(range(6)):
        comps = components_within(inst.g, inst.core - inst.separator.vertices)
        calls.clear()
        for _ in range(2):
            rule6_irrelevant(inst)
            rule7_bypass(inst)
            structural_report(inst)
        assert len(calls) <= len(comps), (len(calls), len(comps))
        assert calls == comps[:len(calls)]
        states += 1
    assert states >= 30


def test_cached_tree_and_separator_match_fresh_builds():
    for inst in annotated_states(range(8)):
        core = delete_vertices(inst.g, inst.modulator)
        fresh = clique_tree_of(core.graph)
        fresh_bags = tuple(frozenset(core.old_of[v] for v in bag)
                           for bag in fresh.bags)
        assert (inst.tree.bags, inst.tree.parent) == (fresh_bags, fresh.parent)
        sep = build_separator(inst)
        assert inst.separator.vertices == sep.vertices
        assert inst.separator.closed_nodes == sep.closed_nodes


def test_separator_closes_its_marked_nodes_under_lca_in_one_round():
    closing = 0
    for seed in range(40):
        g, k, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=60, tree_nodes=20, planted=4,
            noise_edges=1))
        inst, _ = annotate(g, k, sorted(planted))
        sep = build_separator(inst)
        ends = sep.marked_nodes | {inst.tree.root}
        assert sep.closed_nodes == ref_lca_closure(inst.tree, ends)
        closing += sep.closed_nodes != ends
    # the closure adds a node in seeds 34, 35 and 39
    assert closing >= 3


def test_separator_matches_per_pair_trees_and_builds_none(monkeypatch):
    original = kernel.clique_tree_of
    calls = []

    def recording(g, vertices=None):
        calls.append(vertices)
        return original(g, vertices)

    monkeypatch.setattr(kernel, "clique_tree_of", recording)
    states = 0
    for inst in annotated_states(range(30)):
        inst.tree                       # the cached core tree, built first
        calls.clear()
        sep = build_separator(inst)
        assert calls == []
        assert sep.marked_nodes == ref_separator_marked_nodes(inst)
        states += 1
    assert states == 172
