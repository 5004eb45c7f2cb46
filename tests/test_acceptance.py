"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""
import math
import random
import time

import pytest

from chvd.graphs import Graph, bfs_path, delete_vertices, induced_subgraph
from chvd.chordal import is_chordal, minimal_path
from chvd.flower import flower_and_cover
from chvd.kernel import (
    annotate,
    apply_event,
    AChvdInstance,
    kernelize,
    kernelize_annotated,
    structural_report,
    KernelParams,
)
from chvd.lp import (
    ChvdProblem,
    FractionalSolution,
    MulticutProblem,
    at_least,
    separate_chvd,
    separate_multicut,
    solve_fractional,
)
from chvd.multicut import (
    MulticutInstance,
    SkewInstance,
    downward_multicut,
    dist_from,
    skew_multicut,
)
from chvd.approx import NoInstance, approximate
from chvd.oracle import (
    exact_chvd,
    exact_chvd_forced,
    exact_multicut,
)
from chvd.generate import (
    GeneratorSpec,
    generate,
    kernel_instance_pool,
    random_diffuse_downward,
    random_staircase,
)
from chvd.instance_io import InstanceFile, emit, parse
from chvd.cli import trace_text
from bruteforce import random_near_chordal


def report(index: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} [{name}]: {verdict} ({detail})")
    assert ok, f"criterion {index} failed: {detail}"


def test_criterion_1_erdos_posa_duality():
    start = time.perf_counter()
    instances = 0
    exact_checked = 0
    rng = random.Random(20240)
    while instances < 500:
        seed = instances
        core = rng.randint(5, 28)
        g, v = random_near_chordal(seed, core_vertices=core,
                                   tree_nodes=max(2, core // 2),
                                   apex_degree_hi=7)
        assert g.n <= 30
        flower, cover = flower_and_cover(g, v)
        assert v not in cover
        assert len(cover) <= 12 * flower.order
        assert is_chordal(delete_vertices(g, cover).graph)
        if g.n <= 14:
            res = exact_chvd(g, g.n, forbidden=[v])
            assert res is not None
            assert flower.order <= res.optimum <= len(cover)
            exact_checked += 1
        instances += 1
    elapsed = time.perf_counter() - start
    report(1, "erdos-posa duality", elapsed < 60.0,
           f"{instances} instances, {exact_checked} exact comparisons, "
           f"{elapsed:.1f}s < 60s")


def _kernel_answer(result) -> bool:
    if result.verdict == "yes":
        return True
    if result.verdict == "no":
        return False
    return exact_chvd(result.graph, result.k) is not None


def test_criterion_2_kernel_soundness():
    start = time.perf_counter()
    instances = 0
    events_checked = 0
    seed = 0
    while instances < 300:
        g, k, modulator = kernel_instance_pool(seed)
        seed += 1
        if g.n > 18 or k > 3:
            continue
        original = exact_chvd(g, k) is not None
        result = kernelize(g, k, modulator)
        assert _kernel_answer(result) == original
        # per-rule variant: equivalence after each single firing
        res = annotate(g, k, modulator)
        if res is not None:
            inst, _ = res
            if inst.k < len(inst.modulator):
                current = inst
                answer = exact_chvd_forced(
                    current.g, current.k, current.forced_tuples()) is not None
                _, events = kernelize_annotated(inst)
                for event in events:
                    if event.rule == "trivial-yes":
                        break
                    current = apply_event(current, event)
                    now = exact_chvd_forced(
                        current.g, current.k,
                        current.forced_tuples()) is not None
                    assert now == answer, event.rule
                    events_checked += 1
        instances += 1
    elapsed = time.perf_counter() - start
    report(2, "kernel soundness", elapsed < 300.0,
           f"{instances} instances, {events_checked} per-rule checks, "
           f"{elapsed:.1f}s < 300s")


def test_criterion_3_structural_postconditions():
    checked = 0
    seed = 0
    while checked < 60:
        g, k, modulator = kernel_instance_pool(seed)
        seed += 1
        res = annotate(g, k, modulator)
        if res is None:
            continue
        inst, _ = res
        if inst.k >= len(inst.modulator):
            continue
        reduced, _ = kernelize_annotated(inst)
        rep = structural_report(reduced)
        assert rep.omega_core <= rep.omega_bound
        assert all(c <= rep.component_count_bound
                   for _, c in rep.component_counts)
        assert all(z <= rep.z_bound for z in rep.z_sizes)
        checked += 1
    report(3, "structural postconditions", True,
           f"{checked} reduced instances, all integer ceilings hold")


def test_criterion_4_skew_multicut_bound():
    solved = 0
    ratios = []
    seed = 0
    while solved < 200:
        d, tu, tv, pairs = random_staircase(seed, n=11, a=3, b=3)
        seed += 1
        if not pairs:
            continue
        x = solve_fractional(MulticutProblem(d, tuple(pairs)))
        inst = SkewInstance(MulticutInstance(d, tuple(pairs)),
                            tuple(tu), tuple(tv))
        got = skew_multicut(inst, x)
        assert inst.base.is_multicut(got)
        bound = x.objective * math.ceil(math.log2(len(tu) + 1))
        assert len(got) <= bound + 1e-6
        if d.n <= 12:
            opt = exact_multicut(d, pairs, d.n)
            if opt is not None and opt.optimum:
                ratios.append(len(got) / opt.optimum)
        solved += 1
    mean_ratio = sum(ratios) / len(ratios) if ratios else 1.0
    report(4, "skew multicut bound", True,
           f"{solved} instances, zero bound violations, "
           f"mean ratio vs optimum {mean_ratio:.3f}")


def test_criterion_5_downward_multicut_claims():
    instances = 0
    deep = 0
    seed = 0
    while instances < 100:
        out = random_diffuse_downward(seed)
        seed += 1
        if out is None:
            continue
        inst, x = out
        got = downward_multicut(inst, x)
        assert all(
            bfs_path(inst.digraph.out_neighbors, [s], {t},
                     set(inst.digraph.vertices()) - got) is None
            for s, t in inst.terminals
        )
        # claim: distance split sums to at least one (checked in-code too)
        x0 = {v for v in inst.digraph.vertices()
              if at_least(x.value(v), 1 / 8)}
        live = [
            (u, v) for u, v in inst.terminals
            if u not in x0 and v not in x0
            and bfs_path(inst.digraph.out_neighbors, [u], {v},
                         set(inst.digraph.vertices()) - x0) is not None
        ]
        if live:
            deep += 1
            cores = {}
            for u, v in live:
                path = bfs_path(inst.digraph.out_neighbors, [u], {v},
                                set(inst.digraph.vertices()) - x0)
                cores[(u, v)] = frozenset(path[2:-2])
                nodes = minimal_path(inst.tree, u, v)
                assert len(nodes) >= 3
            for i, p in enumerate(live):
                for q in live[i + 1 :]:
                    pi = frozenset(minimal_path(inst.tree, *p)[1:-1])
                    qi = frozenset(minimal_path(inst.tree, *q)[1:-1])
                    if not (pi & qi):
                        assert not (cores[p] & cores[q])
        instances += 1
    report(5, "downward multicut claims", deep >= 50,
           f"{instances} instances verified, {deep} reached the cover stage")


def test_criterion_6_approximation_validity():
    yes_count = 0
    rejected_yes = 0
    ratios = []
    seed = 0
    while yes_count < 200:
        g, k, planted = generate(GeneratorSpec(
            seed=seed, core_vertices=10 + (seed % 5), planted=1 + seed % 3,
            noise_edges=seed % 2))
        seed += 1
        if g.n > 16:
            continue
        opt = exact_chvd(g, k)
        if opt is None:
            continue
        got = approximate(g, k)
        if isinstance(got, NoInstance):
            rejected_yes += 1
            continue
        assert is_chordal(
            induced_subgraph(g, set(g.vertices()) - got).graph)
        if opt.optimum:
            ratios.append(len(got) / opt.optimum)
        yes_count += 1
    assert rejected_yes == 0
    # no-instances: whenever the fractional mass exceeds 2k, reject
    no_checked = 0
    for t in (6, 7, 8):
        edges = []
        for i in range(t):
            base = 4 * i
            edges += [(base + j, base + (j + 1) % 4) for j in range(4)]
        g = Graph(4 * t, edges)
        for k in (2, 3):
            if exact_chvd(g, 2 * k) is not None:
                continue
            x = solve_fractional(ChvdProblem(g))
            got = approximate(g, k)
            if x.objective > 2 * k + 1e-6:
                assert isinstance(got, NoInstance)
                no_checked += 1
    mean_ratio = sum(ratios) / len(ratios) if ratios else 1.0
    report(6, "approximation validity", no_checked > 0,
           f"{yes_count} yes-instances accepted and verified, "
           f"{no_checked} no-instances rejected, "
           f"ratio mean {mean_ratio:.3f} (monitored)")


def test_criterion_7_lp_layer():
    checked = 0
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n, pairs[: rng.randint(0, len(pairs))])
        x = solve_fractional(ChvdProblem(g))
        assert separate_chvd(g, x) is None
        if g.n <= 14:
            res = exact_chvd(g, g.n)
            assert x.objective <= res.optimum + 1e-6
            checked += 1
    report(7, "lp layer", checked > 80,
           f"{checked} instances: separation clean at 1e-6 and "
           f"|x*| below the integral optimum")


def test_criterion_8_determinism_and_round_trip():
    # byte-identical kernels, traces, solutions for identical seeds
    for seed in range(10):
        g, k, modulator = kernel_instance_pool(seed)
        first = kernelize(g, k, modulator)
        second = kernelize(g, k, modulator)
        assert trace_text(first) == trace_text(second)
        assert emit(InstanceFile.from_graph(first.graph, first.k)) == \
            emit(InstanceFile.from_graph(second.graph, second.k))
        a = exact_chvd(g, min(k, 3))
        b = exact_chvd(g, min(k, 3))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.solution == b.solution
    # parse . emit is the identity on 1000 fuzzed instance files
    rng = random.Random(424242)
    round_trips = 0
    for trial in range(1000):
        n = rng.randint(0, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(0, len(pairs))]
        modulator = rng.sample(range(n), rng.randint(0, n)) if n else []
        inst = InstanceFile.from_graph(
            Graph(n, edges), rng.randint(0, 5), modulator=modulator,
            comments=[f"fuzz {trial}"])
        text = emit(inst)
        assert parse(text) == inst
        assert emit(parse(text)) == text
        round_trips += 1
    report(8, "determinism and round-trip", round_trips == 1000,
           f"10 seed-repeat runs byte-identical, {round_trips} fuzzed "
           f"round-trips exact")
