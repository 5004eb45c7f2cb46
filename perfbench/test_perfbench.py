"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q

The checks must reject known-bad outputs, the tracer must leave chvd as
it found it, and the same seed must give the same inputs and outputs in
two separate processes.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import chvd  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]


def random_graph(rng: random.Random, n: int, p: float):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def test_chordality_check_rejects_c4_with_empty_deletion_set():
    adj = checks.adjacency(4, C4)
    assert not checks.is_chordal(adj)
    assert not checks.is_deletion_set(adj, ())
    assert checks.is_deletion_set(adj, (0,))


def test_chordality_check_agrees_with_hole_search():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        adj = checks.adjacency(n, edges)
        hole = checks.find_hole(adj)
        assert checks.is_chordal(adj) == (hole is None)
        assert checks.is_chordal(adj) == chvd.is_chordal(chvd.Graph(n, edges))
        if hole is not None:
            assert checks.is_hole(adj, hole)
            shortest = checks.find_hole(adj, shortest=True)
            assert checks.is_hole(adj, shortest)
            assert len(shortest) <= len(hole)


def test_forced_pair_left_unhit_is_rejected():
    # a C4 plus a pendant pair (4, 5): deleting 0 breaks the hole but
    # leaves the forced pair whole
    edges = C4 + [(4, 5)]
    adj = checks.adjacency(6, edges)
    assert not checks.is_deletion_set(adj, {0}, forced=[(4, 5)])
    assert checks.is_deletion_set(adj, {0, 5}, forced=[(4, 5)])
    assert checks.smaller_solution(adj, 1, forced=[(4, 5)]) is None
    assert len(checks.smaller_solution(adj, 2, forced=[(4, 5)])) == 2


def test_packing_and_exhaustive_search_on_disjoint_holes():
    # two C4s and a C5, vertex-disjoint: optimum 3, packing 3
    edges = C4 + [(4, 5), (5, 6), (6, 7), (7, 4)]
    edges += [(8, 9), (9, 10), (10, 11), (11, 12), (12, 8)]
    adj = checks.adjacency(13, edges)
    assert len(checks.hole_packing(adj)) == 3
    assert checks.smaller_solution(adj, 2) is None
    assert checks.is_deletion_set(adj, checks.smaller_solution(adj, 3))


def test_multicut_missing_one_pair_is_rejected():
    arcs = [(0, 1), (1, 2), (3, 1), (1, 4)]
    pairs = [(0, 2), (3, 4)]
    assert checks.cuts_all_pairs(5, arcs, pairs, {1})
    assert not checks.cuts_all_pairs(5, arcs, pairs, {0})
    assert not checks.cuts_all_pairs(5, arcs, pairs, set())


def test_carry_follows_deletions():
    g, k, planted = workloads._planted(11, 30, planted=4)
    result = chvd.kernelize(g, k, sorted(planted))
    carried = workloads.carry(planted, result.trace)
    assert len(carried) <= len(planted)
    assert all(0 <= v < result.graph.n for v in carried)


def test_tracer_restores_functions_and_nests_spans():
    originals = {(m, a): getattr(sys.modules[f"chvd.{m}"], a)
                 for m, a, _, _ in tracing.TRACED}
    bound_in_approx = chvd.approx.solve_fractional
    g, k, planted = workloads._planted(3, 40, planted=4)
    tracer = tracing.Tracer()
    with tracer:
        assert chvd.approx.solve_fractional is not bound_in_approx
        chvd.approximate(g, k)
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"chvd.{m}"], a) is fn
    assert chvd.approx.solve_fractional is bound_in_approx
    metrics = tracer.layer_metrics()
    assert metrics["approx.approximate.calls"][0] == 1
    assert metrics["approx.route_lp"][0] == 1
    assert metrics["approx.route_exact"][0] == 0
    assert metrics["lp.separate_chvd.calls"][0] > 1
    assert tracer.name_of(0) == "approx.approximate"
    assert tracer.parent[0] == -1
    assert all(p >= 0 for p in tracer.parent[1:])
    assert metrics["lp.separate_chvd.s"][0] <= tracer.duration(0)
    (x_star,) = tracer.lp_objectives()
    assert 0 < x_star <= len(planted) + 1e-6


FINGERPRINT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import tracing, workloads
out = {{}}
for name in workloads.WORKLOADS:
    wl = workloads.build(name, 7)
    tracer = tracing.Tracer()
    with tracer:
        outputs = [t.call() for t in wl.tasks[-3:]]
    sizes = [t.size(o) for t, o in zip(wl.tasks[-3:], outputs)]
    out[name] = [wl.digest(), sizes,
                 tracer.layer_metrics()["oracle.nodes_explored"][0]]
print(json.dumps(out))
"""


def test_same_seed_same_inputs_and_outputs_across_processes():
    code = FINGERPRINT.format(src=str(ROOT / "src"), here=str(HERE))
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=300).stdout
            for _ in range(2)]
    first, second = (json.loads(r) for r in runs)
    assert first == second
    assert first["exact"][2] > 0
    other = workloads.build("exact", 8).digest()
    assert other != first["exact"][0]


def test_run_fails_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
