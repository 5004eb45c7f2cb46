"""Re-measure the ROADMAP baselines: one timed call per ladder instance.

    python3 perfbench/ladder.py

Instances are ``generate(GeneratorSpec(seed=3, core_vertices=c,
tree_nodes=c // 3, planted=4, noise_edges=1))`` with k = 4 for
``solve_fractional``, ``approximate`` and ``exact_chvd`` at n = 44/64/84,
and the seed-1, n = 103 planted instance (modulator = planted set, k = 4)
for ``kernelize``.  Single unscaled wall-clock readings, as in the
ROADMAP table; the n = 84 column takes about a minute.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chvd  # noqa: E402
from chvd.generate import GeneratorSpec, generate  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main() -> int:
    print("| n  | solve_fractional | approximate | exact_chvd | |x*| |")
    print("|----|------------------|-------------|------------|------|")
    for core in (40, 60, 80):
        g, k, _ = generate(GeneratorSpec(seed=3, core_vertices=core,
                                         tree_nodes=core // 3, planted=4,
                                         noise_edges=1))
        lp_s, x = timed(chvd.solve_fractional, chvd.ChvdProblem(g))
        approx_s, _ = timed(chvd.approximate, g, k)
        exact_s, _ = timed(chvd.exact_chvd, g, k)
        print(f"| {g.n} | {lp_s:.2f} s | {approx_s:.2f} s | {exact_s:.2f} s "
              f"| {x.objective:.3f} |", flush=True)
    g, k, planted = generate(GeneratorSpec(seed=1, core_vertices=99,
                                           tree_nodes=33, planted=4,
                                           noise_edges=1))
    kernel_s, result = timed(chvd.kernelize, g, k, sorted(planted))
    print(f"kernelize seed 1: n {g.n} -> {result.graph.n}, "
          f"{len(result.trace)} events, {kernel_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
