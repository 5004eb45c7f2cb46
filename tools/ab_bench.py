"""Alternate untraced benchmark runs of a base checkout and this one.

    python3 tools/ab_bench.py --base ../parent --workload multicut \
        --seed 778 --seconds 8 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once from the base
checkout's directory and once from this checkout's, each side importing
``chvd`` from its own ``src``; the side that runs first alternates from
pair to pair.  Per workload and end-to-end metric it prints each side's
median with its quartiles, the change of the median, and how many pairs
each side won, ties counting for neither.  Which way is better, and the
bound by which a metric may worsen, come from this checkout's
``BENCHMARK.json``; a metric whose median is worse than the base's by
more than its bound is marked WORSE.  The tool reads the benchmark and
changes nothing in it.

Exit status 0 when every run printed a correct result with no failed
task, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The result object of one untraced run of a checkout's benchmark,
    or an empty dict when the run printed none."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, pairs: list[tuple[dict, dict]],
           metrics: list[dict]) -> None:
    """Print one line per end-to-end metric for one workload."""
    for spec in metrics:
        name = spec["name"]
        both = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                for b, h in pairs
                if name in b.get("metrics", {}) and name in h.get("metrics", {})]
        if not both:
            print(f"{workload:10} {name:12} no values")
            continue
        sign = 1 if spec.get("better", "lower") == "lower" else -1
        head_won = sum(sign * (h - b) < 0 for b, h in both)
        base_won = sum(sign * (h - b) > 0 for b, h in both)
        bq = quartiles([b for b, _ in both])
        hq = quartiles([h for _, h in both])
        change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = sign * change > spec.get("bound", float("inf"))
        print(f"{workload:10} {name:12} "
              f"base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
              f"head {hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}]  "
              f"{change:+.1%}  won head {head_won} base {base_won} "
              f"of {len(both)}" + ("  WORSE" if worse else ""), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root directory of the base checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a benchmark workload; may be repeated")
    parser.add_argument("--seed", type=int, default=778)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=4)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        parser.error(f"{base} has no perfbench/run.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    ok = True
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            sides = (base, ROOT)
            got = [{}, {}]
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                got[k] = run_once(sides[k], workload, args.seed, args.seconds)
                if got[k].get("correct") is not True or got[k].get("failed"):
                    ok = False
                    print(f"{workload}: a run from {sides[k]} was not "
                          f"correct: {got[k] or 'no result'}", file=sys.stderr)
            pairs.append((got[0], got[1]))
        report(workload, pairs, metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
