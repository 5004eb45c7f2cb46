"""Command-line interface.

Subcommands: gen, kernelize, approx, solve, check.  Same seed and flags
produce byte-identical outputs.  Exit codes: 0 ok, 1 the result is
a certified no-instance, 2 input validation failure, 3 internal invariant
breach or any other error (one ``error:`` line naming its type), 4 a
resource cap was hit: the exact search's node budget or the
cutting-plane round cap (``approx --max-iters``).
"""
from __future__ import annotations

import argparse
import json
import sys

from .graphs import Graph, InvariantError
from .chordal import find_any_hole, is_chordal
from .approx import NoInstance, approximate
from .generate import GeneratorSpec, generate, kernel_instance_pool
from .instance_io import (
    InstanceFile,
    emit,
    emit_solution,
    parse,
    parse_solution,
)
from .lp import CuttingPlaneCapExceeded
from .kernel import KernelResult, ReductionEvent, kernelize, replay_trace
from .oracle import SearchBudgetExceeded, exact_chvd

EXIT_OK = 0
EXIT_NO_INSTANCE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _event_record(event: ReductionEvent) -> str:
    record = {
        "rule": event.rule,
        "witness": list(event.witness),
        "deleted": list(event.deleted),
        "added_edges": [list(e) for e in event.added_edges],
        "forced_pair": list(event.forced_pair) if event.forced_pair else None,
        "k_delta": event.k_delta,
        "counters": {key: value for key, value in event.counters},
    }
    return json.dumps(record, separators=(",", ":"))


def trace_text(result: KernelResult) -> str:
    return "".join(_event_record(e) + "\n" for e in result.trace)


def cmd_gen(args) -> int:
    if args.pool:
        given = [f"--{name}" for name in ("core", "planted", "noise", "k")
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"gen --pool cannot honour {', '.join(given)}")
        g, k, modulator = kernel_instance_pool(args.seed)
    else:
        g, k, planted = generate(GeneratorSpec(
            seed=args.seed,
            core_vertices=12 if args.core is None else args.core,
            planted=2 if args.planted is None else args.planted,
            noise_edges=1 if args.noise is None else args.noise,
            budget=args.k,
        ))
        modulator = sorted(planted)
    inst = InstanceFile.from_graph(
        g, k, modulator=modulator,
        comments=[f"seed {args.seed}"],
    )
    _write(args.output, emit(inst))
    return EXIT_OK


def _greedy_modulator(g: Graph) -> list[int]:
    removed: set[int] = set()
    while True:
        hole = find_any_hole(g, set(g.vertices()) - removed)
        if hole is None:
            return sorted(removed)
        removed.update(hole.vertices)


def _rejects_forced(instance: InstanceFile, command: str) -> bool:
    """Report and refuse forced pairs, which ``command`` cannot honour."""
    if not instance.forced:
        return False
    print(f"error: {command} cannot honour forced pairs ('f' lines); "
          "use 'chvd solve' for instances with forced pairs",
          file=sys.stderr)
    return True


def cmd_kernelize(args) -> int:
    instance = parse(_read(args.input))
    if _rejects_forced(instance, "kernelize"):
        return EXIT_VALIDATION
    g = instance.graph()
    modulator = list(instance.modulator)
    if not modulator and not is_chordal(g):
        if not args.auto_modulator:
            print("error: instance has no modulator lines; "
                  "pass --auto-modulator to compute one greedily",
                  file=sys.stderr)
            return EXIT_VALIDATION
        modulator = _greedy_modulator(g)
    result = kernelize(g, instance.k, modulator)
    replayed_graph, replayed_k = replay_trace(g, instance.k, result.trace)
    if replayed_graph != result.graph or replayed_k != result.k:
        print("internal invariant breached: trace replay mismatch",
              file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        _write(args.output, json.dumps({
            "verdict": result.verdict,
            "n": result.graph.n,
            "k": result.k,
            "edges": sorted([u, v] for u, v in result.graph.edges()),
            "events": len(result.trace),
        }, separators=(",", ":")) + "\n")
    else:
        out = InstanceFile.from_graph(
            result.graph, result.k,
            comments=[f"kernel verdict {result.verdict}"],
        )
        _write(args.output, emit(out))
    if args.trace:
        _write(args.trace, trace_text(result))
    return EXIT_NO_INSTANCE if result.verdict == "no" else EXIT_OK


def cmd_approx(args) -> int:
    instance = parse(_read(args.input))
    if _rejects_forced(instance, "approx"):
        return EXIT_VALIDATION
    g = instance.graph()
    got = approximate(g, instance.k, max_iters=args.max_iters)
    if isinstance(got, NoInstance):
        if args.format == "json":
            _write(args.output, '{"status":"no-instance"}\n')
        else:
            _write(args.output, "c no-instance\n")
        return EXIT_NO_INSTANCE
    report = f"approx size {len(got)}"
    if args.oracle:
        res = exact_chvd(g, g.n)
        if res.optimum:
            ratio = len(got) / res.optimum
        else:
            ratio = 1.0 if not got else float(len(got))
        report += f"; optimum {res.optimum}; ratio {ratio:.3f}"
    if args.format == "json":
        record = {"status": "ok", "size": len(got), "vertices": sorted(got)}
        if args.oracle:
            record["optimum"] = res.optimum
        _write(args.output, json.dumps(record, separators=(",", ":")) + "\n")
    else:
        _write(args.output, emit_solution(got, comment=report))
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = parse(_read(args.input))
    res = exact_chvd(instance.graph(), instance.k, instance.forced)
    if res is None:
        if args.format == "json":
            _write(args.output, '{"status":"no-solution"}\n')
        else:
            _write(args.output, "c no solution within budget\n")
        return EXIT_NO_INSTANCE
    if args.format == "json":
        _write(args.output, json.dumps(
            {"status": "ok", "optimum": res.optimum,
             "vertices": sorted(res.solution)}, separators=(",", ":")) + "\n")
    else:
        _write(args.output,
               emit_solution(res.solution, comment=f"optimum {res.optimum}"))
    return EXIT_OK


def cmd_check(args) -> int:
    instance = parse(_read(args.input))
    solution = parse_solution(_read(args.solution))
    g = instance.graph()
    if any(v < 0 or v >= g.n for v in solution):
        print("invalid: solution uses unknown vertex ids", file=sys.stderr)
        return EXIT_VALIDATION
    if len(solution) > instance.k:
        print(f"invalid: solution size {len(solution)} exceeds budget "
              f"{instance.k}", file=sys.stderr)
        return EXIT_VALIDATION
    for x, y in instance.forced:
        if x not in solution and y not in solution:
            print(f"invalid: forced pair ({x},{y}) not hit", file=sys.stderr)
            return EXIT_VALIDATION
    if not is_chordal(g, set(g.vertices()) - set(solution)):
        print("invalid: residual graph is not chordal", file=sys.stderr)
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chvd",
        description="Chordal vertex deletion: kernelization and approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, default=0)
    for flag in ("--core", "--planted", "--noise", "--k"):
        p_gen.add_argument(flag, type=int, default=None)
    p_gen.add_argument("--pool", action="store_true",
                       help="draw from the shaped kernel-test pool")
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_ker = sub.add_parser("kernelize", help="shrink an instance")
    p_ker.add_argument("input")
    p_ker.add_argument("-o", "--output", default="-")
    p_ker.add_argument("--trace", default=None,
                       help="write the reduction trace to this path")
    p_ker.add_argument("--auto-modulator", action="store_true")
    p_ker.add_argument("--format", choices=("text", "json"), default="text")
    p_ker.set_defaults(func=cmd_kernelize)

    p_apx = sub.add_parser("approx", help="poly(opt) approximate solution")
    p_apx.add_argument("input")
    p_apx.add_argument("-o", "--output", default="-")
    p_apx.add_argument("--oracle", action="store_true",
                       help="also run the exact solver and report the ratio")
    p_apx.add_argument("--max-iters", type=int, default=2000)
    p_apx.add_argument("--format", choices=("text", "json"), default="text")
    p_apx.set_defaults(func=cmd_approx)

    p_solve = sub.add_parser("solve", help="exact solution at desk scale")
    p_solve.add_argument("input")
    p_solve.add_argument("-o", "--output", default="-")
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="verify a claimed solution")
    p_check.add_argument("input")
    p_check.add_argument("--solution", required=True)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantError as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SearchBudgetExceeded, CuttingPlaneCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
