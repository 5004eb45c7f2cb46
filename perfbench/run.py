"""chvd benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload approx-lp --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The chvd package is imported from the
checkout's ``src`` directory and nowhere else; without it the run fails
with exit code 1 and prints no result.

With ``--trace 0`` the run times whole rounds over the workload's
instance set until ``--seconds`` is spent and prints the end-to-end
metrics.  Times are scaled to a reference machine speed: a shared
2-core host can run the same interpreter loop up to 1.7 times slower
for seconds at a stretch, so the run times a fixed reference loop every
quarter second, takes that time back out of the calls it interrupted,
and divides each call by the speed seen around it (see ``Speed``).

With ``--trace 1`` it times one untraced round, then repeats the round
with every traced chvd function wrapped, prints the per-layer metrics,
and writes the spans to ``perfbench/out/``.  Either way the last line
of standard output is the result object.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict, deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
REFERENCE_S = 0.015     # reference loop time that scaled figures assume
SAMPLE_EVERY_S = 0.25


def import_chvd() -> float:
    """Import chvd from the checkout's src; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        chvd = importlib.import_module("chvd")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import chvd from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    location = Path(chvd.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"error: chvd imported from {location}, not {SRC}")
    return elapsed


_REF_N = 400
_REF_ADJ = [[(i * 7 + j * 13) % _REF_N for j in range(1, 9)]
            for i in range(_REF_N)]


def reference_loop() -> float:
    """Seconds for a fixed breadth-first-search workload, the same
    dictionary, set and deque traffic chvd's graph code makes.

    The collector is off meanwhile: a collection would walk the outputs
    kept so far and charge that to the machine's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for source in range(0, _REF_N, 4):
            seen = {source}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for w in _REF_ADJ[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Speed:
    """Samples of the reference loop: on entry, on exit and, with
    ``interrupt``, every SAMPLE_EVERY_S from an interval timer that
    breaks into whatever runs, chvd calls included.  Without it the
    caller samples between calls.

    The seconds spent in those samples add up in ``spent``, so a caller
    takes them out of its own reading.  ``scale`` turns wall seconds into
    seconds on a machine where the loop takes REFERENCE_S: a stretch in
    which the host runs slow stretches the loop by the same factor.  The
    traced round samples between calls only, so that no sample lands
    inside a span.
    """

    def __init__(self, interrupt: bool = True):
        self.interrupt = interrupt
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Speed":
        self.sample()
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @staticmethod
    def scale(seconds: float, samples: list[float]) -> float:
        return seconds * REFERENCE_S / statistics.median(samples)


class Round:
    """Outputs and per-entry seconds of one pass over the instance set."""

    def __init__(self):
        self.outputs: list = []
        self.audits: list = []
        self.failed: list[str] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)
        self.samples: list[float] = []

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def scaled_total(self) -> float:
        return sum(self.scaled.values())


class Failure:
    """Stands in for the output of a call that raised."""

    def __init__(self, message: str):
        self.message = message


def run_round(tasks, interrupt: bool = True) -> Round:
    """Call every task once.  Each call's time is scaled by the samples
    from the last one before it to the first one after it."""
    result = Round()
    windows = []
    with Speed(interrupt) as speed:
        for task in tasks:
            if not interrupt:
                speed.sample()
            first = len(speed.samples) - 1
            spent = speed.spent
            start = time.perf_counter()
            try:
                out = task.call()
            except Exception as exc:  # a failed operation is counted
                out = Failure(f"{task.label}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start - (speed.spent - spent)
            result.seconds[task.entry] += elapsed
            windows.append((task.entry, elapsed, first, len(speed.samples)))
            audit = None
            if task.audit is not None and not isinstance(out, Failure):
                audit = task.audit(out)
            result.outputs.append(out)
            result.audits.append(audit)
            if isinstance(out, Failure):
                result.failed.append(out.message)
    result.samples = speed.samples
    for entry, elapsed, first, after in windows:
        result.scaled[entry] += Speed.scale(elapsed,
                                            speed.samples[first:after + 1])
    return result


def check_round(tasks, done: Round) -> list[str]:
    """Faults the tasks' checks find in a round's outputs."""
    faults = []
    for task, out, audit in zip(tasks, done.outputs, done.audits):
        if isinstance(out, Failure):
            continue
        faults += [f"{task.label}: {f}" for f in task.check(out, audit)]
    return faults


def repeat_faults(tasks, first: Round, later: Round) -> list[str]:
    """A later round must repeat the first round's outputs exactly."""
    return [f"{t.label}: output differs between rounds"
            for t, a, b in zip(tasks, first.outputs, later.outputs)
            if not isinstance(a, Failure) and a != b]


def setup(workloads, name: str, seed: int, import_s: float):
    """Build the instance set several times; the median build plus the
    import, scaled like the calls, is the set-up time."""
    times = []
    with Speed() as speed:
        for _ in range(SETUP_REPEATS):
            spent = speed.spent
            start = time.perf_counter()
            wl = workloads.build(name, seed)
            times.append(time.perf_counter() - start - (speed.spent - spent))
    return wl, Speed.scale(import_s + statistics.median(times), speed.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("approx-lp", "kernel", "exact", "multicut"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_chvd()
    workloads = importlib.import_module("workloads")
    wl, setup_s = setup(workloads, args.workload, args.seed, import_s)
    tasks = wl.tasks

    first = run_round(tasks)
    faults = check_round(tasks, first)
    rounds = [first]
    if args.trace:
        metrics, traced, faults2 = traced_run(workloads, wl, first)
        faults += faults2
        rounds.append(traced)
    else:
        while sum(r.total for r in rounds) + first.total <= args.seconds:
            rounds.append(run_round(tasks))
            faults += repeat_faults(tasks, first, rounds[-1])
        metrics = end_to_end(rounds, tasks, setup_s)
    print("unscaled call_s "
          + " ".join(f"{r.total:.4f}" for r in rounds), file=sys.stderr)
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    result = {
        "correct": not faults,
        "attempted": len(tasks) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(rounds, tasks, setup_s: float) -> dict:
    sizes = sum(t.size(out) for t, out in zip(tasks, rounds[0].outputs)
                if not isinstance(out, Failure))
    return {
        "setup_s": (setup_s, "s"),
        "call_s": (statistics.median(r.scaled_total for r in rounds), "s"),
        "output_size": (sizes, "vertices"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_run(workloads, wl, untraced: Round):
    """Repeat the set-up's file round trip and one round under the tracer."""
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracer:
        workloads.build(wl.name, wl.seed)
        traced = run_round(wl.tasks, interrupt=False)
    faults = repeat_faults(wl.tasks, untraced, traced)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced.scaled_total
                                   - untraced.scaled_total, "s")
    metrics["machine.reference_ms"] = (
        1000 * statistics.median(untraced.samples), "ms")
    for entry in workloads.ENTRIES:
        metrics[f"{entry}_s"] = (untraced.scaled.get(entry, 0.0), "s")
    by_entry = defaultdict(int)
    for task, out in zip(wl.tasks, untraced.outputs):
        if not isinstance(out, Failure):
            by_entry[task.entry] += task.size(out)
    metrics["kernel_n_out"] = (by_entry["kernelize"], "vertices")
    metrics["approx_size"] = (by_entry["approximate"], "vertices")
    metrics["multicut_size"] = (by_entry["multicut"], "vertices")

    lp_bound = []
    approx_tasks = [t for t in wl.tasks if t.entry == "approximate"]
    for task, x_star in zip(approx_tasks, tracer.lp_objectives()):
        if x_star is None:
            continue
        holds = x_star <= task.planted + 1e-6
        lp_bound.append({"task": task.label, "x_star": x_star,
                         "planted": task.planted, "holds": holds})
        if not holds:
            faults.append(f"{task.label}: |x*| = {x_star} above the planted "
                          f"solution {task.planted}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{wl.seed}.spans.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as handle:
        tracer.write(handle, {
            "workload": wl.name, "seed": wl.seed,
            "instances_sha256": wl.digest(),
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "lp_bound": lp_bound})
    print(f"spans written to {path.relative_to(HERE.parent)}",
          file=sys.stderr)
    return metrics, traced, faults


if __name__ == "__main__":
    sys.exit(main())
