"""The benchmark's four workloads.

``build(name, seed)`` turns a seed into a list of tasks.  A task holds the
input of one public chvd call as the program receives it (an instance
file emitted and parsed again), the call itself, and a check of the
output.  Checks use ``checks`` (no chvd code), with one exception: the
kernel workload asks ``exact_chvd`` when no independent certificate
settles whether an input or its kernel is a yes-instance.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import chvd
import chvd.generate
import chvd.instance_io
from chvd.generate import GeneratorSpec

import checks

# Instance make-up.  Core sizes count the chordal-core vertices; the
# generator adds the planted apex vertices on top.  Each workload has
# fixed ladder instances (the sizes the ROADMAP baselines were taken at,
# identical in every run) and seeded ones.  One instance's time spreads
# widely between seeds (coefficient of variation 0.4 to 0.7), so the
# seeded part is many small instances, and the ladder carries enough of
# the work that a run's total stays within its bound across seeds.
LADDER_SEED = 3                  # ROADMAP: seed 3, k = 4, n = 44/64/84
APPROX_LADDER = (40, 60, 80)     # n = 44, 64, 84 on the LP route (k = 4)
APPROX_SEEDED = (40,) * 8        # n = 44
KERNEL_LADDER_SEED = 1           # ROADMAP: seed 1, n = 103
KERNEL_LADDER = 99
KERNEL_YES = (30,) * 36          # n = 34, k = planted = 4
KERNEL_NO = (30,) * 6            # n = 34, k = 2 below the optimum
KERNEL_NO_K = 2
KERNEL_POOL = 30                 # six of each pool shape
EXACT_LADDER = (40, 60)          # n = 44, 64, k = 4, as `chvd solve` runs it
EXACT_SEEDED = (36,) * 10        # n = 39, k = 3: approximate() goes exact
EXACT_K = 3
STAIRCASES = 80
STAIRCASE = dict(n=72, a=12, b=12, p=0.25)
DOWNWARDS = 32
DOWNWARD_CLUSTERS = 160
DOWNWARD_PAIRS = 32

WORKLOADS = ("approx-lp", "kernel", "exact", "multicut")
ENTRIES = ("kernelize", "approximate", "exact", "multicut")


@dataclass
class Task:
    """One timed call of a public entry point, plus how to judge it."""

    entry: str                               # one of ENTRIES
    label: str
    call: Callable[[], object]
    check: Callable[[object, object], list[str]]  # (output, audit) -> faults
    size: Callable[[object], int]
    audit: Optional[Callable[[object], object]] = None  # untimed follow-up
    planted: Optional[int] = None


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list[Task] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def build(name: str, seed: int) -> Workload:
    """Generate the inputs of one workload from a seed."""
    wl = Workload(name, seed)
    rng = random.Random(f"{name}/{seed}")
    {"approx-lp": _approx_lp, "kernel": _kernel, "exact": _exact,
     "multicut": _multicut}[name](wl, rng)
    return wl


def _through_file(wl: Workload, g, k: int, modulator=(), forced=()):
    """Emit an instance file and parse it back, as the CLI receives it."""
    io = chvd.instance_io
    text = io.emit(io.InstanceFile.from_graph(g, k, modulator, forced))
    wl.texts.append(text)
    return io.parse(text)


def _planted(seed: int, core: int, planted: int, k=None):
    return chvd.generate.generate(GeneratorSpec(
        seed=seed, core_vertices=core, tree_nodes=core // 3,
        planted=planted, noise_edges=1, budget=k))


def _draw(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


# -- approx-lp ---------------------------------------------------------------

def _approx_lp(wl: Workload, rng: random.Random) -> None:
    seeds = [LADDER_SEED] * len(APPROX_LADDER)
    seeds += [_draw(rng) for _ in APPROX_SEEDED]
    for seed, core in zip(seeds, APPROX_LADDER + APPROX_SEEDED):
        g, k, planted = _planted(seed, core, planted=4)
        inst = _through_file(wl, g, k)
        wl.tasks.append(_approximate_task(inst, len(planted), exact=False))


def _approximate_task(inst, planted: int, exact: bool) -> Task:
    graph = inst.graph()
    adj = checks.adjacency(inst.n, inst.edges)

    def check(out, _audit) -> list[str]:
        if isinstance(out, chvd.NoInstance):
            return [f"rejected a yes-instance (planted {planted} <= k "
                    f"{inst.k})"]
        faults = []
        if not all(0 <= v < inst.n for v in out):
            return ["solution names unknown vertices"]
        if not checks.is_chordal(adj, out):
            faults.append("G - X is not chordal")
        bound = len(checks.hole_packing(adj))
        if len(out) < bound:
            faults.append(f"|X| = {len(out)} below the packing bound {bound}")
        if exact:
            faults += _optimality_faults(adj, out, (), planted)
        return faults

    return Task("approximate", f"approximate n={inst.n} k={inst.k}",
                lambda: chvd.approximate(graph, inst.k), check,
                lambda out: 0 if isinstance(out, chvd.NoInstance) else len(out),
                planted=planted)


# -- kernel ------------------------------------------------------------------

def _kernel(wl: Workload, rng: random.Random) -> None:
    g, k, planted = _planted(KERNEL_LADDER_SEED, KERNEL_LADDER, planted=4)
    inst = _through_file(wl, g, k, modulator=planted)
    wl.tasks.append(_kernel_task(inst, hint=planted))
    for core in KERNEL_YES:
        g, k, planted = _planted(_draw(rng), core, planted=4)
        extra = rng.randrange(core)
        inst = _through_file(wl, g, k, modulator=sorted(planted) + [extra])
        wl.tasks.append(_kernel_task(inst, hint=planted))
    for core in KERNEL_NO:
        g, k, planted = _planted(_draw(rng), core, planted=4, k=KERNEL_NO_K)
        inst = _through_file(wl, g, k, modulator=planted)
        wl.tasks.append(_kernel_task(inst, hint=None))
    base = rng.randrange(1 << 20) * 5
    for i in range(KERNEL_POOL):
        g, k, modulator = chvd.generate.kernel_instance_pool(base + i)
        inst = _through_file(wl, g, k, modulator=modulator)
        wl.tasks.append(_kernel_task(inst, hint=None))


def _kernel_task(inst, hint) -> Task:
    graph = inst.graph()
    modulator = list(inst.modulator)

    def replay(out):
        return chvd.kernel.replay_trace(graph, inst.k, out.trace)

    def check(out, replayed) -> list[str]:
        faults = []
        if replayed != (out.graph, out.k):
            faults.append("trace does not replay to the kernel")
        before = decide(inst.n, inst.edges, inst.k, hint)
        if out.verdict == "yes":
            after = True
        elif out.verdict == "no":
            after = False
        else:
            carried = None if hint is None else carry(hint, out.trace)
            after = decide(out.graph.n, list(out.graph.edges()), out.k,
                           carried)
        if before != after:
            faults.append(f"kernel answers {after}, input answers {before}")
        return faults

    return Task("kernelize", f"kernelize n={inst.n} k={inst.k}",
                lambda: chvd.kernelize(graph, inst.k, modulator), check,
                lambda out: out.graph.n, audit=replay)


def decide(n: int, edges, k: int, hint=None) -> bool:
    """Whether the instance has a deletion set of size <= k.

    An independent certificate settles it where one is found: the hint
    as a solution, or more than k disjoint holes.  Otherwise the exact
    oracle answers.
    """
    adj = checks.adjacency(n, edges)
    if hint is not None and len(hint) <= k and checks.is_chordal(adj, hint):
        return True
    if len(checks.hole_packing(adj)) > k:
        return False
    return chvd.exact_chvd(chvd.Graph(n, edges), k) is not None


def carry(vertices, trace) -> set[int]:
    """Follow vertex ids through the deletions a kernel trace records."""
    ids = set(vertices)
    for event in trace:
        if event.deleted:
            gone = sorted(event.deleted)
            ids = {v - sum(d < v for d in gone) for v in ids
                   if v not in event.deleted}
    return ids


# -- exact -------------------------------------------------------------------

def _exact(wl: Workload, rng: random.Random) -> None:
    for core in EXACT_LADDER:
        g, k, planted = _planted(LADDER_SEED, core, planted=4)
        inst = _through_file(wl, g, k)
        wl.tasks.append(_exact_task(inst, len(planted)))
    for core in EXACT_SEEDED:
        g, k, planted = _planted(_draw(rng), core, planted=EXACT_K)
        inst = _through_file(wl, g, k)
        wl.tasks.append(_exact_task(inst, len(planted)))
    for core in EXACT_SEEDED:
        g, k, planted = _planted(_draw(rng), core, planted=EXACT_K)
        forced = [(p, rng.randrange(core)) for p in sorted(planted)[:2]]
        inst = _through_file(wl, g, k, forced=forced)
        wl.tasks.append(_exact_task(inst, len(planted)))
    for core in EXACT_SEEDED:
        g, k, planted = _planted(_draw(rng), core, planted=EXACT_K)
        inst = _through_file(wl, g, k)
        wl.tasks.append(_approximate_task(inst, len(planted), exact=True))


def _exact_task(inst, planted: int) -> Task:
    graph = inst.graph()
    adj = checks.adjacency(inst.n, inst.edges)

    def check(out, _audit) -> list[str]:
        if out is None:
            return [f"no solution found, planted {planted} <= k {inst.k}"]
        if out.optimum != len(out.solution):
            return ["reported optimum differs from the solution size"]
        return _optimality_faults(adj, out.solution, inst.forced, planted)

    return Task("exact", f"exact n={inst.n} forced={len(inst.forced)}",
                lambda: chvd.exact_chvd_forced(graph, inst.k, inst.forced),
                check, lambda out: 0 if out is None else len(out.solution),
                planted=planted)


def _optimality_faults(adj, solution, forced, planted: int) -> list[str]:
    faults = []
    if not checks.is_deletion_set(adj, solution, forced):
        faults.append("solution leaves a hole or an unhit forced pair")
    if len(solution) > planted:
        faults.append(f"solution {len(solution)} larger than planted "
                      f"{planted}")
    smaller = checks.smaller_solution(adj, len(solution) - 1, forced)
    if smaller is not None:
        faults.append(f"brute force found a smaller solution {sorted(smaller)}")
    return faults


# -- multicut ----------------------------------------------------------------

def _multicut(wl: Workload, rng: random.Random) -> None:
    for _ in range(STAIRCASES):
        d, tu, tv, pairs = chvd.generate.random_staircase(_draw(rng),
                                                          **STAIRCASE)
        wl.tasks.append(_skew_task(d, tuple(tu), tuple(tv), tuple(pairs)))
    for _ in range(DOWNWARDS):
        inst, x = diffuse_downward(rng, DOWNWARD_CLUSTERS, DOWNWARD_PAIRS)
        wl.tasks.append(_downward_task(inst, x))


def _skew_task(d, tu, tv, pairs) -> Task:
    arcs = list(d.arcs())

    def call():
        x = chvd.solve_fractional(chvd.MulticutProblem(d, pairs))
        skew = chvd.SkewInstance(chvd.MulticutInstance(d, pairs), tu, tv)
        return x.objective, chvd.skew_multicut(skew, x)

    def check(out, _audit) -> list[str]:
        x_star, cut = out
        faults = []
        if not checks.cuts_all_pairs(d.n, arcs, pairs, cut):
            faults.append("a terminal pair keeps a path")
        bound = x_star * math.ceil(math.log2(len(tu) + 1))
        if len(cut) > bound + 1e-6:
            faults.append(f"|cut| = {len(cut)} above |x*| log bound {bound}")
        return faults

    return Task("multicut", f"skew n={d.n} pairs={len(pairs)}", call, check,
                lambda out: len(out[1]))


def _downward_task(inst, x) -> Task:
    d = inst.digraph
    arcs = list(d.arcs())

    def check(cut, _audit) -> list[str]:
        if not checks.cuts_all_pairs(d.n, arcs, inst.terminals, cut):
            return ["a terminal pair keeps a path"]
        return []

    return Task("multicut", f"downward n={d.n} pairs={len(inst.terminals)}",
                lambda: chvd.downward_multicut(inst, x), check, len)


def diffuse_downward(rng: random.Random, clusters: int, pairs: int):
    """A larger cousin of ``generate.random_diffuse_downward``.

    A path of cliques keeps terminal paths long, so a uniform weight
    below 1/8 is feasible and the threshold stage deletes nothing: the
    clique cover, min cut and skew stages all run.
    """
    from chvd.chordal import clique_tree_of
    from chvd.lp import FractionalSolution
    from chvd.multicut import build_downward, dist_from

    g = chvd.generate.clique_path_graph(
        [rng.randint(1, 3) for _ in range(clusters)])
    base = build_downward(g, clique_tree_of(g))
    x = FractionalSolution(dict.fromkeys(g.vertices(), 1.0 / rng.randint(9, 12)))
    chosen: set[tuple[int, int]] = set()
    for u in rng.sample(range(g.n), min(g.n, pairs)):
        dist = dist_from(base.digraph, x, u)
        far = [v for v, cost in sorted(dist.items())
               if cost >= 1.0 and not g.has_edge(u, v)]
        if far:
            chosen.add((u, rng.choice(far)))
    return base.with_terminals(sorted(chosen)), x
