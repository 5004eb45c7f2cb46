"""Fractional solutions via cutting planes over a dense simplex.

The LP ``min sum x(v) subject to x(P) >= 1 for every hole / terminal
path`` is solved through its dual, a packing LP whose slack basis is
feasible, so a single primal simplex pass with Bland's rule suffices per
restricted problem.  Constraints are generated lazily by the separation
oracles until none is violated; at that point the restricted optimum is
feasible for the full LP and hence optimal.

A problem names its variables, ``vertices``, in ascending order, and its
``separate(x)`` returns a list of violated sets inside them, empty when x
is feasible: one hole for ChVD, up to ``MAX_PATHS_PER_ROUND``
vertex-disjoint terminal paths for multicut.  ChVD's variables are the
vertices that lie on some hole (``chordal.hole_vertices``): no hole
meets another vertex, so its x is 0 in every optimum, and neither the
tableau nor the hole search sees it.  Multicut keeps every vertex.

The cutting-plane loop keeps one tableau across rounds.  Each new
constraint's column is brought in by replaying the recorded pivots on
it, and pivoting goes on from the kept basis.  That is the path a cold
start over the whole pool takes, with every value bit-equal, unless a
recorded pivot entered a slack where Bland's rule would now enter the
new column; then the tableau rewinds to its snapshot from just before
that pivot, and the cold path goes on from there.  ``simplex_min_cover``
is the cold one-shot solve.

Both separation oracles call a set violated when it weighs less than
``1 - FEASIBILITY_TOL``, the library's one feasibility tolerance.
Thresholds downstream (1/4, 1/8, 1/10, 1/20, 1/2) compare against these
values; every such comparison treats ``>= t`` as ``>= t - 1e-9`` so float
drift cannot flip a rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

from .chordal import hole_vertices
from .graphs import (
    DiGraph,
    Graph,
    Hole,
    check,
    check_vertex_ids,
    dijkstra_vertex_weights,
    extract_path,
    lightest_hole,
)

FEASIBILITY_TOL = 1e-6
THRESHOLD_SLACK = 1e-9


def at_least(value: float, threshold: float) -> bool:
    """Tolerant threshold comparison: value >= threshold - 1e-9."""
    return value >= threshold - THRESHOLD_SLACK


@dataclass(frozen=True)
class FractionalSolution:
    """Nonnegative vertex weights.

    ``values`` holds the problem's variables; ``value(v)`` reads 0 for any
    other vertex.  A negative or NaN value raises ValueError, so every
    engine that reads x may rely on x >= 0.
    """

    values: dict[int, float]

    def __post_init__(self):
        for v, value in self.values.items():
            if not value >= 0:
                raise ValueError(f"x({v}) = {value} is not >= 0")

    def value(self, v: int) -> float:
        return self.values.get(v, 0.0)

    def mass(self, vertices) -> float:
        return sum(self.values.get(v, 0.0) for v in vertices)

    @property
    def objective(self) -> float:
        return sum(self.values.values())


def simplex_min_cover(n: int,
                      constraint_sets: Sequence[frozenset[int]]) -> list:
    """Solve min sum x_v s.t. sum_{v in P} x_v >= 1 for each P, x >= 0.

    Works on the dual packing LP (slack basis feasible) and reads the
    primal solution off the slack reduced costs.  Bland's rule prevents
    cycling.  It runs in floats only; the dense reference, also in exact
    rationals, is ``ref_simplex_min_cover`` in ``tests/bruteforce.py``.
    This is the cold, one-shot solve; ``solve_fractional`` keeps its
    tableau across rounds and reaches the same values.
    """
    return _Tableau(range(n), constraint_sets).solve()


def _pivot_budget(n: int, m: int) -> int:
    """Pivots allowed to a cold solve over n rows and m sets."""
    return 8000 + 40 * (n + m) * (n + m)


_SLACK_RANK = 1 << 62       # Bland's rule ranks every slack after every y


class _Tableau:
    """The dual packing tableau of a growing constraint pool, with a
    record of the pivots a cold start over the pool has made so far.

    Dual: max sum y_j s.t. for each vertex v: sum_{j: v in P_j} y_j <= 1.
    Rows are the n vertex constraints, one per entry of ``vertices`` in
    its order, then the objective row; columns are the n slacks, the
    right-hand side, then y_j in pool order.  Every set lies inside
    ``vertices``.  Each entry goes through the same operations, in the
    same order, as in a cold tableau over the same pool, so every value
    is bit-equal.  A pivot updates only the pivot row's nonzero columns:
    a skipped term is a - f * 0, which can flip the sign of a zero but no
    comparison.

    Before each pivot that enters a slack, the tableau keeps a snapshot
    of its rows, its basis and its column count; only there can a later
    column part from the record (see ``add``).
    """

    def __init__(self, vertices: Sequence[int],
                 constraint_sets: Sequence[frozenset[int]]):
        self.vertices = vertices
        self.n = n = len(vertices)
        self.rows = [[0.0] * n + [1.0] for _ in range(n)]
        for i in range(n):
            self.rows[i][i] = 1.0
        self.rows.append([0.0] * (n + 1))
        self.basis = [_SLACK_RANK + i for i in range(n)]
        self.sets: list[frozenset[int]] = []
        # per pivot: leaving row, whether a slack entered, the pivot
        # value and the (row, multiplier) pairs, the objective row as n
        self.record: list[tuple[int, bool, float, list]] = []
        # per slack pivot on the record: its index, then the rows, basis
        # and column count just before it
        self.snapshots: list[tuple[int, list, list, int]] = []
        for cset in constraint_sets:
            self.add(cset)

    def _replay(self, cset: frozenset[int]) -> tuple[list, int]:
        """The column of cset after the recorded pivots, up to the first
        slack pivot at which its reduced cost is above the tolerance;
        returns it with that pivot's index, or len(record) if none."""
        column = [1.0 if v in cset else 0.0 for v in self.vertices]
        column.append(1.0)      # the objective row's entry
        for p, (leave, slack, piv, mults) in enumerate(self.record):
            if slack and column[-1] > 1e-9:
                return column, p
            b = column[leave]
            if b != 0.0:
                b /= piv
                column[leave] = b
                for i, f in mults:
                    column[i] -= f * b
        return column, len(self.record)

    def add(self, cset: frozenset[int]) -> None:
        """Bring in the column of one more constraint set.

        The recorded pivots are replayed on the new column.  At a pivot p
        where a slack entered, a new column whose reduced cost is already
        above the tolerance is the one a cold start's Bland rule would
        have entered instead, so the paths part there: rewind to p, and
        the column joins the cold path's state before p.
        """
        column, p = self._replay(cset)
        if p < len(self.record):
            self._rewind(p)
        self.sets.append(cset)
        for row, a in zip(self.rows, column):
            row.append(a)

    def _rewind(self, p: int) -> None:
        """Go back to the state before recorded slack pivot p.

        Restore the snapshot taken there, cut the record to ``record[:p]``
        and drop every snapshot at or beyond p.  Each column added since
        is rebuilt by replaying ``record[:p]`` on its set; it passed those
        pivots when it was added, so none refuses.  Every column took the
        record's pivots as a cold start over the pool takes them, so the
        state rebuilt is the cold start's own state before pivot p.
        """
        snapshots = self.snapshots
        while snapshots[-1][0] > p:
            snapshots.pop()
        at, rows, basis, m = snapshots.pop()
        check(at == p, "a tableau rewinds only to a slack pivot")
        del self.record[p:]
        for cset in self.sets[m:]:
            column, _ = self._replay(cset)
            for row, a in zip(rows, column):
                row.append(a)
        self.rows, self.basis = rows, basis

    def solve(self) -> list:
        """Pivot to the optimum of the pool so far; return x.

        The pivot budget counts the record, the pivots of a cold start
        over the current pool, against the cold bound for that pool.
        """
        n, tol = self.n, 1e-9
        rows, basis, record = self.rows, self.basis, self.record
        zrow = rows[n]
        m = len(zrow) - n - 1
        if m == 0 or n == 0:
            return [0.0] * n
        ys = range(n + 1, n + 1 + m)
        max_pivots = _pivot_budget(n, m)
        while True:
            check(len(record) < max_pivots,
                  "simplex exceeded its pivot budget")
            enter = -1
            for j in ys:
                if zrow[j] > tol:
                    enter = j
                    break
            else:
                for j in range(n):
                    if zrow[j] > tol:
                        enter = j
                        break
            if enter < 0:
                break
            leave = -1
            best = None
            for i in range(n):
                a = rows[i][enter]
                if a > tol:
                    ratio = rows[i][n] / a
                    if best is None or ratio < best - tol or (
                        abs(ratio - best) <= tol
                        and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            check(leave >= 0, "dual packing LP is unbounded, which cannot happen")
            if enter < n:
                self.snapshots.append(
                    (len(record), [row[:] for row in rows], basis[:], m))
            prow = rows[leave]
            piv = prow[enter]
            nonzero = [k for k, b in enumerate(prow) if b != 0.0]
            for k in nonzero:
                prow[k] /= piv
            entries = [(k, prow[k]) for k in nonzero]
            mults = []
            for i, row in enumerate(rows):
                f = row[enter]
                if i != leave and f != 0.0:
                    mults.append((i, f))
                    for k, b in entries:
                        row[k] -= f * b
            basis[leave] = enter - n - 1 if enter > n else _SLACK_RANK + enter
            record.append((leave, enter < n, piv, mults))
        # Primal solution: x_v = -reduced cost of slack column v (shadow price).
        return [-z if -z > 0.0 else 0.0 for z in zrow[:n]]


def separate_chvd(g: Graph, x: FractionalSolution,
                  allowed: Optional[Iterable[int]] = None) -> Optional[Hole]:
    """A hole of g[allowed] (of g when allowed is None) of weight
    < 1 - FEASIBILITY_TOL, or None: ``lightest_hole`` under the weights x,
    which stops at the first hole as light as four copies of the least x
    on allowed."""
    weights = [x.value(v) for v in g.vertices()]
    found = lightest_hole(g, weights,
                          g.vertices() if allowed is None else allowed,
                          1.0 - FEASIBILITY_TOL)
    return None if found is None else found[0]


# most terminal paths one multicut separation round returns
MAX_PATHS_PER_ROUND = 16


def separate_multicut(
    d: DiGraph,
    pairs: Sequence[tuple[int, int]],
    x: FractionalSolution,
    allowed: Optional[Container[int]] = None,
) -> list[list[int]]:
    """Pairwise vertex-disjoint terminal paths lighter than 1 -
    FEASIBILITY_TOL, at most ``MAX_PATHS_PER_ROUND``; empty when x cuts
    every pair.

    The first is the lightest path, from the earliest pair within 1e-12.
    The other violated pairs follow in ascending (weight, pair index),
    each kept only if its path shares no vertex with one kept before.

    One search per distinct source, cut off at 1 - FEASIBILITY_TOL - 1e-12:
    every distance below it is exact, with the predecessors any larger
    cutoff would give, and every other entry fails the test.
    ``allowed`` goes to every search as ``dijkstra_vertex_weights`` takes
    it, so a path leaves a source only through allowed vertices.
    """
    cutoff = 1.0 - FEASIBILITY_TOL - 1e-12
    weights = [x.value(v) for v in d.vertices()]
    searches: dict[int, tuple[dict[int, float], dict[int, int]]] = {}
    violated: list[tuple[float, int]] = []
    first: Optional[tuple[float, int]] = None
    for i, (s, t) in enumerate(pairs):
        if s not in searches:
            searches[s] = dijkstra_vertex_weights(
                d.out_neighbors, s, weights, allowed=allowed, cutoff=cutoff)
        dist = searches[s][0]
        if t in dist and dist[t] < cutoff:
            violated.append((dist[t], i))
            if first is None or dist[t] < first[0] - 1e-12:
                first = violated[-1]
    if first is None:
        return []
    paths: list[list[int]] = []
    used: set[int] = set()
    for _, i in [first] + sorted(violated):
        s, t = pairs[i]
        path = extract_path(searches[s][1], t)
        if used.isdisjoint(path):
            paths.append(path)
            used.update(path)
            if len(paths) == MAX_PATHS_PER_ROUND:
                break
    return paths


@dataclass(frozen=True)
class ChvdProblem:
    """The hole-covering LP of g.  Its variables are the vertices on some
    hole, found once per problem; every hole lies inside them, so the
    separation searches g[vertices] and finds what a search of g finds.
    """

    g: Graph

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(hole_vertices(self.g)))

    def separate(self, x: FractionalSolution) -> list[frozenset[int]]:
        hole = separate_chvd(self.g, x, self.vertices)
        return [] if hole is None else [hole.vertex_set()]


@dataclass(frozen=True)
class MulticutProblem:
    d: DiGraph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_vertex_ids({v for pair in self.pairs for v in pair}, self.d.n)

    @property
    def vertices(self) -> range:
        return self.d.vertices()

    def separate(self, x: FractionalSolution) -> list[frozenset[int]]:
        return [frozenset(path)
                for path in separate_multicut(self.d, self.pairs, x)]


class CuttingPlaneCapExceeded(RuntimeError):
    """The cutting-plane loop ran max_iters rounds without converging."""

    def __init__(self, max_iters: int):
        super().__init__(
            f"cutting-plane loop did not converge within max_iters={max_iters}"
            " rounds")
        self.max_iters = max_iters


def check_lp_options(max_iters: int) -> None:
    """Raise ValueError unless max_iters >= 1."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")


def solve_fractional(problem, max_iters: int = 2000) -> FractionalSolution:
    """Cutting-plane loop: restricted LP + separation until feasible.

    ``problem.vertices`` are the variables, ascending, one tableau row
    each; x holds exactly them.  ``problem.separate(x)`` returns a list
    of violated sets inside them, empty when x is feasible.  The pivot
    budget is the cold bound for those rows.  The first round builds the
    tableau over its sets; each later round adds its sets to that tableau
    in order, and a set that a cold start would pivot in earlier rewinds
    it (``_Tableau.add``), so every round's x is a cold simplex's over the
    pool so far.  The x returned leaves no set below 1 - FEASIBILITY_TOL.

    Raises ValueError unless max_iters >= 1, and CuttingPlaneCapExceeded
    after max_iters rounds that each still found a violated constraint.
    """
    check_lp_options(max_iters)
    vertices = problem.vertices
    rows = frozenset(vertices)
    pooled: set[frozenset[int]] = set()
    tableau: Optional[_Tableau] = None
    x = FractionalSolution(dict.fromkeys(vertices, 0.0))
    for _ in range(max_iters):
        violated = problem.separate(x)
        if not violated:
            return x
        for cset in violated:
            check(cset not in pooled,
                  "separation returned a constraint already in the pool")
            check(cset <= rows,
                  "separation returned a set outside the problem's vertices")
            pooled.add(cset)
        if tableau is None:
            tableau = _Tableau(vertices, violated)
        else:
            for cset in violated:
                tableau.add(cset)
        x = FractionalSolution(dict(zip(vertices, tableau.solve())))
    raise CuttingPlaneCapExceeded(max_iters)
