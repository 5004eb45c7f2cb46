"""Spans around chvd's public functions, recorded from outside the package.

``Tracer.install`` swaps each traced function for a timing wrapper in
every chvd module that binds it, so calls made through module globals
(``kernel.rule4_components`` calling ``template_toughness``) are seen as
well as calls from the benchmark.  ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator, Optional

# (module, function, span name, observer).  An observer turns the call's
# arguments and result into one number kept on the span.
TRACED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("graphs", "components_within", "graphs.components_within", None),
    ("graphs", "induced_subgraph", "graphs.induced_subgraph", None),
    ("chordal", "is_chordal", "chordal.is_chordal", None),
    ("chordal", "clique_tree_of", "chordal.clique_tree_of", None),
    ("chordal", "find_hole_through", "chordal.find_hole_through", None),
    ("flower", "flower_and_cover", "flower.flower_and_cover",
     lambda args, kwargs, res: res[0].order),
    ("kernel", "kernelize", "kernel.kernelize",
     lambda args, kwargs, res: len(res.trace)),
    ("kernel", "annotate", "kernel.annotate", None),
    ("kernel", "template_toughness", "kernel.template_toughness", None),
    ("kernel", "gadgetize", "kernel.gadgetize", None),
    ("kernel", "replay_trace", "kernel.replay_trace", None),
    *[("kernel", fn, f"kernel.rule{i}",
       lambda args, kwargs, res: int(res is not None))
      for i, fn in enumerate(("rule1_common_neighbours", "rule2_xy_good",
                              "rule3_reduce_clique", "rule4_components",
                              "rule5_separator_template", "rule6_irrelevant",
                              "rule7_bypass"), start=1)],
    ("lp", "solve_fractional", "lp.solve_fractional",
     lambda args, kwargs, res: res.objective),
    ("lp", "separate_chvd", "lp.separate_chvd", None),
    ("lp", "separate_multicut", "lp.separate_multicut", None),
    ("lp", "simplex_min_cover", "lp.simplex_min_cover",
     lambda args, kwargs, res: len(args[1])),
    ("multicut", "min_vertex_cut", "multicut.min_vertex_cut", None),
    ("multicut", "skew_multicut", "multicut.skew_multicut", None),
    ("multicut", "downward_multicut", "multicut.downward_multicut", None),
    ("multicut", "dist_from", "multicut.dist_from", None),
    ("approx", "approximate", "approx.approximate", None),
    ("approx", "decompose", "approx.decompose", None),
    ("approx", "balanced_clique_cut", "approx.balanced_clique_cut", None),
    ("approx", "chvd_clique_plus_chordal", "approx.chvd_clique_plus_chordal",
     None),
    ("approx", "hit_holes_through", "approx.hit_holes_through", None),
    ("oracle", "exact_chvd", "oracle.exact",
     lambda args, kwargs, res: 0 if res is None else res.nodes_explored),
    ("oracle", "exact_chvd_forced", "oracle.exact",
     lambda args, kwargs, res: 0 if res is None else res.nodes_explored),
    ("oracle", "shortest_hole_avoiding", "oracle.shortest_hole_avoiding",
     None),
    ("instance_io", "parse", "instance_io.parse", None),
    ("instance_io", "emit", "instance_io.emit", None),
]

LAYERS = ("graphs", "chordal", "flower", "kernel", "lp", "multicut", "approx",
          "oracle", "instance_io")

# Spans under these roots are calls a user makes.  Anything else seen
# while tracing (the generators' own chordality checks, the graph work a
# replay does) stays out of the layer figures, except the spans that are
# themselves named below.
ENTRY_ROOTS = frozenset({
    "kernel.kernelize", "approx.approximate", "oracle.exact",
    "lp.solve_fractional", "multicut.skew_multicut",
    "multicut.downward_multicut",
})
STANDALONE = frozenset({"instance_io.parse", "instance_io.emit",
                        "kernel.replay_trace"})

# approximate() stages whose reach is counted per call.
REACH = (
    ("approx.reach.decompose", "approx.decompose"),
    ("approx.reach.fold_back", "approx.chvd_clique_plus_chordal"),
    ("approx.reach.hit_holes_through", "approx.hit_holes_through"),
    ("approx.reach.downward_multicut", "multicut.downward_multicut"),
    ("approx.reach.skew_multicut", "multicut.skew_multicut"),
)


class Tracer:
    """Records one span per traced call: name, start, end, parent.

    Spans are columns of flat arrays (a kernel round makes over a million
    of them), indexed in start order, so a span's children follow it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.nested = bytearray()       # same name already open higher up
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self.data: dict[int, float] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_of(self, index: int) -> str:
        return self.names[self.name[index]]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def install(self) -> None:
        for module, attr, name, observe in TRACED:
            original = getattr(sys.modules[f"chvd.{module}"], attr)
            wrapper = self._wrap(original, name, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "chvd"
                                       or mod_name.startswith("chvd.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, name: str,
              observe: Optional[Callable]) -> Callable:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        code = self._code[name]
        names, parents, roots, nested = (self.name, self.parent, self.root,
                                         self.nested)
        starts, ends, child = self.start, self.end, self.child_time
        data, stack, depth = self.data, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(names)
            names.append(code)
            parents.append(parent)
            roots.append(roots[parent] if parent >= 0 else index)
            nested.append(depth[code] > 0)
            starts.append(0.0)
            ends.append(0.0)
            child.append(0.0)
            stack.append(index)
            depth[code] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[code] -= 1
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                if parent >= 0:
                    child[parent] += t1 - t0
            if observe is not None:
                data[index] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self) -> Iterator[int]:
        """Spans that belong to a user-facing call (see ENTRY_ROOTS)."""
        entry = {self._code[n] for n in ENTRY_ROOTS if n in self._code}
        alone = {self._code[n] for n in STANDALONE if n in self._code}
        name, root = self.name, self.root
        return (i for i in range(len(name))
                if name[root[i]] in entry or name[i] in alone)

    def roots(self, name: str) -> list[int]:
        return [i for i in range(len(self)) if self.parent[i] < 0
                and self.name_of(i) == name]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and inclusive seconds, per-layer self time,
        and the counts read off span results."""
        out: dict[str, tuple[float, str]] = {}
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        data: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i in self.counted():
            name = self.name_of(i)
            calls[name] += 1
            duration = self.end[i] - self.start[i]
            if not self.nested[i]:
                incl[name] += duration
            if i in self.data:
                data[name] += self.data[i]
            self_s[name.split(".")[0]] += duration - self.child_time[i]
        for _, _, name, _ in TRACED:
            if name in out or name.startswith("kernel.rule"):
                continue
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (incl[name], "s")
        for i in range(1, 8):
            name = f"kernel.rule{i}"
            out[f"{name}.tried"] = (calls[name], "count")
            out[f"{name}.fired"] = (int(data[name]), "count")
            out[f"{name}.s"] = (incl[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        out["flower.order_sum"] = (int(data["flower.flower_and_cover"]),
                                   "count")
        out["kernel.events"] = (int(data["kernel.kernelize"]), "count")
        out["lp.simplex_min_cover.constraints"] = (
            int(data["lp.simplex_min_cover"]), "count")
        out["oracle.nodes_explored"] = (int(data["oracle.exact"]), "count")
        out.update(self._route_metrics())
        return out

    def _route_metrics(self) -> dict[str, tuple[float, str]]:
        """Which route each approximate() call took, and which stages it
        reached."""
        nearest = array("i")
        reached: dict[int, set[str]] = defaultdict(set)
        for i in range(len(self)):
            name = self.name_of(i)
            if name == "approx.approximate":
                nearest.append(i)
            else:
                parent = self.parent[i]
                nearest.append(nearest[parent] if parent >= 0 else -1)
                if nearest[i] >= 0:
                    reached[nearest[i]].add(name)
        calls = [i for i in range(len(self))
                 if self.name_of(i) == "approx.approximate"
                 and self.name_of(self.root[i]) in ENTRY_ROOTS]
        out = {
            "approx.route_lp": (sum("lp.solve_fractional" in reached[i]
                                    for i in calls), "count"),
            "approx.route_exact": (sum("oracle.exact" in reached[i]
                                       for i in calls), "count"),
        }
        for metric, stage in REACH:
            out[metric] = (sum(stage in reached[i] for i in calls), "count")
        return out

    def lp_objectives(self) -> list[Optional[float]]:
        """|x*| of the LP inside each top-level approximate() call, in call
        order; None for calls that took the exact route."""
        objectives: list[Optional[float]] = []
        for root in self.roots("approx.approximate"):
            value = None
            for i in range(root + 1, len(self)):
                if self.root[i] != root:
                    break
                if (self.parent[i] == root
                        and self.name_of(i) == "lp.solve_fractional"):
                    value = self.data[i]
            objectives.append(value)
        return objectives

    def write(self, handle, header: dict) -> None:
        """JSON lines: the header with the name table, then one row per
        span: name index, start and end (seconds from the first span),
        parent index, observed value."""
        t0 = self.start[0] if len(self) else 0.0
        columns = ["name", "start_s", "end_s", "parent", "value"]
        handle.write(json.dumps({**header, "names": self.names,
                                 "columns": columns}) + "\n")
        for i in range(len(self)):
            row = [self.name[i], round(self.start[i] - t0, 7),
                   round(self.end[i] - t0, 7), self.parent[i],
                   self.data.get(i)]
            handle.write(json.dumps(row) + "\n")
