"""The kernelization pipeline for annotated chordal vertex deletion.

An annotated instance carries a tidy modulator M (removing all but any
one member leaves a chordal graph) and forced pairs, of which every
solution must delete one endpoint.  Reductions fire lowest-numbered
first; each firing is recorded as one replayable trace event:

  1. force a nonadjacent modulator pair with k+2 independent common
     neighbors;
  2. force a pair connected through k+2 subtree-separated paths;
  3. delete an unmarked vertex of an oversized clique;
  4. absorb an unmarked nonneighbor component into a modulator vertex;
  5. delete a component unmarked by the toughness template around the
     separator bags;
  6. delete a component vertex appearing in no bag of its boundary path;
  7. bypass a component vertex outside the important set Z.

The toughness template also runs inside rule 4 with per-pair separators.
An instance is immutable, so it derives its core G - M, the clique tree
of the core, with bags in G's own ids, the separator and the contexts of
the components of the core minus the separator once.  Two tables hold
the facts the rules share: per modulator vertex x, the components of
G(not x) with their boundaries (one table per instance, read by rules 3
and 4 and the separator), and per nonadjacent modulator pair, the
bottommost xy-good nodes of a rooted tree (``bottommost_good``, built
once per rooting, read by rules 2 and 3).  Every rule takes only the
instance and reads these as it needs them.
Every event preserves the instance answer; the acceptance suite checks
this against the exact oracle per event.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Optional

from .graphs import (
    Graph, boundary, check, check_vertex_ids, components_within,
    delete_vertices, is_clique,
)
from .chordal import CliqueTree, chordal_with, clique_tree_of, mis_chordal
from .flower import flower_and_cover


@dataclass(frozen=True)
class AChvdInstance:
    """Annotated instance (G, k, M, E^h)."""

    g: Graph
    k: int
    modulator: frozenset[int]
    forced: frozenset[frozenset[int]] = frozenset()
    # nonneighbor_components' table, filled per modulator vertex
    _nonneighbors: dict[int, tuple[tuple[frozenset[int], frozenset[int]],
                                   ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        m = self.modulator
        for pair in self.forced:
            check(len(pair) == 2, "forced pair is not a pair")
            x, y = sorted(pair)
            check(x in m and y in m, "forced pair outside the modulator")
            check(self.g.has_edge(x, y), "forced pair is not an edge")
        try:
            tree: Optional[CliqueTree] = self.tree
        except ValueError:          # clique_tree_of found a hole in G - M
            tree = None
        check(tree is not None, "graph minus modulator is not chordal")
        for v in sorted(m):
            check(chordal_with(self.g, self.core, v), "modulator is not tidy")

    def forced_tuples(self) -> tuple[tuple[int, int], ...]:
        return tuple(tuple(sorted(p)) for p in sorted(self.forced, key=sorted))

    @cached_property
    def core(self) -> frozenset[int]:
        """The vertices of the core G - M."""
        return frozenset(set(self.g.vertices()) - self.modulator)

    @cached_property
    def tree(self) -> CliqueTree:
        return clique_tree_of(self.g, self.core)

    @cached_property
    def nonadjacent_pairs(self) -> tuple[tuple[int, int], ...]:
        """The nonadjacent modulator pairs (x, y), x < y, in sorted order."""
        ms = sorted(self.modulator)
        return tuple((x, y) for i, x in enumerate(ms) for y in ms[i + 1 :]
                     if not self.g.has_edge(x, y))

    @cached_property
    def separator(self) -> "SeparatorSet":
        return build_separator(self)

    @cached_property
    def contexts(self) -> tuple["ComponentContext", ...]:
        """The context of each component of the core minus the separator,
        in component order."""
        return tuple(
            component_context(self, comp) for comp in components_within(
                self.g, self.core - self.separator.vertices))

    def selector(self, positives: Iterable[int] = (),
                 negatives: Iterable[int] = ()) -> frozenset[int]:
        """V(x1..xa, !y1..!yb): nonmodulator common neighbors of the
        positives avoiding all neighborhoods of the negatives."""
        out = set(self.core)
        for x in positives:
            out &= self.g.neighbor_set(x)
        for y in negatives:
            out -= self.g.neighbor_set(y)
        return frozenset(out)

    def nonneighbor_components(self, x: int) -> tuple[
            tuple[frozenset[int], frozenset[int]], ...]:
        """The components C of G(not x) in component order, each with its
        boundary N(C) - C; built on the first read of x, once."""
        if x not in self._nonneighbors:
            self._nonneighbors[x] = tuple(
                (comp, boundary(self.g, comp)) for comp in
                components_within(self.g, self.selector(negatives=[x])))
        return self._nonneighbors[x]


@dataclass(frozen=True)
class KernelParams:
    """All marking thresholds, derived from (k, |M|)."""

    k: int
    m_size: int

    @property
    def omega_bound(self) -> int:
        k, m = self.k, self.m_size
        return (k + 1) * (m ** 3 + (k + 3) * m ** 2)

    @property
    def component_mark_bound(self) -> int:
        k, m = self.k, self.m_size
        return (k + 1) * ((k + 2) * self.omega_bound + m) ** 2 + 1

    @property
    def component_count_bound(self) -> int:
        k, m = self.k, self.m_size
        return (k + 1) * ((k + 2) * self.omega_bound + m) ** 2 \
            + (k + 1) * (m + m * m) + 1

    @property
    def z_bound(self) -> int:
        w = max(self.omega_bound, 1)
        q2 = 2 + 4 * w + 2 * (2 + 4 * w) * w
        return (2 * q2 - 1) * w

    @staticmethod
    def of(inst: AChvdInstance) -> "KernelParams":
        return KernelParams(inst.k, len(inst.modulator))


@dataclass(frozen=True)
class ReductionEvent:
    """One replayable reduction step, expressed in the ids current at the
    time of firing."""

    rule: str
    witness: tuple
    deleted: tuple[int, ...] = ()
    added_edges: tuple[tuple[int, int], ...] = ()
    forced_pair: Optional[tuple[int, int]] = None
    k_delta: int = 0
    counters: tuple[tuple[str, int], ...] = ()


def apply_event(inst: AChvdInstance, event: ReductionEvent) -> AChvdInstance:
    """Apply one event: add edges, force the pair, delete, adjust k."""
    g = inst.g
    forced = set(inst.forced)
    if event.added_edges:
        g = g.add_edges(event.added_edges)
    if event.forced_pair is not None:
        forced.add(frozenset(event.forced_pair))
    modulator = set(inst.modulator)
    if event.deleted:
        sub = delete_vertices(g, event.deleted)
        remap = sub.index
        g = sub.graph
        modulator = {remap[v] for v in modulator if v in remap}
        forced = {
            frozenset(remap[v] for v in pair)
            for pair in forced
            if all(v in remap for v in pair)
        }
    return AChvdInstance(g, inst.k + event.k_delta, frozenset(modulator),
                         frozenset(forced))


def _finish(inst: AChvdInstance, event: ReductionEvent) -> tuple[
        AChvdInstance, ReductionEvent]:
    out = apply_event(inst, event)
    counters = (("n", out.g.n), ("m", out.g.m),
                ("modulator", len(out.modulator)), ("forced", len(out.forced)))
    return out, replace(event, counters=counters)


def rule1_common_neighbours(inst: AChvdInstance) -> Optional[
        tuple[AChvdInstance, ReductionEvent]]:
    """Force xy when G(x, y) holds an independent set of size k + 2."""
    for x, y in inst.nonadjacent_pairs:
        common = inst.selector(positives=[x, y])
        if len(common) < inst.k + 2:
            continue
        if len(mis_chordal(inst.g, common)) >= inst.k + 2:
            event = ReductionEvent(
                rule="rule1",
                witness=(x, y),
                added_edges=((x, y),),
                forced_pair=(x, y),
            )
            return _finish(inst, event)
    return None


def template_toughness(
    inst: AChvdInstance, separator: frozenset[int], label: str, witness: tuple
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Mark components reachable between separator pairs; delete one
    unmarked component.  Sound for any separator containing the modulator.

    A pair x, y can mark a component C only if both lie in its contact
    N(C) & S, so each pair's candidates are read off the contacts, in
    component order; the first k + 2 of them (x, y nonadjacent), or the
    first k + 1 with an xy-path inside C avoiding N(x) & N(y) (x, y
    adjacent), are marked.
    """
    check(inst.modulator <= separator, "template separator must contain M")
    g = inst.g
    comps = components_within(g, set(g.vertices()) - separator)
    if not comps:
        return None
    candidates: dict[tuple[int, int], list[int]] = {}
    for idx, comp in enumerate(comps):
        contact = sorted(boundary(g, comp))
        for i, x in enumerate(contact):
            for y in contact[i + 1 :]:
                candidates.setdefault((x, y), []).append(idx)
    marked: set[int] = set()
    for (x, y), idxs in candidates.items():
        if marked.issuperset(idxs):
            continue
        if g.has_edge(x, y):
            eligible = (idx for idx in idxs
                        if _has_avoiding_path(g, comps[idx], x, y))
            marked.update(islice(eligible, inst.k + 1))
        else:
            marked.update(idxs[: inst.k + 2])
    for idx, comp in enumerate(comps):
        if idx not in marked:
            event = ReductionEvent(
                rule=label,
                witness=witness + (min(comp),),
                deleted=tuple(sorted(comp)),
            )
            return _finish(inst, event)
    return None


def _has_avoiding_path(g: Graph, comp: frozenset[int], x: int, y: int) -> bool:
    """A path inside comp from N(x) to N(y) avoiding N(x) & N(y)."""
    shared = g.neighbor_set(x) & g.neighbor_set(y)
    for part in components_within(g, comp - shared):
        if (g.neighbor_set(x) & part) and (g.neighbor_set(y) & part):
            return True
    return False


def bottommost_good(inst: AChvdInstance,
                    tree: CliqueTree) -> dict[tuple[int, int], list[int]]:
    """Per nonadjacent modulator pair x < y, in pair order, the maximally
    bottommost nodes q of ``tree`` (a rooting of ``inst.tree``) admitting
    an xy-path whose interior stays in core vertices represented only
    inside the subtree of q, in node order.

    One pass over the nodes: the core vertices whose topmost bag lies in
    the subtree of q split into components C, and q is xy-good when some
    contact N(C) & M holds both x and y.
    """
    g, m = inst.g, inst.modulator
    below: list[set[int]] = [set() for _ in tree.nodes()]
    for v in inst.core:
        below[tree.top(v)].add(v)
    for q in sorted(tree.nodes(), key=tree.depth, reverse=True):
        if tree.parent[q] is not None:
            below[tree.parent[q]] |= below[q]
    table: dict[tuple[int, int], list[int]] = {
        pair: [] for pair in inst.nonadjacent_pairs}
    good: list[set[tuple[int, int]]] = []
    for inside in below:
        pairs: set[tuple[int, int]] = set()
        for part in components_within(g, inside):
            pairs.update(combinations(sorted(boundary(g, part) & m), 2))
        good.append(pairs & table.keys())
    for q in tree.nodes():
        for pair in good[q].difference(*(good[c] for c in tree.children(q))):
            table[pair].append(q)
    return table


def _force_good_pair(
    inst: AChvdInstance, good: dict[tuple[int, int], list[int]]
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Rule 2's event for the first pair with k + 2 bottommost good nodes
    in ``good``, a ``bottommost_good`` table."""
    for (x, y), nodes in good.items():
        if len(nodes) >= inst.k + 2:
            event = ReductionEvent(
                rule="rule2",
                witness=(x, y, len(nodes)),
                added_edges=((x, y),),
                forced_pair=(x, y),
            )
            return _finish(inst, event)
    return None


def rule2_xy_good(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Force xy when k + 2 maximally bottommost nodes carry xy-paths."""
    return _force_good_pair(inst, bottommost_good(inst, inst.tree))


def _mark_up_to(candidates: list[int], budget: int, marked: set[int]) -> None:
    for v in candidates[: max(budget, 0)]:
        marked.add(v)


def rule3_reduce_clique(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Delete an unmarked vertex of an oversized core clique.

    The clique is the largest bag above the clique-size bound, the first
    by sorted members among ties.  Re-checks the path-forcing rule against
    the tree re-rooted at it first (its bound is rooting-dependent), then
    marks per the four point classes and deletes the smallest unmarked
    clique vertex.
    """
    params = KernelParams.of(inst)
    # bags come sorted by their sorted members, and max keeps the first
    root = max(inst.tree.nodes(), key=lambda q: len(inst.tree.bags[q]))
    clique = inst.tree.bags[root]
    if len(clique) <= params.omega_bound:
        return None
    tree = inst.tree.reroot(root)
    good = bottommost_good(inst, tree)

    forced = _force_good_pair(inst, good)
    if forced is not None:
        return forced

    ms = sorted(inst.modulator)
    k = inst.k
    marked: set[int] = set()
    # point (a): triples
    for x1 in ms:
        for x2 in ms:
            for y in ms:
                cands = sorted(clique & inst.selector([x1, x2], [y]))
                _mark_up_to(cands, k + 1, marked)
    # point (b): per nonadjacent pair and bottommost node, farthest first
    for (x1, y1), nodes in good.items():
        common = clique & inst.selector([x1, y1])
        for q in nodes:
            cands = sorted(common,
                           key=lambda v: (-tree.subtree_distance(v, q), v))
            _mark_up_to(cands, k + 1, marked)
    # points (c) and (d): nearest to the boundary node of A^y
    boundary_node: dict[int, int] = {}
    for y in ms:
        bnd = next(
            (b for c, b in inst.nonneighbor_components(y)
             if c & tree.bags[root]),
            None,
        )
        if bnd is None:
            boundary_node[y] = root
            continue
        node = tree.first_bag_containing(bnd - inst.modulator)
        check(node is not None, "component boundary is not inside a bag")
        boundary_node[y] = node
    for x in ms:
        for y in ms:
            for selector_sets in ((clique & inst.selector([x], [y])),
                                  (clique & inst.selector([], [x, y]))):
                cands = sorted(selector_sets, key=lambda v: (
                    tree.subtree_distance(v, boundary_node[y]), v))
                _mark_up_to(cands, k + 1, marked)

    # at most omega_bound of the clique's > omega_bound vertices are marked
    check(len(marked & clique) <= params.omega_bound,
          "marking exceeded its combinatorial budget")
    event = ReductionEvent(
        rule="rule3",
        witness=(min(clique), len(clique)),
        deleted=(min(clique - marked),),
    )
    return _finish(inst, event)


def rule4_components(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Bound the nonneighbor components of every modulator vertex.

    First the toughness template runs on the per-pair boundary separators;
    once those are stable, unmarked components are absorbed by adding all
    edges to x.
    """
    params = KernelParams.of(inst)
    ms = sorted(inst.modulator)
    # A template that fires returns at once, so a separator seen before
    # already came back empty.
    tried: set[frozenset[int]] = set()
    for x in ms:
        for y in ms:
            if y == x:
                continue
            # A neighbour of one component of G(not x) lies in no other.
            separator = inst.modulator.union(*(
                b for c, b in inst.nonneighbor_components(x)
                if inst.g.neighbor_set(y) & c))
            if separator in tried:
                continue
            tried.add(separator)
            fired = template_toughness(inst, separator, "template4", (x, y))
            if fired is not None:
                return fired
    for x in ms:
        comps = inst.nonneighbor_components(x)
        if len(comps) <= 1:
            continue
        marked: set[int] = set()
        for y in ms:
            if y == x:
                continue
            if not inst.g.has_edge(x, y):
                eligible = [
                    i for i, (c, _) in enumerate(comps)
                    if inst.g.neighbor_set(y) & c
                ]
                _mark_up_to(eligible, params.component_mark_bound, marked)
            else:
                # some core boundary vertex of c misses y
                eligible = [
                    i for i, (c, b) in enumerate(comps)
                    if (inst.g.neighbor_set(y) & c)
                    and b - inst.modulator - inst.g.neighbor_set(y)
                ]
                _mark_up_to(eligible, inst.k + 1, marked)
        for y1, y2 in inst.nonadjacent_pairs:
            eligible = [
                i for i, (c, _) in enumerate(comps)
                if (inst.g.neighbor_set(y1) & c)
                and (inst.g.neighbor_set(y2) & c)
            ]
            _mark_up_to(eligible, inst.k + 1, marked)
        for i, (comp, _) in enumerate(comps):
            if i not in marked:
                event = ReductionEvent(
                    rule="rule4",
                    witness=(x, min(comp)),
                    added_edges=tuple((x, v) for v in sorted(comp)),
                )
                return _finish(inst, event)
    return None


@dataclass(frozen=True)
class SeparatorSet:
    """Marked nodes, their LCA closure, and the union of their bags."""

    marked_nodes: frozenset[int]
    closed_nodes: frozenset[int]
    vertices: frozenset[int]        # S_Q


def build_separator(inst: AChvdInstance) -> SeparatorSet:
    """Bags covering the maximal cliques of every G(x, y) and every
    nonneighbor component boundary, closed under LCA, plus the root."""
    tree = inst.tree
    q0: set[int] = set()
    for x, y in inst.nonadjacent_pairs:
        common = inst.selector([x, y])
        # G(x, y) lies in the core, so its maximal cliques are the
        # maximal sets among the bags cut down to it
        cuts = {bag & common for bag in tree.bags} - {frozenset()}
        for clique in cuts:
            if not any(clique < other for other in cuts):
                q0.add(tree.first_bag_containing(clique))
    for x in sorted(inst.modulator):
        for _, bnd in inst.nonneighbor_components(x):
            node = tree.first_bag_containing(bnd - inst.modulator)
            check(node is not None, "component boundary not inside a bag")
            q0.add(node)
    # pairwise LCAs are closed under LCA: the LCA of lca(a, b) and
    # lca(c, d) is the LCA of two of a, b, c, d
    ends = sorted(q0 | {tree.root})
    closed = {tree.lca(p, q) for i, p in enumerate(ends) for q in ends[i:]}
    check(len(closed) <= 1 + 2 * len(q0), "LCA closure exceeded 1 + 2|Q0|")
    vertices = frozenset(v for node in closed for v in tree.bags[node])
    params = KernelParams.of(inst)
    k, m = params.k, params.m_size
    q0_ceiling = m * m * (k + 2) * params.omega_bound \
        + m * params.component_count_bound
    sep_ceiling = (1 + 2 * q0_ceiling) * params.omega_bound + m
    # the marking budgets bound the separator once cliques are bounded
    omega_core = max((len(bag) for bag in tree.bags), default=0)
    if omega_core <= params.omega_bound:
        check(len(q0) <= q0_ceiling, "marked-node count exceeds its ceiling")
        check(len(vertices | inst.modulator) <= sep_ceiling,
              "separator size exceeds its ceiling")
    return SeparatorSet(frozenset(q0), frozenset(closed), vertices)


def rule5_separator_template(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    return template_toughness(
        inst, inst.separator.vertices | inst.modulator, "rule5",
        ("separator",))


@dataclass(frozen=True)
class ComponentContext:
    """One component of the core minus the separator, with its boundary
    path and important-vertex machinery."""

    component: frozenset[int]
    path_bags: tuple[frozenset[int], ...]   # q_up .. q_down along the tree
    important: frozenset[int]               # Z


def component_context(inst: AChvdInstance,
                      comp: frozenset[int]) -> ComponentContext:
    """The context of ``comp``, a component of the core minus the
    separator.  Its bags form a subtree, as a connected set's do, and
    the root bag lies in the separator, so the subtree's top has a parent."""
    tree = inst.tree
    nodes_a: set[int] = set()
    for v in comp:
        nodes_a.update(tree.beta_inverse(v))
    topmost = min(nodes_a, key=lambda p: (tree.depth(p), p))
    q_up = tree.parent[topmost]
    # topmost is the one subtree node whose parent lies outside, so the
    # nodes next to the subtree are q_up and its nodes' outside children;
    # none twice: a node has one parent, and q_up lies above topmost
    # each with an adhesion: empty ones hang from the root, not in the subtree
    others = [c for p in nodes_a for c in tree.children(p)
              if c not in nodes_a]
    check(len(others) <= 1,
          "more than two adhesion-carrying boundary nodes")
    if others:
        path_nodes = tree.node_path(q_up, others[0])
        q_down_bag: tuple[frozenset[int], ...] = ()
    else:
        # q_down is a virtual empty bag below a leaf of the subtree
        leaves = [p for p in nodes_a
                  if not any(c in nodes_a for c in tree.children(p))]
        path_nodes = tree.node_path(q_up, min(leaves))
        q_down_bag = (frozenset(),)
    path_bags = tuple(tree.bags[q] for q in path_nodes) + q_down_bag
    check(boundary(inst.g, comp)
          <= inst.modulator | path_bags[0] | path_bags[-1],
          "component neighborhood escapes the boundary bags")
    mod_nbhd = [inst.g.neighbor_set(v) & inst.modulator for v in sorted(comp)]
    check(all(nb == mod_nbhd[0] for nb in mod_nbhd),
          "component vertices disagree on modulator neighbors")
    check(not mod_nbhd or is_clique(inst.g, mod_nbhd[0]),
          "modulator neighborhood of the component is not a clique")

    positions = {0, len(path_bags) - 1}
    for _ in range(2):
        layer = frozenset(
            v for i in positions for v in path_bags[i]
        )
        new_positions = set(positions)
        for u in sorted(layer):
            occ = [i for i, bag in enumerate(path_bags) if u in bag]
            if occ:
                new_positions.add(min(occ))
                new_positions.add(max(occ))
        positions = new_positions
    q2_positions = tuple(sorted(positions))
    z2 = frozenset(v for i in q2_positions for v in path_bags[i])
    ridge: list[int] = []
    for a, b in zip(q2_positions, q2_positions[1:]):
        best = None
        for i in range(a, b):
            adh = path_bags[i] & path_bags[i + 1]
            size = len(adh & comp)
            if best is None or size < best[0]:
                best = (size, i)
        if best is not None:
            ridge.append(best[1])
    adhesions = frozenset(
        v for i in ridge for v in path_bags[i] & path_bags[i + 1]
    )
    important = comp & (z2 | adhesions)
    params = KernelParams.of(inst)
    check(len(important) <= params.z_bound,
          "important set exceeds its marking-budget ceiling")
    return ComponentContext(
        component=comp, path_bags=path_bags, important=important)


def rule6_irrelevant(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Delete a component vertex whose bags all miss the boundary path."""
    for ctx in inst.contexts:
        on_path = frozenset(v for bag in ctx.path_bags for v in bag)
        stranded = sorted(ctx.component - on_path)
        if stranded:
            event = ReductionEvent(
                rule="rule6",
                witness=(min(ctx.component),),
                deleted=(stranded[0],),
            )
            return _finish(inst, event)
    return None


def rule7_bypass(
    inst: AChvdInstance,
) -> Optional[tuple[AChvdInstance, ReductionEvent]]:
    """Bypass a component vertex outside Z: cliquify its neighborhood,
    then delete it."""
    for ctx in inst.contexts:
        rest = sorted(ctx.component - ctx.important)
        if not rest:
            continue
        v = rest[0]
        nbrs = sorted(inst.g.neighbors(v))
        fill = tuple(
            (a, b)
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1 :]
            if not inst.g.has_edge(a, b)
        )
        event = ReductionEvent(
            rule="rule7",
            witness=(min(ctx.component), v),
            deleted=(v,),
            added_edges=fill,
        )
        return _finish(inst, event)
    return None


def canonical_yes_annotated() -> AChvdInstance:
    return AChvdInstance(Graph(1), 0, frozenset(), frozenset())


def canonical_no_graph() -> tuple[Graph, int]:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0


@dataclass(frozen=True)
class StructuralReport:
    """Post-exhaustion structural facts with their asserted ceilings."""

    omega_core: int
    omega_bound: int
    component_counts: tuple[tuple[int, int], ...]
    component_count_bound: int
    z_sizes: tuple[int, ...]
    z_bound: int

    def holds(self) -> bool:
        return (
            self.omega_core <= self.omega_bound
            and all(c <= self.component_count_bound
                    for _, c in self.component_counts)
            and all(z <= self.z_bound for z in self.z_sizes)
        )


def structural_report(inst: AChvdInstance) -> StructuralReport:
    params = KernelParams.of(inst)
    counts = tuple(
        (x, len(inst.nonneighbor_components(x))) for x in sorted(inst.modulator)
    )
    z_sizes = tuple(len(ctx.important) for ctx in inst.contexts)
    return StructuralReport(
        omega_core=max(len(bag) for bag in inst.tree.bags),
        omega_bound=params.omega_bound,
        component_counts=counts,
        component_count_bound=params.component_count_bound,
        z_sizes=z_sizes,
        z_bound=params.z_bound,
    )


def kernelize_annotated(
    inst: AChvdInstance,
) -> tuple[AChvdInstance, list[ReductionEvent]]:
    """Apply the lowest-numbered applicable rule until none fires.

    Instances with k >= |M| are answered by the constant-size YES
    instance up front.  Termination: every event deletes a vertex or adds
    an edge, capped and checked.
    """
    trace: list[ReductionEvent] = []
    if inst.k >= len(inst.modulator):
        out, event = _finish(inst, ReductionEvent(
            rule="trivial-yes", witness=(inst.k, len(inst.modulator))))
        trace.append(event)
        return canonical_yes_annotated(), trace
    cap = 16 + 2 * (inst.g.n + inst.g.n * inst.g.n)
    while True:
        check(len(trace) <= cap, "reduction loop exceeded its firing bound")
        # called by their module names, so a wrapper set on the module
        # sees every rule
        fired = (rule1_common_neighbours(inst) or rule2_xy_good(inst)
                 or rule3_reduce_clique(inst) or rule4_components(inst)
                 or rule5_separator_template(inst) or rule6_irrelevant(inst)
                 or rule7_bypass(inst))
        if fired is None:
            break
        inst, event = fired
        trace.append(event)
    report = structural_report(inst)
    check(report.holds(), "structural postconditions fail after exhaustion")
    return inst, trace


def annotate(
    g: Graph, k: int, modulator: Iterable[int]
) -> Optional[tuple[AChvdInstance, list[ReductionEvent]]]:
    """Tidy the modulator via flowers; None means a certified no-instance,
    among them every negative budget.

    Vertices with a flower of order above k are deleted with a budget
    decrement; the hitting sets of the survivors join the modulator.
    Each pass over M builds the clique tree of the core G - M once, and
    every flower search of the pass reads it.  Raises ValueError when a
    modulator id is not a vertex of g or G - M is not chordal.  The
    result is not validated again: each v of M0 sees a subgraph of
    G[core - S_v + v], which its ``hitting_set`` certified chordal, and
    each vertex of an S_u lies in the tree-certified core.
    """
    m0 = frozenset(modulator)
    check_vertex_ids(m0, g.n)
    if k < 0:
        return None
    trace: list[ReductionEvent] = []
    while True:
        hitting: dict[int, frozenset[int]] = {}
        core = set(g.vertices()) - m0
        try:
            tree = clique_tree_of(g, core)
        except ValueError:
            raise ValueError(
                "graph minus the modulator is not chordal") from None
        for v in sorted(m0):
            flower, cover = flower_and_cover(g, v, tree)
            if flower.order > k:
                inst0 = AChvdInstance(g, k, m0)
                event = ReductionEvent(
                    rule="annotate-delete",
                    witness=(v, flower.order),
                    deleted=(v,),
                    k_delta=-1,
                )
                nxt, event = _finish(inst0, event)
                trace.append(event)
                g, k, m0 = nxt.g, nxt.k, nxt.modulator
                if k < 0:
                    return None
                break
            hitting[v] = cover
        else:
            break
    extended = m0.union(*hitting.values())
    inst = AChvdInstance(g, k, extended)
    event = ReductionEvent(
        rule="annotate", witness=tuple(sorted(extended)))
    _, event = _finish(inst, event)
    trace.append(event)
    return inst, trace


def _with_gadgets(g: Graph,
                  gadgets: Iterable[tuple[int, int, int, int]]) -> Graph:
    """g plus the path x - x' - y' - y for every gadget (x, y, x', y')."""
    edges = list(g.edges())
    n = g.n
    for x, y, xp, yp in gadgets:
        edges += [(x, xp), (xp, yp), (yp, y)]
        n = max(n, xp + 1, yp + 1)
    return Graph(n, edges)


def gadgetize(inst: AChvdInstance) -> tuple[Graph, int, ReductionEvent]:
    """Replace every forced pair by a fresh four-cycle through it."""
    n = inst.g.n
    added = tuple((x, y, n + 2 * i, n + 2 * i + 1)
                  for i, (x, y) in enumerate(inst.forced_tuples()))
    event = ReductionEvent(rule="gadgetize", witness=added)
    return _with_gadgets(inst.g, added), inst.k, event


@dataclass(frozen=True)
class KernelResult:
    graph: Graph
    k: int
    verdict: str                    # "reduced" | "yes" | "no"
    trace: tuple[ReductionEvent, ...]


def kernelize(g: Graph, k: int, modulator: Iterable[int]) -> KernelResult:
    """Full pipeline: annotate, reduce, and replace annotations by gadgets.

    A certified no-instance comes back as the canonical C4 with budget
    zero; the trivial YES case as a single vertex with budget zero.
    """
    annotated = annotate(g, k, modulator)
    if annotated is None:
        no_graph, no_k = canonical_no_graph()
        return KernelResult(no_graph, no_k, "no", (ReductionEvent(
            rule="no-instance", witness=()),))
    inst, trace = annotated
    inst2, more = kernelize_annotated(inst)
    trace = trace + more
    if more and more[-1].rule == "trivial-yes":
        return KernelResult(inst2.g, inst2.k, "yes", tuple(trace))
    out_graph, out_k, event = gadgetize(inst2)
    trace.append(event)
    return KernelResult(out_graph, out_k, "reduced", tuple(trace))


def replay_trace(g: Graph, k: int,
                 trace: Iterable[ReductionEvent]) -> tuple[Graph, int]:
    """Fold the recorded events over the original input.

    Replaying never re-decides anything: deletions, edge additions,
    forced pairs, and the gadget construction are taken verbatim from
    the events, so the output reproduces the kernel bit-exactly.
    """
    inst = AChvdInstance(g, k, frozenset(), frozenset())
    for event in trace:
        if event.rule == "no-instance":
            no_graph, no_k = canonical_no_graph()
            return no_graph, no_k
        if event.rule == "trivial-yes":
            yes = canonical_yes_annotated()
            return yes.g, yes.k
        if event.rule == "annotate":
            inst = AChvdInstance(inst.g, inst.k, frozenset(event.witness),
                                 inst.forced)
            continue
        if event.rule == "gadgetize":
            return _with_gadgets(inst.g, event.witness), inst.k
        inst = apply_event(inst, event)
    return inst.g, inst.k
