"""Chain placement and routing heuristics.

Two families are provided. place_all clusters the substrate into
blocking islands, confines each demand to one island chosen by free
bandwidth (mode 'lbi' prefers the largest qualifying island, 'hbi' the
smallest), then walks the chain function by function, picking the
(PM, route) pair of least incremental power; one view per demand reads
the island once, holds the plan and patches what it read as it grows.
At each position the reuse candidates are routed first; new instances
are listed only when one could still cost no more than the best reuse
found, and no candidate is routed once its PM cost shows it cannot beat
the winner so far. The views of one call share a routing cache: the
edge terms of every link, each island's node order, neighbours and hop
counts, every search tree, and each island's adjacency as last read in
full: a later view copies it while no cable has lit or gone dark and
every island link carries its kb/s, and reads anew otherwise. Each
route, into a PM or out of it, is read from the full tree of its source,
keyed by the exact adjacency it was grown over, so a later position or
demand that meets the same adjacency reads the tree a new search would
grow.
bc_place_all is a centrality baseline: every demand follows its
hop-shortest path and functions are stacked on the most central path
nodes with capacity. A run searches each source's BFS tree once (the
search that also gives centrality scores and island hop counts) and
reads each pair's route from it once; a demand then checks residuals
and searches on a path table, its path nodes' instances and cores in
use read once and patched in place, undone on backtrack.

Path search weighs edges by a convex mix of normalized power and
normalized delay. Searches start power-only and shift weight toward
delay in fixed steps while the found route misses the delay budget.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .bih import BlockingIsland, build_bih
from .netstate import (Allocation, FunctionAssignment, NetworkState, Route,
                       _route_delay, fits, over_budget, to_kbps)
from .power import (incremental_cost, incremental_pm_cost, network_power,
                    pm_load_slope, pm_power_total, total_power)
from .topology import FunctionType, Link, NetworkGraph
from .workload import read_demands

_EPS = 1e-9     # float slack of the path search's weight schedule


def _check_step(weight_step: float) -> None:
    if not 0.0 < weight_step <= 1.0:
        raise ValueError("weight step must be in (0, 1], got %r" % weight_step)


@dataclass(frozen=True)
class Candidate:
    """A PM able to host a chain position. category 1: reuses a running
    instance, 2: new instance on an already powered PM, 3: PM must be
    powered on."""

    node: int
    instance_id: Optional[int]
    category: int


@dataclass
class DemandOutcome:
    demand: object
    accepted: bool
    allocation: Optional[Allocation]
    reason: Optional[str]


@dataclass
class SolutionSet:
    outcomes: List[DemandOutcome]
    state: NetworkState
    network_power_w: float
    pm_power_w: float
    total_power_w: float
    mean_delay_ms: float
    acceptance: float
    runtime_s: float


def check_solution(solution: SolutionSet) -> List[str]:
    """Every problem of a reported solution: state.validate() (which
    rebuilds the state's indices from its allocations), the reported total
    power against total_power(state) within 1e-9 W (on a valid state), and
    the outcome records: a rejection has a reason and no allocation, an
    acceptance one route segment per hop between its waypoints."""
    bad = solution.state.validate()
    if not bad:
        recomputed = total_power(solution.state)
        if abs(recomputed - solution.total_power_w) > 1e-9:
            bad.append("reported power %r, recomputed %r"
                       % (solution.total_power_w, recomputed))
    for outcome in solution.outcomes:
        alloc = outcome.allocation
        if not outcome.accepted:
            if alloc is not None or not outcome.reason:
                bad.append("demand %d: bad rejection record"
                           % outcome.demand.id)
        elif len(alloc.route.segments) != len(alloc.assignments) + 1:
            bad.append("demand %d: segment count" % outcome.demand.id)
    return bad


def _edge_terms(graph: NetworkGraph, link: Link, src_lit: bool,
                dst_lit: bool, cable_lit: bool) -> Tuple[float, float]:
    """Normalized (power, delay) terms of one directed link, each in
    [0, 1]: power is what routing over the link would light (half a
    switch per dark endpoint, two ports for a dark cable) over the
    largest such cost, delay is over the longest link in the graph."""
    params = graph.power
    power = 0.0
    if not src_lit:
        power += params.switch_static_w / 2.0
    if not dst_lit:
        power += params.switch_static_w / 2.0
    if not cable_lit:
        power += 2.0 * params.port_w
    max_power = params.switch_static_w + 2.0 * params.port_w
    max_delay = graph.max_link_delay
    return (power / max_power if max_power > 0 else 0.0,
            link.delay / max_delay if max_delay > 0 else 0.0)


def _bfs(neighbors, src: int) -> Tuple[List[int], Dict[int, int], dict]:
    """Breadth-first search from src over sorted neighbour lists
    (neighbors(u) gives u's): the reached nodes in visiting order, their
    hop counts, and per node the neighbours one hop nearer src in visiting
    order, so preds[v][0] is the node that first reached v."""
    order, hops, preds = [src], {src: 0}, {src: []}
    for u in order:
        near = hops[u] + 1
        for v in neighbors(u):
            seen = hops.get(v)
            if seen is None:
                hops[v] = near
                preds[v] = [u]
                order.append(v)
            elif seen == near:
                preds[v].append(u)
    return order, hops, preds


class _IslandFacts:
    """What the walk reads of an island itself, the same for every demand
    routed in it: its nodes sorted, their index in that order, each node's
    island neighbours sorted (the canonical order adjacency codes follow),
    the largest PM core count, its directed links (pairs), and BFS hop
    counts from each origin asked for so far."""

    __slots__ = ("nodes", "index", "nbrs", "pairs", "max_cores", "_hops")

    def __init__(self, graph: NetworkGraph, island: BlockingIsland):
        self.nodes = sorted(island.nodes)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.nbrs: Dict[int, List[int]] = {n: [] for n in self.nodes}
        for a, b in island.internal_links:
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        for row in self.nbrs.values():
            row.sort()
        self.pairs = [(a, b) for a in self.nodes for b in self.nbrs[a]]
        self.max_cores = max(graph.node(n).pm.cores for n in self.nodes)
        self._hops: Dict[int, Dict[int, int]] = {}

    def hops(self, origin: int) -> Dict[int, int]:
        """BFS hop counts from origin over the island's links."""
        if origin not in self._hops:
            self._hops[origin] = _bfs(self.nbrs.__getitem__, origin)[1]
        return self._hops[origin]


class _RouteCache:
    """What the views of one place_all call share; it lives as long as the
    call, so nothing in it is evicted, and only a template can be stale.

    terms[(u, v)] holds the 8 adjacency entries (v, link, power, delay) of
    a directed link, indexed by src lit * 4 + dst lit * 2 + cable lit
    (_edge_terms gives the terms). island() gives an island's facts,
    keyed by its node and link sets, so an island rebuilt as a new object
    with equal sets maps to the same facts. An adjacency is keyed by the
    island's facts and one code per node in sorted order, which holds, per
    neighbour in sorted order, a base-9 digit: 0 if the link cannot carry
    the view's kb/s, else 1 + its lit bits. That pins every entry of every
    row, so two views with one key search the very same graph. trees maps
    each adjacency key to that adjacency's own table, which maps (src,
    gamma, omega) to the predecessor links of the full tree _settle grows
    for them: a pure function of the adjacency and that triple, so a hit
    is exactly what a new search would give. templates maps island facts
    to (state, lit_epoch, lit maps, adj, codes, trees) of the last full
    read at which every island link carried the view's kb/s: while the
    epoch holds and the links carry a view's kb/s, a full read gives it
    these very tables, whatever its kb/s."""

    __slots__ = ("graph", "terms", "trees", "templates", "_islands")

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.terms: Dict[Tuple[int, int], tuple] = {
            (link.src, link.dst): tuple(
                (link.dst, link, *_edge_terms(graph, link, bool(bits & 4),
                                              bool(bits & 2), bool(bits & 1)))
                for bits in range(8))
            for link in graph.links}
        self.trees: Dict[tuple, Dict[tuple, Dict[int, Link]]] = {}
        self.templates: Dict[_IslandFacts, tuple] = {}
        self._islands: Dict[tuple, _IslandFacts] = {}

    def island(self, island: BlockingIsland) -> _IslandFacts:
        key = (island.nodes, island.internal_links)
        facts = self._islands.get(key)
        if facts is None:
            facts = self._islands[key] = _IslandFacts(self.graph, island)
        return facts


class _ChainView:
    """The island as one demand's chain walk sees it: the committed state
    with the partial plan on top, the origin of the next chain position,
    and the walk's reads (residual, pm_active, switch_active,
    cable_active, hops from the origin, the search's adjacency and trees).
    Per island node, rows holds the instance rows [id, function name,
    free kb/s] (committed instances, then the plan's placeholders) and
    used the CPU cores in use, as in _PathTable.

    The committed state does not change while a demand is planned, so each
    table is read once and then patched. rows and used are read from the
    NetworkState's own indices; the lit maps, adj, codes and trees are
    copied from the island's template (see _RouteCache) when it is valid,
    else read in full through refill. Views share the template's adjacency
    rows, as refill replaces adj[u] and never mutates it, but copy its lit
    maps, which add_segment mutates. A planned segment debits its links,
    lights its cables and switches and refills the adjacency of the nodes
    whose links changed (its link sources, and the ends and island
    neighbours of what it newly lit); an assignment debits its instance's
    row, or appends a placeholder row and adds its function's cores.
    Placeholder ids are -1, -2, ... in creation order, as apply_allocation
    expects.

    What does not depend on the plan comes from the run's _RouteCache:
    the edge terms, the island's facts and hop counts, the template, and
    the search trees, which earlier positions and views may already have
    grown over the same adjacency."""

    def __init__(self, state: NetworkState, island: BlockingIsland, src: int,
                 kbps: int, cache: _RouteCache):
        self.state = state
        self.graph = state.graph
        self.cache = cache
        self.facts = cache.island(island)
        self.nodes = self.facts.nodes
        self.kbps = kbps
        self.origin = src
        hosted, cores_used = state.node_instances, state.cores_used
        self.rows: Dict[int, List[list]] = {
            n: [[inst.id, inst.function.name, inst.residual_kbps]
                for inst in hosted[n].values()] for n in self.nodes}
        self.used = {n: cores_used[n] for n in self.nodes}
        self._debit: Dict[Tuple[int, int], int] = {}
        self._next_placeholder = -1
        # the island's links that can carry kbps, each with its normalized
        # power and delay terms, and per node its adjacency code; refill
        # sets trees, the run cache's tree table of the whole adjacency
        full = min(map(state.residual_kbps.__getitem__, self.facts.pairs),
                   default=kbps) >= kbps
        kept = cache.templates.get(self.facts)
        if full and kept and kept[0] is state and kept[1] == state.lit_epoch:
            lit_switch, lit_cable, adj, codes, self.trees = kept[2:]
            self.lit = (dict(lit_switch), dict(lit_cable))
            self.adj, self._codes = dict(adj), list(codes)
            return
        lit_cables, use = state.lit_cables, state.link_use
        self.lit = ({n: lit_cables[n] > 0 for n in self.nodes},
                    {(a, b): use[(a, b)] > 0 or use[(b, a)] > 0
                     for a, b in island.internal_links})
        self.adj: Dict[int, List[Tuple[int, Link, float, float]]] = {}
        self._codes = [0] * len(self.nodes)
        self.refill(self.nodes)
        if full:
            cache.templates[self.facts] = (
                state, state.lit_epoch, dict(self.lit[0]), dict(self.lit[1]),
                dict(self.adj), list(self._codes), self.trees)

    def residual(self, src: int, dst: int) -> int:
        pair = (src, dst)
        return self.state.residual_kbps[pair] - self._debit.get(pair, 0)

    def pm_active(self, node: int) -> bool:
        return bool(self.rows[node])

    def switch_active(self, node: int) -> bool:
        return self.lit[0][node]

    def cable_active(self, a: int, b: int) -> bool:
        return self.lit[1][(a, b) if a < b else (b, a)]

    def refill(self, nodes: Iterable[int]) -> None:
        """Re-read the links out of nodes, with their codes, and look up
        the adjacency's tree table. Any edge order gives the same trees:
        heap ties are broken by node id."""
        residual, debit, kbps = self.state.residual_kbps, self._debit, self.kbps
        terms = self.cache.terms
        lit_switch, lit_cable = self.lit
        facts, codes = self.facts, self._codes
        for u in nodes:
            row = []
            code = 0
            src_bit = lit_switch[u] << 2
            for v in facts.nbrs[u]:
                code *= 9
                if residual[(u, v)] - debit.get((u, v), 0) >= kbps:
                    bits = (src_bit | lit_switch[v] << 1
                            | lit_cable[(u, v) if u < v else (v, u)])
                    row.append(terms[(u, v)][bits])
                    code += 1 + bits
            self.adj[u] = row
            codes[facts.index[u]] = code
        self.trees = self.cache.trees.setdefault((facts, tuple(codes)), {})

    def route(self, src: int, dst: int, gamma: float,
              omega: float) -> Optional[List[Link]]:
        """Min-weight path src -> dst over the adjacency, read from the
        full tree of src, which is grown on first use and kept in the
        run's cache; [] if src is dst, None if dst is out of reach."""
        if src == dst:
            return []
        key = (src, gamma, omega)
        pred = self.trees.get(key)
        if pred is None:
            pred = self.trees[key] = _settle(self.adj, src, gamma, omega)
        if dst not in pred:
            return None
        path = []
        while dst != src:
            link = pred[dst]
            path.append(link)
            dst = link.src
        path.reverse()
        return path

    def add_segment(self, links: Tuple[Link, ...]) -> None:
        """Plan links from the origin on; they end at the new origin."""
        if not links:
            return
        lit_switch, lit_cable = self.lit
        touched = set()
        for link in links:
            pair = (link.src, link.dst)
            self._debit[pair] = self._debit.get(pair, 0) + self.kbps
            touched.add(link.src)                   # its residual fell
            cable = link.cable
            if not lit_cable[cable]:
                lit_cable[cable] = True
                touched.update(cable)
            for node in cable:
                if not lit_switch[node]:
                    lit_switch[node] = True
                    touched.update(self.facts.nbrs[node], (node,))
        self.refill(touched)
        self.origin = links[-1].dst

    def add_assignment(self, function: FunctionType, node: int,
                       instance_id: Optional[int]) -> int:
        """Plan one chain position on the instance, or on a new one if
        instance_id is None; returns the (placeholder) instance id."""
        if instance_id is None:
            instance_id = self._next_placeholder
            self._next_placeholder -= 1
            self.rows[node].append([instance_id, function.name,
                                    to_kbps(function.processing_capacity)])
            self.used[node] += function.cores
        for row in self.rows[node]:
            if row[0] == instance_id:
                row[2] -= self.kbps
        return instance_id


def _settle(adj: dict, src: int, gamma: float,
            omega: float) -> Dict[int, Link]:
    """Dijkstra from src over the adjacency, each edge weighing
    gamma * power + omega * delay, until every reachable node is settled.
    Labels are (weight, delay, hops) and heap ties go to the lower node
    id, so results are reproducible. Returns the predecessor links of the
    full tree."""
    push, pop = heapq.heappush, heapq.heappop
    best: Dict[int, Tuple[float, float, int]] = {src: (0.0, 0.0, 0)}
    pred: Dict[int, Link] = {}
    heap = [(0.0, 0.0, 0, src)]
    done = set()
    while heap:
        weight, delay, hops, u = pop(heap)
        if u in done:
            continue
        done.add(u)
        for v, link, power, delay_term in adj[u]:
            if v in done:
                continue
            total = weight + (gamma * power + omega * delay_term)
            old = best.get(v)
            if old is not None and total > old[0]:
                continue            # the label below cannot be smaller
            cand = (total, delay + link.delay, hops + 1)
            if old is None or cand < old:
                best[v] = cand
                pred[v] = link
                push(heap, (*cand, v))
    return pred


def calculate_best_path(view: _ChainView, pm: int, dst: int, budget_ms: float,
                        weight_step: float, stats: Optional[dict] = None
                        ) -> Optional[Tuple[Tuple[Link, ...], Tuple[Link, ...], float, float]]:
    """Route the view's origin -> pm -> dst inside its island within the
    delay budget, at the view's kb/s.

    Weight setting k weighs edges by gamma = 1 - k * weight_step on power
    and omega = k * weight_step on delay: the search starts power-only and
    shifts emphasis toward delay while the result misses the budget. Gives
    up once the mix would leave no power emphasis at all, or at the first
    segment with no route: the adjacency, and so whether a route exists,
    does not depend on the weights. Returns (entry segment, exit segment,
    entry delay, exit delay); None if no setting meets the budget. Both
    segments are read from full trees (_ChainView.route): the candidates
    of one position share the origin's tree, and a tree out of a PM serves
    both that PM's exit and, once the walk stands on it, the next
    position's entries, for every view of the place_all call with the same
    adjacency (see _RouteCache). place_all checks weight_step.

    Every link of the view's adjacency has the kb/s spare and a tree path
    repeats no link, so only a link on both segments can lack room: it
    carries the demand twice.
    """
    settings = 0
    found = None
    while True:
        gamma = 1.0 - settings * weight_step
        omega = settings * weight_step
        if gamma < _EPS or omega > 1.0 - _EPS:
            break
        settings += 1
        seg1 = view.route(view.origin, pm, gamma, omega)
        if seg1 is None:
            break
        seg2 = view.route(pm, dst, gamma, omega)
        if seg2 is None:
            break
        if seg1 and seg2:
            pairs = {(l.src, l.dst) for l in seg1}
            if any((l.src, l.dst) in pairs
                   and view.residual(l.src, l.dst) < 2 * view.kbps
                   for l in seg2):
                continue
        d1 = sum(l.delay for l in seg1)
        d2 = sum(l.delay for l in seg2)
        if not over_budget(d1 + d2, budget_ms):
            found = tuple(seg1), tuple(seg2), d1, d2
            break
    if stats is not None:
        stats["path_searches"] = stats.get("path_searches", 0) + 1
        stats["weight_settings_max"] = max(
            stats.get("weight_settings_max", 0), settings)
    return found


def _best_row(rows: List[list], name: str, kbps: int) -> Optional[list]:
    """The best-fit row of the named function with kbps spare: least free
    kb/s, then lowest id; None if no row has kbps spare."""
    best = None
    for row in rows:
        free = row[2]
        if (free >= kbps and row[1] == name
                and (best is None or free < best[2]
                     or (free == best[2] and row[0] < best[0]))):
            best = row
    return best


def get_candidate_pms(view: _ChainView, function: FunctionType,
                      reuse: bool) -> List[Candidate]:
    """The view's island PMs able to host the function at its kb/s, in
    (category, node) order. With reuse, the category-1 candidates: each
    node with a row of the function that has the kb/s spare, on its
    best-fit row. Without, the nodes with no such row where a new instance
    can carry the kb/s and the cores in use leave it room, category 2 (any
    row means the PM is on) before 3. The two lists together are every
    candidate, cheapest category first. A node with no rows runs no
    instance, so its rows are not scanned."""
    name, kbps = function.name, view.kbps
    out = []
    if reuse:
        for node in view.nodes:
            rows = view.rows[node]
            if rows:
                best = _best_row(rows, name, kbps)
                if best is not None:
                    out.append(Candidate(node, best[0], 1))
        return out
    if to_kbps(function.processing_capacity) < kbps:
        return out
    graph = view.graph
    for node in view.nodes:
        rows = view.rows[node]
        if ((not rows or _best_row(rows, name, kbps) is None)
                and fits(view.used[node], function.cores,
                         graph.node(node).pm.cores)):
            out.append(Candidate(node, None, 2 if rows else 3))
    out.sort(key=lambda c: c.category)
    return out


def _best_candidate(view: _ChainView, function: FunctionType, dst: int,
                    budget_ms: float, weight_step: float,
                    stats: Optional[dict] = None):
    """One chain position: ((candidate, seg1, seg2, d1, d2), None) for the
    candidate of least key (incremental cost, hop distance from the view's
    origin, category, node id); (None, "no-pm") if no PM can host the
    function, (None, "no-path") if no candidate can be routed.

    Candidates are routed in listing order, (category, hops, node), which
    is not the key's order: hops come before category in the key. A
    candidate is not routed when it cannot beat the winner so far. Its
    cost is its PM cost lb (incremental_pm_cost) plus the watts its links
    light; power ratings are non-negative, so that sum is never below lb,
    in floats too. So when (lb, hops, category, node) is above the
    winner's key, the candidate's own key is too: either lb is above the
    best cost, or it is equal and the candidate can at best tie on cost
    and then lose the tie-break. Once a reuse candidate routes at 0 W, no
    later reuse candidate is routed.
    A new instance costs at least the load slope of its function on the
    island's largest PM (pm_load_slope), so the new-instance candidates
    are listed only when no reuse candidate was routed or the best cost is
    not below that floor: at a floor of 0 W a category-2 candidate nearer
    the origin is still routed against a 0 W reuse. The winner is that of
    a full scan."""
    hops = view.facts.hops(view.origin)
    inf = math.inf
    best = None
    best_key = None
    listed = False
    for reuse in (True, False):
        if not reuse and best_key is not None:
            floor = pm_load_slope(view.graph.power, function.cores,
                                  view.facts.max_cores)
            if best_key[0] < floor:
                break
        candidates = get_candidate_pms(view, function, reuse)
        listed = listed or bool(candidates)
        candidates.sort(key=lambda c: (c.category, hops.get(c.node, inf),
                                       c.node))
        for cand in candidates:
            tail = (hops.get(cand.node, inf), cand.category, cand.node)
            if best_key is not None and (incremental_pm_cost(
                    view, cand.node, cand.instance_id, function),
                    *tail) > best_key:
                continue            # its key can only be above best_key
            found = calculate_best_path(view, cand.node, dst, budget_ms,
                                        weight_step, stats)
            if found is None:
                continue
            seg1, seg2, d1, d2 = found
            cost = incremental_cost(view, cand.node, cand.instance_id,
                                    function, seg1 + seg2)
            key = (cost, *tail)
            if best_key is None or key < best_key:
                best_key = key
                best = (cand, seg1, seg2, d1, d2)
    if best is None:
        return None, "no-path" if listed else "no-pm"
    return best, None


def _plan_in_island(state: NetworkState, island: BlockingIsland, demand,
                    weight_step: float, cache: _RouteCache,
                    stats: Optional[dict] = None
                    ) -> Tuple[Optional[Allocation], Optional[str]]:
    """Greedy chain walk inside one island on one _ChainView, which holds
    the plan so far and shares the run's cache. Returns a planned
    allocation with placeholder instance ids, or (None, reason), "delay"
    also when the plan's _route_delay (the commit's sum) is over_budget."""
    kbps = demand.bandwidth_kbps
    processing = sum(f.processing_delay for f in demand.chain)
    if over_budget(processing, demand.delay_budget):
        return None, "delay"
    budget = demand.delay_budget - processing
    view = _ChainView(state, island, demand.src, kbps, cache)
    spent = 0.0
    segments: List[Tuple[Link, ...]] = []
    assignments: List[FunctionAssignment] = []
    for function in demand.chain:
        best, reason = _best_candidate(view, function, demand.dst,
                                       budget - spent, weight_step, stats)
        if best is None:
            return None, reason
        cand, seg1, seg2, d1, d2 = best
        view.add_segment(seg1)
        inst_id = view.add_assignment(function, cand.node, cand.instance_id)
        assignments.append(FunctionAssignment(function, cand.node, inst_id))
        segments.append(seg1)
        spent += d1
    segments.append(seg2)
    spent += d2
    alloc = Allocation(demand.id, tuple(assignments), Route(tuple(segments)),
                       spent + processing, kbps)
    if over_budget(_route_delay(alloc), demand.delay_budget):
        return None, "delay"
    return alloc, None


def place_all(graph: NetworkGraph, demands: Iterable, betas_mbps: List[float],
              mode: str = "lbi", weight_step: float = 0.25,
              stats: Optional[dict] = None) -> SolutionSet:
    """Serve demands one by one with island-confined greedy placement.

    Rejected demands leave no trace on the state; the island hierarchy
    is kept in sync incrementally after every accepted demand.
    weight_step is the path search's reweighting step (see
    calculate_best_path). runtime_s covers the whole call.
    """
    start = time.perf_counter()
    _check_step(weight_step)
    if mode not in ("hbi", "lbi"):
        raise ValueError("mode must be 'hbi' or 'lbi', got %r" % mode)
    state = NetworkState(graph)
    outcomes: List[DemandOutcome] = []
    hierarchy = build_bih(state, betas_mbps)
    cache = _RouteCache(graph)
    for demand in read_demands(graph, demands):
        island = hierarchy.select(demand.src, demand.dst,
                                  demand.bandwidth_kbps, mode)
        if island is None:
            outcomes.append(DemandOutcome(demand, False, None, "no-island"))
            continue
        planned, reason = _plan_in_island(state, island, demand, weight_step,
                                          cache, stats)
        if planned is None:
            outcomes.append(DemandOutcome(demand, False, None, reason))
            continue
        committed = state.apply_allocation(planned, demand)
        hierarchy.update_on_allocation(state, committed.route)
        outcomes.append(DemandOutcome(demand, True, committed, None))
    return _finish(outcomes, state, start)


def _finish(outcomes: List[DemandOutcome], state: NetworkState,
            start: float) -> SolutionSet:
    """Price the final state; the runtime runs from start to the end of
    the pricing."""
    accepted = [o for o in outcomes if o.accepted]
    delays = [o.allocation.total_delay_ms for o in accepted]
    mean_delay = sum(delays) / len(delays) if delays else math.nan
    net = network_power(state)
    pm = pm_power_total(state)
    rate = len(accepted) / len(outcomes) if outcomes else 0.0
    return SolutionSet(outcomes, state, net, pm, net + pm, mean_delay,
                       rate, time.perf_counter() - start)


# -- centrality baseline -------------------------------------------------


def betweenness(graph: NetworkGraph) -> Dict[int, float]:
    """Shortest-path betweenness, summed over ordered node pairs."""
    scores = {n.id: 0.0 for n in graph.nodes}
    for s in sorted(scores):
        order, _, preds = _bfs(graph.neighbors, s)
        sigma = {s: 1}
        for w in order[1:]:
            sigma[w] = sum(sigma[v] for v in preds[w])
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return scores


class _PathTable:
    """What the centrality search reads of one demand's path, read once
    from the NetworkState's own indices and then patched in place by trial
    assignments. Per path position: the node's instance rows
    [id, function name, free kb/s] (committed instances, then the plan's
    placeholders; the shape _ChainView keeps), the CPU cores in use on the
    node and the PM's cores.
    next_placeholder is the id the next new instance gets (-1, -2, ...,
    as apply_allocation expects). backtracks counts the search's failed
    trials, and last is its suffix bound, None until it is computed."""

    __slots__ = ("state", "path", "rows", "used", "caps", "next_placeholder",
                 "backtracks", "last")

    def __init__(self, state: NetworkState, path: List[int]):
        self.state = state
        self.path = path
        hosted, nodes = state.node_instances, state.graph.nodes
        self.rows = [[[inst.id, inst.function.name, inst.residual_kbps]
                      for inst in hosted[node].values()] for node in path]
        self.used = [state.cores_used[node] for node in path]
        self.caps = [nodes[node].pm.cores for node in path]
        self.next_placeholder = -1
        self.backtracks = 0
        self.last: Optional[List[int]] = None


def _suffix_bound(table: _PathTable, chain, kbps: int) -> List[int]:
    """last[k]: the highest position at or below last[k+1] where chain[k]
    fits on the committed state, read into a fresh table (room for a new
    instance that can carry kbps, or a row of it with kbps spare), -1 if
    none. A plan only takes capacity away, an instance it starts holds a
    function that fitted there, and positions never decrease along the
    chain, so no complete assignment puts chain[k] beyond last[k]."""
    fresh = _PathTable(table.state, table.path)
    last = []
    top = len(table.path) - 1
    for function in reversed(chain):
        new_fits = to_kbps(function.processing_capacity) >= kbps
        while top >= 0 and not (
                new_fits and fits(fresh.used[top], function.cores,
                                  fresh.caps[top])
                or _best_row(fresh.rows[top], function.name, kbps)):
            top -= 1
        last.append(top)
    last.reverse()
    return last


def _assign_on_path(table: _PathTable, chain, kbps: int, pref: List[int],
                    k: int = 0, min_pos: int = 0
                    ) -> Optional[Tuple[List[int], List[FunctionAssignment]]]:
    """Depth-first assignment of chain[k:] to path positions >= min_pos,
    trying the most central nodes first (pref) and backtracking when the
    tail of the chain cannot fit. Returns the first complete assignment.

    A trial debits the function's best-fit row (least free kb/s, then
    lowest id, over committed and placeholder rows), or, if no row has
    kbps spare, a new instance can carry kbps and the PM has room, a new
    placeholder row whose cores it adds. A failed subtree undoes
    exactly its patch, so placeholder ids follow the trial order and a
    None leaves the table as read.

    Once the search has backtracked path length x chain length times,
    table.last caps every chain position (_suffix_bound): a demand whose
    tail fits nowhere late on a long path is refused after about that
    many trials instead of every nondecreasing position tuple. Searches
    that backtrack less, nearly all of them, would spend more on the
    bound than it saves."""
    if k == len(chain):
        return [], []
    function = chain[k]
    name = function.name
    rows = table.rows
    hi = len(pref) - 1 if table.last is None else table.last[k]
    for pos in pref:
        if pos < min_pos or pos > hi:
            continue
        best = _best_row(rows[pos], name, kbps)
        started = best is None
        if started:
            if not fits(table.used[pos], function.cores, table.caps[pos]):
                continue
            free = to_kbps(function.processing_capacity)
            if free < kbps:
                continue
            best = [table.next_placeholder, name, free]
            table.next_placeholder -= 1
            rows[pos].append(best)
            table.used[pos] += function.cores
        best[2] -= kbps
        tail = _assign_on_path(table, chain, kbps, pref, k + 1, pos)
        if tail is not None:
            return ([pos] + tail[0], [FunctionAssignment(
                function, table.path[pos], best[0])] + tail[1])
        best[2] += kbps
        if started:
            rows[pos].pop()
            table.used[pos] -= function.cores
            table.next_placeholder += 1
        table.backtracks += 1
        if table.backtracks == len(pref) * len(chain):
            table.last = _suffix_bound(table, chain, kbps)
        if table.last is not None:
            hi = table.last[k]
    return None


def _pair_route(graph: NetworkGraph, scores: Dict[int, float], src: int,
                dst: int, trees: dict) -> Optional[tuple]:
    """The fixed route of an endpoint pair: its BFS node path, the path's
    links, the sum of their delays and the path positions most central
    first; None if dst cannot be reached. The path follows first
    predecessors back from dst in trees[src], searched if missing."""
    preds = trees.get(src)
    if preds is None:
        preds = trees[src] = _bfs(graph.neighbors, src)[2]
    if dst not in preds:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(preds[path[-1]][0])
    path.reverse()
    links = tuple(graph.link(path[i], path[i + 1])
                  for i in range(len(path) - 1))
    pref = sorted(range(len(path)), key=lambda i: (-scores[path[i]], path[i]))
    return path, links, Route((links,)).propagation_ms, pref


def _plan_on_path(state: NetworkState, route, demand
                  ) -> Tuple[Optional[Allocation], Optional[str]]:
    """Stack the chain onto the pair's fixed route (see _pair_route), most
    central nodes first, never moving backwards, so the traffic crosses
    each path link once. Per demand only the links' residuals, the delay
    budget and a fresh _PathTable of the path's nodes are read."""
    path, links, link_delay, pref = route
    kbps = demand.bandwidth_kbps
    for link in links:
        if state.residual_kbps[(link.src, link.dst)] < kbps:
            return None, "bandwidth"
    processing = sum(f.processing_delay for f in demand.chain)
    total_delay = link_delay + processing
    if over_budget(total_delay, demand.delay_budget):
        return None, "delay"
    found = _assign_on_path(_PathTable(state, path), demand.chain, kbps, pref)
    if found is None:
        return None, "no-pm"
    positions, assignments = found
    segments = []
    prev = 0
    for pos in positions:
        segments.append(links[prev:pos])
        prev = pos
    segments.append(links[prev:])
    alloc = Allocation(demand.id, tuple(assignments), Route(tuple(segments)),
                       total_delay, kbps)
    return alloc, None


def bc_place_all(graph: NetworkGraph, demands: Iterable) -> SolutionSet:
    """Centrality baseline: hop-shortest routes, chain stacked on the
    most central path nodes with room. No detours are attempted. A run
    searches each source's BFS tree once, each pair's route once, and
    keeps both in run-local tables; a demand then only checks residuals
    and plans on a path table (_PathTable) read for it alone. runtime_s
    covers the whole call."""
    start = time.perf_counter()
    state = NetworkState(graph)
    outcomes: List[DemandOutcome] = []
    scores = betweenness(graph)
    trees: Dict[int, Dict[int, List[int]]] = {}
    routes: Dict[Tuple[int, int], Optional[tuple]] = {}
    for demand in read_demands(graph, demands):
        key = (demand.src, demand.dst)
        if key not in routes:
            routes[key] = _pair_route(graph, scores, *key, trees)
        route = routes[key]
        if route is None:
            outcomes.append(DemandOutcome(demand, False, None, "no-path"))
            continue
        planned, reason = _plan_on_path(state, route, demand)
        if planned is None:
            outcomes.append(DemandOutcome(demand, False, None, reason))
            continue
        committed = state.apply_allocation(planned, demand)
        outcomes.append(DemandOutcome(demand, True, committed, None))
    return _finish(outcomes, state, start)
