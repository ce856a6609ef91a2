"""Chain placement and routing heuristics.

Two families are provided. place_all clusters the substrate into
blocking islands, confines each demand to one island chosen by free
bandwidth (mode 'lbi' prefers the largest qualifying island, 'hbi' the
smallest), then walks the chain function by function, picking the
(PM, route) pair of least incremental power; the walk reads the island
once per demand and patches what it read as each position is planned.
bc_place_all is a centrality baseline: every demand follows its
hop-shortest path and functions are stacked on the most central path
nodes with capacity. Each endpoint pair's route is found once per run;
a demand then checks residuals and searches on a path table, its path
nodes' instances and resources read once and patched in place, with
trials undone on backtrack.

Path search weighs edges by a convex mix of normalized power and
normalized delay. Searches start power-only and shift weight toward
delay in fixed steps while the found route misses the delay budget.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .bih import BlockingIsland, build_bih
from .netstate import (Allocation, FunctionAssignment, NetworkState, Route,
                       StateOverlay, VnfInstance, to_kbps)
from .power import (incremental_cost, incremental_pm_cost, network_power,
                    pm_power_total)
from .topology import FunctionType, Link, NetworkGraph

_EPS = 1e-9


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


# (switch -> lit, cable -> lit) over one island
_LitMaps = Tuple[Dict[int, bool], Dict[Tuple[int, int], bool]]


def _lit_maps(statelike, island: BlockingIsland) -> _LitMaps:
    """Which switches of the island and which of its cables are lit."""
    return ({n: statelike.switch_active(n) for n in island.nodes},
            {c: statelike.cable_active(*c) for c in island.internal_links})


def _island_nbrs(island: BlockingIsland) -> Dict[int, List[int]]:
    """Each island node's neighbours over the island's cables."""
    nbrs: Dict[int, List[int]] = {n: [] for n in island.nodes}
    for a, b in island.internal_links:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


class _IslandSearch:
    """Path-search state shared by the candidates of one chain walk: the
    island's links that can carry kbps, each with its normalized power and
    delay terms, and the trees searched over them. lit, the island's
    (switch, cable) lit maps, is read from statelike when not given; when
    either changes, refill patches the links out of the nodes it touched."""

    def __init__(self, statelike, island: BlockingIsland, kbps: int,
                 lit: Optional[_LitMaps] = None,
                 nbrs: Optional[Dict[int, List[int]]] = None):
        self._state, self._kbps = statelike, kbps
        self._lit = lit if lit is not None else _lit_maps(statelike, island)
        self._nbrs = nbrs if nbrs is not None else _island_nbrs(island)
        self.adj: Dict[int, List[Tuple[int, Link, float, float]]] = {}
        self._trees: Dict[tuple, Dict[int, Link]] = {}
        self.refill(island.nodes)

    def refill(self, nodes: Iterable[int]) -> None:
        """Re-read the links out of nodes and drop the trees. Any edge order
        gives the same trees: heap ties are broken by node id."""
        statelike, kbps = self._state, self._kbps
        graph = statelike.graph
        lit_switch, lit_cable = self._lit
        for u in nodes:
            row = []
            for v in self._nbrs[u]:
                if statelike.residual(u, v) >= kbps:
                    link = graph.link(u, v)
                    row.append((v, link, *_edge_terms(
                        graph, link, lit_switch[u], lit_switch[v],
                        lit_cable[(u, v) if u < v else (v, u)])))
            self.adj[u] = row
        self._trees.clear()

    def entry(self, src: int, pm: int, gamma: float,
              omega: float) -> Optional[List[Link]]:
        """Min-weight path src -> pm, read from the forward tree of src,
        which is built on first use."""
        key = (src, gamma, omega)
        if key not in self._trees:
            self._trees[key] = _settle(self.adj, src, None, gamma, omega)
        return _path(self._trees[key], src, pm)

    def exit(self, pm: int, dst: int, gamma: float,
             omega: float) -> Optional[List[Link]]:
        """Min-weight path pm -> dst, searched until dst is settled; the
        search is kept, as co-located positions repeat it."""
        key = (pm, gamma, omega, dst)
        if key not in self._trees:
            self._trees[key] = _settle(self.adj, pm, dst, gamma, omega)
        return _path(self._trees[key], pm, dst)


def _settle(adj: dict, src: int, dst: Optional[int], gamma: float,
            omega: float) -> Dict[int, Link]:
    """Dijkstra from src over the adjacency, each edge weighing
    gamma * power + omega * delay. Labels are (weight, delay, hops) and
    heap ties go to the lower node id, so results are reproducible. A
    node's predecessor link is fixed when it is settled, so stopping once
    dst is settled yields the same path to dst as the full tree (dst
    None). Returns the predecessor links."""
    best: Dict[int, Tuple[float, float, int]] = {src: (0.0, 0.0, 0)}
    pred: Dict[int, Link] = {}
    heap = [(0.0, 0.0, 0, src)]
    done = set()
    while heap:
        weight, delay, hops, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for v, link, power, delay_term in adj[u]:
            if v in done:
                continue
            cand = (weight + (gamma * power + omega * delay_term),
                    delay + link.delay, hops + 1)
            if v not in best or cand < best[v]:
                best[v] = cand
                pred[v] = link
                heapq.heappush(heap, (*cand, v))
    return pred


def _path(pred: Dict[int, Link], src: int, dst: int) -> Optional[List[Link]]:
    if src == dst:
        return []
    if dst not in pred:
        return None
    path = []
    at = dst
    while at != src:
        link = pred[at]
        path.append(link)
        at = link.src
    path.reverse()
    return path


def calculate_best_path(statelike, island: BlockingIsland, src: int, pm: int,
                        dst: int, kbps: int, budget_ms: float,
                        weight_step: float, stats: Optional[dict] = None,
                        search: Optional[_IslandSearch] = None
                        ) -> Optional[Tuple[Tuple[Link, ...], Tuple[Link, ...], float, float]]:
    """Route src -> pm -> dst inside the island within the delay budget.

    Weight setting k weighs edges by gamma = 1 - k * weight_step on
    power and omega = k * weight_step on delay: the search starts
    power-only and shifts emphasis toward delay while the result misses
    the budget. Gives up once the mix would leave no power emphasis at
    all. Returns (entry segment, exit segment, entry delay, exit delay);
    None if no setting meets the budget.
    search, if given, must have been built from the same statelike,
    island and kbps; candidates sharing it share their entry trees.
    """
    _check_step(weight_step)
    if search is None:
        search = _IslandSearch(statelike, island, kbps)
    settings = 0
    found = None
    while True:
        gamma = 1.0 - settings * weight_step
        omega = settings * weight_step
        if gamma < _EPS or omega > 1.0 - _EPS:
            break
        settings += 1
        seg1 = search.entry(src, pm, gamma, omega)
        if seg1 is None:
            continue
        seg2 = search.exit(pm, dst, gamma, omega)
        if seg2 is None:
            continue
        # both segments carry the demand; shared links must fit twice
        need: Dict[Tuple[int, int], int] = {}
        for link in seg1 + seg2:
            pair = (link.src, link.dst)
            need[pair] = need.get(pair, 0) + kbps
        if any(statelike.residual(*pair) < total for pair, total in need.items()):
            continue
        d1 = sum(l.delay for l in seg1)
        d2 = sum(l.delay for l in seg2)
        if d1 + d2 <= budget_ms + _EPS:
            found = tuple(seg1), tuple(seg2), d1, d2
            break
    if stats is not None:
        stats["path_searches"] = stats.get("path_searches", 0) + 1
        stats["weight_settings_max"] = max(
            stats.get("weight_settings_max", 0), settings)
    return found


def get_candidate_pms(statelike, function: FunctionType,
                      island: BlockingIsland, kbps: int) -> List[Candidate]:
    """Island PMs able to host the function, cheapest category first.

    Reads each node's instances once: a best-fit instance of the function
    with kbps spare (least free kb/s, then id) makes the node category 1,
    as find_reusable would pick it; otherwise, if a new instance can carry
    kbps at all, the resources in use decide whether the function fits,
    as has_room would, and any instance at all means the PM is on
    (pm_active).
    """
    graph = statelike.graph
    name = function.name
    new_fits = to_kbps(function.processing_capacity) >= kbps
    out = []
    for node in sorted(island.nodes):
        best = None
        used: Dict[str, int] = {}
        powered = False
        for inst, free in statelike.hosted(node):
            powered = True
            if inst.function.name == name and free >= kbps:
                key = (free, inst.id)
                if best is None or key < best:
                    best = key
            for res, amount in inst.function.requirements.items():
                used[res] = used.get(res, 0) + amount
        if best is not None:
            out.append(Candidate(node, best[1], 1))
            continue
        cap = graph.node(node).pm.capacity
        if new_fits and all(used.get(res, 0) + amount <= cap.get(res, 0)
                            for res, amount in function.requirements.items()):
            out.append(Candidate(node, None, 2 if powered else 3))
    out.sort(key=lambda c: (c.category, c.node))
    return out


class _ChainView:
    """The island as one demand's chain walk sees it: the overlay with the
    partial plan, the origin of the next chain position, the path search
    and hop counts from that origin, and the reads of candidate listing
    and pricing (hosted, pm_active, switch_active, cable_active).

    The committed state does not change while a demand is planned, so
    each table is read once and then patched: a planned segment lights its
    cables and switches, and the search refills the nodes whose links it
    changed (its link sources, and the ends and island neighbours of what
    it newly lit); an assignment re-reads its node's hosted rows."""

    def __init__(self, overlay: StateOverlay, island: BlockingIsland,
                 src: int, kbps: int):
        self.overlay = overlay
        self.graph = overlay.graph
        self.island = island
        self.kbps = kbps
        self.origin = src
        self.lit = _lit_maps(overlay, island)
        self._nbrs = _island_nbrs(island)
        self._rows: Dict[int, List[Tuple[VnfInstance, int]]] = {
            n: list(overlay.hosted(n)) for n in island.nodes}
        self._search: Optional[_IslandSearch] = None
        self._hops: Optional[Dict[int, int]] = None

    def hosted(self, node: int) -> List[Tuple[VnfInstance, int]]:
        return self._rows[node]

    def pm_active(self, node: int) -> bool:
        return bool(self.hosted(node))

    def switch_active(self, node: int) -> bool:
        return self.lit[0][node]

    def cable_active(self, a: int, b: int) -> bool:
        return self.lit[1][(a, b) if a < b else (b, a)]

    def search(self) -> _IslandSearch:
        if self._search is None:
            self._search = _IslandSearch(self.overlay, self.island,
                                         self.kbps, self.lit, self._nbrs)
        return self._search

    def hops(self) -> Dict[int, int]:
        """BFS hop counts from the origin over the island's links."""
        if self._hops is None:
            hops = {self.origin: 0}
            queue = deque([self.origin])
            while queue:
                u = queue.popleft()
                for v in self._nbrs[u]:
                    if v not in hops:
                        hops[v] = hops[u] + 1
                        queue.append(v)
            self._hops = hops
        return self._hops

    def add_segment(self, links: Tuple[Link, ...]) -> None:
        """Plan links from the origin on; they end at the new origin."""
        self.overlay.add_links(links, self.kbps)
        if not links:
            return
        lit_switch, lit_cable = self.lit
        touched = {link.src for link in links}      # their residuals fell
        for link in links:
            cable = link.cable
            if not lit_cable[cable]:
                lit_cable[cable] = True
                touched.update(cable)
            for node in cable:
                if not lit_switch[node]:
                    lit_switch[node] = True
                    touched.update(self._nbrs[node], (node,))
        if self._search is not None:
            self._search.refill(touched)
        self.origin = links[-1].dst
        self._hops = None

    def add_assignment(self, function: FunctionType, node: int,
                       instance_id: Optional[int]) -> int:
        """StateOverlay.add_assignment, keeping the node's rows current."""
        inst_id = self.overlay.add_assignment(function, node, instance_id,
                                              self.kbps)
        self._rows[node] = list(self.overlay.hosted(node))
        return inst_id


def _best_candidate(view: _ChainView, function: FunctionType,
                    candidates: List[Candidate], dst: int, budget_ms: float,
                    weight_step: float, stats: Optional[dict] = None):
    """The (candidate, seg1, seg2, d1, d2) of least incremental cost,
    ties broken by hop distance from the view's origin, category and node
    id; None if no candidate can be routed. Power ratings are
    non-negative, so links never cost less than nothing and a candidate
    whose PM cost alone exceeds the best cost so far cannot win; it is
    not routed."""
    hops = view.hops()
    inf = math.inf
    candidates = sorted(candidates,
                        key=lambda c: (c.category, hops.get(c.node, inf), c.node))
    search = view.search()
    best = None
    best_key = None
    for cand in candidates:
        if best_key is not None and incremental_pm_cost(
                view, cand.node, cand.instance_id, function) > best_key[0]:
            continue
        found = calculate_best_path(view.overlay, view.island, view.origin,
                                    cand.node, dst, view.kbps, budget_ms,
                                    weight_step, stats, search)
        if found is None:
            continue
        seg1, seg2, d1, d2 = found
        cost = incremental_cost(view, cand.node, cand.instance_id,
                                function, seg1 + seg2)
        key = (cost, hops.get(cand.node, inf), cand.category, cand.node)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, seg1, seg2, d1, d2)
    return best


def _plan_in_island(state: NetworkState, island: BlockingIsland, demand,
                    weight_step: float, stats: Optional[dict] = None
                    ) -> Tuple[Optional[Allocation], Optional[str]]:
    """Greedy chain walk inside one island. Returns a planned allocation
    with placeholder instance ids, or (None, reason)."""
    kbps = demand.bandwidth_kbps
    chain = demand.chain
    processing = sum(f.processing_delay for f in chain)
    budget = demand.delay_budget - processing
    if budget < -_EPS:
        return None, "delay"
    overlay = StateOverlay(state)
    view = _ChainView(overlay, island, demand.src, kbps)
    spent = 0.0
    segments: List[Tuple[Link, ...]] = []
    assignments: List[FunctionAssignment] = []
    for idx, function in enumerate(chain):
        last = idx == len(chain) - 1
        candidates = get_candidate_pms(view, function, island, kbps)
        if not candidates:
            return None, "no-pm"
        best = _best_candidate(view, function, candidates, demand.dst,
                               budget - spent, weight_step, stats)
        if best is None:
            return None, "no-path"
        cand, seg1, seg2, d1, d2 = best
        view.add_segment(seg1)
        inst_id = view.add_assignment(function, cand.node, cand.instance_id)
        assignments.append(FunctionAssignment(function, cand.node, inst_id))
        segments.append(seg1)
        spent += d1
        if last:
            overlay.add_links(seg2, kbps)
            segments.append(seg2)
            spent += d2
    alloc = Allocation(demand.id, tuple(assignments), Route(tuple(segments)),
                       spent + processing, kbps)
    return alloc, None


def place_all(graph: NetworkGraph, demands: Iterable, betas_mbps: List[float],
              mode: str = "lbi", weight_step: float = 0.25,
              stats: Optional[dict] = None) -> SolutionSet:
    """Serve demands one by one with island-confined greedy placement.

    Rejected demands leave no trace on the state; the island hierarchy
    is kept in sync incrementally after every accepted demand.
    weight_step is the path search's reweighting step (see
    calculate_best_path).
    """
    _check_step(weight_step)
    state = NetworkState(graph)
    outcomes: List[DemandOutcome] = []
    start = time.perf_counter()
    hierarchy = build_bih(state, betas_mbps)
    for demand in demands:
        island = hierarchy.select(demand.src, demand.dst,
                                  demand.bandwidth_kbps, mode)
        if island is None:
            outcomes.append(DemandOutcome(demand, False, None, "no-island"))
            continue
        planned, reason = _plan_in_island(state, island, demand, weight_step,
                                          stats)
        if planned is None:
            outcomes.append(DemandOutcome(demand, False, None, reason))
            continue
        committed = state.apply_allocation(planned, demand)
        hierarchy.update_on_allocation(state, committed.route,
                                       committed.bandwidth_kbps)
        outcomes.append(DemandOutcome(demand, True, committed, None))
    runtime = time.perf_counter() - start
    return _finish(outcomes, state, runtime)


def _finish(outcomes: List[DemandOutcome], state: NetworkState,
            runtime: float) -> SolutionSet:
    accepted = [o for o in outcomes if o.accepted]
    delays = [o.allocation.total_delay_ms for o in accepted]
    mean_delay = sum(delays) / len(delays) if delays else math.nan
    net = network_power(state)
    pm = pm_power_total(state)
    rate = len(accepted) / len(outcomes) if outcomes else 0.0
    return SolutionSet(outcomes, state, net, pm, net + pm, mean_delay,
                       rate, runtime)


# -- centrality baseline -------------------------------------------------


def betweenness(graph: NetworkGraph) -> Dict[int, float]:
    """Shortest-path betweenness, summed over ordered node pairs."""
    scores = {n.id: 0.0 for n in graph.nodes}
    for s in sorted(scores):
        sigma = {v: 0 for v in scores}
        dist = {v: -1 for v in scores}
        preds: Dict[int, List[int]] = {v: [] for v in scores}
        sigma[s] = 1
        dist[s] = 0
        order = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in graph.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = {v: 0.0 for v in scores}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return scores


def _bfs_path(graph: NetworkGraph, src: int, dst: int) -> Optional[List[int]]:
    """Deterministic hop-shortest path as a node list."""
    if src == dst:
        return [src]
    parent = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                if v == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


class _PathTable:
    """What the centrality search reads of one demand's path, read once
    through the state's read API and then patched in place by trial
    assignments. Per path position: the node's instance rows
    [id, function name, free kb/s] (committed instances, then the plan's
    placeholders), the resources in use on the node and the PM's capacity.
    next_placeholder is the id the next new instance gets (-1, -2, ...,
    as apply_allocation expects). backtracks counts the search's failed
    trials, and last is its suffix bound, None until it is computed."""

    __slots__ = ("state", "path", "rows", "used", "caps", "next_placeholder",
                 "backtracks", "last")

    def __init__(self, state: NetworkState, path: List[int]):
        graph = state.graph
        self.state = state
        self.path = path
        self.rows = [[[inst.id, inst.function.name, free]
                      for inst, free in state.hosted(node)] for node in path]
        self.used = [state.used_resources(node) for node in path]
        self.caps = [graph.node(node).pm.capacity for node in path]
        self.next_placeholder = -1
        self.backtracks = 0
        self.last: Optional[List[int]] = None


def _has_room(used: Dict[str, int], cap: Dict[str, int],
              function: FunctionType) -> bool:
    for res, amount in function.requirements.items():
        if used.get(res, 0) + amount > cap.get(res, 0):
            return False
    return True


def _book(used: Dict[str, int], function: FunctionType, sign: int) -> None:
    """Add (+1) or take back (-1) a function's resources; 0s are dropped."""
    for res, amount in function.requirements.items():
        used[res] = used.get(res, 0) + sign * amount
        if not used[res]:
            del used[res]


def _suffix_bound(state: NetworkState, path: List[int], chain,
                  kbps: int) -> List[int]:
    """last[k]: the highest position at or below last[k+1] where chain[k]
    fits on the committed state (room for a new instance that can carry
    kbps, or an instance of it with kbps spare), -1 if none. A plan only
    takes capacity away, an instance it starts holds a function that
    fitted there, and positions never decrease along the chain, so no
    complete assignment puts chain[k] beyond last[k]."""
    last = []
    top = len(path) - 1
    for function in reversed(chain):
        name = function.name
        new_fits = to_kbps(function.processing_capacity) >= kbps
        while top >= 0 and not (
                new_fits and _has_room(state.used_resources(path[top]),
                                       state.graph.node(path[top]).pm.capacity,
                                       function)
                or any(free >= kbps and inst.function.name == name
                       for inst, free in state.hosted(path[top]))):
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
    placeholder row whose resources it books. A failed subtree undoes
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
        best = None
        for row in rows[pos]:
            free = row[2]
            if (free >= kbps and row[1] == name
                    and (best is None or free < best[2]
                         or (free == best[2] and row[0] < best[0]))):
                best = row
        started = best is None
        if started:
            if not _has_room(table.used[pos], table.caps[pos], function):
                continue
            free = to_kbps(function.processing_capacity)
            if free < kbps:
                continue
            best = [table.next_placeholder, name, free]
            table.next_placeholder -= 1
            rows[pos].append(best)
            _book(table.used[pos], function, 1)
        best[2] -= kbps
        tail = _assign_on_path(table, chain, kbps, pref, k + 1, pos)
        if tail is not None:
            return ([pos] + tail[0], [FunctionAssignment(
                function, table.path[pos], best[0])] + tail[1])
        best[2] += kbps
        if started:
            rows[pos].pop()
            _book(table.used[pos], function, -1)
            table.next_placeholder += 1
        table.backtracks += 1
        if table.backtracks == len(pref) * len(chain):
            table.last = _suffix_bound(table.state, table.path, chain, kbps)
        if table.last is not None:
            hi = table.last[k]
    return None


def _pair_route(graph: NetworkGraph, scores: Dict[int, float], src: int,
                dst: int) -> Optional[tuple]:
    """The fixed route of an endpoint pair: its BFS node path, the path's
    links, the sum of their delays and the path positions most central
    first; None if dst cannot be reached."""
    path = _bfs_path(graph, src, dst)
    if path is None:
        return None
    links = tuple(graph.link(path[i], path[i + 1])
                  for i in range(len(path) - 1))
    pref = sorted(range(len(path)), key=lambda i: (-scores[path[i]], path[i]))
    return path, links, sum(l.delay for l in links), pref


def _plan_on_path(state: NetworkState, route, demand
                  ) -> Tuple[Optional[Allocation], Optional[str]]:
    """Stack the chain onto the pair's fixed route (see _pair_route), most
    central nodes first, never moving backwards, so the traffic crosses
    each path link once. Per demand only the links' residuals, the delay
    budget and a fresh _PathTable of the path's nodes are read."""
    path, links, link_delay, pref = route
    kbps = demand.bandwidth_kbps
    for link in links:
        if state.residual(link.src, link.dst) < kbps:
            return None, "bandwidth"
    processing = sum(f.processing_delay for f in demand.chain)
    total_delay = link_delay + processing
    if total_delay > demand.delay_budget + _EPS:
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
    most central path nodes with room. No detours are attempted. Each
    endpoint pair's route is found once per run and kept in a run-local
    table; a demand then only checks residuals and plans on a path table
    (_PathTable) read for it alone."""
    state = NetworkState(graph)
    outcomes: List[DemandOutcome] = []
    start = time.perf_counter()
    scores = betweenness(graph)
    routes: Dict[Tuple[int, int], Optional[tuple]] = {}
    for demand in demands:
        key = (demand.src, demand.dst)
        if key not in routes:
            routes[key] = _pair_route(graph, scores, *key)
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
    runtime = time.perf_counter() - start
    return _finish(outcomes, state, runtime)
