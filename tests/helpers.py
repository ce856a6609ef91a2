"""Shared builders and oracles for the test suite."""

import heapq
import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from operator import mul
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from vnfplace.bih import _flood
from vnfplace.exact import _TOL, Constraint, MilpModel
from vnfplace.netstate import (Allocation, AllocationError,
                               FunctionAssignment, NetworkState, Route,
                               StateOverlay, VnfInstance, _route_delay, fits,
                               over_budget)
from vnfplace.placement import (_assign_on_path, _ChainView, _pair_route,
                                _PathTable, betweenness, calculate_best_path,
                                get_candidate_pms)
from vnfplace.power import incremental_cost, pm_load_slope
from vnfplace.topology import (CPU, FunctionType, Link, NetworkGraph,
                               NodeSpec, PmSpec, ServiceType, TopologyError,
                               link_delay_from_length, to_kbps)
from vnfplace.workload import Demand, generate_demands, read_demands

def to_mbps(kbps: int) -> float:
    """The inverse of topology.to_kbps on the values tests feed it."""
    return kbps / 1000.0


# a one-function chain that never binds on processing capacity; used to
# shape link residuals without the catalog's 200 Mb/s instance ceiling
XL = FunctionType("XL", {CPU: 1}, 1e6, 0.0)


def make_graph(num_nodes, cables, cores=64):
    """cables: (a, b, capacity_mbps, delay_ms) tuples."""
    nodes = [NodeSpec(i, PmSpec({CPU: cores})) for i in range(num_nodes)]
    return NetworkGraph(nodes, cables)


def make_demand(demand_id, src, dst, chain, bandwidth_mbps, budget_ms):
    svc = ServiceType("svc%d" % demand_id, tuple(chain), bandwidth_mbps,
                      budget_ms, 1.0)
    return Demand(demand_id, src, dst, svc)


def route_allocation(state: NetworkState, path: List[int], mbps: float,
                     demand_id: int) -> Tuple[Allocation, Demand]:
    """Commit mbps along consecutive path nodes, one XL instance at the
    far end. Returns (committed allocation, demand) for later release."""
    demand = make_demand(demand_id, path[0], path[-1], (XL,), mbps, 1e9)
    links = tuple(state.graph.link(a, b) for a, b in zip(path, path[1:]))
    route = Route((links, ()))
    planned = Allocation(demand_id,
                         (FunctionAssignment(XL, path[-1], -1),),
                         route, route.propagation_ms, to_kbps(mbps))
    return state.apply_allocation(planned, demand), demand


# -- island oracles -------------------------------------------------------


def beta_bi_search(state, node: int, beta_mbps: float
                   ) -> Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]:
    """The beta-island of a node, as (member nodes, internal cables): the
    hierarchy's own flood at beta_mbps."""
    return _flood(state, node, to_kbps(beta_mbps))


def island_partition(state: NetworkState, beta_mbps: float) -> List[Tuple[int, ...]]:
    """Node partition found by flooding from every yet-unseen node."""
    seen = set()
    parts = []
    for node in sorted(n.id for n in state.graph.nodes):
        if node in seen:
            continue
        nodes, _ = beta_bi_search(state, node, beta_mbps)
        seen |= nodes
        parts.append(tuple(sorted(nodes)))
    return sorted(parts)


def partition_oracle(state: NetworkState, beta_mbps: float) -> List[Tuple[int, ...]]:
    """Union-find over cables whose symmetric residual clears the bar."""
    need = to_kbps(beta_mbps)
    parent = {n.id: n.id for n in state.graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in state.graph.cables():
        if state.sym_residual(a, b) >= need:
            parent[find(a)] = find(b)
    groups: Dict[int, List[int]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return sorted(tuple(sorted(g)) for g in groups.values())


# -- path-search oracle ---------------------------------------------------


def oracle_dijkstra(statelike, island, src: int, dst: int, kbps: int,
                    gamma: float, omega: float) -> Optional[List[Link]]:
    """Per-call min-weight path inside the island, stopping at dst, with
    lit maps and edge weights computed anew on each call; ties broken by
    delay, then hop count, then node ids."""
    if src == dst:
        return []
    graph = statelike.graph
    params = graph.power
    max_power = params.switch_static_w + 2.0 * params.port_w
    max_delay = graph.max_link_delay
    lit_switch = {n: statelike.switch_active(n) for n in island.nodes}
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
        for v in graph.neighbors(u):
            if v in done or v not in island.nodes:
                continue
            cable = (u, v) if u < v else (v, u)
            if cable not in island.internal_links:
                continue
            if statelike.residual(u, v) < kbps:
                continue
            link = graph.link(u, v)
            power = 0.0
            if not lit_switch[u]:
                power += params.switch_static_w / 2.0
            if not lit_switch[v]:
                power += params.switch_static_w / 2.0
            if not statelike.cable_active(*cable):
                power += 2.0 * params.port_w
            delay_term = link.delay / max_delay if max_delay > 0 else 0.0
            w = gamma * (power / max_power) + omega * delay_term
            cand = (weight + w, delay + link.delay, hops + 1)
            if v not in best or cand < best[v]:
                best[v] = cand
                pred[v] = link
                heapq.heappush(heap, (*cand, v))
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


def oracle_best_path(statelike, island, src: int, pm: int, dst: int,
                     kbps: int, planned_ms: float, processing: float,
                     budget_ms: float, weight_step: float):
    """calculate_best_path with two fresh searches per weight setting, for
    a plan whose links so far add up to planned_ms."""
    step = 0
    while True:
        gamma = 1.0 - step * weight_step
        omega = step * weight_step
        if gamma < 1e-9 or omega > 1.0 - 1e-9:
            return None
        step += 1
        seg1 = oracle_dijkstra(statelike, island, src, pm, kbps, gamma, omega)
        if seg1 is None:
            continue
        seg2 = oracle_dijkstra(statelike, island, pm, dst, kbps, gamma, omega)
        if seg2 is None:
            continue
        need: Dict[Tuple[int, int], int] = {}
        for link in seg1 + seg2:
            pair = (link.src, link.dst)
            need[pair] = need.get(pair, 0) + kbps
        if any(statelike.residual(*pair) < total for pair, total in need.items()):
            continue
        delay = planned_ms      # left to right, not sum(), on any Python
        for link in seg1 + seg2:
            delay += link.delay
        if delay + processing <= budget_ms + 1e-9:
            return tuple(seg1), tuple(seg2), delay


# -- island view reference reader -----------------------------------------


class ReferenceChainView(_ChainView):
    """A _ChainView whose tables are read through the read API (residual,
    switch_active, cable_active, hosted, used_cores) rather than a
    NetworkState's own indices, so that it can stand over a StateOverlay
    that holds a plan: the fresh read a patched view is compared with.
    Planning on it (add_segment, add_assignment, route) is the library's."""

    def __init__(self, reader, island, src: int, kbps: int, cache):
        self.state = reader
        self.graph = reader.graph
        self.cache = cache
        self.facts = cache.island(island)
        self.nodes = self.facts.nodes
        self.kbps = kbps
        self.origin = src
        self.delay = 0.0
        self.lit = ({n: reader.switch_active(n) for n in self.nodes},
                    {c: reader.cable_active(*c)
                     for c in island.internal_links})
        self.rows = {n: [[inst.id, inst.function.name, free]
                         for inst, free in reader.hosted(n)]
                     for n in self.nodes}
        self.used = {n: reader.used_cores(n) for n in self.nodes}
        self._debit = {}
        self._next_placeholder = -1
        self.adj = {}
        self._codes = [0] * len(self.nodes)
        self.refill(self.nodes)

    def residual(self, src: int, dst: int) -> int:
        return self.state.residual(src, dst) - self._debit.get((src, dst), 0)

    def refill(self, nodes) -> None:
        lit_switch, lit_cable = self.lit
        terms, facts = self.cache.terms, self.facts
        for u in nodes:
            row = []
            code = 0
            for v in facts.nbrs[u]:
                code *= 9
                if self.residual(u, v) >= self.kbps:
                    bits = (lit_switch[u] << 2 | lit_switch[v] << 1
                            | lit_cable[(u, v) if u < v else (v, u)])
                    row.append(terms[(u, v)][bits])
                    code += 1 + bits
            self.adj[u] = row
            self._codes[facts.index[u]] = code
        self.trees = self.cache.trees.setdefault(
            (facts, tuple(self._codes)), {})


def reference_best_candidate(view, function, dst: int, processing: float,
                             budget_ms: float, weight_step: float,
                             stats: Optional[dict] = None):
    """_best_candidate by a full scan: both listings, every candidate
    routed with calculate_best_path, no PM-cost bound and no listing
    skipped; least (cost, hops, category, node) wins. Counts its routed
    candidates in stats["routed"]."""
    hops = view.facts.hops(view.origin)
    candidates = (get_candidate_pms(view, function, True)
                  + get_candidate_pms(view, function, False))
    best = None
    for cand in candidates:
        found = calculate_best_path(view, cand.node, dst, processing,
                                    budget_ms, weight_step)
        if stats is not None:
            stats["routed"] = stats.get("routed", 0) + 1
        if found is None:
            continue
        cost = incremental_cost(view, cand.node, cand.instance_id, function,
                                found[0] + found[1])
        key = (cost, hops.get(cand.node, math.inf), cand.category, cand.node)
        if best is None or key < best[0]:
            best = (key, (cand,) + found)
    if best is None:
        return None, "no-path" if candidates else "no-pm"
    return best[1], None


# -- centrality search oracle ----------------------------------------------


def reference_assign_on_path(overlay: StateOverlay, path: List[int], chain,
                             kbps: int, pref: List[int], k: int,
                             min_pos: int
                             ) -> Optional[Tuple[List[int],
                                                 List[FunctionAssignment]]]:
    """The centrality search over overlay forks: every position tried gets
    its own copy of the plan, asked through find_reusable and has_room;
    no suffix bound. Returns the first complete assignment."""
    if k == len(chain):
        return [], []
    function = chain[k]
    for pos in pref:
        if pos < min_pos:
            continue
        node = path[pos]
        found = overlay.find_reusable(node, function, kbps)
        if found is None and not overlay.has_room(node, function):
            continue
        trial = overlay.fork()
        inst_id = trial.add_assignment(function, node,
                                       found[0] if found else None, kbps)
        tail = reference_assign_on_path(trial, path, chain, kbps, pref,
                                        k + 1, pos)
        if tail is not None:
            positions, assigns = tail
            return ([pos] + positions,
                    [FunctionAssignment(function, node, inst_id)] + assigns)
    return None


@dataclass(frozen=True)
class SizedDemand(Demand):
    """A demand whose kb/s is its own rather than its service's, so one
    (pair, service) can come back at a higher or a lower rate."""

    kbps: int

    @property
    def bandwidth_kbps(self) -> int:
        return self.kbps


def reference_plan_on_path(state: NetworkState, route, demand
                           ) -> Tuple[Optional[Allocation], Optional[str]]:
    """The centrality plan with nothing carried between demands: the
    links' residuals, then the delay budget, then a search on a fresh
    _PathTable, all read anew for every demand."""
    path, links, link_delay, pref = route[:4]
    kbps = demand.bandwidth_kbps
    for link in links:
        if state.residual_kbps[(link.src, link.dst)] < kbps:
            return None, "bandwidth"
    processing = 0.0            # left to right, not sum(), on any Python
    for f in demand.chain:
        processing += f.processing_delay
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
    return Allocation(demand.id, tuple(assignments), Route(tuple(segments)),
                      total_delay, kbps), None


def reference_bc_place_all(graph: NetworkGraph, demands: Sequence
                           ) -> Tuple[List[Optional[str]], NetworkState]:
    """The centrality baseline planning every demand afresh through
    reference_plan_on_path, each route searched anew: the reason per
    demand (None when accepted) and the final state."""
    state = NetworkState(graph)
    scores = betweenness(graph)
    reasons: List[Optional[str]] = []
    for demand in demands:
        route = _pair_route(graph, scores, demand.src, demand.dst, {})
        if route is None:
            reasons.append("no-path")
            continue
        planned, reason = reference_plan_on_path(state, route, demand)
        if planned is not None:
            state.apply_allocation(planned, demand)
        reasons.append(reason)
    return reasons, state


# -- commit and release oracle ---------------------------------------------


def _reference_check_route(state: NetworkState, allocation: Allocation,
                           demand: Demand) -> None:
    route = allocation.route
    if len(route.segments) != len(allocation.assignments) + 1:
        raise AllocationError("route must have one segment per chain hop")
    at = demand.src
    for k, seg in enumerate(route.segments):
        for link in seg:
            if link.src != at:
                raise AllocationError("discontinuous route at node %d" % at)
            try:
                state.graph.link(link.src, link.dst)
            except TopologyError:
                raise AllocationError("route uses unknown link %d->%d"
                                      % (link.src, link.dst)) from None
            at = link.dst
        want = (allocation.assignments[k].node
                if k < len(allocation.assignments) else demand.dst)
        if at != want:
            raise AllocationError("segment %d ends at %d, expected %d"
                                  % (k, at, want))


def _reference_use_link(state: NetworkState, link: Link, step: int) -> None:
    pair = (link.src, link.dst)
    before = state.link_use[pair] + state.link_use[(link.dst, link.src)]
    state.link_use[pair] += step
    if not before or not before + step:
        state.lit_cables[link.src] += step
        state.lit_cables[link.dst] += step


def reference_apply_allocation(state: NetworkState, allocation: Allocation,
                               demand: Demand) -> Allocation:
    """NetworkState.apply_allocation as a separate route check, a Counter
    of link needs and one use-count update per link: every check in the
    same order with the same message, and the same resulting state."""
    if demand.id in state.allocations:
        raise AllocationError("demand %d already allocated" % demand.id)
    if allocation.demand_id != demand.id:
        raise AllocationError("allocation/demand id mismatch")
    chain_names = [f.name for f in demand.chain]
    if [a.function.name for a in allocation.assignments] != chain_names:
        raise AllocationError("assignments do not match the demand chain")
    if allocation.bandwidth_kbps != demand.bandwidth_kbps:
        raise AllocationError("allocation carries %d kbps, demand asks %d"
                              % (allocation.bandwidth_kbps,
                                 demand.bandwidth_kbps))
    _reference_check_route(state, allocation, demand)
    delay = _route_delay(allocation)
    if abs(delay - allocation.total_delay_ms) > 1e-9:
        raise AllocationError("reported delay %r ms, route and chain take "
                              "%r ms" % (allocation.total_delay_ms, delay))
    if delay > demand.delay_budget + 1e-9:
        raise AllocationError("delay %r ms exceeds budget %r ms"
                              % (delay, demand.delay_budget))
    kbps = allocation.bandwidth_kbps

    link_need = Counter()
    for link in allocation.route.links():
        link_need[(link.src, link.dst)] += kbps
    for pair, need in link_need.items():
        if state.residual_kbps[pair] < need:
            raise AllocationError("link %d->%d lacks %d kbps" % (*pair, need))

    inst_need: Dict[int, int] = Counter()
    placeholder_fn: Dict[int, Tuple[FunctionType, int]] = {}
    for a in allocation.assignments:
        inst_need[a.instance_id] += kbps
        if a.instance_id < 0:
            prior = placeholder_fn.get(a.instance_id)
            if prior is not None and prior != (a.function, a.node):
                raise AllocationError("placeholder %d reused inconsistently"
                                      % a.instance_id)
            placeholder_fn[a.instance_id] = (a.function, a.node)
    new_cores: Dict[int, int] = Counter()
    for inst_id, need in inst_need.items():
        if inst_id >= 0:
            inst = state.instances.get(inst_id)
            if inst is None:
                raise AllocationError("unknown instance %d" % inst_id)
            if inst.residual_kbps < need:
                raise AllocationError("instance %d lacks %d kbps" % (inst_id, need))
        else:
            function, node = placeholder_fn[inst_id]
            if to_kbps(function.processing_capacity) < need:
                raise AllocationError("new %s instance cannot carry %d kbps"
                                      % (function.name, need))
            new_cores[node] += function.cores
    for a in allocation.assignments:
        if a.instance_id >= 0:
            inst = state.instances[a.instance_id]
            if inst.node != a.node or inst.function.name != a.function.name:
                raise AllocationError("instance %d does not match assignment"
                                      % a.instance_id)
    for node, need in new_cores.items():
        if not fits(state.cores_used[node], need, state.graph.node(node).pm.cores):
            raise AllocationError("PM %d lacks cpu for new instances" % node)

    for pair, need in link_need.items():
        state.residual_kbps[pair] -= need
    for link in allocation.route.links():
        _reference_use_link(state, link, 1)
    id_map: Dict[int, int] = {}
    for a in allocation.assignments:
        if a.instance_id < 0 and a.instance_id not in id_map:
            function, node = placeholder_fn[a.instance_id]
            new_id = state._next_instance
            state._next_instance += 1
            inst = VnfInstance(new_id, node, function,
                               to_kbps(function.processing_capacity), {})
            state.instances[new_id] = inst
            state.node_instances.setdefault(node, {})[new_id] = inst
            state.cores_used[node] += function.cores
            id_map[a.instance_id] = new_id
    resolved = []
    for a in allocation.assignments:
        inst_id = id_map.get(a.instance_id, a.instance_id)
        resolved.append(FunctionAssignment(a.function, a.node, inst_id))
    for inst_id, need in inst_need.items():
        inst = state.instances[id_map.get(inst_id, inst_id)]
        inst.residual_kbps -= need
        inst.served[demand.id] = inst.served.get(demand.id, 0) + need
    committed = Allocation(allocation.demand_id, tuple(resolved),
                           allocation.route, allocation.total_delay_ms, kbps)
    state.allocations[demand.id] = committed
    return committed


def reference_release_allocation(state: NetworkState, demand_id: int) -> None:
    """NetworkState.release_allocation with one use-count update per link."""
    alloc = state.allocations.pop(demand_id, None)
    if alloc is None:
        raise AllocationError("demand %d has no allocation" % demand_id)
    kbps = alloc.bandwidth_kbps
    for link in alloc.route.links():
        state.residual_kbps[(link.src, link.dst)] += kbps
        _reference_use_link(state, link, -1)
    for inst_id in {a.instance_id for a in alloc.assignments}:
        inst = state.instances[inst_id]
        inst.residual_kbps += inst.served.pop(demand_id)
        if inst.residual_kbps == to_kbps(inst.function.processing_capacity):
            del state.instances[inst_id]
            del state.node_instances[inst.node][inst_id]
            state.cores_used[inst.node] -= inst.function.cores


# -- fixture graphs -------------------------------------------------------

# three capacity tiers; at 50 the graph falls apart into four islands,
# at 40 into two, at 30 it is one piece
LAYERED_CABLES = [
    (0, 1, 50.0), (0, 3, 50.0), (1, 3, 50.0), (1, 2, 40.0),
    (4, 5, 50.0), (5, 6, 50.0), (4, 6, 50.0), (7, 8, 50.0),
    (6, 7, 40.0), (0, 2, 40.0), (3, 4, 30.0), (2, 4, 30.0),
    (3, 5, 30.0), (1, 8, 30.0),
]


# power ratings the CLI refuses before any cell runs: one run's power with
# all hardware at full rating, times the seeds or times itself (a bound on
# a cell's variance, past which Python 3.10's pstdev raised), is not finite
BAD_POWER_RATINGS = (
    ("port-power", ["--port-power", "1e308"]),
    ("switch-power-times-seeds", ["--switch-power", "1e307", "--seeds", "3"]),
    ("pm-max-power-times-seeds", ["--pm-max-power", "1e307", "--seeds", "30"]),
    ("switch-power-squared", ["--algo", "bi-lbi,bc", "--demands", "3",
                              "--seeds", "2", "--switch-power", "1e306"]),
)


# a path on which the island walk's plan for seed 87's one default-catalog
# demand (voip, 0 -> 5, 100 ms budget) sums to 100.00000000099999 ms per
# segment, within the budget's 1e-9 ms, but to 100.00000000100002 ms in
# the commit's order, over it
EDGE_TOPOLOGY = """\
node 0 1
node 1 8
node 2 12
node 3 8
node 4 8
node 5 1
link 0 1 100000 13.231322117042367ms
link 1 2 100000 9.587825553417025ms
link 2 3 100000 13.848764460315298ms
link 3 4 100000 2.547041263613547ms
link 4 5 100000 10.785046606611763ms
"""


def layered_graph(cores=64) -> NetworkGraph:
    cables = [(a, b, cap, 0.05) for a, b, cap in LAYERED_CABLES]
    return make_graph(9, cables, cores=cores)


def triangle_graph(delays=(0.1, 0.1, 0.1), cores=16) -> NetworkGraph:
    cables = [(0, 1, 1000.0, delays[0]), (1, 2, 1000.0, delays[1]),
              (0, 2, 1000.0, delays[2])]
    return make_graph(3, cables, cores=cores)


def random_connected_graph(rng: random.Random, max_nodes=50,
                           cap_range=(1, 100), cores=1000) -> NetworkGraph:
    """Random spanning tree plus extra cables, random capacities."""
    n = rng.randrange(4, max_nodes + 1)
    cables = []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        seen.add((u, v))
        cables.append((u, v, float(rng.randrange(*cap_range)), 0.1))
    for _ in range(rng.randrange(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        cables.append((key[0], key[1], float(rng.randrange(*cap_range)), 0.1))
    return make_graph(n, cables, cores=cores)


def skim_random_links(state: NetworkState, rng: random.Random,
                      start_id: int = 0) -> int:
    """Take random single-link allocations so residuals differ from the
    raw capacities (and per direction). Returns the next free demand id."""
    cables = state.graph.cables()
    demand_id = start_id
    for _ in range(rng.randrange(0, 3 * len(cables) + 1)):
        a, b = cables[rng.randrange(len(cables))]
        if rng.random() < 0.5:
            a, b = b, a
        free = state.residual(a, b)
        if free <= 0 or not StateOverlay(state).has_room(b, XL):
            continue
        take = rng.randrange(1, free + 1)
        route_allocation(state, [a, b], take / 1000.0, demand_id)
        demand_id += 1
    return demand_id


# -- tiny instances for exact comparison ----------------------------------


def tiny_instance(rng: random.Random, cores: int = 16,
                  budgets=(25.0, 30.0, 50.0, 100.0)):
    """Random instance inside the exact solver's limits, with ample link
    capacity so only topology, delay and PM packing drive the optimum.
    Every PM has `cores` cores; each budget is drawn from `budgets`."""
    n = rng.randrange(3, 7)
    cables = []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        seen.add((u, v))
        cables.append((u, v, 1000.0,
                       link_delay_from_length(rng.choice([20, 50, 100, 200, 400]))))
    for _ in range(rng.randrange(0, 4)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        cables.append((key[0], key[1], 1000.0,
                       link_delay_from_length(rng.choice([20, 50, 100, 200, 400]))))
    graph = make_graph(n, cables, cores=cores)
    fns = {name: FunctionType(name, {CPU: 4}, 200.0, 10.0) for name in "ABC"}
    demands = []
    for i in range(rng.randrange(1, 4)):
        src, dst = rng.randrange(n), rng.randrange(n)
        while dst == src:
            dst = rng.randrange(n)
        chain = tuple(fns[rng.choice("ABC")] for _ in range(rng.randrange(1, 3)))
        demands.append(make_demand(i, src, dst, chain,
                                   rng.choice([1.0, 2.0, 5.0, 10.0, 20.0]),
                                   rng.choice(budgets)))
    return graph, demands


# -- tight instances for placement ----------------------------------------


def _tight_instance(seed):
    """A small random graph with narrow links and 2-8-core PMs, a random
    catalog of short chains with tight delay budgets, 80 demands and the
    thresholds to place them with."""
    rng = random.Random(seed)
    plain = random_connected_graph(rng, max_nodes=14, cap_range=(20, 120))
    nodes = [NodeSpec(n.id, PmSpec({CPU: rng.choice([2, 4, 8])}))
             for n in plain.nodes]
    cables = [(a, b, plain.link(a, b).capacity, rng.choice([0.5, 2.0, 8.0]))
              for a, b in plain.cables()]
    graph = NetworkGraph(nodes, cables)
    fns = [FunctionType("F%d" % i, {CPU: rng.choice([1, 2, 4])},
                        rng.choice([30.0, 60.0, 200.0]),
                        rng.choice([1.0, 3.0])) for i in range(3)]
    shares = (0.5, 0.3, 0.2)
    services = {
        "s%d" % i: ServiceType("s%d" % i, tuple(
            rng.choice(fns) for _ in range(rng.randrange(1, 4))),
            rng.choice([2.0, 10.0, 25.0]), rng.choice([4.0, 15.0, 40.0]),
            share)
        for i, share in enumerate(shares)}
    demands = generate_demands(graph, 80, services, seed)
    return graph, demands, [60.0, 30.0, 10.0]


def reference_bfs_path(graph: NetworkGraph, src: int,
                       dst: int) -> Optional[List[int]]:
    """Deterministic hop-shortest path as a node list: each node's parent
    is the first node to reach it, searching sorted neighbour lists and
    stopping at dst; None if dst cannot be reached."""
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


def betweenness_oracle(graph: NetworkGraph) -> Dict[int, float]:
    """Literal enumeration of every shortest path between ordered pairs."""
    scores = {n.id: 0.0 for n in graph.nodes}
    for s in scores:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for t in scores:
            if t == s or t not in dist:
                continue
            paths = []

            def walk(node, acc):
                if node == t:
                    paths.append(list(acc))
                    return
                for v in graph.neighbors(node):
                    if dist.get(v) == dist[node] + 1 and dist[v] <= dist[t]:
                        acc.append(v)
                        walk(v, acc)
                        acc.pop()

            walk(s, [s])
            share = 1.0 / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    scores[v] += share
    return scores


# -- the exact model as first written, kept as the oracle -------------------


class ReferenceVariable(NamedTuple):
    name: str
    kind: str
    ub: Optional[float] = None


def reference_build_model(graph: NetworkGraph, demands: Sequence) -> MilpModel:
    """exact.build_model as it was before its names and domains were
    shared: every variable its own ReferenceVariable, every name and row
    formatted where it is used. Same variables, objective, rows and name
    tables, in the same order."""
    m = MilpModel(graph, read_demands(graph, demands))
    types = m.types
    for d in m.demands:
        for fn in d.chain:
            known = types.setdefault(fn.name, fn)
            if known is not fn and known != fn:
                raise ValueError("conflicting definitions of type %s" % fn.name)
    params = graph.power
    nodes = range(graph.num_nodes)
    cores = [n.pm.cores for n in graph.nodes]
    nbrs = [graph.neighbors(i) for i in nodes]
    cables = graph.cables()
    pairs = [(link.src, link.dst) for link in graph.links]
    chains = [(d, d.chain, len(d.chain) + 1) for d in m.demands]

    X = ["x_%d" % i for i in nodes]
    Y = ["y_%d" % i for i in nodes]
    L = {c: "l_%d_%d" % c for c in cables}
    Z = [{f: "z_%d_%s" % (i, f) for f in types} for i in nodes]
    u_ = ["u_%d_" % i for i in nodes]
    w_ = {p: "w_%d_%d_" % p for p in pairs}
    U = [[[ui + "%d_%d" % (k, d.id) for ui in u_] for k in range(E + 1)]
         for d, _, E in chains]
    W = [[{p: wp + "%d_%d" % (e, d.id) for p, wp in w_.items()}
          for e in range(E)] for d, _, E in chains]
    m.X, m.Y, m.L, m.Z, m.U, m.W = X, Y, L, Z, U, W

    var = m.variables
    for name in itertools.chain(X, Y, L.values()):
        var[name] = ReferenceVariable(name, "binary")
    for i in nodes:
        for f, fn in types.items():
            var[Z[i][f]] = ReferenceVariable(Z[i][f], "integer",
                                             cores[i] // fn.cores)
    for Ud, Wd in zip(U, W):
        for name in itertools.chain(*Ud, *(We.values() for We in Wd)):
            var[name] = ReferenceVariable(name, "binary")

    obj = m.objective
    for i in nodes:
        obj[X[i]] = params.pm_idle_w
        for f, fn in types.items():
            obj[Z[i][f]] = pm_load_slope(params, fn.cores, cores[i])
    for i in nodes:
        obj[Y[i]] = params.switch_static_w
    for name in L.values():
        obj[name] = 2.0 * params.port_w

    add = m.constraints.append
    if types:
        for i in nodes:
            add(Constraint("resource_n%d_cpu" % i,
                           {Z[i][f]: fn.cores for f, fn in types.items()},
                           "<=", cores[i]))

    served: Dict[str, List[Tuple[List[str], float]]] = {f: [] for f in types}
    for (d, chain, _), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            served[fn.name].append((Ud[k], float(d.bandwidth)))
    for i in nodes:
        for f, fn in types.items():
            coeffs = {Uk[i]: bw for Uk, bw in served[f]}
            coeffs[Z[i][f]] = -fn.processing_capacity
            add(Constraint("processing_n%d_%s" % (i, f), coeffs, "<=", 0.0))

    for link, p in zip(graph.links, pairs):
        coeffs = {}
        for (d, _, _), Wd in zip(chains, W):
            for We in Wd:
                coeffs[We[p]] = d.bandwidth
        add(Constraint("linkcap_%d_%d" % p, coeffs, "<=", link.capacity))

    for (d, chain, _), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            for i in nodes:
                add(Constraint("mapping_n%d_k%d_d%d" % (i, k, d.id),
                               {Ud[k][i]: 1.0, Z[i][fn.name]: -1.0},
                               "<=", 0.0))

    for (d, chain, _), Ud, Wd in zip(chains, U, W):
        coeffs = {}
        for k, fn in enumerate(chain, start=1):
            coeffs.update(dict.fromkeys(Ud[k], fn.processing_delay))
        for We in Wd:
            coeffs.update(zip(We.values(), (l.delay for l in graph.links)))
        add(Constraint("delay_d%d" % d.id, coeffs, "<=", d.delay_budget))

    for (d, _, E), Ud, Wd in zip(chains, U, W):
        for e in range(E):
            We = Wd[e]
            for i in nodes:
                coeffs = {}
                for j in nbrs[i]:
                    coeffs[We[i, j]] = 1.0
                    coeffs[We[j, i]] = -1.0
                coeffs[Ud[e][i]] = -1.0
                coeffs[Ud[e + 1][i]] = 1.0
                add(Constraint("flow_d%d_e%d_n%d" % (d.id, e, i), coeffs,
                               "=", 0.0))

    for (d, _, E), Ud in zip(chains, U):
        for i in nodes:
            add(Constraint("endpoint_src_d%d_n%d" % (d.id, i),
                           {Ud[0][i]: 1.0}, "=", 1.0 if i == d.src else 0.0))
            add(Constraint("endpoint_dst_d%d_n%d" % (d.id, i),
                           {Ud[E][i]: 1.0}, "=", 1.0 if i == d.dst else 0.0))
        for k in range(1, E):
            add(Constraint("place_once_k%d_d%d" % (k, d.id),
                           dict.fromkeys(Ud[k], 1.0), "=", 1.0))

    psi_w = sum(E for _, _, E in chains)
    for a, b in cables:
        coeffs = {}
        for Wd in W:
            for We in Wd:
                coeffs[We[a, b]] = 1.0
                coeffs[We[b, a]] = 1.0
        coeffs[L[a, b]] = -float(psi_w)
        add(Constraint("cable_on_%d_%d" % (a, b), coeffs, "<=", 0.0))
    psi_y = 2 * graph.num_nodes
    for i in nodes:
        coeffs = dict.fromkeys((L[(i, j) if i < j else (j, i)]
                                for j in nbrs[i]), 1.0)
        coeffs[Y[i]] = -float(psi_y)
        add(Constraint("switch_on_%d" % i, coeffs, "<=", 0.0))
    for i in nodes:
        psi_x = sum(cores[i] // fn.cores for fn in types.values())
        coeffs = dict.fromkeys(Z[i].values(), 1.0)
        coeffs[X[i]] = -float(max(psi_x, 1))
        add(Constraint("pm_on_%d" % i, coeffs, "<=", 0.0))
    return m


def reference_validate_solution(model: MilpModel,
                                assignment: Mapping[str, float],
                                objective: Optional[float] = None) -> List[str]:
    """exact.validate_solution as it was before it skipped the domain test
    of zeros: every variable's value goes through every domain test. It
    reads each variable's name from the model's keys and its domain from
    .kind and .ub, so it runs on models from either builder."""
    bad: List[str] = []
    values = dict.fromkeys(model.variables, 0.0)
    for name, value in assignment.items():
        if name in values:
            values[name] = float(value)
        else:
            bad.append("unknown variable %s" % name)
    value = values.__getitem__
    for name, var in model.variables.items():
        v = values[name]
        if not math.isfinite(v):
            bad.append("%s = %r is not finite" % (name, v))
            continue
        if abs(v - round(v)) > _TOL:
            bad.append("%s = %r is not integral" % (name, v))
        lo, hi = 0.0, 1.0 if var.kind == "binary" else var.ub
        if v < lo - _TOL or (hi is not None and v > hi + _TOL):
            bad.append("%s = %r outside [%s, %s]" % (name, v, lo, hi))
    for con in model.constraints:
        lhs = sum(map(mul, con.coeffs.values(), map(value, con.coeffs)))
        ok = (lhs <= con.rhs + _TOL if con.sense == "<=" else
              lhs >= con.rhs - _TOL if con.sense == ">=" else
              abs(lhs - con.rhs) <= _TOL)
        if not ok:
            bad.append("constraint %s violated: lhs %r %s rhs %r"
                       % (con.name, lhs, con.sense, con.rhs))
    if objective is not None:
        got = sum(map(mul, model.objective.values(),
                      map(value, model.objective)))
        if not abs(got - objective) <= _TOL:
            bad.append("objective mismatch: %r vs %r" % (got, objective))
    return bad
