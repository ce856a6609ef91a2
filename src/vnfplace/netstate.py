"""Mutable substrate state: link residuals, function instances, allocations.

Bandwidth is tracked internally as integer kb/s so that applying and
releasing an allocation are exact inverses (no float drift); topology
finds the kb/s of each Mb/s input. The commit checks a route in one walk
that also counts each directed link's crossings and adds the delay as
_route_delay does, then books those counts through _book, the one booking
routine, which release shares once it has tallied its route. A plan that
opens no instance is stored as given; otherwise only placeholder ids are
resolved.

NetworkState keeps link residuals and use counts, each node's instances,
and two indices, changed only when an allocation is applied or released
and checked against a rebuild by validate(): the lit cables of each
switch and the CPU cores in use on each node. The commit and both
placers' per-demand tables read these directly. lit_epoch counts cables
lit or gone dark; while it holds, so does every lit bit, and the island
walk reuses its reads. The read API (_StateView) serves power pricing,
the hierarchy, extract_assignment and the tests; the planning view
StateOverlay shares it, and only tests and perfbench read the overlay.

netstate owns delay arithmetic and the delay rule: add_delays and path_delay
add left to right, as sum() did before Python 3.12; over_budget judges them.

PMs and functions are sized in CPU cores alone. fits() is the one
PM-capacity rule, used by the commit and both placers' per-demand tables;
the overlay's has_room and validate()'s check stay apart, as oracles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    TYPE_CHECKING)

from .topology import FunctionType, Link, NetworkGraph

if TYPE_CHECKING:
    from .workload import Demand


_DELAY_TOL_MS = 1e-9        # delays (ms) this close are one delay


class AllocationError(ValueError):
    """A requested state change would violate capacity or consistency."""


@dataclass
class VnfInstance:
    """One running function instance on a PM.

    served maps demand id to the total kb/s this instance processes for
    that demand (a chain may traverse the same instance more than once).
    """

    id: int
    node: int
    function: FunctionType
    residual_kbps: int
    served: Dict[int, int]


@dataclass(frozen=True)
class Route:
    """Per-virtual-hop physical paths. segments[k] carries the traffic
    from the k-th chain position's predecessor to the position itself;
    the final segment reaches the destination. Empty segments mean
    co-location."""

    segments: Tuple[Tuple[Link, ...], ...]

    def links(self):
        for seg in self.segments:
            for link in seg:
                yield link

    @property
    def propagation_ms(self) -> float:
        """The route's link delays by path_delay, in route order."""
        return path_delay(itertools.chain.from_iterable(self.segments))


@dataclass(frozen=True)
class FunctionAssignment:
    """Chain position -> (PM node, instance). Negative instance ids are
    placeholders for instances that do not exist yet; equal placeholders
    within one allocation resolve to the same new instance."""

    function: FunctionType
    node: int
    instance_id: int


@dataclass(frozen=True)
class Allocation:
    demand_id: int
    assignments: Tuple[FunctionAssignment, ...]
    route: Route
    total_delay_ms: float
    bandwidth_kbps: int


def add_delays(delays: Iterable[float]) -> float:
    """Delays (ms) added left to right from 0.0, on any Python version."""
    total = 0.0
    for delay in delays:
        total += delay
    return total


def path_delay(links: Iterable[Link], start: float = 0.0) -> float:
    """add_delays over the links' delays, from start (as in sum())."""
    total = start
    for link in links:
        total += link.delay
    return total


def _route_delay(allocation: Allocation) -> float:
    """Propagation over the route plus processing at every chain position."""
    return allocation.route.propagation_ms + add_delays(
        a.function.processing_delay for a in allocation.assignments)


def over_budget(delay_ms: float, budget_ms: float) -> bool:
    """The one delay-budget rule, by which the commit judges _route_delay
    and every placer plans: a delay over budget by over _DELAY_TOL_MS."""
    return delay_ms > budget_ms + _DELAY_TOL_MS


def fits(used: int, need: int, cores: int) -> bool:
    """Whether need more cores fit a PM of cores with used in use."""
    return used + need <= cores


class _StateView:
    """Derived queries, defined once over three primitives that each
    state class supplies: residual(src, dst) in kb/s, link_used(src, dst),
    and hosted(node), the instances on a node each with its free kb/s.
    NetworkState answers switch_active, pm_active and used_cores, the CPU
    cores in use on a node, from its indices instead."""

    graph: NetworkGraph

    def sym_residual(self, a: int, b: int) -> int:
        """min of both directions, kb/s; the cable-level free capacity."""
        return min(self.residual(a, b), self.residual(b, a))

    def cable_active(self, a: int, b: int) -> bool:
        return self.link_used(a, b) or self.link_used(b, a)

    def switch_active(self, node: int) -> bool:
        return any(self.cable_active(node, nbr) for nbr in self.graph.neighbors(node))

    def pm_active(self, node: int) -> bool:
        return any(True for _ in self.hosted(node))

    def used_cores(self, node: int) -> int:
        return sum(inst.function.cores for inst, _ in self.hosted(node))

    def cpu_utilization(self, node: int) -> float:
        return self.used_cores(node) / self.graph.node(node).pm.cores


class NetworkState(_StateView):
    """All mutable capacity state of a substrate network."""

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.residual_kbps: Dict[Tuple[int, int], int] = {
            (l.src, l.dst): l.capacity_kbps for l in graph.links}
        self.link_use: Dict[Tuple[int, int], int] = {
            (l.src, l.dst): 0 for l in graph.links}
        self.instances: Dict[int, VnfInstance] = {}
        # node -> {instance id: instance}; the same objects as instances
        self.node_instances: Dict[int, Dict[int, VnfInstance]] = {
            n.id: {} for n in graph.nodes}
        # switch -> lit cables; node -> CPU cores in use
        self.lit_cables: Dict[int, int] = {n.id: 0 for n in graph.nodes}
        self.cores_used: Dict[int, int] = {n.id: 0 for n in graph.nodes}
        self.lit_epoch = 0
        self.allocations: Dict[int, Allocation] = {}
        self._next_instance = 0

    # -- primitives ------------------------------------------------------

    def residual(self, src: int, dst: int) -> int:
        """Free capacity of the directed link, kb/s."""
        return self.residual_kbps[(src, dst)]

    def link_used(self, src: int, dst: int) -> bool:
        return self.link_use[(src, dst)] > 0

    def hosted(self, node: int) -> Iterator[Tuple[VnfInstance, int]]:
        for inst in self.node_instances[node].values():
            yield inst, inst.residual_kbps

    def switch_active(self, node: int) -> bool:
        return self.lit_cables[node] > 0

    def pm_active(self, node: int) -> bool:
        return bool(self.node_instances[node])

    def used_cores(self, node: int) -> int:
        return self.cores_used[node]

    # -- mutation --------------------------------------------------------

    def apply_allocation(self, allocation: Allocation, demand: "Demand") -> Allocation:
        """Atomically commit an allocation. Placeholder instance ids are
        resolved to fresh instances in a new record, returned; a plan with
        no placeholder is itself stored and returned (Allocation is frozen).
        Raises AllocationError leaving the state untouched on any violation.

        One walk over the route checks its continuity, its links and its
        segment ends, counts the crossings of each directed link and adds
        the links' delays in route order, from 0.0, as path_delay does;
        the chain's processing follows as in _route_delay, so the delay
        checks see _route_delay to the bit. _book then books the counts."""
        if demand.id in self.allocations:
            raise AllocationError("demand %d already allocated" % demand.id)
        if allocation.demand_id != demand.id:
            raise AllocationError("allocation/demand id mismatch")
        assignments = allocation.assignments
        if [a.function for a in assignments] != list(demand.chain):
            raise AllocationError("assignments do not match the demand chain")
        kbps = allocation.bandwidth_kbps
        if kbps != demand.bandwidth_kbps:
            raise AllocationError("allocation carries %d kbps, demand asks %d"
                                  % (kbps, demand.bandwidth_kbps))
        if len(allocation.route.segments) != len(assignments) + 1:
            raise AllocationError("route must have one segment per chain hop")
        crossings: Dict[Tuple[int, int], int] = {}
        residual = self.residual_kbps
        delay = 0.0
        at = demand.src
        for k, seg in enumerate(allocation.route.segments):
            for link in seg:
                if link.src != at:
                    raise AllocationError("discontinuous route at node %d" % at)
                pair = (at, link.dst)
                if pair not in residual:
                    raise AllocationError("route uses unknown link %d->%d" % pair)
                crossings[pair] = crossings.get(pair, 0) + 1
                delay += link.delay
                at = link.dst
            want = assignments[k].node if k < len(assignments) else demand.dst
            if at != want:
                raise AllocationError("segment %d ends at %d, expected %d"
                                      % (k, at, want))
        delay += add_delays(a.function.processing_delay for a in assignments)
        if abs(delay - allocation.total_delay_ms) > _DELAY_TOL_MS:
            raise AllocationError("reported delay %r ms, route and chain take "
                                  "%r ms" % (allocation.total_delay_ms, delay))
        if over_budget(delay, demand.delay_budget):
            raise AllocationError("delay %r ms exceeds budget %r ms"
                                  % (delay, demand.delay_budget))
        for pair, count in crossings.items():
            if residual[pair] < count * kbps:
                raise AllocationError("link %d->%d lacks %d kbps"
                                      % (*pair, count * kbps))

        # placeholder -> (function, node), in the order new instances are made
        inst_need: Dict[int, int] = {}
        placeholders: Dict[int, Tuple[FunctionType, int]] = {}
        for a in assignments:
            inst_need[a.instance_id] = inst_need.get(a.instance_id, 0) + kbps
            if (a.instance_id < 0 and placeholders.setdefault(
                    a.instance_id, (a.function, a.node)) != (a.function, a.node)):
                raise AllocationError("placeholder %d reused inconsistently"
                                      % a.instance_id)
        new_cores: Dict[int, int] = {}
        for inst_id, need in inst_need.items():
            if inst_id >= 0:
                inst = self.instances.get(inst_id)
                if inst is None:
                    raise AllocationError("unknown instance %d" % inst_id)
                if inst.residual_kbps < need:
                    raise AllocationError("instance %d lacks %d kbps" % (inst_id, need))
            else:
                function, node = placeholders[inst_id]
                if function.capacity_kbps < need:
                    raise AllocationError("new %s instance cannot carry %d kbps"
                                          % (function.name, need))
                new_cores[node] = new_cores.get(node, 0) + function.cores
        for a in assignments:
            if a.instance_id >= 0:
                inst = self.instances[a.instance_id]
                if (inst.node, inst.function) != (a.node, a.function):
                    raise AllocationError("instance %d does not match assignment"
                                          % a.instance_id)
        for node, need in new_cores.items():
            if not fits(self.cores_used[node], need, self.graph.nodes[node].pm.cores):
                raise AllocationError("PM %d lacks cpu for new instances" % node)

        # all checks passed, now mutate
        self._book(crossings, kbps, 1)
        id_map: Dict[int, int] = {}
        for placeholder, (function, node) in placeholders.items():
            new_id = id_map[placeholder] = self._next_instance
            self._next_instance += 1
            inst = VnfInstance(new_id, node, function, function.capacity_kbps, {})
            self.instances[new_id] = inst
            self.node_instances[node][new_id] = inst
            self.cores_used[node] += function.cores
        for inst_id, need in inst_need.items():
            inst = self.instances[id_map.get(inst_id, inst_id)]
            inst.residual_kbps -= need
            inst.served[demand.id] = inst.served.get(demand.id, 0) + need
        if id_map:
            resolved = tuple(a if a.instance_id >= 0 else FunctionAssignment(
                a.function, a.node, id_map[a.instance_id]) for a in assignments)
            allocation = Allocation(allocation.demand_id, resolved,
                                    allocation.route, allocation.total_delay_ms,
                                    kbps)
        self.allocations[demand.id] = allocation
        return allocation

    def release_allocation(self, demand_id: int) -> None:
        """Exact inverse of apply_allocation. Instances left with full
        residual are shut down."""
        alloc = self.allocations.pop(demand_id, None)
        if alloc is None:
            raise AllocationError("demand %d has no allocation" % demand_id)
        self._book(Counter((l.src, l.dst) for l in alloc.route.links()),
                   alloc.bandwidth_kbps, -1)
        for inst_id in {a.instance_id for a in alloc.assignments}:
            inst = self.instances[inst_id]
            inst.residual_kbps += inst.served.pop(demand_id)
            if inst.residual_kbps == inst.function.capacity_kbps:
                del self.instances[inst_id]
                del self.node_instances[inst.node][inst_id]
                self.cores_used[inst.node] -= inst.function.cores

    def _book(self, crossings: Dict[Tuple[int, int], int], kbps: int,
              step: int) -> None:
        """Book kbps on (step 1) or off (step -1) each directed link once
        per crossing: its residual, its use count, and the lit cables of
        both switches when its cable's use leaves or reaches 0, which bumps
        lit_epoch once per such cable."""
        residual, use, lit = self.residual_kbps, self.link_use, self.lit_cables
        for pair, count in crossings.items():
            src, dst = pair
            residual[pair] -= step * count * kbps
            before = use[pair] + use[(dst, src)]
            use[pair] += step * count
            if not before or not before + step * count:
                lit[src] += step
                lit[dst] += step
                self.lit_epoch += 1

    # -- integrity -------------------------------------------------------

    def validate(self) -> List[str]:
        """Cross-check every piece of bookkeeping; returns violations."""
        bad: List[str] = []
        want_res: Dict[Tuple[int, int], int] = Counter()
        want_use: Dict[Tuple[int, int], int] = Counter()
        for alloc in self.allocations.values():
            for link in alloc.route.links():
                want_res[(link.src, link.dst)] += alloc.bandwidth_kbps
                want_use[(link.src, link.dst)] += 1
        for link in self.graph.links:
            pair = (link.src, link.dst)
            cap = link.capacity_kbps
            res = self.residual_kbps[pair]
            if not 0 <= res <= cap:
                bad.append("link %d->%d residual %d outside [0, %d]"
                           % (link.src, link.dst, res, cap))
            if cap - res != want_res[pair]:
                bad.append("link %d->%d books %d kbps, allocations need %d"
                           % (link.src, link.dst, cap - res, want_res[pair]))
            if self.link_use[pair] != want_use[pair]:
                bad.append("link %d->%d use count %d, allocations route %d"
                           % (link.src, link.dst, self.link_use[pair], want_use[pair]))
        want_served: Dict[Tuple[int, int], int] = Counter()
        for alloc in self.allocations.values():
            for a in alloc.assignments:
                want_served[(a.instance_id, alloc.demand_id)] += alloc.bandwidth_kbps
        for inst in self.instances.values():
            take = sum(inst.served.values())
            cap = inst.function.capacity_kbps
            if inst.residual_kbps + take != cap:
                bad.append("instance %d residual %d + served %d != capacity %d"
                           % (inst.id, inst.residual_kbps, take, cap))
            if inst.residual_kbps < 0:
                bad.append("instance %d oversubscribed" % inst.id)
            for dem, amount in inst.served.items():
                if want_served.get((inst.id, dem)) != amount:
                    bad.append("instance %d serves demand %d with %d kbps, "
                               "allocations say %s"
                               % (inst.id, dem, amount,
                                  want_served.get((inst.id, dem))))
        for (inst_id, dem), amount in want_served.items():
            if inst_id not in self.instances:
                bad.append("allocation %d references missing instance %d"
                           % (dem, inst_id))
        for inst in self.instances.values():
            if self.node_instances.get(inst.node, {}).get(inst.id) is not inst:
                bad.append("instance %d missing from the index of node %d"
                           % (inst.id, inst.node))
        indexed = sum(len(hosted) for hosted in self.node_instances.values())
        if indexed != len(self.instances):
            bad.append("node index holds %d instances, %d are live"
                       % (indexed, len(self.instances)))
        want_cores: Dict[int, int] = Counter()
        for inst in self.instances.values():
            want_cores[inst.node] += inst.function.cores
        for node in self.graph.nodes:
            lit = sum(1 for nbr in self.graph.neighbors(node.id)
                      if want_use[(node.id, nbr)] or want_use[(nbr, node.id)])
            if self.lit_cables[node.id] != lit:
                bad.append("switch %d indexes %d lit cables, %d are lit"
                           % (node.id, self.lit_cables[node.id], lit))
            used = want_cores[node.id]
            if self.cores_used[node.id] != used:
                bad.append("PM %d indexes %d cores in use, its instances "
                           "use %d" % (node.id, self.cores_used[node.id], used))
            if used > node.pm.cores:
                bad.append("PM %d over capacity (%d > %d cores)"
                           % (node.id, used, node.pm.cores))
        for dem, alloc in self.allocations.items():
            if alloc.demand_id != dem:
                bad.append("allocation keyed %d carries id %d" % (dem, alloc.demand_id))
            total = _route_delay(alloc)
            if abs(total - alloc.total_delay_ms) > _DELAY_TOL_MS:
                bad.append("allocation %d delay %r, recomputed %r"
                           % (dem, alloc.total_delay_ms, total))
        return bad

    def snapshot(self) -> str:
        """Deterministic text dump of all non-pristine state."""
        out = []
        for link in sorted(self.link_use, key=lambda p: p):
            res = self.residual_kbps[link]
            cap = self.graph.link(*link).capacity_kbps
            if res != cap or self.link_use[link]:
                out.append("link %d %d residual %d use %d"
                           % (link[0], link[1], res, self.link_use[link]))
        for inst in sorted(self.instances.values(), key=lambda i: i.id):
            served = ",".join("%d:%d" % kv for kv in sorted(inst.served.items()))
            out.append("instance %d node %d fn %s residual %d served %s"
                       % (inst.id, inst.node, inst.function.name,
                          inst.residual_kbps, served))
        for dem in sorted(self.allocations):
            alloc = self.allocations[dem]
            fns = ",".join("%s@%d#%d" % (a.function.name, a.node, a.instance_id)
                           for a in alloc.assignments)
            segs = ";".join(",".join("%d-%d" % (l.src, l.dst) for l in seg)
                            for seg in alloc.route.segments)
            out.append("alloc %d bw %d delay %r fns %s route %s"
                       % (dem, alloc.bandwidth_kbps, alloc.total_delay_ms,
                          fns, segs))
        return "\n".join(out) + "\n"


class StateOverlay(_StateView):
    """A NetworkState read view with uncommitted deltas layered on top.

    No placer reads it: the island walk and the centrality search each
    patch a per-demand table of their own. It stays as the tests' oracle
    for those tables and for the benchmark's tracer.
    """

    def __init__(self, state: NetworkState):
        self.state = state
        self.graph = state.graph
        self.link_debit: Dict[Tuple[int, int], int] = {}
        self.inst_debit: Dict[int, int] = {}
        self.pending: Dict[int, VnfInstance] = {}
        self._next_placeholder = -1

    def fork(self) -> "StateOverlay":
        """Independent copy of the pending deltas over the same state, to
        explore alternatives without unwinding. No placer calls it (the
        centrality search patches and undoes its own path table); it stays
        for the tests and the benchmark's tracer."""
        dup = StateOverlay(self.state)
        dup.link_debit = dict(self.link_debit)
        dup.inst_debit = dict(self.inst_debit)
        dup.pending = {
            k: VnfInstance(p.id, p.node, p.function, p.residual_kbps,
                           dict(p.served))
            for k, p in self.pending.items()}
        dup._next_placeholder = self._next_placeholder
        return dup

    # -- deltas ----------------------------------------------------------

    def add_links(self, links: Iterable[Link], kbps: int) -> None:
        for link in links:
            pair = (link.src, link.dst)
            self.link_debit[pair] = self.link_debit.get(pair, 0) + kbps

    def add_assignment(self, function: FunctionType, node: int,
                       instance_id: Optional[int], kbps: int) -> int:
        """Record one chain position. instance_id None creates a pending
        instance and returns its placeholder id (negative)."""
        if instance_id is None:
            inst_id = self._next_placeholder
            self._next_placeholder -= 1
            self.pending[inst_id] = VnfInstance(
                inst_id, node, function, function.capacity_kbps - kbps, {})
            return inst_id
        if instance_id in self.pending:
            self.pending[instance_id].residual_kbps -= kbps
        else:
            self.inst_debit[instance_id] = self.inst_debit.get(instance_id, 0) + kbps
        return instance_id

    # -- primitives ------------------------------------------------------

    def residual(self, src: int, dst: int) -> int:
        return self.state.residual(src, dst) - self.link_debit.get((src, dst), 0)

    def link_used(self, src: int, dst: int) -> bool:
        return self.state.link_used(src, dst) or self.link_debit.get((src, dst), 0) > 0

    def hosted(self, node: int) -> Iterator[Tuple[VnfInstance, int]]:
        for inst, free in self.state.hosted(node):
            yield inst, free - self.inst_debit.get(inst.id, 0)
        for inst in self.pending.values():
            if inst.node == node:
                yield inst, inst.residual_kbps

    # -- planning queries: the state's indices plus the deltas -----------

    def has_room(self, node: int, function: FunctionType) -> bool:
        used = self.state.used_cores(node) + function.cores
        for inst in self.pending.values():
            if inst.node == node:
                used += inst.function.cores
        return used <= self.graph.node(node).pm.cores

    def find_reusable(self, node: int, function: FunctionType,
                      need_kbps: int) -> Optional[Tuple[int, int]]:
        """Best-fit instance of the given function type on the node with at
        least need_kbps spare, as (instance id, residual); None if none fits."""
        name, debit, best = function.name, self.inst_debit, None
        for inst in self.state.node_instances[node].values():
            if inst.function.name == name:
                free = inst.residual_kbps - debit.get(inst.id, 0)
                if free >= need_kbps and (best is None or (free, inst.id) < best):
                    best = (free, inst.id)
        for inst in self.pending.values():
            if (inst.node == node and inst.function.name == name
                    and inst.residual_kbps >= need_kbps
                    and (best is None or (inst.residual_kbps, inst.id) < best)):
                best = (inst.residual_kbps, inst.id)
        if best is None:
            return None
        return (best[1], best[0])
