"""Reference integer model of chain placement and an exact tiny solver.

build_model emits the complete binary/integer formulation; export_lp
renders it as CPLEX LP text for external solvers. solve_exact_small
finds a provably optimal solution for tiny instances by enumerating
lit-cable subsets in ascending network power and, per subset, all ways
of pinning chain positions to nodes (deduplicated through a dynamic
program over instance-usage sets). validate_solution re-checks any
assignment against every row of the model.

Virtual node indexing per demand with a K-function chain: 0 is the
source endpoint, 1..K the chain positions, K+1 the destination; virtual
edge e joins virtual nodes e and e+1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .netstate import (Allocation, FunctionAssignment, NetworkState, Route,
                       to_kbps)
from .power import pm_power, total_power
from .topology import CPU, FunctionType, NetworkGraph

_TOL = 1e-6


class ExactLimitError(ValueError):
    """Instance too large (or outside the regime) for the exact solver."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str                 # "binary" or "integer"
    lb: float = 0.0
    ub: Optional[float] = None


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: Mapping[str, float]
    sense: str                # "<=", ">=" or "="
    rhs: float


class MilpModel:
    """A fully materialized instance of the placement program."""

    def __init__(self, graph: NetworkGraph, demands: Sequence):
        self.graph = graph
        self.demands = list(demands)
        self.variables: Dict[str, Variable] = {}
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}
        self.types: Dict[str, FunctionType] = {}

    def add_var(self, name: str, kind: str, ub: Optional[float] = None) -> str:
        self.variables[name] = Variable(name, kind, 0.0, ub)
        return name

    def add_con(self, name: str, coeffs: Dict[str, float], sense: str,
                rhs: float) -> None:
        self.constraints.append(Constraint(name, dict(coeffs), sense, rhs))

    def z_upper(self, node: int, fname: str) -> int:
        cap = self.graph.node(node).pm.capacity
        fn = self.types[fname]
        return min(cap.get(res, 0) // need
                   for res, need in fn.requirements.items())


def _u(i: int, k: int, g: int) -> str:
    return "u_%d_%d_%d" % (i, k, g)


def _w(i: int, j: int, e: int, g: int) -> str:
    return "w_%d_%d_%d_%d" % (i, j, e, g)


def _z(i: int, fname: str) -> str:
    return "z_%d_%s" % (i, fname)


def build_model(graph: NetworkGraph, demands: Sequence) -> MilpModel:
    """Materialize every variable and constraint row for the instance."""
    m = MilpModel(graph, demands)
    ids = [d.id for d in m.demands]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate demand ids: %r" % ids)
    for d in m.demands:
        if not (0 <= d.src < graph.num_nodes and 0 <= d.dst < graph.num_nodes):
            raise ValueError("demand %d has endpoints outside the graph" % d.id)
        for fn in d.chain:
            known = m.types.setdefault(fn.name, fn)
            if known is not fn and known != fn:
                raise ValueError("conflicting definitions of type %s" % fn.name)
    params = graph.power
    nodes = [n.id for n in graph.nodes]
    cables = graph.cables()

    for i in nodes:
        m.add_var("x_%d" % i, "binary")
    for i in nodes:
        m.add_var("y_%d" % i, "binary")
    for a, b in cables:
        m.add_var("l_%d_%d" % (a, b), "binary")
    for i in nodes:
        for fname in m.types:
            m.add_var(_z(i, fname), "integer", ub=m.z_upper(i, fname))
    for d in m.demands:
        K = len(d.chain)
        for k in range(K + 2):
            for i in nodes:
                m.add_var(_u(i, k, d.id), "binary")
        for e in range(K + 1):
            for link in graph.links:
                m.add_var(_w(link.src, link.dst, e, d.id), "binary")

    for i in nodes:
        m.objective["x_%d" % i] = params.pm_idle_w
        slope = params.pm_max_w - params.pm_idle_w
        cores = graph.node(i).pm.cores
        for fname, fn in m.types.items():
            m.objective[_z(i, fname)] = slope * fn.requirements[CPU] / cores
    for i in nodes:
        m.objective["y_%d" % i] = params.switch_static_w
    for a, b in cables:
        m.objective["l_%d_%d" % (a, b)] = 2.0 * params.port_w

    # per-PM resource capacity
    resources = sorted({res for n in graph.nodes for res in n.pm.capacity})
    for i in nodes:
        for res in resources:
            coeffs = {_z(i, fname): fn.requirements.get(res, 0)
                      for fname, fn in m.types.items()
                      if fn.requirements.get(res, 0)}
            if coeffs:
                m.add_con("resource_n%d_%s" % (i, res), coeffs, "<=",
                          graph.node(i).pm.capacity.get(res, 0))

    # per-type processing capacity; every traversal of a position counts
    for i in nodes:
        for fname, fn in m.types.items():
            coeffs: Dict[str, float] = {}
            for d in m.demands:
                for k, cfn in enumerate(d.chain, start=1):
                    if cfn.name == fname:
                        name = _u(i, k, d.id)
                        coeffs[name] = coeffs.get(name, 0.0) + d.bandwidth
            coeffs[_z(i, fname)] = -fn.processing_capacity
            m.add_con("processing_n%d_%s" % (i, fname), coeffs, "<=", 0.0)

    # directed link capacity
    for link in graph.links:
        coeffs = {}
        for d in m.demands:
            for e in range(len(d.chain) + 1):
                coeffs[_w(link.src, link.dst, e, d.id)] = d.bandwidth
        m.add_con("linkcap_%d_%d" % (link.src, link.dst), coeffs, "<=",
                  link.capacity)

    # a position may only sit where an instance of its type runs
    for d in m.demands:
        for k, fn in enumerate(d.chain, start=1):
            for i in nodes:
                m.add_con("mapping_n%d_k%d_d%d" % (i, k, d.id),
                          {_u(i, k, d.id): 1.0, _z(i, fn.name): -1.0},
                          "<=", 0.0)

    # end-to-end delay: processing once per traversal plus propagation
    for d in m.demands:
        coeffs = {}
        for k, fn in enumerate(d.chain, start=1):
            for i in nodes:
                coeffs[_u(i, k, d.id)] = fn.processing_delay
        for e in range(len(d.chain) + 1):
            for link in graph.links:
                coeffs[_w(link.src, link.dst, e, d.id)] = link.delay
        m.add_con("delay_d%d" % d.id, coeffs, "<=", d.delay_budget)

    # flow conservation per virtual edge
    for d in m.demands:
        for e in range(len(d.chain) + 1):
            for i in nodes:
                coeffs = {}
                for j in graph.neighbors(i):
                    coeffs[_w(i, j, e, d.id)] = 1.0
                    coeffs[_w(j, i, e, d.id)] = -1.0
                coeffs[_u(i, e, d.id)] = coeffs.get(_u(i, e, d.id), 0.0) - 1.0
                coeffs[_u(i, e + 1, d.id)] = coeffs.get(_u(i, e + 1, d.id), 0.0) + 1.0
                m.add_con("flow_d%d_e%d_n%d" % (d.id, e, i), coeffs, "=", 0.0)

    # endpoints are pinned, chain positions hosted exactly once
    for d in m.demands:
        K = len(d.chain)
        for i in nodes:
            m.add_con("endpoint_src_d%d_n%d" % (d.id, i),
                      {_u(i, 0, d.id): 1.0}, "=",
                      1.0 if i == d.src else 0.0)
            m.add_con("endpoint_dst_d%d_n%d" % (d.id, i),
                      {_u(i, K + 1, d.id): 1.0}, "=",
                      1.0 if i == d.dst else 0.0)
        for k in range(1, K + 1):
            m.add_con("place_once_k%d_d%d" % (k, d.id),
                      {_u(i, k, d.id): 1.0 for i in nodes}, "=", 1.0)

    # indicator couplings with documented big-M values
    psi_w = sum(len(d.chain) + 1 for d in m.demands)
    for a, b in cables:
        coeffs = {}
        for d in m.demands:
            for e in range(len(d.chain) + 1):
                coeffs[_w(a, b, e, d.id)] = 1.0
                coeffs[_w(b, a, e, d.id)] = 1.0
        coeffs["l_%d_%d" % (a, b)] = -float(psi_w)
        m.add_con("cable_on_%d_%d" % (a, b), coeffs, "<=", 0.0)
    psi_y = 2 * graph.num_nodes
    for i in nodes:
        coeffs = {}
        for j in graph.neighbors(i):
            a, b = (i, j) if i < j else (j, i)
            coeffs["l_%d_%d" % (a, b)] = 1.0
        coeffs["y_%d" % i] = -float(psi_y)
        m.add_con("switch_on_%d" % i, coeffs, "<=", 0.0)
    for i in nodes:
        psi_x = sum(m.z_upper(i, fname) for fname in m.types)
        coeffs = {_z(i, fname): 1.0 for fname in m.types}
        coeffs["x_%d" % i] = -float(max(psi_x, 1))
        m.add_con("pm_on_%d" % i, coeffs, "<=", 0.0)
    return m


# -- LP text -------------------------------------------------------------


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return "%.12g" % value


def _terms(coeffs: Mapping[str, float]) -> str:
    parts = []
    for name, coeff in coeffs.items():
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = name if mag == 1 else "%s %s" % (_num(mag), name)
        if not parts:
            parts.append(body if sign == "+" else "- " + body)
        else:
            parts.append("%s %s" % (sign, body))
    return " ".join(parts) if parts else "0 " + next(iter(coeffs), "none")


def export_lp(model: MilpModel) -> str:
    """Deterministic CPLEX LP rendering of the model."""
    out = ["Minimize", " obj: %s" % _terms(model.objective), "Subject To"]
    for con in model.constraints:
        out.append(" %s: %s %s %s" % (con.name, _terms(con.coeffs),
                                      con.sense, _num(con.rhs)))
    bounds = [v for v in model.variables.values()
              if v.kind == "integer" and v.ub is not None]
    if bounds:
        out.append("Bounds")
        for v in bounds:
            out.append(" %s <= %s" % (v.name, _num(v.ub)))
    binaries = [v.name for v in model.variables.values() if v.kind == "binary"]
    if binaries:
        out.append("Binaries")
        for i in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[i:i + 8]))
    generals = [v.name for v in model.variables.values() if v.kind == "integer"]
    if generals:
        out.append("Generals")
        for i in range(0, len(generals), 8):
            out.append(" " + " ".join(generals[i:i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


# -- validation ----------------------------------------------------------


def validate_solution(model: MilpModel, assignment: Mapping[str, float],
                      objective: Optional[float] = None) -> List[str]:
    """Check an assignment against every variable domain and every row.
    Missing variables count as zero. Returns human-readable violations."""
    bad: List[str] = []

    def val(name: str) -> float:
        return float(assignment.get(name, 0.0))

    for name in assignment:
        if name not in model.variables:
            bad.append("unknown variable %s" % name)
    for var in model.variables.values():
        v = val(var.name)
        if abs(v - round(v)) > _TOL:
            bad.append("%s = %r is not integral" % (var.name, v))
        lo, hi = var.lb, 1.0 if var.kind == "binary" else var.ub
        if v < lo - _TOL or (hi is not None and v > hi + _TOL):
            bad.append("%s = %r outside [%s, %s]" % (var.name, v, lo, hi))
    for con in model.constraints:
        lhs = sum(coeff * val(name) for name, coeff in con.coeffs.items())
        ok = (lhs <= con.rhs + _TOL if con.sense == "<=" else
              lhs >= con.rhs - _TOL if con.sense == ">=" else
              abs(lhs - con.rhs) <= _TOL)
        if not ok:
            bad.append("constraint %s violated: lhs %r %s rhs %r"
                       % (con.name, lhs, con.sense, con.rhs))
    if objective is not None:
        got = sum(coeff * val(name) for name, coeff in model.objective.items())
        if abs(got - objective) > _TOL:
            bad.append("objective mismatch: %r vs %r" % (got, objective))
    return bad


def extract_assignment(model: MilpModel, state: NetworkState) -> Dict[str, float]:
    """Express a committed placement (all model demands allocated in the
    state) as a model assignment, for cross-validation."""
    assignment: Dict[str, float] = {}
    for d in model.demands:
        alloc = state.allocations.get(d.id)
        if alloc is None:
            raise ValueError("demand %d not allocated in the state" % d.id)
        assignment[_u(d.src, 0, d.id)] = 1.0
        assignment[_u(d.dst, len(d.chain) + 1, d.id)] = 1.0
        for k, fa in enumerate(alloc.assignments, start=1):
            name = _u(fa.node, k, d.id)
            assignment[name] = 1.0
        for e, seg in enumerate(alloc.route.segments):
            for link in seg:
                assignment[_w(link.src, link.dst, e, d.id)] = 1.0
    per_type: Dict[Tuple[int, str], int] = {}
    for inst in state.instances.values():
        key = (inst.node, inst.function.name)
        per_type[key] = per_type.get(key, 0) + 1
    for (node, fname), count in per_type.items():
        assignment[_z(node, fname)] = float(count)
    for node in state.graph.nodes:
        if state.pm_active(node.id):
            assignment["x_%d" % node.id] = 1.0
        if state.switch_active(node.id):
            assignment["y_%d" % node.id] = 1.0
    for a, b in state.graph.cables():
        if state.cable_active(a, b):
            assignment["l_%d_%d" % (a, b)] = 1.0
    return assignment


# -- exact solver for tiny instances -------------------------------------


@dataclass(frozen=True)
class ExactLimits:
    max_nodes: int = 6
    max_cables: int = 9
    max_demands: int = 3
    max_chain_len: int = 2


@dataclass
class ExactSolution:
    status: str                       # "optimal" or "infeasible"
    objective: Optional[float]
    assignment: Dict[str, float]
    allocations: List[Allocation]
    state: Optional[NetworkState]


def _check_limits(model: MilpModel, limits: ExactLimits) -> None:
    graph, demands = model.graph, model.demands
    longest = max((len(d.chain) for d in demands), default=0)
    for what, count, limit in (
            ("%d nodes", graph.num_nodes, limits.max_nodes),
            ("%d cables", len(graph.cables()), limits.max_cables),
            ("%d demands", len(demands), limits.max_demands),
            ("chain of %d functions", longest, limits.max_chain_len)):
        if count > limit:
            raise ExactLimitError(
                (what + " exceeds the exact solver limit of %d; use export_lp "
                 "with an external solver") % (count, limit))
    if not demands:
        return
    # the search ignores bandwidth, which is only sound when no routing or
    # instance-count choice can ever make a capacity constraint bind
    total = sum((len(d.chain) + 1) * d.bandwidth_kbps for d in demands)
    if graph.links:
        thinnest = min(to_kbps(l.capacity) for l in graph.links)
        if total > thinnest:
            raise ExactLimitError(
                "aggregate demand %d kbps may congest a %d kbps link; "
                "outside the exact solver's regime, use export_lp"
                % (total, thinnest))
    load: Dict[str, int] = {}
    for d in demands:
        for fn in d.chain:
            load[fn.name] = load.get(fn.name, 0) + d.bandwidth_kbps
    for fname, served in load.items():
        cap = to_kbps(model.types[fname].processing_capacity)
        if served > cap:
            raise ExactLimitError(
                "type %s carries %d kbps over one instance's %d kbps; "
                "outside the exact solver's regime, use export_lp"
                % (fname, served, cap))


def _subset_distances(graph: NetworkGraph, mask: int,
                      cables) -> Tuple[List[List[float]], List[List[Optional[int]]]]:
    n = graph.num_nodes
    inf = math.inf
    dist = [[inf] * n for _ in range(n)]
    nxt: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
        nxt[i][i] = i
    for idx, (a, b) in enumerate(cables):
        if mask >> idx & 1:
            d = graph.cable_link(a, b).delay
            dist[a][b] = dist[b][a] = d
            nxt[a][b] = b
            nxt[b][a] = a
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
                    nxt[i][j] = nxt[i][k]
    return dist, nxt


def _pm_power_of(graph: NetworkGraph, used: FrozenSet[Tuple[int, str]],
                 types: Dict[str, FunctionType]) -> Optional[float]:
    """PM power of one instance per used (node, type) pair; None when a
    node cannot fit its instances."""
    params = graph.power
    per_node: Dict[int, Dict[str, int]] = {}
    for node, fname in used:
        need = per_node.setdefault(node, {})
        for res, amount in types[fname].requirements.items():
            need[res] = need.get(res, 0) + amount
    power = 0.0
    for node, need in per_node.items():
        cap = graph.node(node).pm.capacity
        if any(amount > cap.get(res, 0) for res, amount in need.items()):
            return None
        power += pm_power(params, need.get(CPU, 0) / graph.node(node).pm.cores)
    return power


def solve_exact_small(model: MilpModel,
                      limits: Optional[ExactLimits] = None) -> ExactSolution:
    """Provably optimal solve by exhaustive enumeration.

    Iterates lit-cable subsets in ascending network power; per subset a
    dynamic program over instance-usage sets finds the cheapest PM-side
    placement among all delay-feasible chain pinnings. The first power
    level at which everything fits is optimal because network power only
    grows and the PM bound below it is exhausted before moving on.
    """
    if limits is None:
        limits = ExactLimits()
    _check_limits(model, limits)
    graph, demands = model.graph, model.demands
    params = graph.power
    state = NetworkState(graph)
    if not demands:
        return ExactSolution("optimal", 0.0, {}, [], state)

    cables = graph.cables()
    ncab = len(cables)
    nodes = [n.id for n in graph.nodes]
    dists = {}
    for mask in range(1 << ncab):
        dists[mask] = _subset_distances(graph, mask, cables)

    # every delay-feasible pinning of each chain, as a bitmask over subsets
    full = (1 << ncab) - 1
    per_demand = []
    for d in demands:
        budget = d.delay_budget - sum(f.processing_delay for f in d.chain)
        locals_ = []
        for combo in itertools.product(nodes, repeat=len(d.chain)):
            waypoints = [d.src, *combo, d.dst]
            feasible = 0
            for mask in range(1 << ncab):
                dist = dists[mask][0]
                prop = 0.0
                ok = True
                for a, b in zip(waypoints, waypoints[1:]):
                    seg = dist[a][b]
                    if seg == math.inf:
                        ok = False
                        break
                    prop += seg
                if ok and prop <= budget + 1e-9:
                    feasible |= 1 << mask
            if feasible:
                sig = frozenset((node, fn.name)
                                for node, fn in zip(combo, d.chain))
                locals_.append((combo, sig, feasible))
        if not any(feas & (1 << full) for _, _, feas in locals_):
            return ExactSolution("infeasible", None, {}, [], None)
        per_demand.append(locals_)

    net_power = {}
    for m in range(1 << ncab):
        switches = {s for idx, c in enumerate(cables) if m >> idx & 1 for s in c}
        net_power[m] = (params.switch_static_w * len(switches)
                        + 2.0 * params.port_w * bin(m).count("1"))
    order = sorted(net_power, key=lambda m: (net_power[m], m))

    union_types = sorted({fn.name for d in demands for fn in d.chain})
    slope = params.pm_max_w - params.pm_idle_w
    max_cores = max(graph.node(i).pm.cores for i in nodes)
    lb_pm = 0.0
    if union_types:
        lb_pm = params.pm_idle_w + slope * sum(
            model.types[f].requirements[CPU] for f in union_types) / max_cores

    best_total = math.inf
    best_pick = None
    for mask in order:
        pnet = net_power[mask]
        if pnet + lb_pm >= best_total:
            break
        bit = 1 << mask
        sigs_per_demand = []
        ok = True
        for locals_ in per_demand:
            sigs: Dict[FrozenSet, Tuple] = {}
            for combo, sig, feas in locals_:
                if feas & bit and sig not in sigs:
                    sigs[sig] = combo
            if not sigs:
                ok = False
                break
            sigs_per_demand.append(sigs)
        if not ok:
            continue
        states: Dict[FrozenSet, Tuple] = {frozenset(): ()}
        for sigs in sigs_per_demand:
            new: Dict[FrozenSet, Tuple] = {}
            for used, picks in states.items():
                for sig, combo in sigs.items():
                    merged = used | sig
                    if merged not in new:
                        new[merged] = picks + (combo,)
            states = new
        for used, picks in states.items():
            pm = _pm_power_of(graph, used, model.types)
            if pm is None:
                continue
            total = pnet + pm
            key = (total, tuple(sorted(used)))
            if best_pick is None or key < (best_total, best_pick[0]):
                best_total = total
                best_pick = (tuple(sorted(used)), mask, picks)
    if best_pick is None:
        return ExactSolution("infeasible", None, {}, [], None)

    used_sorted, mask, picks = best_pick
    _, nxt = dists[mask]

    def walk(a: int, b: int) -> List[Tuple[int, int]]:
        hops = []
        while a != b:
            step = nxt[a][b]
            hops.append((a, step))
            a = step
        return hops

    allocations: List[Allocation] = []
    committed_inst: Dict[Tuple[int, str], int] = {}
    for d, combo in zip(demands, picks):
        waypoints = [d.src, *combo, d.dst]
        segments = []
        for a, b in zip(waypoints, waypoints[1:]):
            segments.append(tuple(graph.link(i, j) for i, j in walk(a, b)))
        placeholders: Dict[Tuple[int, str], int] = {}
        assigns = []
        for node, fn in zip(combo, d.chain):
            key = (node, fn.name)
            inst = committed_inst.get(key)
            if inst is None:
                inst = placeholders.setdefault(key, -1 - len(placeholders))
            assigns.append(FunctionAssignment(fn, node, inst))
        route = Route(tuple(segments))
        delay = route.propagation_ms + sum(f.processing_delay for f in d.chain)
        planned = Allocation(d.id, tuple(assigns), route, delay,
                             d.bandwidth_kbps)
        committed = state.apply_allocation(planned, d)
        for fa in committed.assignments:
            committed_inst[(fa.node, fa.function.name)] = fa.instance_id
        allocations.append(committed)

    realized = total_power(state)
    if abs(realized - best_total) > _TOL:
        raise RuntimeError("exact search bound %r diverges from realized "
                           "power %r" % (best_total, realized))
    assignment = extract_assignment(model, state)
    return ExactSolution("optimal", realized, assignment, allocations, state)
