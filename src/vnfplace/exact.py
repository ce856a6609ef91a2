"""Reference integer model of chain placement and an exact tiny solver.

build_model emits the complete binary/integer formulation, formatting
each variable name once into the model's tables X, Y, L, Z, U and W;
every row reads them, and so does extract_assignment, which expresses a
committed state as an assignment. export_lp renders the model as CPLEX
LP text for external solvers. solve_exact_small finds a provably optimal
solution for tiny instances by enumerating lit-cable subsets in
ascending network power and, per subset, all ways of pinning chain
positions to nodes (deduplicated through a dynamic program over
instance-usage sets). A subset's shortest paths and the pinnings that
fit its delays are worked out only when the search reaches it and its
cables join every demand's endpoints; the program drops partial usage
sets that cannot fit or win. validate_solution re-checks any
assignment, through one table of values, against every variable domain
and every row of the model.

Virtual node indexing per demand with a K-function chain: 0 is the
source endpoint, 1..K the chain positions, K+1 the destination; virtual
edge e joins virtual nodes e and e+1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .netstate import (Allocation, FunctionAssignment, NetworkState, Route,
                       to_kbps)
from .power import pm_load_slope, pm_power, total_power
from .topology import FunctionType, NetworkGraph, PowerParams
from .workload import read_demands

_TOL = 1e-6


class ExactLimitError(ValueError):
    """Instance too large (or outside the regime) for the exact solver."""


class Variable(NamedTuple):
    name: str
    kind: str                 # "binary" or "integer"; bounded below by 0
    ub: Optional[float] = None


class Constraint(NamedTuple):
    name: str
    coeffs: Mapping[str, float]
    sense: str                # "<=", ">=" or "="
    rhs: float


class MilpModel:
    """A fully materialized instance of the placement program. X, Y, L, Z,
    U and W are build_model's name tables, the one place that spells a
    variable name; rows are written and states read back through them."""

    def __init__(self, graph: NetworkGraph, demands: Sequence):
        self.graph = graph
        self.demands = list(demands)
        self.variables: Dict[str, Variable] = {}
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}
        self.types: Dict[str, FunctionType] = {}


def build_model(graph: NetworkGraph, demands: Sequence) -> MilpModel:
    """Materialize every variable and constraint row for the instance from
    name tables X, Y, L, Z and, per demand, U[k][i] and W[e][(src, dst)]."""
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
    # per demand: its chain and its E = K + 1 virtual edges
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
        var[name] = Variable(name, "binary")
    for i in nodes:
        for f, fn in types.items():
            var[Z[i][f]] = Variable(Z[i][f], "integer", cores[i] // fn.cores)
    for Ud, Wd in zip(U, W):
        for name in itertools.chain(*Ud, *(We.values() for We in Wd)):
            var[name] = Variable(name, "binary")

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
    # per-PM core capacity
    if types:
        for i in nodes:
            add(Constraint("resource_n%d_cpu" % i,
                           {Z[i][f]: fn.cores for f, fn in types.items()},
                           "<=", cores[i]))

    # per-type processing capacity; every traversal of a position counts
    served: Dict[str, List[Tuple[List[str], float]]] = {f: [] for f in types}
    for (d, chain, _), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            served[fn.name].append((Ud[k], float(d.bandwidth)))
    for i in nodes:
        for f, fn in types.items():
            coeffs = {Uk[i]: bw for Uk, bw in served[f]}
            coeffs[Z[i][f]] = -fn.processing_capacity
            add(Constraint("processing_n%d_%s" % (i, f), coeffs, "<=", 0.0))

    # directed link capacity
    for link, p in zip(graph.links, pairs):
        coeffs = {}
        for (d, _, _), Wd in zip(chains, W):
            for We in Wd:
                coeffs[We[p]] = d.bandwidth
        add(Constraint("linkcap_%d_%d" % p, coeffs, "<=", link.capacity))

    # a position may only sit where an instance of its type runs
    for (d, chain, _), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            for i in nodes:
                add(Constraint("mapping_n%d_k%d_d%d" % (i, k, d.id),
                               {Ud[k][i]: 1.0, Z[i][fn.name]: -1.0},
                               "<=", 0.0))

    # end-to-end delay: processing once per traversal plus propagation
    for (d, chain, _), Ud, Wd in zip(chains, U, W):
        coeffs = {}
        for k, fn in enumerate(chain, start=1):
            coeffs.update(dict.fromkeys(Ud[k], fn.processing_delay))
        for We in Wd:
            coeffs.update(zip(We.values(), (l.delay for l in graph.links)))
        add(Constraint("delay_d%d" % d.id, coeffs, "<=", d.delay_budget))

    # flow conservation per virtual edge
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

    # endpoints are pinned, chain positions hosted exactly once
    for (d, _, E), Ud in zip(chains, U):
        for i in nodes:
            add(Constraint("endpoint_src_d%d_n%d" % (d.id, i),
                           {Ud[0][i]: 1.0}, "=", 1.0 if i == d.src else 0.0))
            add(Constraint("endpoint_dst_d%d_n%d" % (d.id, i),
                           {Ud[E][i]: 1.0}, "=", 1.0 if i == d.dst else 0.0))
        for k in range(1, E):
            add(Constraint("place_once_k%d_d%d" % (k, d.id),
                           dict.fromkeys(Ud[k], 1.0), "=", 1.0))

    # indicator couplings with documented big-M values
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


# -- LP text -------------------------------------------------------------


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return "%.12g" % value


def _terms(coeffs: Mapping[str, float], blank: str) -> str:
    """LP text of a linear sum; a sum without terms reads `0 blank`."""
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
    return " ".join(parts) if parts else "0 " + next(iter(coeffs), blank)


def export_lp(model: MilpModel) -> str:
    """Deterministic CPLEX LP rendering of the model. A row without terms
    (a link no demand can cross) names the model's first variable."""
    blank = next(iter(model.variables))
    out = ["Minimize", " obj: %s" % _terms(model.objective, blank),
           "Subject To"]
    for con in model.constraints:
        out.append(" %s: %s %s %s" % (con.name, _terms(con.coeffs, blank),
                                      con.sense, _num(con.rhs)))
    bounds = [v for v in model.variables.values()
              if v.kind == "integer" and v.ub is not None]
    if bounds:
        out.append("Bounds")
        for v in bounds:
            out.append(" %s <= %s" % (v.name, _num(v.ub)))
    for kind, section in (("binary", "Binaries"), ("integer", "Generals")):
        names = [v.name for v in model.variables.values() if v.kind == kind]
        if names:
            out.append(section)
            for i in range(0, len(names), 8):
                out.append(" " + " ".join(names[i:i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


# -- validation ----------------------------------------------------------


def validate_solution(model: MilpModel, assignment: Mapping[str, float],
                      objective: Optional[float] = None) -> List[str]:
    """Check an assignment against every variable domain and every row.
    Missing variables count as zero. Returns human-readable violations."""
    bad: List[str] = []
    values = dict.fromkeys(model.variables, 0.0)
    for name, value in assignment.items():
        if name in values:
            values[name] = float(value)
        else:
            bad.append("unknown variable %s" % name)
    value = values.__getitem__
    for var in model.variables.values():
        v = values[var.name]
        if not math.isfinite(v):
            bad.append("%s = %r is not finite" % (var.name, v))
            continue
        if abs(v - round(v)) > _TOL:
            bad.append("%s = %r is not integral" % (var.name, v))
        lo, hi = 0.0, 1.0 if var.kind == "binary" else var.ub
        if v < lo - _TOL or (hi is not None and v > hi + _TOL):
            bad.append("%s = %r outside [%s, %s]" % (var.name, v, lo, hi))
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


def extract_assignment(model: MilpModel, state: NetworkState) -> Dict[str, float]:
    """A committed placement as a model assignment, read through the
    model's name tables; the state must hold exactly the model's demands."""
    assignment: Dict[str, float] = {}
    for d, Ud, Wd in zip(model.demands, model.U, model.W):
        alloc = state.allocations.get(d.id)
        if alloc is None:
            raise ValueError("demand %d not allocated in the state" % d.id)
        placed = [fa.function.name for fa in alloc.assignments]
        chain = [fn.name for fn in d.chain]
        if placed != chain:
            raise ValueError("demand %d is placed with chain %s, the model's "
                             "is %s" % (d.id, placed, chain))
        assignment[Ud[0][d.src]] = 1.0
        assignment[Ud[-1][d.dst]] = 1.0
        for Uk, fa in zip(Ud[1:], alloc.assignments):
            assignment[Uk[fa.node]] = 1.0
        for We, seg in zip(Wd, alloc.route.segments):
            for l in seg:
                assignment[We[l.src, l.dst]] = 1.0
    if len(state.allocations) != len(model.demands):
        raise ValueError("state holds %d allocations, the model %d demands"
                         % (len(state.allocations), len(model.demands)))
    for inst in state.instances.values():
        name = model.Z[inst.node][inst.function.name]
        assignment[name] = assignment.get(name, 0.0) + 1.0
    for i, (x, y) in enumerate(zip(model.X, model.Y)):
        if state.pm_active(i):
            assignment[x] = 1.0
        if state.switch_active(i):
            assignment[y] = 1.0
    for (a, b), name in model.L.items():
        if state.cable_active(a, b):
            assignment[name] = 1.0
    return assignment


# -- exact solver for tiny instances -------------------------------------


@dataclass(frozen=True)
class ExactLimits:
    """solve_exact_small's fixed size regime; beyond it, use export_lp."""

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


def _check_limits(model: MilpModel) -> None:
    graph, demands = model.graph, model.demands
    limits = ExactLimits()
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
            d = graph.link(a, b).delay
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


def _pm_power_of(params: PowerParams, used: FrozenSet[Tuple[int, str]],
                 pm_cores: Dict[int, int],
                 need: Dict[Tuple[int, str], int]) -> Optional[float]:
    """PM power of one instance per used (node, type) pair, each needing
    need[pair] of its node's pm_cores[node]; None when a node cannot fit
    its instances."""
    per_node: Dict[int, int] = {}
    for pair in used:
        node = pair[0]
        per_node[node] = per_node.get(node, 0) + need[pair]
    power = 0.0
    for node, load in per_node.items():
        cores = pm_cores[node]
        if load > cores:
            return None
        power += pm_power(params, load / cores)
    return power


def solve_exact_small(model: MilpModel) -> ExactSolution:
    """Provably optimal solve by exhaustive enumeration, inside the fixed
    regime of ExactLimits (ExactLimitError beyond it).

    Iterates lit-cable subsets in ascending network power; per subset a
    dynamic program over instance-usage sets finds the cheapest PM-side
    placement among all delay-feasible chain pinnings. The first power
    level at which everything fits is optimal because network power only
    grows and the PM bound below it is exhausted before moving on.

    Only the full cable set is examined up front: the pinnings that miss
    their budget over every cable are dropped (no subset is faster), and
    if a demand keeps none the instance is infeasible. A subset's
    distances and the delay test of the remaining pinnings are computed
    when the loop reaches it, if its cables join every demand's endpoints
    (no pinning fits otherwise); of these, only the incumbent's successor
    matrix is kept. The program drops a partial usage set that no PM can
    host or that costs over _TOL more PM power than the incumbent leaves
    or than the union of each demand's first signature; merging only adds
    load. Usage sets are priced from per-solve tables.
    """
    _check_limits(model)
    graph, demands = model.graph, model.demands
    params = graph.power
    state = NetworkState(graph)

    cables = graph.cables()
    ncab = len(cables)
    nodes = [n.id for n in graph.nodes]
    full = (1 << ncab) - 1
    full_dists = _subset_distances(graph, full, cables)

    # pinnings within budget over every cable, in product order; no
    # subset is faster, so no other pinning fits any subset
    dist = full_dists[0]
    per_demand = []
    for d in demands:
        limit = (d.delay_budget - sum(f.processing_delay for f in d.chain)
                 + 1e-9)
        locals_ = []
        for combo in itertools.product(nodes, repeat=len(d.chain)):
            legs = list(zip([d.src, *combo], [*combo, d.dst]))
            prop = 0.0
            for a, b in legs:
                prop += dist[a][b]
            if prop <= limit:
                sig = frozenset((node, fn.name)
                                for node, fn in zip(combo, d.chain))
                locals_.append((combo, sig, legs))
        if not locals_:
            return ExactSolution("infeasible", None, {}, [], None)
        per_demand.append((limit, locals_))

    # a subset's switches as bits: its lowest cable's ends OR the rest's
    ends = [1 << a | 1 << b for a, b in cables]
    lit = [0]
    for m in range(1, 1 << ncab):
        lit.append(lit[m & (m - 1)] | ends[(m & -m).bit_length() - 1])
    net_power = [params.switch_static_w * sw.bit_count()
                 + 2.0 * params.port_w * m.bit_count()
                 for m, sw in enumerate(lit)]
    order = sorted(range(1 << ncab), key=lambda m: (net_power[m], m))

    slope = params.pm_max_w - params.pm_idle_w
    pm_cores = {i: graph.node(i).pm.cores for i in nodes}
    need = {(i, f): fn.cores for i in nodes for f, fn in model.types.items()}
    lb_pm = 0.0
    if model.types:
        lb_pm = params.pm_idle_w + slope * sum(
            fn.cores for fn in model.types.values()) / max(pm_cores.values())

    best_total = math.inf
    best_pick = None
    for mask in order:
        pnet = net_power[mask]
        if pnet + lb_pm >= best_total:
            break
        if mask == full:
            dist, nxt = full_dists
        else:
            label = list(nodes)
            for idx, (a, b) in enumerate(cables):
                if mask >> idx & 1:
                    label = [label[b] if l == label[a] else l for l in label]
            if any(label[d.src] != label[d.dst] for d in demands):
                continue
            dist, nxt = _subset_distances(graph, mask, cables)
        sigs_per_demand = []
        for limit, locals_ in per_demand:
            sigs: Dict[FrozenSet, Tuple] = {}
            for combo, sig, legs in locals_:
                if sig in sigs:
                    continue
                prop = 0.0
                for a, b in legs:
                    prop += dist[a][b]
                if prop <= limit:
                    sigs[sig] = combo
            if not sigs:
                break
            sigs_per_demand.append(sigs)
        if len(sigs_per_demand) < len(per_demand):
            continue
        first = _pm_power_of(params, frozenset().union(
            *(next(iter(sigs)) for sigs in sigs_per_demand)), pm_cores, need)
        bound = min(best_total - pnet,
                    math.inf if first is None else first) + _TOL
        states: Dict[FrozenSet, Tuple] = {frozenset(): ()}
        for sigs in sigs_per_demand:
            new: Dict[FrozenSet, Tuple] = {}
            for used, picks in states.items():
                pm = _pm_power_of(params, used, pm_cores, need)
                if pm is None or pm > bound:
                    continue
                for sig, combo in sigs.items():
                    merged = used | sig
                    if merged not in new:
                        new[merged] = picks + (combo,)
            states = new
        for used, picks in states.items():
            pm = _pm_power_of(params, used, pm_cores, need)
            if pm is None:
                continue
            total = pnet + pm
            if total > best_total:
                continue
            key = tuple(sorted(used))
            if total < best_total or key < best_pick[0]:
                best_total = total
                best_pick = (key, picks, nxt)
    if best_pick is None:
        return ExactSolution("infeasible", None, {}, [], None)

    _, picks, nxt = best_pick
    for d, combo in zip(demands, picks):
        segments = []
        for a, b in zip([d.src, *combo], [*combo, d.dst]):
            hops = []
            while a != b:
                step = nxt[a][b]
                hops.append(graph.link(a, step))
                a = step
            segments.append(tuple(hops))
        # reuse the one running instance of (node, type), see _check_limits
        placeholders: Dict[Tuple[int, str], int] = {}
        assigns = []
        for node, fn in zip(combo, d.chain):
            inst = next((i.id for i in state.node_instances[node].values()
                         if i.function.name == fn.name), None)
            if inst is None:
                inst = placeholders.setdefault((node, fn.name),
                                               -1 - len(placeholders))
            assigns.append(FunctionAssignment(fn, node, inst))
        route = Route(tuple(segments))
        delay = route.propagation_ms + sum(f.processing_delay for f in d.chain)
        state.apply_allocation(Allocation(d.id, tuple(assigns), route, delay,
                                          d.bandwidth_kbps), d)

    realized = total_power(state)
    if abs(realized - best_total) > _TOL:
        raise RuntimeError("exact search bound %r diverges from realized "
                           "power %r" % (best_total, realized))
    return ExactSolution("optimal", realized, extract_assignment(model, state),
                         [state.allocations[d.id] for d in demands], state)
