"""Reference integer model of chain placement and an exact tiny solver.

build_model emits the complete binary/integer formulation, formatting
each variable name once into the model's tables X, Y, L, Z, U and W
(a per-demand name joins a prefix and a suffix, each formatted once);
every row reads them, and so does extract_assignment, which expresses a
committed state as an assignment. model.variables maps each name to
its domain, and equal domains are one shared Variable. export_lp
renders the model as CPLEX LP text for external solvers.
solve_exact_small finds a provably optimal solution for tiny instances
by enumerating lit-cable subsets in
ascending network power and, per subset, all ways of pinning chain
positions to nodes (deduplicated through a dynamic program over
instance-usage sets). A subset's shortest paths and the pinnings that
fit its delays are worked out only when the search reaches it and its
cables join every demand's endpoints; the program drops partial usage
sets that cannot fit or win. validate_solution re-checks any
assignment, through one table of values, against every variable domain
and every row of the model; a zero needs no test in a domain that holds
0, and a value float() cannot take is reported, not raised. Only
validate_solution and export_lp read the rows and the objective.

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
                       add_delays, over_budget)
from .power import pm_load_slope, pm_power, total_power
from .topology import FunctionType, NetworkGraph, PowerParams
from .workload import read_demands

_TOL = 1e-6
_ROUNDING = 1.0 - 1e-12     # scales a few-delay sum below any reordering


class ExactLimitError(ValueError):
    """Instance too large (or outside the regime) for the exact solver."""


class Variable(NamedTuple):
    """A variable's domain: "binary", or "integer" up to ub (None for no
    bound); both are bounded below by 0. MilpModel.variables maps each
    name to its domain, and equal domains are one shared instance: every
    binary is BINARY."""

    kind: str
    ub: Optional[float] = None


BINARY = Variable("binary")


class Constraint(NamedTuple):
    name: str
    coeffs: Mapping[str, float]
    sense: str                # "<=", ">=" or "="
    rhs: float


class MilpModel:
    """A fully materialized instance of the placement program. X, Y, L, Z,
    U and W are build_model's name tables, the one place that spells a
    variable name; rows are written and states read back through them,
    and variables maps each name to its (shared) domain."""

    def __init__(self, graph: NetworkGraph, demands: Sequence):
        self.graph = graph
        self.demands = list(demands)
        self.variables: Dict[str, Variable] = {}
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}
        self.types: Dict[str, FunctionType] = {}


def build_model(graph: NetworkGraph, demands: Sequence) -> MilpModel:
    """Materialize every variable and constraint row for the instance from
    name tables X, Y, L, Z and, per demand, U[k][i] and W[e][(src, dst)].
    A per-demand variable or row name joins a prefix and a suffix that
    are each formatted once."""
    m = MilpModel(graph, read_demands(graph, demands))
    types = m.types
    for d in m.demands:
        for fn in d.chain:
            known = types.setdefault(fn.name, fn)
            if known is not fn and known != fn:
                raise ValueError("conflicting definitions of type %s" % fn.name)
    params = graph.power
    nodes = range(graph.num_nodes)
    ns = ["%d" % i for i in nodes]
    cores = [n.pm.cores for n in graph.nodes]
    nbrs = [graph.neighbors(i) for i in nodes]
    cables = graph.cables()
    links = graph.links
    pairs = [(link.src, link.dst) for link in links]
    pos = {p: j for j, p in enumerate(pairs)}
    # per PM size and type: the Z domain (instances that fit) and the
    # load slope; per PM size, the big-M of pm_on
    fcores = [fn.cores for fn in types.values()]
    sizes = set(cores)
    zdom = {c: [Variable("integer", c // fc) for fc in fcores] for c in sizes}
    slope = {c: [pm_load_slope(params, fc, c) for fc in fcores] for c in sizes}
    psi_x = {c: float(max(sum(c // fc for fc in fcores), 1)) for c in sizes}
    # per demand: its chain, its E = K + 1 virtual edges and its id text
    chains = [(d, d.chain, len(d.chain) + 1, "%d" % d.id) for d in m.demands]

    X = ["x_" + i for i in ns]
    Y = ["y_" + i for i in ns]
    L = {c: "l_%d_%d" % c for c in cables}
    Z = [{f: "z_%s_%s" % (i, f) for f in types} for i in ns]
    u_ = ["u_%s_" % i for i in ns]
    w_ = ["w_%d_%d_" % p for p in pairs]
    # per demand, U[k] and each virtual edge's W names in link order
    U = [[[ui + s for ui in u_] for s in ["%d_%s" % (k, did)
                                          for k in range(E + 1)]]
         for _, _, E, did in chains]
    Wn = [[[wp + s for wp in w_] for s in ["%d_%s" % (e, did)
                                           for e in range(E)]]
          for _, _, E, did in chains]
    W = [[dict(zip(pairs, We)) for We in Wd] for Wd in Wn]
    m.X, m.Y, m.L, m.Z, m.U, m.W = X, Y, L, Z, U, W

    var = m.variables
    var.update(dict.fromkeys(itertools.chain(X, Y, L.values()), BINARY))
    for Zi, c in zip(Z, cores):
        var.update(zip(Zi.values(), zdom[c]))
    var.update(dict.fromkeys(itertools.chain.from_iterable(
        itertools.chain(*Ud, *Wd) for Ud, Wd in zip(U, Wn)), BINARY))

    obj = m.objective
    for x, Zi, c in zip(X, Z, cores):
        obj[x] = params.pm_idle_w
        obj.update(zip(Zi.values(), slope[c]))
    obj.update(dict.fromkeys(Y, params.switch_static_w))
    obj.update(dict.fromkeys(L.values(), 2.0 * params.port_w))

    add = m.constraints.append
    # per-PM core capacity
    if types:
        for i, Zi in enumerate(Z):
            add(Constraint("resource_n%d_cpu" % i,
                           dict(zip(Zi.values(), fcores)), "<=", cores[i]))

    # per-type processing capacity; every traversal of a position counts
    served: Dict[str, List[Tuple[List[str], float]]] = {f: [] for f in types}
    for (d, chain, _, _), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            served[fn.name].append((Ud[k], float(d.bandwidth)))
    for i in nodes:
        for f, fn in types.items():
            coeffs = {Uk[i]: bw for Uk, bw in served[f]}
            coeffs[Z[i][f]] = -fn.processing_capacity
            add(Constraint("processing_n%d_%s" % (i, f), coeffs, "<=", 0.0))

    # directed link capacity, over one flat list of every W table
    Wall = [We for Wd in Wn for We in Wd]
    bws = [d.bandwidth for d, _, E, _ in chains for _ in range(E)]
    for j, (link, p) in enumerate(zip(links, pairs)):
        coeffs = {}
        for We, bw in zip(Wall, bws):
            coeffs[We[j]] = bw
        add(Constraint("linkcap_%d_%d" % p, coeffs, "<=", link.capacity))

    # a position may only sit where an instance of its type runs
    mapping = ["mapping_n%s_" % i for i in ns]
    Zf = {f: [Zi[f] for Zi in Z] for f in types}
    for (d, chain, _, did), Ud in zip(chains, U):
        for k, fn in enumerate(chain, start=1):
            s = "k%d_d%s" % (k, did)
            for row, u, z in zip(mapping, Ud[k], Zf[fn.name]):
                add(Constraint(row + s, {u: 1.0, z: -1.0}, "<=", 0.0))

    # end-to-end delay: processing once per traversal plus propagation
    delays = [link.delay for link in links]
    for (d, chain, _, did), Ud, Wd in zip(chains, U, Wn):
        coeffs = {}
        for k, fn in enumerate(chain, start=1):
            coeffs.update(dict.fromkeys(Ud[k], fn.processing_delay))
        for We in Wd:
            coeffs.update(zip(We, delays))
        add(Constraint("delay_d" + did, coeffs, "<=", d.delay_budget))

    # flow conservation per virtual edge; per node, the link positions of
    # each neighbour's pair out and back
    ports = [[(pos[i, j], pos[j, i]) for j in nbrs[i]] for i in nodes]
    for (_, _, _, did), Ud, Wd in zip(chains, U, Wn):
        for e, We in enumerate(Wd):
            row = "flow_d%s_e%d_n" % (did, e)
            for n, out, back, pairs_i in zip(ns, Ud[e], Ud[e + 1], ports):
                coeffs = {}
                for ab, ba in pairs_i:
                    coeffs[We[ab]] = 1.0
                    coeffs[We[ba]] = -1.0
                coeffs[out] = -1.0
                coeffs[back] = 1.0
                add(Constraint(row + n, coeffs, "=", 0.0))

    # endpoints are pinned, chain positions hosted exactly once
    for (d, _, E, did), Ud in zip(chains, U):
        src_row = "endpoint_src_d%s_n" % did
        dst_row = "endpoint_dst_d%s_n" % did
        src, dst = d.src, d.dst
        for i, n, first, last in zip(nodes, ns, Ud[0], Ud[E]):
            add(Constraint(src_row + n, {first: 1.0}, "=",
                           1.0 if i == src else 0.0))
            add(Constraint(dst_row + n, {last: 1.0}, "=",
                           1.0 if i == dst else 0.0))
        for k in range(1, E):
            add(Constraint("place_once_k%d_d%s" % (k, did),
                           dict.fromkeys(Ud[k], 1.0), "=", 1.0))

    # indicator couplings with documented big-M values
    psi_w = float(sum(E for _, _, E, _ in chains))
    for (a, b), name in L.items():
        ab, ba = pos[a, b], pos[b, a]
        coeffs = {}
        for We in Wall:
            coeffs[We[ab]] = 1.0
            coeffs[We[ba]] = 1.0
        coeffs[name] = -psi_w
        add(Constraint("cable_on_%d_%d" % (a, b), coeffs, "<=", 0.0))
    psi_y = float(2 * graph.num_nodes)
    for i, y in enumerate(Y):
        coeffs = dict.fromkeys((L[(i, j) if i < j else (j, i)]
                                for j in nbrs[i]), 1.0)
        coeffs[y] = -psi_y
        add(Constraint("switch_on_%d" % i, coeffs, "<=", 0.0))
    for i, (x, Zi, c) in enumerate(zip(X, Z, cores)):
        coeffs = dict.fromkeys(Zi.values(), 1.0)
        coeffs[x] = -psi_x[c]
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
    bounds = [(name, v.ub) for name, v in model.variables.items()
              if v.kind == "integer" and v.ub is not None]
    if bounds:
        out.append("Bounds")
        for name, ub in bounds:
            out.append(" %s <= %s" % (name, _num(ub)))
    for kind, section in (("binary", "Binaries"), ("integer", "Generals")):
        names = [name for name, v in model.variables.items()
                 if v.kind == kind]
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
    Missing variables, and values float() cannot take, count as zero; a
    zero passes the domain test of every domain that holds 0. Returns
    human-readable violations."""
    bad: List[str] = []
    values = dict.fromkeys(model.variables, 0.0)
    for name, value in assignment.items():
        if name not in values:
            bad.append("unknown variable %s" % name)
            continue
        try:
            values[name] = float(value)
        except (TypeError, ValueError, OverflowError):
            bad.append("%s = %r is not a number" % (name, value))
    value = values.__getitem__
    # values keeps the variables' order: only declared names were set
    for (name, var), v in zip(model.variables.items(), values.values()):
        ub = var.ub
        if not v and (ub is None or ub >= 0):
            continue
        if not math.isfinite(v):
            bad.append("%s = %r is not finite" % (name, v))
            continue
        if abs(v - round(v)) > _TOL:
            bad.append("%s = %r is not integral" % (name, v))
        lo, hi = 0.0, 1.0 if var.kind == "binary" else ub
        if v < lo - _TOL or (hi is not None and v > hi + _TOL):
            bad.append("%s = %r outside [%s, %s]" % (name, v, lo, hi))
    for row, coeffs, sense, rhs in model.constraints:
        lhs = sum(map(mul, coeffs.values(), map(value, coeffs)))
        ok = (lhs <= rhs + _TOL if sense == "<=" else
              lhs >= rhs - _TOL if sense == ">=" else
              abs(lhs - rhs) <= _TOL)
        if not ok:
            bad.append("constraint %s violated: lhs %r %s rhs %r"
                       % (row, lhs, sense, rhs))
    if objective is not None:
        got = sum(map(mul, model.objective.values(),
                      map(value, model.objective)))
        try:
            target = float(objective)
        except (TypeError, ValueError, OverflowError):
            bad.append("objective = %r is not a number" % (objective,))
        else:
            if not abs(got - target) <= _TOL:
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
        thinnest = min(l.capacity_kbps for l in graph.links)
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
        cap = model.types[fname].capacity_kbps
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

    A pinning is kept while its summed distances pass over_budget within
    rounding (_ROUNDING), so none the commit would accept is dropped; a
    realized route over_budget raises ExactLimitError, an edge of the
    regime like the capacity edge of _check_limits.
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

    # pinnings within budget, to rounding, over every cable, in product
    # order; no subset is faster, so no other pinning fits any subset
    dist = full_dists[0]
    per_demand = []
    for d in demands:
        processing = add_delays(f.processing_delay for f in d.chain)
        budget = d.delay_budget
        locals_ = []
        src, dst = d.src, d.dst
        names = [fn.name for fn in d.chain]
        for combo in itertools.product(nodes, repeat=len(names)):
            legs = tuple(zip((src, *combo), (*combo, dst)))
            prop = 0.0
            for a, b in legs:
                prop += dist[a][b]
            if not over_budget((prop + processing) * _ROUNDING, budget):
                locals_.append((combo, frozenset(zip(combo, names)), legs))
        if not locals_:
            return ExactSolution("infeasible", None, {}, [], None)
        per_demand.append((processing, budget, locals_))

    # a subset's switches as bits: its lowest cable's ends OR the rest's
    ends = [1 << a | 1 << b for a, b in cables]
    lit = [0]
    for m in range(1, 1 << ncab):
        lit.append(lit[m & (m - 1)] | ends[(m & -m).bit_length() - 1])
    net_power = [params.switch_static_w * sw.bit_count()
                 + 2.0 * params.port_w * m.bit_count()
                 for m, sw in enumerate(lit)]
    # stable over ascending masks: (net_power[m], m) order
    order = sorted(range(1 << ncab), key=net_power.__getitem__)

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
            # grow each demand's source, as node bits, over the subset's
            # cable ends until it holds the destination or stops growing
            held = [e for idx, e in enumerate(ends) if mask >> idx & 1]
            split = False
            for d in demands:
                reach, last, goal = 1 << d.src, 0, 1 << d.dst
                while not reach & goal and reach != last:
                    last = reach
                    for e in held:
                        if reach & e:
                            reach |= e
                if not reach & goal:
                    split = True
                    break
            if split:
                continue
            dist, nxt = _subset_distances(graph, mask, cables)
        sigs_per_demand = []
        for processing, budget, locals_ in per_demand:
            sigs: Dict[FrozenSet, Tuple] = {}
            for combo, sig, legs in locals_:
                if sig in sigs:
                    continue
                prop = 0.0
                for a, b in legs:
                    prop += dist[a][b]
                if not over_budget((prop + processing) * _ROUNDING, budget):
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
    for d, combo, (processing, _, _) in zip(demands, picks, per_demand):
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
        delay = route.propagation_ms + processing
        if over_budget(delay, d.delay_budget):
            raise ExactLimitError("demand %d: route of %r ms is within "
                                  "rounding of its %r ms budget but over it"
                                  % (d.id, delay, d.delay_budget))
        state.apply_allocation(Allocation(d.id, tuple(assigns), route, delay,
                                          d.bandwidth_kbps), d)

    realized = total_power(state)
    if abs(realized - best_total) > _TOL:
        raise RuntimeError("exact search bound %r diverges from realized "
                           "power %r" % (best_total, realized))
    return ExactSolution("optimal", realized, extract_assignment(model, state),
                         [state.allocations[d.id] for d in demands], state)
