"""Workload inputs, placer passes, output checks and the measuring loop.

Every input is generated here from the run's seed; the library sees only
the topology, the catalog and the demands (or tiny instances). All
library calls go through module attributes (``lib.placement.place_all``)
so that a traced run's rebinding takes effect.

A workload is a cycle of passes. One pass is one placer call on one
demand sequence, or one exact instance. The cycle holds as many passes
as fill the run's seconds at a nominal speed, so the work done, the
outcome metrics and the fingerprint depend on the seed and the run
length alone, never on how fast the host happens to be. A run goes
through the whole cycle several times (rounds); every round must leave
the very same state snapshots, and each decision keeps its fastest time
over the rounds. Before that, every decision time is scaled to a
nominal host speed read by HostClock, because on a shared host the speed
of identical work drifts by half and more over seconds to minutes.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import importlib
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Union

LAYERS = ("topology", "workload", "netstate", "power", "bih", "placement",
          "exact")

BETAS_MBPS = [900.0, 700.0, 500.0, 300.0]     # the harness's default ladder
ISLAND_DEMANDS = 300
CENTRALITY_DEMANDS = 1000
MIN_DECISIONS = 1000      # a p99 with ten decisions beyond it


def library() -> SimpleNamespace:
    """The vnfplace layer modules, imported through the normal path."""
    return SimpleNamespace(**{name: importlib.import_module("vnfplace." + name)
                              for name in LAYERS})


def fresh_library() -> SimpleNamespace:
    """Drop every loaded vnfplace module and import the package again,
    so that set-up time includes the import."""
    for name in [m for m in sys.modules
                 if m == "vnfplace" or m.startswith("vnfplace.")]:
        del sys.modules[name]
    importlib.import_module("vnfplace")
    return library()


# -- inputs ---------------------------------------------------------------


TINY_SHAPES = 4 * 4 * 3      # node counts x extra-cable tries x demand counts


def tiny_instance(lib, rng: random.Random, shape: int):
    """Random (graph, demands) inside ExactLimits: 3-6 nodes, a spanning
    tree plus up to three cables, 1-3 demands with 1-2 function chains,
    and links far wider than the demands so no capacity binds.

    `shape` in range(TINY_SHAPES) fixes the node count, the number of extra
    cables tried and the demand count. Solve time grows steeply with them,
    so a cycle that walks the shapes in turn has the same mix of sizes for
    every seed and the seed varies only the rest."""
    topo, wl = lib.topology, lib.workload
    n = 3 + shape % 4
    cables = []
    seen = set()

    def add(a, b):
        seen.add((a, b))
        km = rng.choice([20, 50, 100, 200, 400])
        cables.append((a, b, 1000.0, topo.link_delay_from_length(km)))

    for v in range(1, n):
        add(rng.randrange(v), v)
    for _ in range(shape // 4 % 4):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            add(*key)
    nodes = [topo.NodeSpec(i, topo.PmSpec({topo.CPU: 16})) for i in range(n)]
    graph = topo.NetworkGraph(nodes, cables)
    fns = {name: topo.FunctionType(name, {topo.CPU: 4}, 200.0, 10.0)
           for name in "ABC"}
    demands = []
    for i in range(1 + shape // 16):
        src, dst = rng.randrange(n), rng.randrange(n)
        while dst == src:
            dst = rng.randrange(n)
        chain = tuple(fns[rng.choice("ABC")]
                      for _ in range(rng.randrange(1, 3)))
        service = topo.ServiceType("svc%d" % i, chain,
                                   rng.choice([1.0, 2.0, 5.0, 10.0, 20.0]),
                                   rng.choice([25.0, 30.0, 50.0, 100.0]), 1.0)
        demands.append(wl.Demand(i, src, dst, service))
    return graph, demands


# -- host speed -----------------------------------------------------------


REF_EVERY_S = 0.001      # at most one reference reading per millisecond
REF_STEPS = 400          # dict lookups and integer steps in one reading
REF_WINDOW = 15          # readings on each side that set the local speed
REF_NOMINAL_S = 27e-6    # one reading on the tuning host at its fastest

_REF_TABLE = {k: (k * 79 + 13) % 256 for k in range(256)}  # fits in L1


class HostClock:
    """Reads the host's current speed by timing a fixed piece of
    interpreter work (dict lookups and integer arithmetic, as in the
    placers) between decisions, outside their timing.

    The speed of identical work on a shared host drifts by half and more
    over seconds to minutes, and a whole run can fall into a slow spell,
    so neither longer runs nor medians or minima over rounds steady the
    wall time. scale() gives each instant the factor REF_NOMINAL_S / (the
    median reading around it); a decision time multiplied by it is the
    time the decision would have taken with the host at nominal speed.
    The readings run only benchmark code on a table that fits in L1 and
    allocate no objects the garbage collector tracks, so a change to the
    library moves them only through what it leaves in the caches."""

    def __init__(self):
        self.at: List[float] = []
        self.took: List[float] = []

    def read(self, force: bool = False) -> None:
        """Take a reading, unless one was taken in the last REF_EVERY_S."""
        start = time.perf_counter()
        if not force and self.at and start - self.at[-1] < REF_EVERY_S:
            return
        x, table = 1, _REF_TABLE
        for i in range(REF_STEPS):
            x = table[(x * 31 + i) & 255]
        self.took.append(time.perf_counter() - start)
        self.at.append(start)

    def factor_now(self, readings: int = 2 * REF_WINDOW + 1) -> float:
        """The scale factor from a burst of fresh readings."""
        for _ in range(readings):
            self.read(force=True)
        return REF_NOMINAL_S / statistics.median(self.took[-readings:])

    def scale(self, instants: List[float]) -> List[float]:
        """The scale factor at each instant (in perf_counter seconds)."""
        cache: Dict[int, float] = {}
        factors = []
        for t in instants:
            j = bisect.bisect_left(self.at, t)
            if j not in cache:
                lo = max(0, j - REF_WINDOW)
                cache[j] = REF_NOMINAL_S / statistics.median(
                    self.took[lo:j + REF_WINDOW + 1])
            factors.append(cache[j])
        return factors


# -- one pass -------------------------------------------------------------


@dataclass
class PassResult:
    decisions: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)  # perf_counter at
    # the start of each decision
    wall_s: float = 0.0
    offered: int = 0
    accepted: int = 0
    power_w: Optional[float] = None
    delays: List[float] = field(default_factory=list)
    snapshot: str = ""
    problems: List[str] = field(default_factory=list)


def check_placement(lib, solution, demands) -> List[str]:
    """The harness gate (state integrity, reported power equals a
    recomputation) plus chain order, segment continuity, delay
    accounting and delay budget of every accepted demand."""
    bad = list(solution.state.validate())
    recomputed = lib.power.total_power(solution.state)
    if abs(recomputed - solution.total_power_w) > 1e-9:
        bad.append("reported power %r, recomputed %r"
                   % (solution.total_power_w, recomputed))
    if [o.demand for o in solution.outcomes] != list(demands):
        bad.append("outcomes do not follow the demand order")
        return bad
    for outcome in solution.outcomes:
        d = outcome.demand
        alloc = outcome.allocation
        if not outcome.accepted:
            if alloc is not None or not outcome.reason:
                bad.append("demand %d: bad rejection record" % d.id)
            continue
        if alloc.bandwidth_kbps != d.bandwidth_kbps:
            bad.append("demand %d: bandwidth" % d.id)
        if [a.function.name for a in alloc.assignments] != \
                [f.name for f in d.chain]:
            bad.append("demand %d: chain order" % d.id)
        waypoints = [d.src] + [a.node for a in alloc.assignments] + [d.dst]
        if len(alloc.route.segments) != len(waypoints) - 1:
            bad.append("demand %d: segment count" % d.id)
            continue
        for a, b, seg in zip(waypoints, waypoints[1:], alloc.route.segments):
            at = a
            for link in seg:
                if link.src != at:
                    bad.append("demand %d: broken segment at %d" % (d.id, at))
                at = link.dst
            if at != b:
                bad.append("demand %d: segment ends at %d, not %d"
                           % (d.id, at, b))
        spent = alloc.route.propagation_ms + sum(
            f.processing_delay for f in d.chain)
        if abs(spent - alloc.total_delay_ms) > 1e-9:
            bad.append("demand %d: delay accounting" % d.id)
        if alloc.total_delay_ms > d.delay_budget + 1e-9:
            bad.append("demand %d: budget overrun" % d.id)
    return bad


def check_decision_times(decisions: List[float], pre_s: float,
                         runtime_s: float) -> List[str]:
    """The per-decision times, timed from outside, and pre_s, the time
    outside any decision (before the first request, and host readings),
    must account for the placer's own runtime, and no single decision may
    hold half of it: a placer that read all demands up front would put its
    whole run into the last decision and fake a drop in the median."""
    bad = []
    total = pre_s + sum(decisions)
    if not 0.0 <= total - runtime_s <= 0.01 + 0.02 * runtime_s:
        bad.append("decision times sum to %.6f s, placer reports %.6f s"
                   % (total, runtime_s))
    if len(decisions) >= 10 and max(decisions) > 0.5 * sum(decisions):
        bad.append("one decision took %.6f of %.6f s: demands were not "
                   "consumed one at a time" % (max(decisions), sum(decisions)))
    return bad


# -- passes ---------------------------------------------------------------


@dataclass(frozen=True)
class PlacerPass:
    """One place_all ('lbi' / 'hbi') or bc_place_all ('bc') call."""

    graph: object
    placer: str
    demands: list

    def run(self, lib, tracer=None, host=None) -> PassResult:
        """The gap between a request for the next demand and the one after
        it, less the host reading taken in between, is the time taken to
        place the demand."""
        demands = self.demands
        marks: List[float] = []       # requests
        starts: List[float] = []      # demands handed over

        def requests():
            for i, demand in enumerate(demands):
                marks.append(time.perf_counter())
                if host is not None:
                    host.read()
                if tracer is not None:
                    tracer.demand_index = i
                starts.append(time.perf_counter())
                yield demand

        stats = {} if tracer is not None else None
        start = time.perf_counter()
        if self.placer == "bc":
            sol = lib.placement.bc_place_all(self.graph, requests())
        else:
            sol = lib.placement.place_all(self.graph, requests(), BETAS_MBPS,
                                          mode=self.placer, stats=stats)
        end = time.perf_counter()
        if tracer is not None:
            tracer.demand_index = -1
            tracer.weight_settings_max = max(
                tracer.weight_settings_max, stats.get("weight_settings_max", 0))
        res = PassResult(started=starts)
        res.decisions = [b - a for a, b in zip(starts, marks[1:] + [end])]
        res.wall_s = end - start - sum(b - a for a, b in zip(marks, starts))
        res.offered = len(demands)
        if len(marks) != len(demands):
            res.problems.append("placer requested %d of %d demands"
                                % (len(marks), len(demands)))
        else:
            res.problems += check_decision_times(
                res.decisions, end - start - sum(res.decisions),
                sol.runtime_s)
        res.problems += check_placement(lib, sol, demands)
        accepted = [o.allocation for o in sol.outcomes if o.accepted]
        res.accepted = len(accepted)
        res.delays = [a.total_delay_ms for a in accepted]
        res.power_w = sol.total_power_w
        res.snapshot = sol.state.snapshot()
        return res


@dataclass(frozen=True)
class ExactPass:
    """build_model -> solve_exact_small -> validate_solution on one tiny
    instance, timed as one decision. The solution's state must also pass
    validate() and price at the reported objective."""

    graph: object
    demands: list

    def run(self, lib, tracer=None, host=None) -> PassResult:
        ex = lib.exact
        if host is not None:
            host.read()
        start = time.perf_counter()
        model = ex.build_model(self.graph, self.demands)
        sol = ex.solve_exact_small(model)
        bad = (ex.validate_solution(model, sol.assignment, sol.objective)
               if sol.status == "optimal" else [])
        end = time.perf_counter()
        res = PassResult(decisions=[end - start], started=[start],
                         wall_s=end - start,
                         offered=len(self.demands), problems=list(bad))
        if sol.status == "optimal":
            res.problems += sol.state.validate()
            recomputed = lib.power.total_power(sol.state)
            if abs(recomputed - sol.objective) > 1e-6:
                res.problems.append("objective %r, recomputed %r"
                                    % (sol.objective, recomputed))
            res.accepted = len(self.demands)
            res.power_w = sol.objective
            res.delays = [a.total_delay_ms for a in sol.allocations]
            res.snapshot = sol.state.snapshot()
        elif sol.status == "infeasible":
            res.snapshot = "infeasible\n"
        else:
            res.problems.append("unknown status %r" % sol.status)
        return res


# -- workloads ------------------------------------------------------------


Pass = Union[PlacerPass, ExactPass]


def _sequences(lib, graph, services, count: int, length: int, seed: int):
    return [lib.workload.generate_demands(graph, length, services,
                                          seed * 100000 + k)
            for k in range(count)]


def island_cycle(lib, seed: int, passes: int) -> List[PlacerPass]:
    """Demand sequences on nobel-germany with the default catalog, placed
    alternately by 'lbi' and 'hbi'."""
    graph = lib.topology.nobel_germany()
    _, services = lib.topology.default_catalogs()
    return [PlacerPass(graph, ("lbi", "hbi")[k % 2], demands)
            for k, demands in enumerate(_sequences(
                lib, graph, services, passes, ISLAND_DEMANDS, seed))]


def centrality_cycle(lib, seed: int, passes: int) -> List[PlacerPass]:
    graph = lib.topology.nobel_germany()
    _, services = lib.topology.default_catalogs()
    return [PlacerPass(graph, "bc", demands)
            for demands in _sequences(lib, graph, services, passes,
                                      CENTRALITY_DEMANDS, seed)]


def exact_cycle(lib, seed: int, passes: int) -> List[ExactPass]:
    rng = random.Random(seed)
    return [ExactPass(*tiny_instance(lib, rng, k % TINY_SHAPES))
            for k in range(passes)]


@dataclass(frozen=True)
class Workload:
    make_cycle: Callable[[object, int, int], List[Pass]]
    pass_s: float          # nominal seconds per pass; sizes the cycle
    decisions: int         # decisions timed per pass
    rounds: int            # times a run goes through its cycle

    def passes(self, seconds: float) -> int:
        """Passes in the cycle: run `rounds` times they make `seconds` of
        nominal work, and hold enough decisions for a p99 with ten samples
        beyond it."""
        return max(math.ceil(seconds / (self.pass_s * self.rounds)),
                   math.ceil(MIN_DECISIONS / self.decisions))


# Rounds catch what the host clock leaves; more distinct passes steady
# the seed-to-seed spread of tails and outcomes. island needs four
# 300-demand sequences for its p99 in any case.


WORKLOADS: Dict[str, Workload] = {
    "island": Workload(island_cycle, 3.3, ISLAND_DEMANDS, 2),
    "centrality": Workload(centrality_cycle, 0.15, CENTRALITY_DEMANDS, 5),
    "exact-tiny": Workload(exact_cycle, 0.004, 1, 2),
}


# -- the measuring loop ---------------------------------------------------


@dataclass
class RunResult:
    timed: List[PassResult]       # every pass of every round, in run order
    distinct: List[PassResult]    # one per pass of the cycle, see fastest()
    fingerprint: str
    failed: int
    unscaled_s: float             # wall time of the timed passes, unscaled


def fastest(rounds: List[PassResult]) -> PassResult:
    """One pass over its rounds: the first round's outcome, each decision's
    fastest time, and as wall time the fastest time before the first
    decision plus those decision times."""
    decisions = [min(times) for times in zip(*(r.decisions for r in rounds))]
    before = min(r.wall_s - sum(r.decisions) for r in rounds)
    return dataclasses.replace(rounds[0], decisions=decisions,
                               wall_s=before + sum(decisions))


def run_cycle(lib, cycle: List[Pass], rounds: int, tracer=None,
              host: Optional[HostClock] = None,
              after_pass: Optional[Callable[[int], None]] = None) -> RunResult:
    """Run the whole cycle `rounds` times; every round must leave the
    first round's states. Outcomes and fingerprint come from the first
    round, times from fastest(), after scaling by the host clock if one
    is given. after_pass(i) is called after the i-th pass run, outside any
    timing."""
    timed: List[PassResult] = []
    for i in range(rounds * len(cycle)):
        if tracer is not None:
            tracer.pass_index = i
        try:
            res = cycle[i % len(cycle)].run(lib, tracer, host)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = PassResult(problems=["raised"])
        if i >= len(cycle) and res.snapshot != timed[i % len(cycle)].snapshot:
            res.problems.append("round %d of pass %d left another state"
                                % (i // len(cycle), i % len(cycle)))
        timed.append(res)
        if after_pass is not None:
            after_pass(i)
    unscaled_s = sum(r.wall_s for r in timed)
    if host is not None:
        for res in timed:
            factors = host.scale(res.started)
            before = res.wall_s - sum(res.decisions)
            res.decisions = [d * f for d, f in zip(res.decisions, factors)]
            res.wall_s = sum(res.decisions) + before * (
                factors[0] if factors else 1.0)
    distinct = [fastest(timed[k::len(cycle)]) for k in range(len(cycle))]
    failed = 0
    for i, res in enumerate(timed):
        if res.problems:
            failed += 1
            print("pass %d failed: %s" % (i, "; ".join(res.problems[:5])),
                  file=sys.stderr)
    fingerprint = hashlib.sha1(
        "".join(p.snapshot for p in distinct).encode()).hexdigest()
    return RunResult(timed, distinct, fingerprint, failed, unscaled_s)


def percentile_p99(samples: List[float]) -> float:
    """Nearest-rank 99th percentile; needs at least ten samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(0.99 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError("%d samples are too few for a p99" % len(ordered))
    return ordered[rank - 1]


def outcome_metrics(passes: List[PassResult],
                    exact: bool) -> Dict[str, float]:
    """total_power_w, acceptance_pct and mean_delay_ms over the cycle;
    they depend on the inputs alone. On exact-tiny, power and delay are
    over the instances proven optimal and acceptance counts those."""
    delays = [d for p in passes for d in p.delays]
    powers = [p.power_w for p in passes if p.power_w is not None]
    if exact:
        acceptance = 100.0 * len(powers) / len(passes)
    else:
        acceptance = 100.0 * sum(p.accepted for p in passes) / sum(
            p.offered for p in passes)
    return {
        "total_power_w": sum(powers) / len(powers) if powers else math.nan,
        "acceptance_pct": acceptance,
        "mean_delay_ms": sum(delays) / len(delays) if delays else math.nan,
    }
