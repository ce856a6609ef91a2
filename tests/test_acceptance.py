"""End-to-end acceptance gates for the whole package.

Each test covers one gate and prints a single PASS/FAIL line (visible
with pytest -s, or in the captured output). Expensive placement runs are
cached per (algorithm, demand count, seed) and shared across gates.
"""

import math
import os
import random
import statistics
import time
from typing import Dict, Tuple

from helpers import (XL, betweenness_oracle, island_partition, make_demand,
                     partition_oracle, random_connected_graph,
                     route_allocation, skim_random_links, tiny_instance,
                     to_mbps, triangle_graph)
from vnfplace.bih import BlockingIsland, build_bih
from vnfplace.exact import (build_model, export_lp, solve_exact_small,
                            validate_solution)
from vnfplace.netstate import NetworkState, StateOverlay
from vnfplace.placement import (DemandOutcome, SolutionSet, _ChainView,
                                _RouteCache, bc_place_all,
                                calculate_best_path, betweenness,
                                check_solution, place_all)
from vnfplace.power import pm_power, switch_power
from vnfplace.topology import (CPU, FunctionType, PowerParams,
                               default_catalogs, nobel_germany)
from vnfplace.workload import generate_demands

GRAPH = nobel_germany()
_, SERVICES = default_catalogs()
BETAS = [900.0, 700.0, 500.0, 300.0]
SEEDS = 30

_RUNS: Dict[Tuple[str, int, int], Dict[str, float]] = {}
_TINY: Dict[str, list] = {}


def _verdict(tag, ok, detail=""):
    print("ACCEPTANCE %-34s %s%s"
          % (tag, "PASS" if ok else "FAIL", " [%s]" % detail if detail else ""))
    assert ok, "%s: %s" % (tag, detail)


def _solve(algo, count, seed):
    demands = generate_demands(GRAPH, count, SERVICES, seed)
    if algo == "bc":
        sol = bc_place_all(GRAPH, demands)
    else:
        sol = place_all(GRAPH, demands, BETAS, mode=algo)
    delays = [o.allocation.total_delay_ms for o in sol.outcomes if o.accepted]
    _RUNS[(algo, count, seed)] = {
        "power": sol.total_power_w,
        "acceptance": sol.acceptance,
        "delay": sum(delays) / len(delays) if delays else math.nan,
        "runtime": sol.runtime_s,
    }
    return sol, demands


def _metrics(algo, count, seed):
    key = (algo, count, seed)
    if key not in _RUNS:
        _solve(algo, count, seed)
    return _RUNS[key]


def _mean(algo, count, field, seeds=SEEDS):
    return sum(_metrics(algo, count, s)[field] for s in range(seeds)) / seeds


def test_01_island_search_matches_connectivity_oracle():
    rng = random.Random(2024)
    start = time.perf_counter()
    checks = 0
    ok = True
    for _ in range(200):
        graph = random_connected_graph(rng, max_nodes=50)
        state = NetworkState(graph)
        skim_random_links(state, rng)
        for _ in range(5):
            beta = rng.uniform(1.0, 100.0)
            if island_partition(state, beta) != partition_oracle(state, beta):
                ok = False
            checks += 1
    elapsed = time.perf_counter() - start
    _verdict("01 island search vs oracle", ok and elapsed < 5.0,
             "%d checks, %.2fs" % (checks, elapsed))


def test_02_incremental_hierarchy_equals_rebuild():
    rng = random.Random(7)
    start = time.perf_counter()
    mismatches = 0
    for trial in range(100):
        state = NetworkState(GRAPH)
        hier = build_bih(state, BETAS)
        live = {}
        next_id = 0
        for _ in range(50):
            if live and rng.random() < 0.4:
                demand_id = rng.choice(sorted(live))
                alloc = live.pop(demand_id)
                state.release_allocation(demand_id)
                hier.update_on_release(state, alloc.route)
            else:
                a, b = GRAPH.cables()[rng.randrange(len(GRAPH.cables()))]
                free = state.sym_residual(a, b)
                if free > 0 and StateOverlay(state).has_room(b, XL):
                    take = rng.randrange(1, free + 1)
                    alloc, _ = route_allocation(state, [a, b], to_mbps(take),
                                                next_id)
                    hier.update_on_allocation(state, alloc.route)
                    live[next_id] = alloc
                    next_id += 1
            # the state's own indices must equal their rebuild, too
            if (hier.canonical() != build_bih(state, BETAS).canonical()
                    or state.validate() != []):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict("02 incremental vs rebuild", mismatches == 0 and elapsed < 30.0,
             "100x50 steps, %d mismatches, %.2fs" % (mismatches, elapsed))


def test_03_power_model_point_values():
    params = PowerParams()
    ok = (switch_power(params, 0) == 130.0
          and pm_power(params, 0.0) == 150.0
          and pm_power(params, 1.0) == 250.0)
    _verdict("03 power point values", ok,
             "switch(0)=%g pm(0)=%g pm(1)=%g" % (switch_power(params, 0),
                                                 pm_power(params, 0.0),
                                                 pm_power(params, 1.0)))


def _check_solution(sol, demands):
    bad = check_solution(sol)
    by_id = {d.id: d for d in demands}
    for outcome in sol.outcomes:
        if not outcome.accepted:
            continue
        demand = by_id[outcome.demand.id]
        alloc = outcome.allocation
        if alloc is None:
            continue                     # check_solution reports it
        if alloc.bandwidth_kbps != demand.bandwidth_kbps:
            bad.append("demand %d: bandwidth" % demand.id)
        if [a.function.name for a in alloc.assignments] != \
                [f.name for f in demand.chain]:
            bad.append("demand %d: chain order" % demand.id)
        waypoints = [demand.src] + [a.node for a in alloc.assignments] + \
            [demand.dst]
        if len(alloc.route.segments) != len(waypoints) - 1:
            continue                     # check_solution reports it
        for (a, b), seg in zip(zip(waypoints, waypoints[1:]),
                               alloc.route.segments):
            if not seg:
                if a != b:
                    bad.append("demand %d: gap %d-%d" % (demand.id, a, b))
                continue
            hops = [seg[0].src] + [l.dst for l in seg]
            if hops[0] != a or hops[-1] != b:
                bad.append("demand %d: stray segment" % demand.id)
            for x, y in zip(seg, seg[1:]):
                if x.dst != y.src:
                    bad.append("demand %d: broken segment" % demand.id)
        spent = alloc.route.propagation_ms + \
            sum(f.processing_delay for f in demand.chain)
        if abs(spent - alloc.total_delay_ms) > 1e-9:
            bad.append("demand %d: delay accounting" % demand.id)
        if alloc.total_delay_ms > demand.delay_budget + 1e-9:
            bad.append("demand %d: budget overrun" % demand.id)
    return bad


def test_04_all_algorithms_produce_feasible_states():
    bad = []
    for algo in ("lbi", "hbi", "bc"):
        for seed in range(SEEDS):
            sol, demands = _solve(algo, 100, seed)
            bad.extend("%s seed %d: %s" % (algo, seed, b)
                       for b in _check_solution(sol, demands))
    _verdict("04 solution feasibility", not bad,
             bad[0] if bad else "3 algorithms x 30 seeds x 100 demands clean")


def test_gate_check_reports_an_acceptance_without_allocation():
    demands = generate_demands(GRAPH, 1, SERVICES, 0)
    sol = SolutionSet([DemandOutcome(demands[0], True, None, None)],
                      NetworkState(GRAPH), 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert _check_solution(sol, demands) == \
        ["demand 0: accepted with no allocation"]


def _tiny_sweep():
    if _TINY:
        return _TINY
    rng = random.Random(12345)
    _TINY.update(gaps=[], heur_delay=[], exact_delay=[],
                 beaten=0, unsound=0, infeasible=0)
    for _ in range(100):
        graph, demands = tiny_instance(rng)
        model = build_model(graph, demands)
        exact = solve_exact_small(model)
        heur = place_all(graph, demands, BETAS)
        if exact.status != "optimal":
            _TINY["infeasible"] += 1
            if heur.acceptance == 1.0:
                _TINY["unsound"] += 1    # heuristic embedded an impossible one
            continue
        assert validate_solution(model, exact.assignment,
                                 exact.objective) == []
        if heur.acceptance == 1.0:
            if heur.total_power_w < exact.objective - 1e-6:
                _TINY["beaten"] += 1
            _TINY["gaps"].append((heur.total_power_w - exact.objective)
                                 / exact.objective)
            heur_delays = [o.allocation.total_delay_ms
                           for o in heur.outcomes if o.accepted]
            exact_delays = [a.total_delay_ms for a in exact.allocations]
            _TINY["heur_delay"].append(sum(heur_delays) / len(heur_delays))
            _TINY["exact_delay"].append(sum(exact_delays) / len(exact_delays))
    return _TINY


def test_05_heuristic_never_beats_exact_small_gap():
    sweep = _tiny_sweep()
    gaps = sweep["gaps"]
    mean_gap = sum(gaps) / len(gaps) if gaps else math.nan
    ok = (sweep["beaten"] == 0 and sweep["unsound"] == 0 and gaps
          and mean_gap <= 0.25)
    _verdict("05 optimality gap", ok,
             "%d compared, mean gap %.2f%%, max %.2f%%, %d infeasible"
             % (len(gaps), 100 * mean_gap,
                100 * max(gaps) if gaps else math.nan, sweep["infeasible"]))


def test_06_acceptance_rate_trend():
    full = all(_metrics("lbi", count, seed)["acceptance"] == 1.0
               for count in range(10, 101, 10) for seed in range(SEEDS))
    bc300 = _mean("bc", 300, "acceptance")
    ok = full and abs(bc300 - 0.80) <= 0.10
    _verdict("06 acceptance trend", ok,
             "lbi full at 10..100: %s, bc at 300: %.1f%%"
             % (full, 100 * bc300))


def test_07_low_threshold_mode_is_cheaper():
    detail = []
    ok = True
    for count in (50, 100):
        p_l, p_h = _mean("lbi", count, "power"), _mean("hbi", count, "power")
        a_l, a_h = (_mean("lbi", count, "acceptance"),
                    _mean("hbi", count, "acceptance"))
        ok = ok and p_l <= p_h and a_l >= a_h
        detail.append("%d: %.0fW vs %.0fW" % (count, p_l, p_h))
    _verdict("07 mode ordering", ok, ", ".join(detail))


def test_08_baseline_delay_is_lower():
    bc = _mean("bc", 50, "delay")
    bi = _mean("lbi", 50, "delay")
    sweep = _tiny_sweep()
    tiny_bi = sum(sweep["heur_delay"]) / len(sweep["heur_delay"])
    tiny_exact = sum(sweep["exact_delay"]) / len(sweep["exact_delay"])
    ok = bc <= bi and tiny_bi <= tiny_exact
    _verdict("08 delay ordering", ok,
             "bc %.2fms <= bi %.2fms; tiny %.2f <= %.2f"
             % (bc, bi, tiny_bi, tiny_exact))


def test_09_runtime_scales_gently():
    counts = list(range(10, 101, 10))
    bi_means = [_mean("lbi", c, "runtime") for c in counts]
    bc_means = [_mean("bc", c, "runtime", seeds=3) for c in counts]
    exponent = statistics.linear_regression(
        [math.log(c) for c in counts], [math.log(t) for t in bi_means]).slope
    at_100 = _mean("lbi", 100, "runtime")
    faster = all(b < a for a, b in zip(bi_means, bc_means))
    ok = exponent < 1.3 and at_100 < 5.0 and faster
    _verdict("09 runtime scaling", ok,
             "exponent %.2f, %.2fs at 100, baseline faster: %s"
             % (exponent, at_100, faster))


def test_10_betweenness_equals_enumeration():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(50):
        graph = random_connected_graph(rng, max_nodes=10)
        want = betweenness_oracle(graph)
        got = betweenness(graph)
        worst = max(worst, max(abs(got[n] - want[n]) for n in want))
    _verdict("10 betweenness exactness", worst <= 1e-9,
             "50 graphs, worst deviation %.2e" % worst)


def test_11_path_search_setting_budget():
    island = BlockingIsland(1000, frozenset(n.id for n in GRAPH.nodes),
                            frozenset(GRAPH.cables()))
    stats = {}
    view = _ChainView(NetworkState(GRAPH), island, 0, 1000,
                      _RouteCache(GRAPH))
    found = calculate_best_path(view, 8, 16, 0.0, 0.0, 0.25, stats)
    exhausted = found is None and stats["weight_settings_max"] == 4
    stats = {}
    demands = generate_demands(GRAPH, 100, SERVICES, 0)
    place_all(GRAPH, demands, BETAS, stats=stats)
    in_run = stats["weight_settings_max"] <= 4 and stats["path_searches"] > 0
    _verdict("11 weight schedule", exhausted and in_run,
             "4 settings on exhaustion, max %d in a full run"
             % stats["weight_settings_max"])


def test_12_lp_export_is_deterministic():
    fn = FunctionType("A", {CPU: 4}, 200.0, 10.0)
    graph = triangle_graph()
    demands = [make_demand(0, 0, 1, (fn,), 20.0, 50.0)]
    first = export_lp(build_model(graph, demands))
    second = export_lp(build_model(graph, demands))
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "triangle_model.lp")
    with open(golden, "r", encoding="utf-8") as fh:
        want = fh.read()
    ok = first == second == want
    _verdict("12 deterministic export", ok,
             "%d bytes, golden match" % len(first))
