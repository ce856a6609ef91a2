"""The one delay-budget rule (netstate.over_budget) at a budget's edge:
each placer's answer agrees with the commit's, over the last bits of
three budgets where the planners' own delay sums once disagreed with it;
and the one delay arithmetic: every delay is added left to right."""

import dataclasses
import math

import pytest

from helpers import EDGE_TOPOLOGY
from vnfplace.bih import BlockingIsland
from vnfplace.exact import (ExactLimitError, build_model, solve_exact_small,
                            validate_solution)
from vnfplace.netstate import (NetworkState, _route_delay, add_delays,
                               over_budget, path_delay)
from vnfplace.placement import (_ChainView, _RouteCache, bc_place_all,
                                calculate_best_path, check_solution,
                                place_all)
from vnfplace.topology import (CPU, FunctionType, NetworkGraph, NodeSpec,
                               PmSpec, ServiceType, default_catalogs,
                               nobel_germany, parse_topology)
from vnfplace.workload import Demand, generate_demands


def _path_instance(delays, processing_ms, budget_ms):
    """A path 0-1-2-3-4 of 1000 Mb/s cables with the given delays, PMs of
    1 core but 8 at node 2, one function A (4 cores, 100 Mb/s) and a
    1 Mb/s demand 0 -> 4 through it."""
    nodes = [NodeSpec(i, PmSpec({CPU: 8 if i == 2 else 1})) for i in range(5)]
    graph = NetworkGraph(nodes, [(i, i + 1, 1000.0, delay)
                                 for i, delay in enumerate(delays)])
    fn = FunctionType("A", {CPU: 4}, 100.0, processing_ms)
    return graph, Demand(0, 0, 4, ServiceType("s", (fn,), 1.0, budget_ms, 1.0))


def _over_in_commit_order():
    """The island walk's and the distance table's sums pass the budget;
    the commit's misses it."""
    return _path_instance([0.16474863983405247, 4.328980912524939,
                           2.3690179524406796, 3.5969313810883574],
                          4.395275873274854, 14.854954758162881)


def _within_in_commit_order():
    """The commit's sum passes the budget; the distance table's misses it
    by rounding."""
    return _path_instance([0.44272408064825997, 3.0332008997622,
                           3.361790268017202, 2.5347093407949726],
                          0.8971729694615146, 10.269597557684149)


def _over_in_segment_order():
    """A path 0-1-2-3-4 of 1000 Mb/s cables, 1-core PMs and a chain of two
    1-core functions: the commit's sum passes the budget; the same delays
    added segment by segment, then the processing, miss it."""
    delays = [9.418746696687892, 3.8048117460045248, 7.746950543280589,
              7.597500947557958]
    nodes = [NodeSpec(i, PmSpec({CPU: 1})) for i in range(5)]
    graph = NetworkGraph(nodes, [(i, i + 1, 1000.0, delay)
                                 for i, delay in enumerate(delays)])
    chain = (FunctionType("A", {CPU: 1}, 100.0, 1.5481167327479906),
             FunctionType("B", {CPU: 1}, 100.0, 3.4118472545060263))
    return graph, Demand(0, 0, 4, ServiceType("s", chain, 1.0,
                                              33.52797391978498, 1.0))


def _edge_topology():
    graph = parse_topology(EDGE_TOPOLOGY)
    _, services = default_catalogs()
    return graph, generate_demands(graph, 1, services, 87)[0]


INSTANCES = {"over-in-commit-order": _over_in_commit_order,
             "within-in-commit-order": _within_in_commit_order,
             "over-in-segment-order": _over_in_segment_order,
             "edge-topology": _edge_topology}


def _with_budget(demand, budget):
    return dataclasses.replace(demand, service=dataclasses.replace(
        demand.service, delay_budget=budget))


def _sweep(budget, ulps=6):
    """budget and the ulps floats on each side of it, ascending."""
    low = high = budget
    out = [budget]
    for _ in range(ulps):
        low, high = math.nextafter(low, -math.inf), math.nextafter(high, math.inf)
        out = [low] + out + [high]
    return out


def test_over_budget_allows_a_nanosecond():
    assert not over_budget(10.0, 10.0)
    assert not over_budget(10.0 + 0.5e-9, 10.0)
    assert over_budget(10.0 + 2e-9, 10.0)
    assert not over_budget(9.0, 10.0)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_placer_agrees_with_the_commit_at_the_budget_edge(name):
    """At each budget of the sweep no placer raises (so none hands the
    commit a plan it refuses), every solution checks, every accepted
    allocation reports the commit's own sum and meets the budget by the
    rule, and the enumerator finds an optimum no higher than the
    centrality baseline's power, or raises ExactLimitError; it never
    answers "infeasible" where the baseline places the demand."""
    graph, demand = INSTANCES[name]()
    placed = set()
    for budget in _sweep(demand.delay_budget):
        d = _with_budget(demand, budget)
        bc = bc_place_all(graph, [d])
        for sol in (place_all(graph, [d], [1.0], "lbi"),
                    place_all(graph, [d], [1.0], "hbi"), bc):
            assert check_solution(sol) == []
            for outcome in sol.outcomes:
                if outcome.accepted:
                    alloc = outcome.allocation
                    assert alloc.total_delay_ms == _route_delay(alloc)
                    assert not over_budget(alloc.total_delay_ms, budget)
        placed.add(bc.acceptance)
        model = build_model(graph, [d])
        try:
            exact = solve_exact_small(model)
        except ExactLimitError:
            continue
        if bc.acceptance:
            assert exact.status == "optimal"
            assert exact.objective <= bc.total_power_w + 1e-6
        if exact.status == "optimal":
            assert validate_solution(model, exact.assignment,
                                     exact.objective) == []
            assert exact.state.validate() == []
    assert placed == {0.0, 1.0}          # the sweep crosses the edge


def test_island_walk_and_enumerator_refuse_what_the_commit_refuses():
    graph, demand = _over_in_commit_order()
    for mode in ("lbi", "hbi"):
        assert place_all(graph, [demand], [1.0], mode).outcomes[0].reason \
            == "no-path"
    with pytest.raises(ExactLimitError, match="within rounding of its"):
        solve_exact_small(build_model(graph, [demand]))


def test_enumerator_keeps_the_pinning_the_commit_accepts():
    graph, demand = _within_in_commit_order()
    bc = bc_place_all(graph, [demand])
    exact = solve_exact_small(build_model(graph, [demand]))
    assert bc.acceptance == 1.0 and exact.status == "optimal"
    assert exact.objective == bc.total_power_w == 858.0


@pytest.mark.parametrize("placer", ["bc", "lbi", "hbi"])
def test_centrality_judges_the_commits_own_sum(placer):
    """The centrality baseline and the island walk judge the budget on the
    delay they report, so that is the commit's sum to the last bit, on
    every Python: sum() compensates float sums from 3.12, where a plain
    sum() of the route's links differs from the commit's in 11 of 2,163
    centrality routes, and adding the walk's delays segment by segment
    differs from it in 264 of 5,997 island allocations."""
    graph = nobel_germany()
    _, services = default_catalogs()
    for seed in range(10):
        demands = generate_demands(graph, 300, services, seed)
        sol = (bc_place_all(graph, demands) if placer == "bc" else
               place_all(graph, demands, [900.0, 700.0, 500.0, 300.0],
                         placer))
        for outcome in sol.outcomes:
            if outcome.accepted:
                alloc = outcome.allocation
                assert alloc.total_delay_ms == _route_delay(alloc)


def _left_to_right(values):
    """Floats added one by one from 0.0. sum() adds so up to Python 3.11
    and compensates from 3.12, where 0.1 + 0.2 + 0.3 gives 0.6."""
    total = 0.0
    for value in values:
        total += value
    return total


def _tenths_instance(chain_len):
    """A path 0-1-2-3 of 1000 Mb/s cables of 0.1, 0.2 and 0.3 ms, a 6-core
    PM at node 0 and 1-core PMs elsewhere, and 1 Mb/s demands from node 0
    to nodes 3, 2 and 1 through the first chain_len of three 2-core
    functions of 0.1, 0.2 and 0.3 ms; only node 0 can host them."""
    nodes = [NodeSpec(i, PmSpec({CPU: 6 if i == 0 else 1})) for i in range(4)]
    graph = NetworkGraph(nodes, [(0, 1, 1000.0, 0.1), (1, 2, 1000.0, 0.2),
                                 (2, 3, 1000.0, 0.3)])
    chain = tuple(FunctionType(name, {CPU: 2}, 100.0, delay)
                  for name, delay in (("A", 0.1), ("B", 0.2), ("C", 0.3)))
    service = ServiceType("s", chain[:chain_len], 1.0, 10.0, 1.0)
    return graph, [Demand(i, 0, dst, service)
                   for i, dst in enumerate((3, 2, 1))]


def test_every_delay_adds_left_to_right():
    assert _left_to_right([0.1, 0.2, 0.3]) == 0.6000000000000001
    graph, demands = _tenths_instance(3)
    links = [graph.link(0, 1), graph.link(1, 2), graph.link(2, 3)]
    chain = demands[0].chain
    assert path_delay(links) == _left_to_right(l.delay for l in links)
    assert add_delays(f.processing_delay for f in chain) == \
        _left_to_right([0.1, 0.2, 0.3])

    island = BlockingIsland(10 ** 9, frozenset(range(4)),
                            frozenset(graph.cables()))
    view = _ChainView(NetworkState(graph), island, 0, 1000,
                      _RouteCache(graph))
    for pm in (0, 3):               # the whole path in one segment
        seg1, seg2, delay = calculate_best_path(view, pm, 3, 0.0, 10.0, 0.25)
        assert list(seg1 + seg2) == links
        assert delay == _left_to_right(l.delay for l in links)

    exact = solve_exact_small(build_model(*_tenths_instance(2)))
    solutions = [place_all(graph, demands, [1.0], mode)
                 for mode in ("lbi", "hbi")] + [bc_place_all(graph, demands)]
    for allocs in [exact.allocations] + [
            [o.allocation for o in sol.outcomes] for sol in solutions]:
        assert len(allocs) == 3 and None not in allocs
        for alloc in allocs:
            propagation = _left_to_right(
                l.delay for l in alloc.route.links())
            assert alloc.route.propagation_ms == propagation
            assert alloc.total_delay_ms == _route_delay(alloc) == \
                propagation + _left_to_right(
                    a.function.processing_delay for a in alloc.assignments)
    for sol in solutions:
        totals = [o.allocation.total_delay_ms for o in sol.outcomes]
        assert sol.mean_delay_ms == _left_to_right(totals) / 3
