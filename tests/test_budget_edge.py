"""The one delay-budget rule (netstate.over_budget) at a budget's edge:
each placer's answer agrees with the commit's, over the last bits of
three budgets where the planners' own delay sums once disagreed with it."""

import dataclasses
import math

import pytest

from helpers import EDGE_TOPOLOGY
from vnfplace.exact import (ExactLimitError, build_model, solve_exact_small,
                            validate_solution)
from vnfplace.netstate import _route_delay, over_budget
from vnfplace.placement import bc_place_all, check_solution, place_all
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


def _edge_topology():
    graph = parse_topology(EDGE_TOPOLOGY)
    _, services = default_catalogs()
    return graph, generate_demands(graph, 1, services, 87)[0]


INSTANCES = {"over-in-commit-order": _over_in_commit_order,
             "within-in-commit-order": _within_in_commit_order,
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
    commit a plan it refuses), every solution checks, and the enumerator
    finds an optimum no higher than the centrality baseline's power, or
    raises ExactLimitError; it never answers "infeasible" where the
    baseline places the demand."""
    graph, demand = INSTANCES[name]()
    placed = set()
    for budget in _sweep(demand.delay_budget):
        d = _with_budget(demand, budget)
        bc = bc_place_all(graph, [d])
        for sol in (place_all(graph, [d], [1.0], "lbi"),
                    place_all(graph, [d], [1.0], "hbi"), bc):
            assert check_solution(sol) == []
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
            == "delay"
    with pytest.raises(ExactLimitError, match="within rounding of its"):
        solve_exact_small(build_model(graph, [demand]))


def test_enumerator_keeps_the_pinning_the_commit_accepts():
    graph, demand = _within_in_commit_order()
    bc = bc_place_all(graph, [demand])
    exact = solve_exact_small(build_model(graph, [demand]))
    assert bc.acceptance == 1.0 and exact.status == "optimal"
    assert exact.objective == bc.total_power_w == 858.0


def test_centrality_judges_the_commits_own_sum():
    """The centrality baseline judges the budget on the delay it reports,
    so that is the commit's sum to the last bit, on every Python: sum()
    compensates float sums from 3.12, where a plain sum() of the route's
    links differs from the commit's in 11 of 2,163 of these."""
    graph = nobel_germany()
    _, services = default_catalogs()
    for seed in range(10):
        sol = bc_place_all(graph, generate_demands(graph, 300, services, seed))
        for outcome in sol.outcomes:
            if outcome.accepted:
                alloc = outcome.allocation
                assert alloc.total_delay_ms == _route_delay(alloc)
