"""Power models and the incremental cost estimate."""

import random

import pytest

from helpers import make_demand, make_graph, random_connected_graph, \
    route_allocation, skim_random_links
from vnfplace.netstate import (Allocation, FunctionAssignment, NetworkState,
                               Route, StateOverlay)
from vnfplace.exact import build_model
from vnfplace.power import (incremental_cost, network_power, pm_load_slope,
                            pm_power, pm_power_total, switch_power,
                            total_power)
from vnfplace.topology import CPU, FunctionType, NetworkGraph, PowerParams

PARAMS = PowerParams()
FN_A = FunctionType("A", {CPU: 4}, 200.0, 10.0)


def test_switch_power_points():
    assert switch_power(PARAMS, 0) == 130.0
    assert switch_power(PARAMS, 1) == 131.0
    assert switch_power(PARAMS, 6) == 136.0
    with pytest.raises(ValueError):
        switch_power(PARAMS, -1)


def test_pm_power_points():
    assert pm_power(PARAMS, 0.0) == 150.0
    assert pm_power(PARAMS, 1.0) == 250.0
    assert pm_power(PARAMS, 0.25) == 175.0
    assert pm_power(PARAMS, 0.5) == 200.0
    with pytest.raises(ValueError):
        pm_power(PARAMS, 1.01)
    with pytest.raises(ValueError):
        pm_power(PARAMS, -0.01)


def test_pristine_network_draws_nothing():
    state = NetworkState(make_graph(3, [(0, 1, 100.0, 0.1),
                                        (1, 2, 100.0, 0.1)]))
    assert network_power(state) == 0.0
    assert pm_power_total(state) == 0.0
    assert total_power(state) == 0.0


def test_power_after_allocations():
    graph = make_graph(3, [(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1)], cores=16)
    state = NetworkState(graph)
    demand = make_demand(0, 0, 1, (FN_A,), 10.0, 100.0)
    alloc = Allocation(0, (FunctionAssignment(FN_A, 1, -1),),
                       Route(((graph.link(0, 1),), ())), 10.1, 10000)
    state.apply_allocation(alloc, demand)
    # two switches, one cable, one PM with 4 of 16 cores
    assert network_power(state) == 2 * 130.0 + 2.0
    assert pm_power_total(state) == 175.0
    assert total_power(state) == 437.0

    demand2 = make_demand(1, 1, 2, (FN_A,), 10.0, 100.0)
    alloc2 = Allocation(1, (FunctionAssignment(FN_A, 1, 0),),
                        Route(((), (graph.link(1, 2),))), 10.1, 10000)
    state.apply_allocation(alloc2, demand2)
    # third switch and second cable lit; same instance, no PM change
    assert network_power(state) == 3 * 130.0 + 4.0
    assert pm_power_total(state) == 175.0


def test_power_scales_with_custom_params():
    params = PowerParams(switch_static_w=100.0, port_w=5.0,
                         pm_idle_w=10.0, pm_max_w=20.0)
    plain = make_graph(2, [(0, 1, 100.0, 0.1)], cores=16)
    graph = NetworkGraph(plain.nodes, [(0, 1, 100.0, 0.1)], params)
    state = NetworkState(graph)
    route_allocation(state, [0, 1], 10.0, 0)
    assert network_power(state) == 2 * 100.0 + 2 * 5.0
    assert pm_power_total(state) == pytest.approx(
        10.0 + 10.0 * state.cpu_utilization(1))


def test_incremental_cost_components():
    graph = make_graph(3, [(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1)], cores=16)
    state = NetworkState(graph)
    # cold PM, no links: idle + load slope for 4 of 16 cores
    assert incremental_cost(state, 0, None, FN_A, []) == 175.0
    # cold PM plus one dark cable between two dark switches
    assert incremental_cost(state, 1, None, FN_A,
                            [graph.link(0, 1)]) == 175.0 + 262.0
    demand = make_demand(0, 0, 1, (FN_A,), 10.0, 100.0)
    alloc = Allocation(0, (FunctionAssignment(FN_A, 1, -1),),
                       Route(((graph.link(0, 1),), ())), 10.1, 10000)
    state.apply_allocation(alloc, demand)
    # reuse of the existing instance over lit gear is free
    assert incremental_cost(state, 1, 0, FN_A, [graph.link(0, 1)]) == 0.0
    # new instance on the already powered PM: slope only
    assert incremental_cost(state, 1, None, FN_A, []) == 25.0
    # lit switch at 1, dark switch at 2, dark cable
    assert incremental_cost(state, 1, 0, FN_A, [graph.link(1, 2)]) == 132.0


def test_one_load_slope_prices_new_instances_everywhere():
    # 1 of 3 cores: 100 * (1 / 3) and 100 * 1 / 3 differ in the last bit,
    # so the placers' prices and the exact model's cost match only if all
    # come from one expression
    assert pm_load_slope(PARAMS, 4, 16) == 25.0
    slope = pm_load_slope(PARAMS, 1, 3)
    assert slope == 100.0 * (1 / 3) != 100.0 * 1 / 3
    fn = FunctionType("B", {CPU: 1}, 200.0, 1.0)
    cables = [(0, 1, 100.0, 0.1)]
    graph = make_graph(2, cables, cores=3)
    state = NetworkState(graph)
    assert incremental_cost(state, 0, None, fn, []) == 150.0 + slope
    demand = make_demand(0, 0, 1, (fn,), 1.0, 100.0)
    assert build_model(graph, [demand]).objective["z_0_B"] == slope
    state.apply_allocation(Allocation(0, (FunctionAssignment(fn, 0, -1),),
                                      Route(((), (graph.link(0, 1),))), 1.1,
                                      1000), demand)
    assert incremental_cost(state, 0, None, fn, []) == slope


def test_incremental_cost_matches_committed_difference():
    rng = random.Random(5)
    for trial in range(25):
        graph = random_connected_graph(rng, max_nodes=8,
                                       cap_range=(50, 100), cores=64)
        state = NetworkState(graph)
        next_id = skim_random_links(state, rng)
        # candidate hop: a path from src over 1..3 links, instance at the end
        src = rng.randrange(graph.num_nodes)
        links = []
        at = src
        for _ in range(rng.randrange(1, 4)):
            nbrs = graph.neighbors(at)
            nxt = nbrs[rng.randrange(len(nbrs))]
            links.append(graph.link(at, nxt))
            at = nxt
        fn = FunctionType("T", {CPU: 4}, 10000.0, 0.0)
        view = StateOverlay(state)
        reuse = view.find_reusable(at, fn, 1000)
        inst_id = reuse[0] if reuse else None
        if inst_id is None and not view.has_room(at, fn):
            continue
        predicted = incremental_cost(state, at, inst_id, fn, links)
        demand = make_demand(next_id, src, at, (fn,), 1.0, 1e9)
        route = Route((tuple(links), ()))
        alloc = Allocation(next_id,
                           (FunctionAssignment(fn, at,
                                               -1 if inst_id is None else inst_id),),
                           route, route.propagation_ms, 1000)
        before = total_power(state)
        state.apply_allocation(alloc, demand)
        assert total_power(state) - before == pytest.approx(predicted)


def test_incremental_cost_reads_overlays():
    graph = make_graph(3, [(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1)], cores=16)
    state = NetworkState(graph)
    overlay = StateOverlay(state)
    overlay.add_links([graph.link(0, 1)], 1000)
    overlay.add_assignment(FN_A, 1, None, 1000)
    # cable 0-1 and its switches already count as lit inside the plan
    assert incremental_cost(overlay, 1, None, FN_A, [graph.link(0, 1)]) == 25.0
    # 1 is lit through the planned cable, 2 is still dark
    assert incremental_cost(overlay, 2, None, FN_A,
                            [graph.link(1, 2)]) == 132.0 + 175.0
