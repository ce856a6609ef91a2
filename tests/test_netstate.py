"""Substrate state bookkeeping: allocations, instances, overlays."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import XL, make_demand, make_graph, random_connected_graph, \
    route_allocation
from vnfplace.netstate import (Allocation, AllocationError,
                               FunctionAssignment, NetworkState, Route,
                               StateOverlay, _StateView, to_kbps, to_mbps)
from vnfplace.topology import (CPU, FunctionType, NetworkGraph, NodeSpec,
                               PmSpec)


FN_A = FunctionType("A", {CPU: 4}, 200.0, 10.0)
FN_B = FunctionType("B", {CPU: 4}, 200.0, 10.0)


def _line_graph(n=3, cap=100.0, cores=16):
    cables = [(i, i + 1, cap, 0.1) for i in range(n - 1)]
    return make_graph(n, cables, cores=cores)


def _chain_allocation(state, demand, nodes, instance_ids=None):
    """Allocation following the unique path of a line graph, one chain
    position per entry of nodes (non-decreasing)."""
    if instance_ids is None:
        instance_ids = [-1 - i for i in range(len(nodes))]
    segments = []
    at = demand.src
    for node in list(nodes) + [demand.dst]:
        step = 1 if node >= at else -1
        seg = tuple(state.graph.link(i, i + step)
                    for i in range(at, node, step))
        segments.append(seg)
        at = node
    assigns = tuple(FunctionAssignment(fn, node, inst)
                    for fn, node, inst in zip(demand.chain, nodes, instance_ids))
    route = Route(segments=tuple(segments))
    delay = route.propagation_ms + sum(f.processing_delay for f in demand.chain)
    return Allocation(demand.id, assigns, route, delay, demand.bandwidth_kbps)


def test_kbps_conversion_is_exact_for_catalog_values():
    for mbps, kbps in ((0.05, 50), (0.064, 64), (0.1, 100), (4.0, 4000)):
        assert to_kbps(mbps) == kbps
        assert to_mbps(kbps) == mbps


def test_apply_updates_links_instances_and_activity():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    committed = state.apply_allocation(_chain_allocation(state, demand, [1]), demand)
    assert state.residual(0, 1) == 90000
    assert state.residual(1, 2) == 90000
    assert state.residual(1, 0) == 100000
    assert state.sym_residual(0, 1) == 90000
    assert state.link_used(0, 1) and not state.link_used(1, 0)
    assert state.cable_active(0, 1) and state.cable_active(2, 1)
    assert all(state.switch_active(n) for n in (0, 1, 2))
    assert state.pm_active(1)
    assert not state.pm_active(0) and not state.pm_active(2)
    inst = state.instances[committed.assignments[0].instance_id]
    assert inst.node == 1 and inst.function.name == "A"
    assert inst.residual_kbps == 190000
    assert inst.served == {0: 10000}
    assert state.cpu_utilization(1) == 0.25
    assert state.validate() == []


def test_release_is_exact_inverse():
    state = NetworkState(_line_graph())
    pristine = state.snapshot()
    demand = make_demand(0, 0, 2, (FN_A, FN_B), 10.0, 100.0)
    state.apply_allocation(_chain_allocation(state, demand, [1, 1]), demand)
    assert state.snapshot() != pristine
    state.release_allocation(0)
    assert state.snapshot() == pristine
    assert state.instances == {}
    assert state.validate() == []


def test_release_keeps_shared_instance():
    state = NetworkState(_line_graph())
    d0 = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    c0 = state.apply_allocation(_chain_allocation(state, d0, [1]), d0)
    inst_id = c0.assignments[0].instance_id
    d1 = make_demand(1, 0, 2, (FN_A,), 5.0, 100.0)
    state.apply_allocation(_chain_allocation(state, d1, [1], [inst_id]), d1)
    assert state.instances[inst_id].residual_kbps == 185000
    state.release_allocation(0)
    assert inst_id in state.instances
    assert state.instances[inst_id].residual_kbps == 195000
    state.release_allocation(1)
    assert inst_id not in state.instances


def test_same_placeholder_resolves_to_one_instance():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A, FN_A), 10.0, 100.0)
    committed = state.apply_allocation(
        _chain_allocation(state, demand, [1, 1], [-1, -1]), demand)
    ids = {a.instance_id for a in committed.assignments}
    assert len(ids) == 1
    inst = state.instances[ids.pop()]
    # both traversals drawn from the same instance
    assert inst.residual_kbps == 180000
    assert inst.served == {0: 20000}
    assert state.validate() == []


def test_distinct_placeholders_make_distinct_instances():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A, FN_A), 10.0, 100.0)
    committed = state.apply_allocation(
        _chain_allocation(state, demand, [1, 1], [-1, -2]), demand)
    ids = {a.instance_id for a in committed.assignments}
    assert len(ids) == 2


def test_apply_rejections_leave_state_untouched():
    state = NetworkState(_line_graph(cap=100.0, cores=4))
    pristine = state.snapshot()
    # 1: not enough link bandwidth
    d = make_demand(0, 0, 2, (FN_A,), 150.0, 100.0)
    with pytest.raises(AllocationError):
        state.apply_allocation(_chain_allocation(state, d, [1]), d)
    # 2: two new 4-core instances cannot share a 4-core PM
    d = make_demand(0, 0, 2, (FN_A, FN_B), 1.0, 100.0)
    with pytest.raises(AllocationError) as err:
        state.apply_allocation(_chain_allocation(state, d, [1, 1]), d)
    assert "lacks cpu" in str(err.value)
    # 3: one new instance cannot process both traversals
    small = FunctionType("S", {CPU: 1}, 100.0, 10.0)
    ds = make_demand(1, 0, 2, (small, small), 90.0, 100.0)
    with pytest.raises(AllocationError) as err:
        state.apply_allocation(_chain_allocation(state, ds, [1, 1], [-1, -1]), ds)
    assert "cannot carry" in str(err.value)
    # 4: the allocation carries less than the demand asks for
    d = make_demand(2, 0, 2, (FN_A,), 10.0, 100.0)
    good = _chain_allocation(state, d, [1])
    thin = Allocation(d.id, good.assignments, good.route,
                      good.total_delay_ms, good.bandwidth_kbps - 1)
    with pytest.raises(AllocationError, match="demand asks"):
        state.apply_allocation(thin, d)
    # 5: the route's delay (10 ms processing + 0.2 ms) overruns the budget
    d = make_demand(3, 0, 2, (FN_A,), 10.0, 10.1)
    with pytest.raises(AllocationError, match="exceeds budget"):
        state.apply_allocation(_chain_allocation(state, d, [1]), d)
    assert state.snapshot() == pristine
    assert state.validate() == []
    # 6: a 50 ms link reported as 5 ms under a 10 ms budget; the budget is
    # checked against the delay the route and chain take, not the report
    slow = NetworkState(make_graph(2, [(0, 1, 100.0, 50.0)]))
    d = make_demand(4, 0, 1, (XL,), 1.0, 10.0)
    route = Route(((slow.graph.link(0, 1),), ()))
    for reported, error in ((5.0, "route and chain take 50.0 ms"),
                            (50.0, "exceeds budget")):
        planned = Allocation(d.id, (FunctionAssignment(XL, 1, -1),), route,
                             reported, d.bandwidth_kbps)
        with pytest.raises(AllocationError, match=error):
            slow.apply_allocation(planned, d)
    assert slow.snapshot() == NetworkState(slow.graph).snapshot()
    # 7: two new GPU instances fit a GPU PM's cores but not its one GPU
    gpu_fn = FunctionType("G", {CPU: 1, "gpu": 1}, 200.0, 10.0)
    gpu_pms = NetworkState(NetworkGraph(
        [NodeSpec(i, PmSpec({CPU: 4, "gpu": 1})) for i in range(3)],
        [(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1)]))
    d = make_demand(5, 0, 2, (gpu_fn, gpu_fn), 1.0, 100.0)
    with pytest.raises(AllocationError, match="PM 1 lacks gpu"):
        gpu_pms.apply_allocation(_chain_allocation(gpu_pms, d, [1, 1]), d)
    assert gpu_pms.snapshot() == NetworkState(gpu_pms.graph).snapshot()


def test_apply_validates_route_and_chain_consistency():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    good = _chain_allocation(state, demand, [1])

    # wrong demand id
    other = make_demand(9, 0, 2, (FN_A,), 10.0, 100.0)
    with pytest.raises(AllocationError):
        state.apply_allocation(good, other)
    # assignments do not match the chain
    two = make_demand(0, 0, 2, (FN_A, FN_B), 10.0, 100.0)
    with pytest.raises(AllocationError):
        state.apply_allocation(good, two)
    # discontinuous route
    broken = Allocation(0, good.assignments,
                        Route((tuple([state.graph.link(1, 2)]), ())),
                        good.total_delay_ms, good.bandwidth_kbps)
    with pytest.raises(AllocationError):
        state.apply_allocation(broken, demand)
    # segment ends away from the assigned node
    askew = Allocation(0, good.assignments,
                       Route(((), tuple([state.graph.link(0, 1),
                                         state.graph.link(1, 2)]))),
                       good.total_delay_ms, good.bandwidth_kbps)
    with pytest.raises(AllocationError):
        state.apply_allocation(askew, demand)
    # segment count must be chain length + 1
    short = Allocation(0, good.assignments, Route((good.route.segments[0],)),
                       good.total_delay_ms, good.bandwidth_kbps)
    with pytest.raises(AllocationError):
        state.apply_allocation(short, demand)
    # reference to an instance that does not exist
    ghost = _chain_allocation(state, demand, [1], [42])
    with pytest.raises(AllocationError):
        state.apply_allocation(ghost, demand)
    assert state.validate() == []

    state.apply_allocation(good, demand)
    with pytest.raises(AllocationError):
        state.apply_allocation(good, demand)    # duplicate demand id
    with pytest.raises(AllocationError):
        state.release_allocation(5)             # unknown release


def test_reused_instance_must_match_node_and_type():
    state = NetworkState(_line_graph())
    d0 = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    c0 = state.apply_allocation(_chain_allocation(state, d0, [1]), d0)
    inst_id = c0.assignments[0].instance_id
    d1 = make_demand(1, 0, 2, (FN_B,), 10.0, 100.0)
    with pytest.raises(AllocationError):
        state.apply_allocation(_chain_allocation(state, d1, [1], [inst_id]), d1)
    d2 = make_demand(2, 0, 2, (FN_A,), 10.0, 100.0)
    with pytest.raises(AllocationError):
        state.apply_allocation(_chain_allocation(state, d2, [2], [inst_id]), d2)


def test_find_reusable_picks_best_fit():
    state = NetworkState(_line_graph(cap=1000.0))
    for i, mbps in enumerate((50.0, 20.0, 80.0)):
        d = make_demand(i, 0, 2, (FN_A,), mbps, 100.0)
        state.apply_allocation(_chain_allocation(state, d, [1]), d)
    view = StateOverlay(state)
    # residuals: 150, 180, 120; best fit for 130 Mb/s is the 150 one
    inst_id, residual = view.find_reusable(1, FN_A, 130000)
    assert residual == 150000
    assert state.instances[inst_id].served == {0: 50000}
    # nothing fits 190 Mb/s
    assert view.find_reusable(1, FN_A, 190000) is None
    assert view.find_reusable(0, FN_A, 1000) is None


def test_validate_spots_corruption():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    committed = state.apply_allocation(_chain_allocation(state, demand, [1]), demand)
    assert state.validate() == []
    state.residual_kbps[(0, 1)] += 5
    assert any("books" in msg for msg in state.validate())
    state.residual_kbps[(0, 1)] -= 5
    state.link_use[(1, 2)] = 7
    assert any("use count" in msg for msg in state.validate())
    state.link_use[(1, 2)] = 1
    inst = state.instances[committed.assignments[0].instance_id]
    inst.residual_kbps -= 1
    assert any("capacity" in msg for msg in state.validate())
    inst.residual_kbps += 1
    assert state.validate() == []
    # the lit-cable and resource indices must equal their rebuild
    state.lit_cables[1] += 1
    assert state.validate() == ["switch 1 indexes 3 lit cables, 2 are lit"]
    state.lit_cables[1] -= 1
    state.resources_used[1][CPU] -= 1
    assert state.validate() == [
        "PM 1 indexes resources {'cpu': 3}, its instances use {'cpu': 4}"]
    state.resources_used[1][CPU] += 1
    assert state.validate() == []
    # the per-node index must list exactly the live instances
    del state.node_instances[1][inst.id]
    assert any("missing from the index of node 1" in msg
               for msg in state.validate())
    state.node_instances[1][inst.id] = inst
    state.node_instances[2] = {inst.id: inst}
    assert state.validate() == ["node index holds 2 instances, 1 are live"]
    del state.node_instances[2]
    assert state.validate() == []


def test_overlay_mirrors_and_debits():
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    state.apply_allocation(_chain_allocation(state, demand, [1]), demand)
    overlay = StateOverlay(state)
    assert overlay.residual(0, 1) == state.residual(0, 1)
    assert overlay.pm_active(1) and not overlay.pm_active(0)

    overlay.add_links([state.graph.link(1, 2)], 40000)
    assert overlay.residual(1, 2) == state.residual(1, 2) - 40000
    assert overlay.sym_residual(1, 2) == overlay.residual(1, 2)
    assert state.residual(1, 2) == 90000        # untouched underneath

    pid = overlay.add_assignment(FN_B, 0, None, 30000)
    assert pid < 0
    assert overlay.pm_active(0)
    assert overlay.used_resources(0) == {CPU: 4}
    assert overlay.cpu_utilization(0) == 0.25
    found = overlay.find_reusable(0, FN_B, 100000)
    assert found == (pid, 170000)
    # the committed instance is still visible through the overlay
    inst_id, residual = overlay.find_reusable(1, FN_A, 1000)
    assert residual == 190000
    overlay.add_assignment(FN_A, 1, inst_id, 50000)
    assert overlay.find_reusable(1, FN_A, 1000) == (inst_id, 140000)
    assert state.instances[inst_id].residual_kbps == 190000


def test_overlay_fork_is_independent():
    state = NetworkState(_line_graph())
    overlay = StateOverlay(state)
    overlay.add_links([state.graph.link(0, 1)], 10000)
    pid = overlay.add_assignment(FN_A, 0, None, 10000)
    fork = overlay.fork()
    fork.add_links([state.graph.link(0, 1)], 5000)
    fork.add_assignment(FN_A, 0, pid, 5000)
    fork.add_assignment(FN_B, 1, None, 5000)
    assert overlay.residual(0, 1) == 90000
    assert fork.residual(0, 1) == 85000
    assert overlay.pending[pid].residual_kbps == 190000
    assert fork.pending[pid].residual_kbps == 185000
    assert not overlay.pm_active(1) and fork.pm_active(1)


def test_random_sequences_keep_state_consistent():
    rng = random.Random(7)
    for trial in range(20):
        graph = random_connected_graph(rng, max_nodes=12, cap_range=(5, 60))
        state = NetworkState(graph)
        live = []
        next_id = 0
        for _ in range(40):
            if live and rng.random() < 0.4:
                idx = rng.randrange(len(live))
                state.release_allocation(live.pop(idx))
            else:
                a, b = graph.cables()[rng.randrange(len(graph.cables()))]
                free = state.residual(a, b)
                if free <= 0 or not StateOverlay(state).has_room(b, XL):
                    continue
                take = rng.randrange(1, free + 1)
                route_allocation(state, [a, b], to_mbps(take), next_id)
                live.append(next_id)
                next_id += 1
            assert state.validate() == []
        for demand_id in live:
            state.release_allocation(demand_id)
        assert state.snapshot() == NetworkState(graph).snapshot()


# functions of two sizes and one needing a resource only odd PMs have
IDX_FNS = (FunctionType("S", {CPU: 2}, 10.0, 0.0),
           FunctionType("M", {CPU: 4}, 10.0, 0.0),
           FunctionType("G", {CPU: 2, "gpu": 1}, 10.0, 0.0))


def _random_allocation(state, rng, demand_id):
    """A walk of 0-3 hops, so cables may be crossed both ways, with one or
    two chain positions on it, each on a new or a reused instance."""
    path = [rng.randrange(state.graph.num_nodes)]
    for _ in range(rng.randrange(4)):
        path.append(rng.choice(state.graph.neighbors(path[-1])))
    chain = tuple(rng.choice(IDX_FNS) for _ in range(rng.randint(1, 2)))
    kbps = rng.choice([1000, 2500, 5000])
    cuts = sorted(rng.randrange(len(path)) for _ in chain)
    links = [state.graph.link(a, b) for a, b in zip(path, path[1:])]
    bounds = [0] + cuts + [len(links)]
    segments = tuple(tuple(links[i:j]) for i, j in zip(bounds, bounds[1:]))
    assigns = []
    for k, (fn, cut) in enumerate(zip(chain, cuts)):
        mine = [inst.id for inst in state.node_instances.get(path[cut], {})
                .values() if inst.function == fn]
        inst_id = rng.choice(mine) if mine and rng.random() < 0.6 else -1 - k
        assigns.append(FunctionAssignment(fn, path[cut], inst_id))
    demand = make_demand(demand_id, path[0], path[-1], chain, kbps / 1000.0,
                         1e9)
    route = Route(segments)
    delay = route.propagation_ms + sum(f.processing_delay for f in chain)
    return Allocation(demand_id, tuple(assigns), route, delay, kbps), demand


def _room(statelike, node, function):
    used = _StateView.used_resources(statelike, node)
    cap = statelike.graph.node(node).pm.capacity
    return all(used.get(res, 0) + amount <= cap.get(res, 0)
               for res, amount in function.requirements.items())


def _reusable(statelike, node, function, need):
    best = min(((free, inst.id) for inst, free in statelike.hosted(node)
                if inst.function.name == function.name and free >= need),
               default=None)
    return None if best is None else (best[1], best[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 30))
def test_indices_equal_their_derivation(seed, steps):
    # random applies (some refused, some reusing instances) and releases;
    # after each step the indexed queries equal _StateView's derivation
    # over the primitives, and an overlay with random pending assignments
    # and debits answers has_room and find_reusable as composed over hosted
    rng = random.Random(seed)
    base = random_connected_graph(rng, max_nodes=8, cap_range=(5, 60))
    graph = NetworkGraph(
        [NodeSpec(i, PmSpec({CPU: 8, "gpu": 1} if i % 2 else {CPU: 8}))
         for i in range(base.num_nodes)],
        [(a, b, base.link(a, b).capacity, 0.1) for a, b in base.cables()])
    state = NetworkState(graph)
    live = []
    for step in range(steps):
        if live and rng.random() < 0.35:
            state.release_allocation(live.pop(rng.randrange(len(live))))
        else:
            try:
                state.apply_allocation(*_random_allocation(state, rng, step))
                live.append(step)
            except AllocationError:
                pass
        assert state.validate() == []
        for node in range(graph.num_nodes):
            assert state.switch_active(node) == \
                _StateView.switch_active(state, node)
            assert state.pm_active(node) == _StateView.pm_active(state, node)
            assert state.used_resources(node) == \
                _StateView.used_resources(state, node)
        overlay = StateOverlay(state)
        for _ in range(rng.randrange(4)):
            node, fn = rng.randrange(graph.num_nodes), rng.choice(IDX_FNS)
            found = overlay.find_reusable(node, fn, 1000)
            if found is not None and rng.random() < 0.5:
                overlay.add_assignment(fn, node, found[0], 1000)
            elif overlay.has_room(node, fn):
                overlay.add_assignment(fn, node, None, 1000)
            overlay.add_links([rng.choice(graph.links)], 1000)
        for node in range(graph.num_nodes):
            assert overlay.switch_active(node) == \
                _StateView.switch_active(overlay, node)
            for fn in IDX_FNS:
                assert overlay.has_room(node, fn) == _room(overlay, node, fn)
                for need in (1, 5000, 10000):
                    assert overlay.find_reusable(node, fn, need) == \
                        _reusable(overlay, node, fn, need)
    state.used_resources(0)[CPU] = -1      # a copy, not the index
    assert state.validate() == []
