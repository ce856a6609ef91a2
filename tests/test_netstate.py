"""Substrate state bookkeeping: allocations, instances, overlays."""

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import XL, make_demand, make_graph, random_connected_graph, \
    reference_apply_allocation, reference_release_allocation, \
    route_allocation, to_mbps
from vnfplace.netstate import (Allocation, AllocationError,
                               FunctionAssignment, NetworkState, Route,
                               StateOverlay, _StateView)
from vnfplace.topology import (CPU, FunctionType, Link, NetworkGraph,
                               NodeSpec, PmSpec, to_kbps)


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


def test_reuse_only_plan_is_stored_as_it_is():
    # a plan that opens no instance is stored and returned as the same
    # object, equal to the reference commit's record; a plan with a
    # placeholder still gets a new record with resolved ids
    graph = _line_graph(n=4)
    state, ref = NetworkState(graph), NetworkState(graph)
    first = make_demand(0, 0, 3, (FN_A,), 10.0, 100.0)
    opening = _chain_allocation(state, first, [1])
    committed = state.apply_allocation(opening, first)
    assert committed is not opening
    assert committed == reference_apply_allocation(ref, opening, first)
    assert [a.instance_id for a in committed.assignments] == [0]
    second = make_demand(1, 0, 3, (FN_A,), 10.0, 100.0)
    reuse = _chain_allocation(state, second, [1], [0])
    assert state.apply_allocation(reuse, second) is reuse
    assert state.allocations[1] is reuse
    assert reuse == reference_apply_allocation(ref, reuse, second)
    # reuse and a placeholder in one plan: only the placeholder resolves
    third = make_demand(2, 0, 3, (FN_A, FN_B), 10.0, 100.0)
    mixed = _chain_allocation(state, third, [1, 2], [0, -1])
    committed = state.apply_allocation(mixed, third)
    assert committed is not mixed
    assert [a.instance_id for a in committed.assignments] == [0, 1]
    assert committed == reference_apply_allocation(ref, mixed, third)
    assert state.snapshot() == ref.snapshot()
    for demand_id in (1, 2, 0):
        state.release_allocation(demand_id)
        assert state.validate() == []
    assert state.snapshot() == NetworkState(graph).snapshot()

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


def test_commit_compares_chain_functions_by_value():
    """A plan that names the chain's A but carries a 1-core, 0 ms
    impostor would put a 1-core instance past a 5 ms budget that A's
    10 ms misses; a reused instance must run the very function too."""
    impostor = FunctionType("A", {CPU: 1}, 1e6, 0.0)
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 5.0)
    forged = make_demand(0, 0, 2, (impostor,), 10.0, 5.0)
    with pytest.raises(AllocationError,
                       match="^assignments do not match the demand chain$"):
        state.apply_allocation(_chain_allocation(state, forged, [1]), demand)
    assert state.snapshot() == NetworkState(state.graph).snapshot()
    d1 = make_demand(1, 0, 2, (FN_A,), 10.0, 100.0)
    inst_id = state.apply_allocation(_chain_allocation(state, d1, [1]),
                                     d1).assignments[0].instance_id
    d2 = make_demand(2, 0, 2, (impostor,), 10.0, 5.0)
    with pytest.raises(AllocationError,
                       match="^instance %d does not match assignment$" % inst_id):
        state.apply_allocation(
            _chain_allocation(state, d2, [1], [inst_id]), d2)
    # an equal definition in another object is the same function
    twin = dataclasses.replace(FN_A, requirements={CPU: 4})
    d3 = make_demand(3, 0, 2, (twin,), 10.0, 100.0)
    state.apply_allocation(_chain_allocation(state, d3, [1], [inst_id]), d3)
    assert state.validate() == []


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
    state.cores_used[1] -= 1
    assert state.validate() == [
        "PM 1 indexes 3 cores in use, its instances use 4"]
    state.cores_used[1] += 1
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


def test_validate_names_each_corrupt_field():
    # one field of a committed state corrupted at a time, then restored
    state = NetworkState(_line_graph())
    demand = make_demand(0, 0, 2, (FN_A,), 10.0, 100.0)
    committed = state.apply_allocation(_chain_allocation(state, demand, [1]),
                                       demand)
    inst = state.instances[committed.assignments[0].instance_id]

    state.residual_kbps[(0, 1)] = 100001
    assert "link 0->1 residual 100001 outside [0, 100000]" in state.validate()
    state.residual_kbps[(0, 1)] = 90000
    inst.residual_kbps, inst.served[0] = -1, 200001
    assert "instance 0 oversubscribed" in state.validate()
    inst.residual_kbps, inst.served[0] = 190000, 10000
    inst.served[7] = 0
    assert state.validate() == [
        "instance 0 serves demand 7 with 0 kbps, allocations say None"]
    del inst.served[7]
    ghost = FunctionAssignment(FN_A, 1, 99)
    state.allocations[0] = dataclasses.replace(committed, assignments=(ghost,))
    assert "allocation 0 references missing instance 99" in state.validate()
    state.allocations[0] = committed
    inst.function = FunctionType("A", {CPU: 32}, 200.0, 10.0)
    assert "PM 1 over capacity (32 > 16 cores)" in state.validate()
    inst.function = FN_A
    state.allocations[5] = state.allocations.pop(0)
    assert state.validate() == ["allocation keyed 5 carries id 0"]
    state.allocations[0] = state.allocations.pop(5)
    state.allocations[0] = dataclasses.replace(committed, total_delay_ms=11.0)
    assert state.validate() == ["allocation 0 delay 11.0, recomputed %r"
                                % committed.total_delay_ms]
    state.allocations[0] = committed
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
    assert overlay.used_cores(0) == 4
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


# functions of two sizes
IDX_FNS = (FunctionType("S", {CPU: 2}, 10.0, 0.0),
           FunctionType("M", {CPU: 4}, 10.0, 0.0))


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
    return (_StateView.used_cores(statelike, node) + function.cores
            <= statelike.graph.node(node).pm.cores)


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
        [NodeSpec(i, PmSpec({CPU: 8})) for i in range(base.num_nodes)],
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
            assert state.used_cores(node) == \
                _StateView.used_cores(state, node)
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
    assert state.validate() == []


# -- the commit and release against their reference -----------------------

# 10 Mb/s instances, so reuse and double traversals run out of room; a
# positive processing delay, so every route takes some time
ORACLE_FNS = (FunctionType("S", {CPU: 2}, 10.0, 0.5),
              FunctionType("M", {CPU: 4}, 10.0, 1.0))

# every message apply_allocation raises
COMMIT_MESSAGES = (
    r"demand \d+ already allocated",
    r"allocation/demand id mismatch",
    r"assignments do not match the demand chain",
    r"allocation carries \d+ kbps, demand asks \d+",
    r"route must have one segment per chain hop",
    r"discontinuous route at node \d+",
    r"route uses unknown link \d+->\d+",
    r"segment \d+ ends at \d+, expected \d+",
    r"reported delay \S+ ms, route and chain take \S+ ms",
    r"delay \S+ ms exceeds budget \S+ ms",
    r"link \d+->\d+ lacks \d+ kbps",
    r"placeholder -\d+ reused inconsistently",
    r"unknown instance \d+",
    r"instance \d+ lacks \d+ kbps",
    r"new [SM] instance cannot carry \d+ kbps",
    r"instance \d+ does not match assignment",
    r"PM \d+ lacks cpu for new instances",
)


def _oracle_allocation(state, rng, demand_id, live):
    """A walk of 0-3 hops with one or two chain positions on it, each on a
    new or a reused instance, then one or two draws that may each corrupt
    one field; two faults in one case pin the order of the checks."""
    graph = state.graph
    path = [rng.randrange(graph.num_nodes)]
    for _ in range(rng.randrange(4)):
        path.append(rng.choice(graph.neighbors(path[-1])))
    chain = tuple(rng.choice(ORACLE_FNS) for _ in range(rng.randint(1, 2)))
    kbps = rng.choice([1000, 2500, 5000, 7500])
    cuts = sorted(rng.randrange(len(path)) for _ in chain)
    links = [graph.link(a, b) for a, b in zip(path, path[1:])]
    bounds = [0] + cuts + [len(links)]
    segments = [links[i:j] for i, j in zip(bounds, bounds[1:])]
    assigns = []
    for k, (fn, cut) in enumerate(zip(chain, cuts)):
        mine = [inst.id for inst in state.node_instances.get(path[cut], {})
                .values() if inst.function == fn]
        inst_id = rng.choice(mine) if mine and rng.random() < 0.6 else -1 - k
        assigns.append(FunctionAssignment(fn, path[cut], inst_id))
    alloc_id, alloc_kbps, budget, late = demand_id, kbps, 1e9, 0.0
    for kind in rng.sample(range(20), rng.randint(1, 2)):
        k = rng.randrange(len(assigns))
        a = assigns[k]
        j = rng.randrange(len(segments))
        start = path[bounds[j]]
        if kind == 0 and live:
            alloc_id = demand_id = rng.choice(live)
        elif kind == 1:
            alloc_id = demand_id + 1
        elif kind == 2:
            other = ORACLE_FNS[a.function is ORACLE_FNS[0]]
            assigns[k] = FunctionAssignment(other, a.node, a.instance_id)
        elif kind == 3:
            alloc_kbps = kbps + 1
        elif kind == 4:
            segments.pop()
        elif kind == 5:
            segments[j].insert(0, rng.choice(
                [l for l in graph.links if l.src != start]))
        elif kind == 6:
            segments[j].insert(0, Link(start, graph.num_nodes, 100.0, 0.1))
        elif kind == 7:
            node = (a.node + 1) % graph.num_nodes
            assigns[k] = FunctionAssignment(a.function, node, a.instance_id)
        elif kind == 8:
            late = 1.0
        elif kind == 9:
            budget = None
        elif kind == 10:
            kbps = alloc_kbps = 50000
        elif kind == 11:
            assigns = [FunctionAssignment(b.function, b.node, -1) for b in assigns]
        elif kind == 12:
            assigns[k] = FunctionAssignment(a.function, a.node, 10 ** 6)
        elif kind == 13 and state.instances:
            assigns[k] = FunctionAssignment(a.function, a.node,
                                            rng.choice(list(state.instances)))
    route = Route(tuple(tuple(seg) for seg in segments))
    delay = route.propagation_ms + sum(f.processing_delay for f in chain)
    demand = make_demand(demand_id, path[0], path[-1], chain, kbps / 1000.0,
                         delay / 2 if budget is None else budget)
    return Allocation(alloc_id, tuple(assigns), route, delay + late,
                      alloc_kbps), demand


def _outcome(change, *args):
    """What a commit or release returns, or the message it raises."""
    try:
        return change(*args)
    except AllocationError as err:
        return str(err)


def _assert_same_state(lib, ref):
    assert lib.snapshot() == ref.snapshot()
    assert lib.lit_cables == ref.lit_cables
    assert lib.cores_used == ref.cores_used
    assert lib._next_instance == ref._next_instance


def _lit(state):
    """The cables some allocation crosses, read from link_use."""
    use = state.link_use
    return {(a, b) for a, b in use if a < b and (use[(a, b)] or use[(b, a)])}


def _epoch_counts_flips(state, before, epoch):
    """lit_epoch rose once per cable lit or gone dark since before, the
    lit cables when it read epoch."""
    assert state.lit_epoch - epoch == len(before ^ _lit(state))


def _oracle_run(seed, steps):
    """Feed the same seeded allocations, random and corrupted, to the
    library and to the reference, then release everything in a random
    order; returns the messages the commits raised. After every commit
    and release, lit_epoch has risen once per cable whose lit state
    flipped."""
    rng = random.Random(seed)
    base = random_connected_graph(rng, max_nodes=6, cap_range=(5, 40))
    graph = NetworkGraph(
        [NodeSpec(i, PmSpec({CPU: 8})) for i in range(base.num_nodes)],
        [(a, b, base.link(a, b).capacity, 0.1) for a, b in base.cables()])
    lib, ref = NetworkState(graph), NetworkState(graph)
    live, messages = [], set()
    for step in range(steps):
        allocation, demand = _oracle_allocation(lib, rng, step, live)
        lit, epoch = _lit(lib), lib.lit_epoch
        got = _outcome(lib.apply_allocation, allocation, demand)
        _epoch_counts_flips(lib, lit, epoch)
        assert got == _outcome(reference_apply_allocation, ref, allocation,
                               demand)
        if isinstance(got, str):
            messages.add(got)
        else:
            live.append(demand.id)
        _assert_same_state(lib, ref)
    assert lib.validate() == []
    rng.shuffle(live)
    for demand_id in live + [steps]:
        lit, epoch = _lit(lib), lib.lit_epoch
        assert _outcome(lib.release_allocation, demand_id) == \
            _outcome(reference_release_allocation, ref, demand_id)
        _epoch_counts_flips(lib, lit, epoch)
        _assert_same_state(lib, ref)
    assert lib.snapshot() == NetworkState(graph).snapshot()
    return messages


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 40))
def test_commit_and_release_equal_their_reference(seed, steps):
    _oracle_run(seed, steps)


def test_commit_oracle_reaches_every_commit_message():
    messages = set()
    for seed in range(20):
        messages |= _oracle_run(seed, 40)
    for message in messages:
        assert any(re.fullmatch(p, message) for p in COMMIT_MESSAGES), message
    for pattern in COMMIT_MESSAGES:
        assert any(re.fullmatch(pattern, m) for m in messages), pattern
