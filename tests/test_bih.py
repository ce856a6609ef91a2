"""Island clustering: search, hierarchy, incremental maintenance."""

import random

import pytest

from helpers import (XL, _tight_instance, beta_bi_search, island_partition,
                     layered_graph, partition_oracle, random_connected_graph,
                     route_allocation, skim_random_links, to_mbps)
from vnfplace.bih import BIHierarchy, build_bih
from vnfplace.netstate import (Allocation, FunctionAssignment, NetworkState,
                               StateOverlay)
from vnfplace.placement import place_all
from vnfplace.topology import default_catalogs, nobel_germany
from vnfplace.workload import generate_demands

BETAS = [50.0, 40.0, 30.0]


def _islands_by_nodes(level):
    return {frozenset(i.nodes): i for i in level.islands}


def test_search_on_layered_fixture():
    state = NetworkState(layered_graph())
    nodes, links = beta_bi_search(state, 1, 50.0)
    assert nodes == {0, 1, 3}
    assert links == {(0, 1), (0, 3), (1, 3)}
    nodes, _ = beta_bi_search(state, 2, 50.0)
    assert nodes == {2}
    nodes, _ = beta_bi_search(state, 1, 40.0)
    assert nodes == {0, 1, 2, 3}
    nodes, links = beta_bi_search(state, 7, 30.0)
    assert nodes == set(range(9))
    assert len(links) == 14


class _CountingState:
    """A state that counts the residual reads the island search makes."""

    def __init__(self, state):
        self.graph = state.graph
        self.state = state
        self.reads = 0

    def sym_residual(self, a, b):
        self.reads += 1
        return self.state.sym_residual(a, b)


def test_search_examines_each_cable_at_most_twice():
    state = NetworkState(layered_graph())
    cables = len(state.graph.cables())
    for node in range(9):
        for beta in BETAS:
            counting = _CountingState(state)
            beta_bi_search(counting, node, beta)
            assert counting.reads <= 2 * cables
    # one island spanning everything looks at every cable exactly twice
    counting = _CountingState(state)
    beta_bi_search(counting, 0, 30.0)
    assert counting.reads == 2 * cables


def test_search_matches_partition_oracle():
    rng = random.Random(42)
    for trial in range(30):
        graph = random_connected_graph(rng, max_nodes=25)
        state = NetworkState(graph)
        skim_random_links(state, rng)
        for _ in range(5):
            beta = rng.randrange(1, 120) / 2.0
            assert island_partition(state, beta) == \
                partition_oracle(state, beta), "beta %r" % beta


def test_hierarchy_levels_nest():
    state = NetworkState(layered_graph())
    h = build_bih(state, BETAS)
    assert island_partition(state, 50.0) == \
        [(0, 1, 3), (2,), (4, 5, 6), (7, 8)]
    by_nodes = _islands_by_nodes(h.levels[50000])
    assert set(by_nodes) == {frozenset({0, 1, 3}), frozenset({2}),
                             frozenset({4, 5, 6}), frozenset({7, 8})}
    assert by_nodes[frozenset({4, 5, 6})].internal_links == \
        {(4, 5), (5, 6), (4, 6)}
    mid = _islands_by_nodes(h.levels[40000])
    assert set(mid) == {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7, 8})}
    low = _islands_by_nodes(h.levels[30000])
    assert set(low) == {frozenset(range(9))}
    # each island's nodes lie in a single island one level down
    for beta_hi, beta_lo in ((50000, 40000), (40000, 30000)):
        below = h.levels[beta_lo].node_island
        for island in h.levels[beta_hi].islands:
            assert len({below[n] for n in island.nodes}) == 1


def test_hierarchy_rejects_bad_ladders():
    state = NetworkState(layered_graph())
    with pytest.raises(ValueError):
        BIHierarchy(state, [])
    with pytest.raises(ValueError):
        BIHierarchy(state, [30.0, 40.0])
    with pytest.raises(ValueError):
        BIHierarchy(state, [40.0, 40.0])
    with pytest.raises(ValueError):
        BIHierarchy(state, [40.0, 0.0])
    # non-finite thresholds
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            BIHierarchy(state, [40.0, bad])
    # a threshold that rounds to 0 kb/s (half rounds to even)
    for bad in ([0.0004], [30.0, 0.0005]):
        with pytest.raises(ValueError, match="at least 1 kb/s"):
            BIHierarchy(state, bad)
    # descending in Mb/s but not on the 1 kb/s grid: two betas, one level
    with pytest.raises(ValueError, match="descending in kb/s"):
        BIHierarchy(state, [900.0004, 900.0001, 300.0])
    # the smallest and the closest thresholds the grid tells apart
    assert BIHierarchy(state, [0.0016, 0.0006]).betas_kbps == [2, 1]


def test_select_prefers_requested_level():
    state = NetworkState(layered_graph())
    h = build_bih(state, BETAS)
    # only one level qualifies: both modes agree
    assert h.select(0, 1, 45000, "hbi").nodes == {0, 1, 3}
    assert h.select(0, 1, 45000, "lbi").nodes == {0, 1, 3}
    # bandwidth over every threshold, or endpoints never co-islanded
    assert h.select(0, 1, 60000, "hbi") is None
    assert h.select(0, 4, 45000, "lbi") is None
    # 0 and 2 join at 40; 0 and 4 only at 30
    assert h.select(0, 2, 35000, "hbi").beta_kbps == 40000
    assert h.select(0, 4, 25000, "lbi").beta_kbps == 30000
    # both levels qualify: modes diverge
    assert h.select(0, 2, 20000, "hbi").beta_kbps == 40000
    assert h.select(0, 2, 20000, "lbi").beta_kbps == 30000
    with pytest.raises(ValueError):
        h.select(0, 2, 20000, "best")


def test_canonical_equals_rebuild_after_split_and_merge():
    state = NetworkState(layered_graph())
    h = build_bih(state, BETAS)
    # split node 0 off and merge it back
    churn = build_bih(state, BETAS)
    a0, _ = route_allocation(state, [0, 1], 45.0, 0)
    churn.update_on_allocation(state, a0.route)
    a1, _ = route_allocation(state, [0, 3], 45.0, 1)
    churn.update_on_allocation(state, a1.route)
    for demand_id, alloc in ((0, a0), (1, a1)):
        state.release_allocation(demand_id)
        churn.update_on_release(state, alloc.route)
    assert churn.canonical() == h.canonical()


def test_allocation_splits_and_release_merges():
    state = NetworkState(layered_graph())
    h = build_bih(state, BETAS)
    # drain 0-1 below 50: {0,1,3} must stay whole via 0-3 and 1-3
    a0, _ = route_allocation(state, [0, 1], 15.0, 0)
    h.update_on_allocation(state, a0.route)
    top = _islands_by_nodes(h.levels[50000])
    assert frozenset({0, 1, 3}) in top
    assert top[frozenset({0, 1, 3})].internal_links == {(0, 3), (1, 3)}
    # drain 0-3 and 1-3 too: the island falls apart
    a1, _ = route_allocation(state, [0, 3], 15.0, 1)
    h.update_on_allocation(state, a1.route)
    a2, _ = route_allocation(state, [1, 3], 15.0, 2)
    h.update_on_allocation(state, a2.route)
    top = _islands_by_nodes(h.levels[50000])
    assert frozenset({0}) in top and frozenset({1}) in top \
        and frozenset({3}) in top
    assert h.canonical() == build_bih(state, BETAS).canonical()
    # release in reverse: the pieces merge back
    for demand_id, alloc in ((2, a2), (1, a1), (0, a0)):
        state.release_allocation(demand_id)
        h.update_on_release(state, alloc.route)
        assert h.canonical() == build_bih(state, BETAS).canonical()
    assert frozenset({0, 1, 3}) in _islands_by_nodes(h.levels[50000])


def test_incremental_equals_rebuild_on_random_sequences():
    rng = random.Random(99)
    for trial in range(8):
        graph = random_connected_graph(rng, max_nodes=12, cap_range=(5, 60))
        state = NetworkState(graph)
        betas = [40.0, 25.0, 10.0]
        h = build_bih(state, betas)
        live = {}
        next_id = 0
        for _ in range(25):
            if live and rng.random() < 0.4:
                demand_id = rng.choice(sorted(live))
                alloc = live.pop(demand_id)
                state.release_allocation(demand_id)
                h.update_on_release(state, alloc.route)
            else:
                a, b = graph.cables()[rng.randrange(len(graph.cables()))]
                free = state.sym_residual(a, b)
                if free <= 0 or not StateOverlay(state).has_room(b, XL):
                    continue
                take = rng.randrange(1, free + 1)
                alloc, _ = route_allocation(state, [a, b], to_mbps(take),
                                            next_id)
                h.update_on_allocation(state, alloc.route)
                live[next_id] = alloc
                next_id += 1
            assert h.canonical() == build_bih(state, betas).canonical()


@pytest.mark.parametrize("mode", ["lbi", "hbi"])
def test_real_routes_keep_hierarchy_equal_to_rebuild(mode):
    """Replay the commits of real placement runs, whose routes cross
    several segments and can reuse a link, and check the incremental
    islands against a rebuild after every one; then release every
    allocation in a random order, checking again after each release."""
    germany = nobel_germany()
    _, services = default_catalogs()
    instances = [(germany, generate_demands(germany, 100, services, seed),
                  [900.0, 700.0, 500.0, 300.0]) for seed in range(3)]
    instances += [_tight_instance(seed) for seed in range(10)]
    rng = random.Random(5)
    multi_link = reused = 0
    for graph, demands, betas in instances:
        sol = place_all(graph, demands, betas, mode=mode)
        state = NetworkState(graph)
        h = build_bih(state, betas)
        seen = set()
        live = []
        for outcome in sol.outcomes:
            if not outcome.accepted:
                continue
            committed = outcome.allocation
            # instances first used here go back to placeholders; the fresh
            # state then hands out the same ids in the same order
            assigns = tuple(
                FunctionAssignment(a.function, a.node,
                                   a.instance_id if a.instance_id in seen
                                   else -1 - a.instance_id)
                for a in committed.assignments)
            seen.update(a.instance_id for a in committed.assignments)
            planned = Allocation(committed.demand_id, assigns, committed.route,
                                 committed.total_delay_ms,
                                 committed.bandwidth_kbps)
            again = state.apply_allocation(planned, outcome.demand)
            assert again == committed
            h.update_on_allocation(state, again.route)
            assert state.validate() == []
            assert h.canonical() == build_bih(state, betas).canonical()
            multi_link += any(len(seg) > 1 for seg in again.route.segments)
            live.append(again)
        assert state.snapshot() == sol.state.snapshot()
        rng.shuffle(live)
        for alloc in live:
            state.release_allocation(alloc.demand_id)
            h.update_on_release(state, alloc.route)
            assert state.validate() == []
            assert h.canonical() == build_bih(state, betas).canonical()
            cables = [(min(l.src, l.dst), max(l.src, l.dst))
                      for l in alloc.route.links()]
            reused += len(set(cables)) < len(cables)
    assert multi_link > 0
    # some releases give back a cable the route crossed more than once
    assert reused > 0
