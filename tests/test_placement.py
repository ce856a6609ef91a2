"""Placement heuristics: island-confined greedy and the centrality baseline."""

import hashlib
import math
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (XL, ReferenceChainView, SizedDemand, _tight_instance,
                     beta_bi_search, betweenness_oracle, layered_graph,
                     make_demand, make_graph, oracle_best_path,
                     oracle_dijkstra, random_connected_graph,
                     reference_assign_on_path, reference_bc_place_all,
                     reference_best_candidate, reference_bfs_path,
                     route_allocation, skim_random_links)
from vnfplace import placement
from vnfplace.bih import BlockingIsland, build_bih
from vnfplace.exact import build_model
from vnfplace.netstate import (Allocation, FunctionAssignment, NetworkState,
                               Route, StateOverlay)
from vnfplace.placement import (Candidate, _assign_on_path, _best_candidate,
                                _bfs, _ChainView, _edge_terms,
                                _pair_route, _PathTable, _plan_on_path,
                                _settle, bc_place_all, betweenness,
                                calculate_best_path, get_candidate_pms,
                                place_all)
from vnfplace.power import incremental_cost
from vnfplace.topology import (CPU, FunctionType, NetworkGraph, NodeSpec,
                               PmSpec, PowerParams, ServiceType,
                               default_catalogs, nobel_germany)
from vnfplace.workload import generate_demands

BETAS = [900.0, 700.0, 500.0, 300.0]

FN = {name: FunctionType(name, {CPU: 4}, 200.0, 10.0)
      for name in ("NAT", "FW", "TM", "WOC", "IDPS")}
WEB = (FN["NAT"], FN["FW"], FN["TM"], FN["WOC"], FN["IDPS"])


def _island_over(graph, beta_kbps=10 ** 9):
    return BlockingIsland(beta_kbps, frozenset(n.id for n in graph.nodes),
                          frozenset(graph.cables()))


def _view(state, island, src, kbps):
    """A _ChainView with a routing cache of its own."""
    return _ChainView(state, island, src, kbps,
                      placement._RouteCache(state.graph))


def test_path_search_config_validation():
    # the reweighting step is the path search's one setting: (0, 1]
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)])
    state = NetworkState(graph)
    island = _island_over(graph)
    demand = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0)
    for step in (0.5, 1.0):
        assert place_all(graph, [demand], BETAS,
                         weight_step=step).acceptance == 1.0
        assert calculate_best_path(_view(state, island, 0, 1000), 1, 1,
                                   0.0, 50.0, step) is not None
    for step in (0.0, -0.25, 1.5, math.nan):
        with pytest.raises(ValueError, match="weight step"):
            place_all(graph, [demand], BETAS, weight_step=step)


def test_edge_weight_mixes_power_and_delay():
    graph = make_graph(3, [(0, 1, 100.0, 1.0), (1, 2, 100.0, 2.0)])
    link = graph.link(0, 1)
    # everything dark: full power term, delay normalized by the longest link
    assert _edge_terms(graph, link, False, False, False) == (1.0, 0.5)
    assert _edge_terms(graph, graph.link(1, 2), False, False, False) == \
        (1.0, 1.0)
    # lit gear costs nothing: a dark endpoint is half a switch, a dark
    # cable two ports, over a switch plus two ports
    assert _edge_terms(graph, link, True, True, True) == (0.0, 0.5)
    assert _edge_terms(graph, graph.link(1, 2), True, False, False) == \
        pytest.approx((67.0 / 132.0, 1.0))
    assert _edge_terms(graph, link, True, True, False)[0] == \
        pytest.approx(2.0 / 132.0)


def test_path_search_tries_at_most_four_settings():
    graph = make_graph(2, [(0, 1, 1000.0, 10.0)])
    state = NetworkState(graph)
    view = _view(state, _island_over(graph), 0, 1000)
    stats = {}
    # budget below the only path's delay: every setting fails
    found = calculate_best_path(view, 1, 1, 0.0, 5.0, 0.25, stats)
    assert found is None
    assert stats["weight_settings_max"] == 4
    assert stats["path_searches"] == 1
    # a coarser step leaves fewer settings before the mix degenerates
    stats = {}
    calculate_best_path(view, 1, 1, 0.0, 5.0, 0.5, stats)
    assert stats["weight_settings_max"] == 2
    stats = {}
    calculate_best_path(view, 1, 1, 0.0, 5.0, 1.0, stats)
    assert stats["weight_settings_max"] == 1
    # a feasible budget returns on the first setting
    stats = {}
    found = calculate_best_path(view, 1, 1, 0.0, 50.0, 0.25, stats)
    assert found is not None
    assert stats["weight_settings_max"] == 1


def test_path_search_stops_at_the_first_missing_route(monkeypatch):
    # whether a route exists does not depend on the weights: a PM the
    # origin cannot reach, or a destination the PM cannot reach, ends the
    # search at the first setting, after one tree per source
    settles = [0]
    real_settle = placement._settle

    def counted(*args):
        settles[0] += 1
        return real_settle(*args)

    monkeypatch.setattr(placement, "_settle", counted)
    graph = make_graph(4, [(0, 1, 1000.0, 1.0), (2, 3, 1000.0, 1.0)])
    state = NetworkState(graph)
    for pm, dst, trees in ((2, 2, 1), (1, 3, 2)):
        stats = {}
        settles[0] = 0
        view = _view(state, _island_over(graph), 0, 1000)
        assert calculate_best_path(view, pm, dst, 0.0, 50.0, 0.25,
                                   stats) is None
        assert stats == {"path_searches": 1, "weight_settings_max": 1}
        assert settles[0] == trees


def test_path_search_shifts_weight_toward_delay():
    # slow lit detour 0-2-3 vs fast dark path 0-1-3
    graph = make_graph(4, [(0, 1, 1000.0, 0.1), (1, 3, 1000.0, 0.1),
                           (0, 2, 1000.0, 2.0), (2, 3, 1000.0, 2.0)])
    state = NetworkState(graph)
    route_allocation(state, [0, 2, 3], 1.0, 0)
    view = _view(state, _island_over(graph), 0, 1000)

    # plenty of budget: power-only weighting stays on the lit detour
    stats = {}
    seg1, seg2, delay = calculate_best_path(view, 3, 3, 0.0, 5.0, 0.25, stats)
    assert [l.dst for l in seg1] == [2, 3]
    assert seg2 == ()
    assert stats["weight_settings_max"] == 1

    # tight budget: the mix keeps shifting until delay dominates enough
    stats = {}
    seg1, seg2, delay = calculate_best_path(view, 3, 3, 0.0, 1.0, 0.25, stats)
    assert [l.dst for l in seg1] == [1, 3]
    assert delay == pytest.approx(0.2)
    assert stats["weight_settings_max"] == 3


def test_path_search_checks_combined_segment_load():
    # both segments must squeeze through 1->2 at once
    graph = make_graph(5, [(0, 1, 1000.0, 0.1), (1, 2, 1000.0, 0.1),
                           (2, 3, 1000.0, 0.1), (1, 3, 1000.0, 0.1),
                           (2, 4, 1000.0, 0.1)])
    state = NetworkState(graph)
    route_allocation(state, [1, 3], 950.0, 0)     # blocks 1->3
    route_allocation(state, [3, 2], 950.0, 1)     # blocks 3->2
    route_allocation(state, [1, 2], 850.0, 2)     # leaves 150 on 1->2
    island = _island_over(graph)

    found = calculate_best_path(_view(state, island, 0, 70000), 3, 4,
                                0.0, 10.0, 0.25)
    assert found is not None
    seg1, seg2, _ = found
    shared = [(l.src, l.dst) for l in seg1 + seg2]
    assert shared.count((1, 2)) == 2          # the corridor is crossed twice
    # 100 Mb/s per segment would need 200 of the remaining 150
    assert calculate_best_path(_view(state, island, 0, 100000), 3, 4,
                               0.0, 10.0, 0.25) is None
    # 75 Mb/s per segment fills the remaining 150 exactly
    found = calculate_best_path(_view(state, island, 0, 75000), 3, 4,
                                0.0, 10.0, 0.25)
    assert found is not None
    seg1, seg2, _ = found
    assert [(l.src, l.dst) for l in seg1 + seg2].count((1, 2)) == 2


def test_edge_weight_without_network_power_is_delay_only():
    plain = make_graph(3, [(0, 1, 100.0, 1.0), (1, 2, 100.0, 2.0)])
    graph = NetworkGraph(plain.nodes, [(0, 1, 100.0, 1.0), (1, 2, 100.0, 2.0)],
                         PowerParams(switch_static_w=0.0, port_w=0.0))
    assert _edge_terms(graph, graph.link(0, 1), False, False, False) == \
        (0.0, 0.5)
    demand = make_demand(0, 0, 2, (FN["NAT"],), 1.0, 100.0)
    assert place_all(graph, [demand], [50.0]).acceptance == 1.0


def _fresh_hops(graph, island, src):
    """BFS hop counts from src over the island's cables, found anew."""
    hops = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            cable = (u, v) if u < v else (v, u)
            if v not in hops and cable in island.internal_links:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def _rows(view, nodes):
    return {n: [tuple(row) for row in view.rows[n]] for n in nodes}


def _reference_view(overlay, island, src, kbps):
    """A view read anew through the read API of an overlay, with a routing
    cache of its own."""
    return ReferenceChainView(overlay, island, src, kbps,
                              placement._RouteCache(overlay.graph))


def _assert_matches_overlay(view, overlay, island):
    """The view equals one built anew over an overlay that went through
    the same plan: residuals, search adjacency, lit maps, every node's
    rows as (id, function name, free) and its cores in use."""
    fresh = _reference_view(overlay, island, view.origin, view.kbps)
    for a, b in island.internal_links:
        for u, v in ((a, b), (b, a)):
            assert view.residual(u, v) == overlay.residual(u, v)
    assert view.adj == fresh.adj
    assert view.lit == fresh.lit
    assert _rows(view, island.nodes) == _rows(fresh, island.nodes)
    assert view.used == fresh.used


def _full_scan(overlay, island, function, candidates, origin, dst, kbps,
               planned_ms, processing, budget_ms):
    """Every candidate routed by the oracle; least (cost, hops, category,
    node) wins."""
    hops = _fresh_hops(overlay.graph, island, origin)
    best = None
    for cand in candidates:
        found = oracle_best_path(overlay, island, origin, cand.node, dst,
                                 kbps, planned_ms, processing, budget_ms,
                                 0.25)
        if found is None:
            continue
        cost = incremental_cost(overlay, cand.node, cand.instance_id,
                                function, found[0] + found[1])
        key = (cost, hops.get(cand.node, math.inf), cand.category, cand.node)
        if best is None or key < best[0]:
            best = (key, (cand,) + found)
    return None if best is None else best[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_search_and_pruned_scan_match_per_candidate_oracle(seed):
    graph = nobel_germany()
    _, services = default_catalogs()
    demands = generate_demands(graph, 130, services, seed)
    # load the substrate with 100 placed demands, then walk the chains of
    # the next ones, checking every position of every partial plan
    state = place_all(graph, demands[:100], BETAS, mode="hbi").state
    hierarchy = build_bih(state, BETAS)
    ladder = [(1.0 - k * 0.25, k * 0.25) for k in range(4)]
    positions = candidates_seen = 0
    entered = {True: 0, False: 0}      # positions after a co-location or not
    stats = {}
    for demand in demands[100:]:
        kbps = demand.bandwidth_kbps
        island = hierarchy.select(demand.src, demand.dst, kbps, "lbi")
        if island is None:
            continue
        overlay = StateOverlay(state)
        view = _view(state, island, demand.src, kbps)
        processing = sum(f.processing_delay for f in demand.chain)
        budget = demand.delay_budget
        planned = 0.0
        colocated = None
        for function in demand.chain:
            origin = view.origin
            # the view the planner keeps equals one built anew over the
            # overlay, and its hop counts a fresh BFS
            _assert_matches_overlay(view, overlay, island)
            assert view.facts.hops(view.origin) == _fresh_hops(graph,
                                                               island, origin)
            if colocated is not None:
                entered[colocated] += 1
            candidates = _composed_candidates(overlay, function, island,
                                              kbps)
            for cand in candidates:
                for gamma, omega in ladder:
                    assert view.route(origin, cand.node, gamma, omega) \
                        == oracle_dijkstra(overlay, island, origin, cand.node,
                                           kbps, gamma, omega)
                    assert view.route(cand.node, demand.dst, gamma, omega) \
                        == oracle_dijkstra(overlay, island, cand.node,
                                           demand.dst, kbps, gamma, omega)
                assert calculate_best_path(
                    view, cand.node, demand.dst, processing, budget,
                    0.25) == \
                    oracle_best_path(overlay, island, origin, cand.node,
                                     demand.dst, kbps, planned, processing,
                                     budget, 0.25)
            want = _full_scan(overlay, island, function, candidates, origin,
                              demand.dst, kbps, planned, processing, budget)
            got, reason = _best_candidate(view, function, demand.dst,
                                          processing, budget, 0.25, stats)
            assert got == want
            assert reason == (None if got else
                              "no-path" if candidates else "no-pm")
            positions += 1
            candidates_seen += len(candidates)
            if got is None:
                break
            cand, seg1, _, _ = got
            view.add_segment(seg1)
            overlay.add_links(seg1, kbps)
            assert view.add_assignment(function, cand.node,
                                       cand.instance_id) == \
                overlay.add_assignment(function, cand.node, cand.instance_id,
                                       kbps)
            assert view.origin == cand.node
            colocated = not seg1
            for link in seg1:
                planned += link.delay
    assert positions >= 50
    # both kinds of position were checked: trees and hops kept after a
    # co-location, adjacency patched and hops rebuilt after a non-empty one
    assert entered[True] > 0 and entered[False] > 0
    # the PM-cost bound skipped some candidates without changing a winner
    assert 0 < stats["path_searches"] < candidates_seen


def test_chain_view_lights_what_the_plan_routes_over():
    # a planned segment lights its cables and switches for later
    # positions, as a view built anew over the overlay sees them
    graph = make_graph(4, [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0),
                           (2, 3, 1000.0, 1.0), (0, 3, 1000.0, 5.0)])
    state = NetworkState(graph)
    overlay = StateOverlay(state)
    island = _island_over(graph)
    view = _view(state, island, 0, 1000)
    assert view.lit == ({n: False for n in range(4)},
                        {c: False for c in graph.cables()})
    view.add_segment(())                    # co-location keeps everything
    assert view.origin == 0 and view.lit[0] == {n: False for n in range(4)}
    segment = (graph.link(0, 1), graph.link(1, 2))
    view.add_segment(segment)
    overlay.add_links(segment, 1000)
    assert view.origin == 2
    assert view.lit == ({0: True, 1: True, 2: True, 3: False},
                        {(0, 1): True, (1, 2): True, (2, 3): False,
                         (0, 3): False})
    _assert_matches_overlay(view, overlay, island)
    assert view.facts.hops(view.origin) == {2: 0, 1: 1, 3: 1, 0: 2}


# one step of a chain walk: (planned segment or assignment, segment
# length in links, a pick for the target node and the segment's turns,
# which function, start a new instance even if one could be reused)
_WALK_STEP = st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 63),
                       st.integers(0, 1), st.booleans())


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kbps=st.sampled_from([1000, 20000, 60000]),
       walk=st.lists(_WALK_STEP, min_size=1, max_size=10))
def test_chain_view_patches_equal_fresh_reads(seed, kbps, walk):
    # a random island over a loaded random graph; segments from the origin
    # over any island link, so some push a link below kbps, and new or
    # reused instances on any node; after each step every table the view
    # patched equals a fresh read of an overlay given the same plan
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_nodes=12, cap_range=(10, 150))
    state = NetworkState(graph)
    skim_random_links(state, rng)
    src = rng.randrange(graph.num_nodes)
    nodes, links = beta_bi_search(state, src, 1.0)
    island = BlockingIsland(1000, nodes, links)
    ordered = sorted(nodes)
    nbrs = {n: sorted(v for v in graph.neighbors(n)
                      if (min(n, v), max(n, v)) in links) for n in nodes}
    overlay = StateOverlay(state)
    view = _view(state, island, src, kbps)
    _assert_matches_overlay(view, overlay, island)
    functions = (XL, FN["NAT"])
    for is_segment, length, pick, f, fresh_instance in walk:
        target, before = ordered[pick % len(ordered)], view.origin
        view.route(before, target, 1.0, 0.0)            # cache the trees
        view.route(before, target, 0.5, 0.5)
        if is_segment:
            path, at = [], view.origin
            for _ in range(length):
                steps = [v for v in nbrs[at]
                         if all(v != l.src for l in path)]
                if not steps:
                    break
                nxt = steps[pick % len(steps)]
                path.append(graph.link(at, nxt))
                at = nxt
            view.add_segment(tuple(path))
            overlay.add_links(path, kbps)
            assert view.origin == at
        else:
            function = functions[f]
            reuse = None if fresh_instance else next(
                (inst.id for inst, _ in overlay.hosted(target)
                 if inst.function.name == function.name), None)
            assert view.add_assignment(function, target, reuse) == \
                overlay.add_assignment(function, target, reuse, kbps)
        _assert_matches_overlay(view, overlay, island)
        for node in ordered:
            assert view.pm_active(node) == overlay.pm_active(node)
        # no tree survives a change of the links it was grown over
        assert view.route(view.origin, target, 1.0, 0.0) == \
            oracle_dijkstra(overlay, island, view.origin, target, kbps,
                            1.0, 0.0)
        assert view.route(before, target, 0.5, 0.5) == \
            oracle_dijkstra(overlay, island, before, target, kbps, 0.5, 0.5)


def test_settle_trees_match_networkx_on_patched_searches():
    nx = pytest.importorskip("networkx")
    graph = nobel_germany()
    params = graph.power
    max_power = params.switch_static_w + 2.0 * params.port_w
    _, services = default_catalogs()
    demands = generate_demands(graph, 120, services, 2)
    state = place_all(graph, demands[:100], BETAS, mode="lbi").state
    hierarchy = build_bih(state, BETAS)
    patched = 0
    for demand in demands[100:]:
        kbps = demand.bandwidth_kbps
        island = hierarchy.select(demand.src, demand.dst, kbps, "lbi")
        if island is None:
            continue
        overlay = StateOverlay(state)
        view = _view(state, island, demand.src, kbps)
        segments = 0
        for function in demand.chain[:3]:
            best, _ = _best_candidate(view, function, demand.dst, 0.0, 1e9,
                                      0.25)
            if best is None:
                break
            cand, seg1 = best[:2]
            view.add_segment(seg1)
            overlay.add_links(seg1, kbps)
            assert view.add_assignment(function, cand.node,
                                       cand.instance_id) == \
                overlay.add_assignment(function, cand.node, cand.instance_id,
                                       kbps)
            segments += bool(seg1)
        if not segments:
            continue            # the adjacency was never patched
        patched += 1
        # edge weights from the overlay, without the library's terms
        for k in range(4):
            gamma, omega = 1.0 - k * 0.25, k * 0.25
            g = nx.DiGraph()
            g.add_nodes_from(island.nodes)
            for a, b in island.internal_links:
                for u, v in ((a, b), (b, a)):
                    if overlay.residual(u, v) < kbps:
                        continue
                    power = (params.switch_static_w / 2.0
                             * (2 - overlay.switch_active(u)
                                - overlay.switch_active(v)))
                    if not overlay.cable_active(a, b):
                        power += 2.0 * params.port_w
                    delay = graph.link(u, v).delay / graph.max_link_delay
                    g.add_edge(u, v, weight=gamma * power / max_power
                               + omega * delay)
            want = nx.single_source_dijkstra_path_length(g, view.origin)
            pred = _settle(view.adj, view.origin, gamma, omega)
            got = {}
            for node in list(pred) + [view.origin]:
                total, at = 0.0, node
                while at != view.origin:
                    link = pred[at]
                    total += g[link.src][link.dst]["weight"]
                    at = link.src
                got[node] = total
            assert got.keys() == want.keys()
            for node, dist in want.items():
                assert got[node] == pytest.approx(dist, rel=1e-12, abs=1e-12)
    assert patched >= 5


def _zero_power_graph():
    # no switch or port power and no link delay: both denominators are 0
    cables = [(0, 1, 100.0, 0.0), (1, 2, 100.0, 0.0), (0, 2, 100.0, 0.0)]
    return NetworkGraph(make_graph(3, cables).nodes, cables,
                        PowerParams(switch_static_w=0.0, port_w=0.0))


@pytest.mark.parametrize("graph", [nobel_germany(), _zero_power_graph()],
                         ids=["nobel-germany", "zero-power"])
def test_edge_term_table_equals_edge_terms(graph):
    # every directed link, every (src lit, dst lit, cable lit) setting
    terms = placement._RouteCache(graph).terms
    assert terms.keys() == {(l.src, l.dst) for l in graph.links}
    for link in graph.links:
        for src_lit in (False, True):
            for dst_lit in (False, True):
                for cable_lit in (False, True):
                    entry = terms[(link.src, link.dst)][
                        src_lit * 4 + dst_lit * 2 + cable_lit]
                    assert entry == (link.dst, link, *_edge_terms(
                        graph, link, src_lit, dst_lit, cable_lit))


def _twin(island):
    """An island equal to the given one, built as new frozensets filled in
    reverse order."""
    return BlockingIsland(island.beta_kbps,
                          frozenset(sorted(island.nodes, reverse=True)),
                          frozenset(sorted(island.internal_links,
                                           reverse=True)))


@pytest.mark.parametrize("seed", range(10))
def test_route_cache_hits_equal_fresh_searches(seed, monkeypatch):
    # successive demands on one island (or its twin) of a loaded random
    # graph, their views sharing one cache, the state changing between
    # some of them; at every position every entry and exit search equals
    # the oracle over an overlay given the same plan. A view with a cache
    # of its own runs alongside and must search more often: the shared
    # cache served trees grown for earlier demands
    settles = [0]
    real_settle = placement._settle

    def counted(*args):
        settles[0] += 1
        return real_settle(*args)

    monkeypatch.setattr(placement, "_settle", counted)
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_nodes=12, cap_range=(10, 150))
    state = NetworkState(graph)
    next_id = skim_random_links(state, rng)
    src = rng.randrange(graph.num_nodes)
    nodes, links = beta_bi_search(state, src, 1.0)
    island = BlockingIsland(1000, nodes, links)
    ordered = sorted(nodes)
    cache = placement._RouteCache(graph)
    ladder = [(1.0 - k * 0.25, k * 0.25) for k in range(4)]
    shared_settles = solo_settles = 0
    for demand in range(12):
        kbps = rng.choice([1000, 20000, 60000])
        origin, dst = rng.choice(ordered), rng.choice(ordered)
        seen_as = island if demand % 2 else _twin(island)
        view = _ChainView(state, seen_as, origin, kbps, cache)
        solo = _view(state, seen_as, origin, kbps)
        overlay = StateOverlay(state)
        for _ in range(3):
            at = view.origin
            assert view.facts.hops(view.origin) == _fresh_hops(graph,
                                                               island, at)
            for gamma, omega in ladder:
                for node in ordered:
                    want_in = oracle_dijkstra(overlay, island, at, node, kbps,
                                              gamma, omega)
                    want_out = oracle_dijkstra(overlay, island, node, dst,
                                               kbps, gamma, omega)
                    mark = settles[0]
                    assert view.route(at, node, gamma, omega) == want_in
                    assert view.route(node, dst, gamma, omega) == want_out
                    shared_settles += settles[0] - mark
                    mark = settles[0]
                    assert solo.route(at, node, gamma, omega) == want_in
                    assert solo.route(node, dst, gamma, omega) == want_out
                    solo_settles += settles[0] - mark
            gamma, omega = rng.choice(ladder)
            segment = view.route(at, rng.choice(ordered), gamma, omega)
            if segment is None:
                break
            view.add_segment(tuple(segment))
            solo.add_segment(tuple(segment))
            overlay.add_links(segment, kbps)
        if rng.random() < 0.5:
            a, b = rng.choice(sorted(links))
            if rng.random() < 0.5:
                a, b = b, a
            free = state.residual(a, b)
            if free > 0:
                route_allocation(state, [a, b],
                                 rng.randrange(1, free + 1) / 1000.0, next_id)
                next_id += 1
    assert shared_settles < solo_settles


def test_tree_out_of_a_pm_serves_the_walk_standing_on_it(monkeypatch):
    # the line 0-1-2 is already lit, so planning the entry 0 -> 1 -> 2
    # leaves the adjacency as it was: the tree grown for the exit 2 -> 4
    # is the one the next position's entries from PM 2 read, with no
    # further search
    settles = [0]
    real_settle = placement._settle

    def counted(*args):
        settles[0] += 1
        return real_settle(*args)

    monkeypatch.setattr(placement, "_settle", counted)
    graph = make_graph(5, [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0),
                           (2, 3, 1000.0, 1.0), (3, 4, 1000.0, 1.0),
                           (1, 3, 1000.0, 1.0), (2, 4, 1000.0, 3.0),
                           (0, 4, 1000.0, 9.0)])
    state = NetworkState(graph)
    route_allocation(state, [0, 1, 2], 1.0, 0)
    island = _island_over(graph)
    overlay = StateOverlay(state)
    view = _view(state, island, 0, 1000)
    found = calculate_best_path(view, 2, 4, 0.0, 100.0, 0.25)
    assert found == oracle_best_path(overlay, island, 0, 2, 4, 1000, 0.0,
                                     0.0, 100.0, 0.25)
    seg1 = found[0]
    assert [l.dst for l in seg1] == [1, 2]
    assert settles[0] == 2                  # the trees of 0 and of 2
    trees = view.trees
    view.add_segment(seg1)
    overlay.add_links(seg1, 1000)
    assert view.origin == 2 and view.trees is trees
    for node in sorted(island.nodes):
        assert view.route(2, node, 1.0, 0.0) == \
            oracle_dijkstra(overlay, island, 2, node, 1000, 1.0, 0.0)
    assert calculate_best_path(view, 4, 4, 0.0, 100.0, 0.25) == \
        oracle_best_path(overlay, island, 2, 4, 4, 1000, 2.0, 0.0, 100.0,
                         0.25)          # 2.0 ms planned over 0 -> 1 -> 2
    assert settles[0] == 2


def test_shared_cache_run_equals_fresh_cache_run(monkeypatch):
    # whole place_all runs give the same state whether the views of one
    # run share its cache or each view gets a cache of its own
    _, services = default_catalogs()
    germany = nobel_germany()
    instances = [(germany, generate_demands(germany, 150, services, seed),
                  BETAS) for seed in range(2)]
    instances += [_tight_instance(seed) for seed in range(6)]
    normal = []
    reasons = set()
    for graph, demands, betas in instances:
        for mode in ("lbi", "hbi"):
            sol = place_all(graph, demands, betas, mode=mode)
            normal.append(sol.state.snapshot())
            reasons.update(o.reason for o in sol.outcomes)
    # the tight instances reject demands for every reason the walk has
    assert reasons >= {None, "no-island", "no-path", "delay", "no-pm"}
    shared_view = placement._ChainView
    views = [0]

    def fresh_cache_view(state, island, src, kbps, cache):
        views[0] += 1
        return shared_view(state, island, src, kbps,
                           placement._RouteCache(state.graph))

    monkeypatch.setattr(placement, "_ChainView", fresh_cache_view)
    fresh = [place_all(graph, demands, betas, mode=mode).state.snapshot()
             for graph, demands, betas in instances
             for mode in ("lbi", "hbi")]
    assert views[0] > 0
    assert fresh == normal


def _read_tables(view):
    """What a view reads of its island before any plan: (adjacency,
    codes, lit switches, lit cables)."""
    return view.adj, view._codes, view.lit[0], view.lit[1]


def test_carried_adjacency_equals_a_full_read(monkeypatch):
    # at every view place_all builds, the tables it carried from the
    # island's template or read in full equal those of a view over a
    # fresh cache, and its tree table is the run cache's one for that
    # adjacency; both ways of reading run, and a carried view never holds
    # the template's own lit maps
    real_init, real_refill = _ChainView.__init__, _ChainView.refill
    full_reads = [0]
    served = {"carried": 0, "full": 0}

    def counted_refill(self, nodes):
        full_reads[0] += nodes is self.nodes
        real_refill(self, nodes)

    def checked_init(self, state, island, src, kbps, cache):
        before = full_reads[0]
        real_init(self, state, island, src, kbps, cache)
        served["full" if full_reads[0] > before else "carried"] += 1
        fresh = _ChainView.__new__(_ChainView)
        real_init(fresh, state, island, src, kbps,
                  placement._RouteCache(state.graph))
        assert _read_tables(self) == _read_tables(fresh)
        assert self.trees is cache.trees[(self.facts, tuple(fresh._codes))]
        kept = cache.templates.get(self.facts)
        if kept is not None:
            assert self.lit[0] is not kept[2] and self.lit[1] is not kept[3]

    monkeypatch.setattr(_ChainView, "refill", counted_refill)
    monkeypatch.setattr(_ChainView, "__init__", checked_init)
    _, services = default_catalogs()
    germany = nobel_germany()
    instances = [_tight_instance(seed) for seed in range(30)]
    instances.append((germany, generate_demands(germany, 300, services, 0),
                      BETAS))
    for graph, demands, betas in instances:
        for mode in ("lbi", "hbi"):
            place_all(graph, demands, betas, mode=mode)
    assert served["carried"] > 0 and served["full"] > 0


def test_lit_epoch_moves_exactly_when_a_cable_lights_or_goes_dark():
    graph = make_graph(4, [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0),
                           (2, 3, 1000.0, 1.0)])
    state = NetworkState(graph)
    epoch = state.lit_epoch
    first, _ = route_allocation(state, [0, 1, 2], 1.0, 0)
    assert state.lit_epoch != epoch                 # 0-1 and 1-2 lit
    epoch = state.lit_epoch
    route_allocation(state, [2, 1], 1.0, 1)         # over a lit cable
    assert state.lit_epoch == epoch
    state.release_allocation(1)                     # 1-2 stays lit
    assert state.lit_epoch == epoch
    route_allocation(state, [1, 2, 3], 1.0, 2)      # 2-3 lit
    assert state.lit_epoch != epoch
    epoch = state.lit_epoch
    state.release_allocation(first.demand_id)       # 0-1 goes dark
    assert state.lit_epoch != epoch


def test_view_after_a_darkening_release_reads_the_dark_bits():
    # a template taken while 0-1 was lit is not served once a release
    # darkens it: the next view reads the dark bits and refreshes it
    graph = make_graph(3, [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0)])
    state = NetworkState(graph)
    island = _island_over(graph)
    cache = placement._RouteCache(graph)
    lit, _ = route_allocation(state, [0, 1], 1.0, 0)
    facts = cache.island(island)
    assert _ChainView(state, island, 0, 1000, cache).lit[1][(0, 1)]
    taken = cache.templates[facts]
    state.release_allocation(lit.demand_id)
    view = _ChainView(state, island, 0, 1000, cache)
    assert not view.lit[1][(0, 1)] and not view.lit[0][0]
    assert _read_tables(view) == _read_tables(_view(state, island, 0, 1000))
    assert cache.templates[facts] is not taken
    assert cache.templates[facts][1] == state.lit_epoch


def test_template_is_not_served_to_a_kbps_a_link_cannot_carry():
    # 0-1 is lit before the template is taken at 1 Mb/s; a further commit
    # on 0 -> 1 leaves every lit bit (and the epoch) as it was but 0 -> 1
    # short of 500 Mb/s, so a view at 500 Mb/s reads in full and drops
    # that link, as a view over a fresh cache does, and keeps 1 -> 0
    graph = make_graph(3, [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0),
                           (0, 2, 1000.0, 1.0)])
    state = NetworkState(graph)
    island = _island_over(graph)
    cache = placement._RouteCache(graph)
    route_allocation(state, [0, 1], 1.0, 0)
    _ChainView(state, island, 0, 1000, cache)
    taken = cache.templates[cache.island(island)]
    epoch = state.lit_epoch
    route_allocation(state, [0, 1], 600.0, 1)
    assert state.lit_epoch == epoch
    view = _ChainView(state, island, 0, 500000, cache)
    assert _read_tables(view) == _read_tables(_view(state, island, 0, 500000))
    assert 1 not in [entry[0] for entry in view.adj[0]]
    assert 0 in [entry[0] for entry in view.adj[1]]
    assert cache.templates[cache.island(island)] is taken


def test_place_all_fingerprint_is_pinned_on_tight_instances():
    # sha1 over the snapshots of lbi then hbi runs of each of 30 tight
    # instances; unlike nobel-germany, these reject demands for every
    # reason the walk has, so the pin covers searches that fail and
    # adjacencies that drop links for want of kb/s
    digest = hashlib.sha1()
    reasons = set()
    for seed in range(30):
        graph, demands, betas = _tight_instance(seed)
        for mode in ("lbi", "hbi"):
            sol = place_all(graph, demands, betas, mode=mode)
            digest.update(sol.state.snapshot().encode())
            reasons.update(o.reason for o in sol.outcomes)
    assert reasons >= {"no-island", "no-path", "delay", "no-pm"}
    assert digest.hexdigest() == "4c6bfb86e675d2155e705e7380f540b3d6faf51a"


def _counted_listings(monkeypatch):
    """Route placement's candidate listings through a counter; returns
    the list of reuse flags it was called with."""
    calls = []
    listing = placement.get_candidate_pms

    def counted(view, function, reuse):
        calls.append(reuse)
        return listing(view, function, reuse)

    monkeypatch.setattr(placement, "get_candidate_pms", counted)
    return calls


@pytest.mark.parametrize("pm_max_w, winner, searches",
                         [(1726.0, 0, 2), (1730.0, 2, 1)])
def test_pm_cost_bound_skips_only_candidates_that_cannot_tie(
        pm_max_w, winner, searches, monkeypatch):
    # reusing NAT on 2 lights the dark line 0-1-2 for 3 * 130 + 4 = 394 W;
    # a new NAT on the powered PM 0 costs its load slope, (max - idle) / 4
    cables = [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0)]
    graph = NetworkGraph(make_graph(3, cables, cores=16).nodes, cables,
                         PowerParams(pm_max_w=pm_max_w))
    island = _island_over(graph)
    view = _view(NetworkState(graph), island, 0, 1000)
    view.add_assignment(FN["NAT"], 2, None)
    view.add_assignment(FN["FW"], 0, None)
    candidates = (get_candidate_pms(view, FN["NAT"], True)
                  + get_candidate_pms(view, FN["NAT"], False))
    assert [(c.node, c.category) for c in candidates] == [(2, 1), (0, 2), (1, 3)]
    calls = _counted_listings(monkeypatch)
    stats = {}
    best, reason = _best_candidate(view, FN["NAT"], 0, 0.0, 100.0, 0.25,
                                   stats)
    # at 394 W each, PM 0 ties with the reuse and wins on hop distance, so
    # it must be listed and routed; one watt more and only the reuse is
    # listed and routed
    assert reason is None
    assert best[0].node == winner
    assert stats["path_searches"] == searches
    # the new-instance listing runs only where PM 0 can still tie
    assert (False in calls) == (winner == 0)


def test_new_instances_are_listed_against_the_largest_pm(monkeypatch):
    # reusing NAT on 2 lights cable 0-2 for 2 * 10 + 2 = 22 W, between the
    # load slopes of a new NAT on an 8-core PM (100 * 4 / 8 = 50 W) and on
    # the powered 32-core PM 0 at the origin (12.5 W, no links); the floor
    # on new instances must come from the largest PM, so PM 0 is listed
    nodes = [NodeSpec(0, PmSpec({CPU: 32})), NodeSpec(1, PmSpec({CPU: 8})),
             NodeSpec(2, PmSpec({CPU: 8}))]
    graph = NetworkGraph(nodes, [(0, 1, 1000.0, 1.0), (0, 2, 1000.0, 1.0)],
                         PowerParams(switch_static_w=10.0, port_w=1.0))
    view = _view(NetworkState(graph), _island_over(graph), 0, 1000)
    view.add_assignment(FN["NAT"], 2, None)
    view.add_assignment(FN["FW"], 0, None)
    calls = _counted_listings(monkeypatch)
    stats = {}
    best, reason = _best_candidate(view, FN["NAT"], 0, 0.0, 100.0, 0.25,
                                   stats)
    assert False in calls           # the new-instance listing ran
    assert reason is None
    assert (best[0].node, best[0].category) == (0, 2)
    assert best[1:3] == ((), ())
    assert incremental_cost(view, 0, None, FN["NAT"], ()) == 12.5
    # the reuse and PM 0 are routed; the dark 8-core PM 1 cannot win
    assert stats["path_searches"] == 2


def _free_links_line(**pm):
    """A 3-node line of 16-core PMs whose switches and ports draw 0 W."""
    cables = [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0)]
    return NetworkGraph(make_graph(3, cables, cores=16).nodes, cables,
                        PowerParams(switch_static_w=0.0, port_w=0.0, **pm))


def test_a_reuse_that_can_only_tie_a_0_w_reuse_is_not_routed():
    # NAT runs on PMs 1 and 2 and every route is free, so both reuses cost
    # 0 W; the nearer one wins the tie and the farther is never routed
    graph = _free_links_line()
    view = _view(NetworkState(graph), _island_over(graph), 0, 1000)
    view.add_assignment(FN["NAT"], 1, None)
    far = view.add_assignment(FN["NAT"], 2, None)
    stats = {}
    best, reason = _best_candidate(view, FN["NAT"], 0, 0.0, 100.0, 0.25,
                                   stats)
    assert reason is None
    assert (best[0].node, best[0].category) == (1, 1)
    assert stats["path_searches"] == 1
    seg1, seg2, _ = calculate_best_path(view, 2, 0, 0.0, 100.0, 0.25)
    assert incremental_cost(view, 2, far, FN["NAT"], seg1 + seg2) == 0.0


def test_a_nearer_new_instance_beats_a_0_w_reuse_at_a_flat_pm_draw():
    # with pm_max_w == pm_idle_w a new NAT on the powered PM 0 at the
    # origin costs 0 W, as does reusing NAT on PM 2; the key puts hops
    # before category, so PM 0 must still be listed, routed and win,
    # while the dark PM 1 (150 W to power on) is not routed
    graph = _free_links_line(pm_idle_w=150.0, pm_max_w=150.0)
    view = _view(NetworkState(graph), _island_over(graph), 0, 1000)
    view.add_assignment(FN["NAT"], 2, None)
    view.add_assignment(FN["FW"], 0, None)
    stats = {}
    best, reason = _best_candidate(view, FN["NAT"], 0, 0.0, 100.0, 0.25,
                                   stats)
    assert reason is None
    assert (best[0].node, best[0].category) == (0, 2)
    assert best[1:3] == ((), ())
    assert stats["path_searches"] == 2


def test_listings_scan_rows_only_on_pms_that_run_an_instance(monkeypatch):
    graph = _free_links_line()
    view = _view(NetworkState(graph), _island_over(graph), 0, 1000)
    view.add_assignment(FN["NAT"], 2, None)
    scanned = []
    best_row = placement._best_row

    def recorded(rows, name, kbps):
        scanned.append(len(rows))
        return best_row(rows, name, kbps)

    monkeypatch.setattr(placement, "_best_row", recorded)
    assert [(c.node, c.category) for c in
            get_candidate_pms(view, FN["NAT"], True)
            + get_candidate_pms(view, FN["NAT"], False)] \
        == [(2, 1), (0, 3), (1, 3)]
    assert scanned == [1, 1]


def test_reuse_scan_stops_at_the_first_candidate_that_cannot_win(
        monkeypatch):
    # NAT runs on PMs 1 and 3 of a free-links line 0-1-2-3: the 0 W reuse
    # on PM 1 wins, and the scan stops before it reads PM 3's rows
    cables = [(0, 1, 1000.0, 1.0), (1, 2, 1000.0, 1.0), (2, 3, 1000.0, 1.0)]
    graph = NetworkGraph(make_graph(4, cables, cores=16).nodes, cables,
                         PowerParams(switch_static_w=0.0, port_w=0.0))
    view = _view(NetworkState(graph), _island_over(graph), 0, 1000)
    near = view.add_assignment(FN["NAT"], 1, None)
    view.add_assignment(FN["NAT"], 3, None)
    scanned = []
    best_row = placement._best_row

    def recorded(rows, name, kbps):
        scanned.append([row[0] for row in rows])
        return best_row(rows, name, kbps)

    monkeypatch.setattr(placement, "_best_row", recorded)
    stats = {}
    best, reason = _best_candidate(view, FN["NAT"], 0, 0.0, 100.0, 0.25,
                                   stats)
    assert reason is None
    assert (best[0].node, best[0].instance_id) == (1, near)
    assert stats["path_searches"] == 1
    assert scanned == [[near]]


def _checked_positions(monkeypatch):
    """Route placement's chain positions through _best_candidate and the
    full-scan reference, which must agree at each; returns the counts of
    positions, candidates the library routed (path_searches) and
    candidates the reference routed (routed)."""
    counts = {"positions": 0, "path_searches": 0, "routed": 0}
    library = placement._best_candidate

    def checked(view, function, dst, processing, budget_ms, weight_step,
                stats=None):
        got = library(view, function, dst, processing, budget_ms,
                      weight_step, counts)
        assert got == reference_best_candidate(view, function, dst,
                                               processing, budget_ms,
                                               weight_step, counts)
        counts["positions"] += 1
        return got

    monkeypatch.setattr(placement, "_best_candidate", checked)
    return counts


def test_pruned_positions_equal_the_full_scan_on_tight_instances(monkeypatch):
    counts = _checked_positions(monkeypatch)
    for seed in range(30):
        graph, demands, betas = _tight_instance(seed)
        for mode in ("lbi", "hbi"):
            place_all(graph, demands, betas, mode=mode)
    assert counts["positions"] > 3000
    assert counts["path_searches"] < counts["routed"]


def test_pruned_positions_equal_the_full_scan_on_nobel_germany(monkeypatch):
    graph = nobel_germany()
    _, services = default_catalogs()
    demands = generate_demands(graph, 300, services, 0)
    counts = _checked_positions(monkeypatch)
    for mode in ("lbi", "hbi"):
        place_all(graph, demands, BETAS, mode=mode)
    assert counts["positions"] > 1000
    assert counts["path_searches"] < counts["routed"]


def test_place_all_fingerprint_is_pinned():
    # sha1 over the snapshots of lbi then hbi runs, seeds 0-2, 100 demands
    # on nobel-germany; pins routes, placements and instance ids
    graph = nobel_germany()
    _, services = default_catalogs()
    digest = hashlib.sha1()
    for mode in ("lbi", "hbi"):
        for seed in range(3):
            demands = generate_demands(graph, 100, services, seed)
            sol = place_all(graph, demands, BETAS, mode=mode)
            digest.update(sol.state.snapshot().encode())
    assert digest.hexdigest() == "e59e25a657a0583d29b01a41fb05bd26f47cd055"


def test_place_all_fingerprint_is_pinned_at_benchmark_length():
    # sha1 over the snapshots of lbi then hbi runs at seed 0 with 300
    # demands, the benchmark's sequence length, where more islands split
    graph = nobel_germany()
    _, services = default_catalogs()
    demands = generate_demands(graph, 300, services, 0)
    digest = hashlib.sha1()
    for mode in ("lbi", "hbi"):
        sol = place_all(graph, demands, BETAS, mode=mode)
        digest.update(sol.state.snapshot().encode())
    assert digest.hexdigest() == "1cd03f62cecac02371c5240e4c5e05ea86a89ecf"


def test_place_all_decisions_are_pinned():
    # sha1 over every outcome's (demand id, accepted, reason, (node,
    # instance id) per position, (src, dst) per link per segment) of lbi
    # then hbi runs: the runs both snapshot pins above cover and the 30
    # tight instances. Unlike the snapshots it holds no delay, so it pins
    # what the walk decides apart from the delays it reports
    graph = nobel_germany()
    _, services = default_catalogs()
    instances = [(graph, generate_demands(graph, 100, services, seed), BETAS)
                 for seed in range(3)]
    instances.append((graph, generate_demands(graph, 300, services, 0), BETAS))
    instances += [_tight_instance(seed) for seed in range(30)]
    digest = hashlib.sha1()
    for graph, demands, betas in instances:
        for mode in ("lbi", "hbi"):
            for o in place_all(graph, demands, betas, mode=mode).outcomes:
                alloc = o.allocation
                assignments = route = ()
                if alloc is not None:
                    assignments = tuple((a.node, a.instance_id)
                                        for a in alloc.assignments)
                    route = tuple(tuple((l.src, l.dst) for l in seg)
                                  for seg in alloc.route.segments)
                digest.update(repr((o.demand.id, o.accepted, o.reason,
                                    assignments, route)).encode())
    assert digest.hexdigest() == "6de09dae84d5dcef61acb90781119dec95ff4fb6"


def test_bc_place_all_fingerprint_is_pinned():
    # sha1 over the snapshots of bc runs, seeds 0-2, 1000 demands on
    # nobel-germany, the benchmark's sequence length; pins the centrality
    # search's positions, backtracking and placeholder order
    graph = nobel_germany()
    _, services = default_catalogs()
    digest = hashlib.sha1()
    for seed in range(3):
        demands = generate_demands(graph, 1000, services, seed)
        digest.update(bc_place_all(graph, demands).state.snapshot().encode())
    assert digest.hexdigest() == "582bbb71321106f5d71474075170c8fdd5aeb44e"



def test_bc_place_all_outcomes_are_pinned():
    # sha1 over (demand id, accepted, reason) of the runs the snapshot pin
    # above covers: a refusal given for the wrong reason leaves the state
    # as it was, so only this pin sees it
    graph = nobel_germany()
    _, services = default_catalogs()
    digest = hashlib.sha1()
    for seed in range(3):
        demands = generate_demands(graph, 1000, services, seed)
        for o in bc_place_all(graph, demands).outcomes:
            digest.update(repr((o.demand.id, o.accepted, o.reason)).encode())
    assert digest.hexdigest() == "2c04e8bf574dae7d5feb08c357a1df70d90fc9db"


def _repeat_draw(seed):
    """A random graph with 4-16-core PMs and mixed link delays, 2-4
    services over small instances, two of them on one chain tuple under
    different budgets, and 80 demands over a few pairs, each with its own
    kb/s, so that pairs and services come back at other rates."""
    rng = random.Random(seed)
    plain = random_connected_graph(rng, max_nodes=10, cap_range=(30, 300))
    graph = NetworkGraph(
        [NodeSpec(n.id, PmSpec({CPU: rng.randrange(4, 17)}))
         for n in plain.nodes],
        [(a, b, plain.link(a, b).capacity, rng.choice([0.5, 2.0, 6.0]))
         for a, b in plain.cables()])
    fns = [FunctionType("F%d" % i, {CPU: rng.choice([1, 2, 4])},
                        rng.choice([10.0, 20.0, 40.0]),
                        rng.choice([0.5, 2.0])) for i in range(3)]

    def chain():
        return tuple(rng.choice(fns) for _ in range(rng.randrange(1, 4)))

    shared = chain()
    tight = rng.choice([4.0, 8.0, 12.0])
    services = [ServiceType("s0", shared, 1.0, tight, 0.5),
                ServiceType("s1", shared, 1.0, tight + 10.0, 0.5)]
    services += [ServiceType("s%d" % i, chain(), 1.0,
                             rng.choice([5.0, 15.0, 40.0]), 0.0)
                 for i in range(2, rng.randrange(2, 5))]
    n = len(graph.nodes)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(2, 6))]
    demands = [SizedDemand(i, *rng.choice(pairs), rng.choice(services),
                           rng.choice([1000, 4000, 9000, 15000, 25000]))
               for i in range(80)]
    return graph, demands


def test_refusals_and_delay_verdicts_equal_fresh_plans():
    # bc_place_all against a reference that plans every demand on a fresh
    # path table: the same reason per demand and the same final state.
    # Over the draws a (pair, service) comes back after a no-pm refusal at
    # the same or a higher kb/s and at a lower one, and after a delay
    # refusal
    repeats = Counter()
    for seed in range(40):
        graph, demands = _repeat_draw(seed)
        sol = bc_place_all(graph, demands)
        reasons, state = reference_bc_place_all(graph, demands)
        assert [o.reason for o in sol.outcomes] == reasons
        assert sol.state.snapshot() == state.snapshot()
        assert placement.check_solution(sol) == []
        least, delayed = {}, set()
        for demand, reason in zip(demands, reasons):
            key = (demand.src, demand.dst, id(demand.service))
            if key in least and reason not in ("bandwidth", "delay"):
                repeats["no-pm at or above" if demand.kbps >= least[key]
                        else "searched below"] += 1
            if reason == "no-pm":
                least[key] = min(least.get(key, demand.kbps), demand.kbps)
            elif reason == "delay":
                repeats["delay"] += key in delayed
                delayed.add(key)
    assert min(repeats[k] for k in ("no-pm at or above", "searched below",
                                    "delay")) > 0, repeats

# functions of two sizes
CAND_FNS = (FunctionType("S", {CPU: 2}, 10.0, 0.0),
            FunctionType("M", {CPU: 4}, 10.0, 0.0))


def _composed_candidates(overlay, function, island, kbps):
    """get_candidate_pms as find_reusable, then has_room, then pm_active."""
    out = []
    for node in sorted(island.nodes):
        found = overlay.find_reusable(node, function, kbps)
        if found is not None:
            out.append(Candidate(node, found[0], 1))
        elif overlay.has_room(node, function):
            out.append(Candidate(node, None,
                                 2 if overlay.pm_active(node) else 3))
    out.sort(key=lambda c: (c.category, c.node))
    return out


# (node, function, kb/s, start a new instance even if one could be reused)
_STEP = st.tuples(st.integers(0, 3), st.integers(0, 1),
                  st.sampled_from([1000, 2500, 5000, 10000]), st.booleans())


@settings(max_examples=150, deadline=None)
@given(committed=st.lists(_STEP, max_size=12),
       planned=st.lists(_STEP, max_size=8),
       fn=st.integers(0, 1), kbps=st.sampled_from([1, 2500, 5000, 10000]))
def test_candidate_listing_equals_the_query_composition(committed, planned,
                                                        fn, kbps):
    # a 4-node line of 8-core PMs: committed instances with spare kb/s,
    # then pending instances and debits of the plan, fill some PMs and
    # leave others off
    nodes = [NodeSpec(i, PmSpec({CPU: 8})) for i in range(4)]
    graph = NetworkGraph(nodes, [(i, i + 1, 1e6, 0.1) for i in range(3)])
    state = NetworkState(graph)
    line = [graph.link(i, i + 1) for i in range(3)]
    for k, (node, f, need, fresh) in enumerate(committed):
        function = CAND_FNS[f]
        found = None if fresh else StateOverlay(state).find_reusable(
            node, function, need)
        if found is None and not StateOverlay(state).has_room(node, function):
            continue
        demand = make_demand(k, 0, 3, (function,), need / 1000.0, 1e6)
        route = Route((tuple(line[:node]), tuple(line[node:])))
        state.apply_allocation(Allocation(
            k, (FunctionAssignment(function, node,
                                   found[0] if found else -1),),
            route, route.propagation_ms, need), demand)
    overlay = StateOverlay(state)
    for node, f, need, fresh in planned:
        function = CAND_FNS[f]
        found = None if fresh else overlay.find_reusable(node, function, need)
        if found is not None:
            overlay.add_assignment(function, node, found[0], need)
        elif overlay.has_room(node, function):
            overlay.add_assignment(function, node, None, need)
    island = _island_over(graph)
    view = _reference_view(overlay, island, 0, kbps)
    assert get_candidate_pms(view, CAND_FNS[fn], True) + \
        get_candidate_pms(view, CAND_FNS[fn], False) == \
        _composed_candidates(overlay, CAND_FNS[fn], island, kbps)


@pytest.mark.parametrize("placer", ["island", "centrality"])
def test_runtime_covers_state_construction_and_pricing(placer, monkeypatch):
    # a fake clock that only moves when the state is built (1 s) or the
    # final state is priced (10 s): runtime_s must hold both
    clock = [0.0]

    def slow(fn, seconds):
        def wrapped(*args):
            clock[0] += seconds
            return fn(*args)
        return wrapped

    monkeypatch.setattr(placement.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(placement, "NetworkState",
                        slow(placement.NetworkState, 1.0))
    monkeypatch.setattr(placement, "network_power",
                        slow(placement.network_power, 10.0))
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demands = [make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0)]
    if placer == "island":
        sol = place_all(graph, demands, BETAS)
    else:
        sol = bc_place_all(graph, demands)
    assert sol.acceptance == 1.0
    assert sol.runtime_s == 11.0


def test_single_demand_lights_minimal_gear():
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demand = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0)
    sol = place_all(graph, [demand], BETAS)
    assert sol.acceptance == 1.0
    alloc = sol.outcomes[0].allocation
    # source-side PM wins the cost tie on hop distance
    assert alloc.assignments[0].node == 0
    assert alloc.route.segments[0] == ()
    assert [l.dst for l in alloc.route.segments[1]] == [1]
    assert alloc.total_delay_ms == pytest.approx(11.0)
    assert sol.network_power_w == 262.0
    assert sol.pm_power_w == 175.0
    assert sol.total_power_w == 437.0
    assert sol.mean_delay_ms == pytest.approx(11.0)
    assert sol.state.validate() == []


def test_chain_overflows_to_second_pm():
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demand = make_demand(0, 0, 1, WEB, 1.0, 500.0)
    sol = place_all(graph, [demand], BETAS)
    assert sol.acceptance == 1.0
    nodes = [a.node for a in sol.outcomes[0].allocation.assignments]
    # four functions fill the 16-core source PM, the fifth spills over
    assert nodes == [0, 0, 0, 0, 1]
    assert sol.pm_power_w == 250.0 + 175.0
    assert sol.network_power_w == 262.0
    assert sol.outcomes[0].allocation.total_delay_ms == pytest.approx(51.0)


def test_second_demand_reuses_instance_for_free():
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demands = [make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0),
               make_demand(1, 0, 1, (FN["NAT"],), 1.0, 100.0)]
    sol = place_all(graph, demands, BETAS)
    assert sol.acceptance == 1.0
    first = sol.outcomes[0].allocation.assignments[0]
    second = sol.outcomes[1].allocation.assignments[0]
    assert first.instance_id == second.instance_id
    assert len(sol.state.instances) == 1
    assert sol.state.instances[first.instance_id].served == {0: 1000, 1: 1000}
    assert sol.total_power_w == 437.0          # nothing new was lit


def test_rejection_reasons_and_clean_state():
    # bandwidth over every threshold, or islands never joining: no-island
    graph = make_graph(2, [(0, 1, 100.0, 1.0)], cores=16)
    pristine = NetworkState(graph).snapshot()
    demand = make_demand(0, 0, 1, (FN["NAT"],), 500.0, 100.0)
    sol = place_all(graph, [demand], BETAS)
    assert not sol.outcomes[0].accepted
    assert sol.outcomes[0].reason == "no-island"
    assert sol.state.snapshot() == pristine
    assert math.isnan(sol.mean_delay_ms)
    assert sol.total_power_w == 0.0

    # processing alone exceeds the budget: delay
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demand = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 5.0)
    sol = place_all(graph, [demand], BETAS)
    assert sol.outcomes[0].reason == "delay"

    # room for two functions, the chain needs three: no-pm
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=4)
    demand = make_demand(0, 0, 1, (FN["NAT"], FN["FW"], FN["TM"]), 1.0, 500.0)
    sol = place_all(graph, [demand], BETAS)
    assert sol.outcomes[0].reason == "no-pm"
    assert sol.state.snapshot() == NetworkState(graph).snapshot()

    # a PM exists but no route meets the budget: no-path
    graph = make_graph(2, [(0, 1, 1000.0, 10.0)], cores=16)
    demand = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 15.0)
    sol = place_all(graph, [demand], BETAS)
    assert sol.outcomes[0].reason == "no-path"


def test_demand_across_components_is_rejected_by_both_placers():
    # no path joins the two cables: the centrality search finds no route
    # and no island ever holds both endpoints
    graph = make_graph(4, [(0, 1, 1000.0, 1.0), (2, 3, 1000.0, 1.0)],
                       cores=16)
    assert reference_bfs_path(graph, 0, 3) is None
    assert _pair_route(graph, betweenness(graph), 0, 3, {}) is None
    demand = make_demand(0, 0, 3, (FN["NAT"],), 1.0, 500.0)
    for sol, reason in ((bc_place_all(graph, [demand]), "no-path"),
                        (place_all(graph, [demand], BETAS), "no-island")):
        assert sol.outcomes[0].reason == reason
        assert sol.state.snapshot() == NetworkState(graph).snapshot()
        assert placement.check_solution(sol) == []


def test_island_choice_separates_modes():
    # thin direct cable vs a fat detour: the high threshold hides the
    # direct cable, the low threshold keeps it
    graph = make_graph(3, [(0, 1, 30.0, 1.0), (0, 2, 100.0, 1.0),
                           (2, 1, 100.0, 1.0)], cores=16)
    demand = make_demand(0, 0, 1, (FN["NAT"],), 25.0, 200.0)
    lbi = place_all(graph, [demand], [100.0, 25.0], mode="lbi")
    hbi = place_all(graph, [demand], [100.0, 25.0], mode="hbi")
    assert lbi.acceptance == hbi.acceptance == 1.0
    assert sum(map(len, lbi.outcomes[0].allocation.route.segments)) == 1
    assert sum(map(len, hbi.outcomes[0].allocation.route.segments)) == 2
    assert lbi.total_power_w == 437.0
    assert hbi.total_power_w == 569.0
    assert lbi.total_power_w < hbi.total_power_w


def test_invalid_mode_rejected():
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)])
    demand = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0)
    with pytest.raises(ValueError):
        place_all(graph, [demand], BETAS, mode="mid")
    # refused even when no demand reaches the island select
    with pytest.raises(ValueError, match="mode must be"):
        place_all(graph, [], BETAS, mode="mid")


@pytest.mark.parametrize("src, dst", [(-1, 3), (99, 3), (3, 99)])
def test_demands_outside_the_graph_are_refused(src, dst):
    graph = nobel_germany()
    good = make_demand(0, 0, 1, (FN["NAT"],), 1.0, 100.0)
    bad = make_demand(1, src, dst, (FN["NAT"],), 1.0, 100.0)

    def stream():               # the placers refuse it as they read it
        yield good
        yield bad
        raise AssertionError("read past the bad demand")

    for run in (lambda: place_all(graph, stream(), BETAS),
                lambda: bc_place_all(graph, stream()),
                lambda: build_model(graph, [good, bad])):
        with pytest.raises(ValueError,
                           match="demand 1 has endpoints outside the graph"):
            run()


def test_repeated_demand_ids_are_refused():
    # a 5,000 Mb/s copy of demand 0, which no placer can serve, and demand
    # 0 itself, in either order: the second one repeats the id and is
    # refused as the placer reads it, whatever became of the first
    graph = nobel_germany()
    _, services = default_catalogs()
    real = generate_demands(graph, 1, services, 0)[0]
    copy = make_demand(0, real.src, real.dst, real.chain, 5000.0,
                       real.delay_budget)
    for first, second in ((copy, real), (real, copy)):

        def stream():
            yield first
            yield second
            raise AssertionError("read past the repeated id")

        for run in (lambda: place_all(graph, stream(), BETAS),
                    lambda: bc_place_all(graph, stream())):
            with pytest.raises(ValueError, match="demand id 0 repeats"):
                run()


def test_place_all_is_deterministic():
    graph = layered_graph(cores=16)
    rng = random.Random(3)
    demands = [make_demand(i, *rng.sample(range(9), 2),
                           chain=(FN["NAT"], FN["FW"]), bandwidth_mbps=2.0,
                           budget_ms=100.0)
               for i in range(12)]
    one = place_all(graph, demands, [50.0, 40.0, 30.0])
    two = place_all(graph, demands, [50.0, 40.0, 30.0])
    assert one.state.snapshot() == two.state.snapshot()
    assert [o.reason for o in one.outcomes] == [o.reason for o in two.outcomes]
    assert one.total_power_w == two.total_power_w


# -- centrality baseline --------------------------------------------------


def test_betweenness_on_a_path_graph():
    graph = make_graph(5, [(i, i + 1, 100.0, 0.1) for i in range(4)])
    assert betweenness(graph) == {0: 0.0, 1: 6.0, 2: 8.0, 3: 6.0, 4: 0.0}


def test_betweenness_on_a_star():
    graph = make_graph(4, [(0, 1, 100.0, 0.1), (1, 2, 100.0, 0.1),
                           (1, 3, 100.0, 0.1)])
    assert betweenness(graph) == {0: 0.0, 1: 6.0, 2: 0.0, 3: 0.0}


def test_betweenness_splits_ties_fractionally():
    # 4-cycle: two equal shortest paths across, half credit each
    graph = make_graph(4, [(0, 1, 100.0, 0.1), (1, 3, 100.0, 0.1),
                           (0, 2, 100.0, 0.1), (2, 3, 100.0, 0.1)])
    scores = betweenness(graph)
    assert scores == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_betweenness_is_twice_networkx_on_nobel_germany():
    # networkx counts unordered pairs, betweenness ordered ones; the sums
    # run in another order, so they agree to rounding
    nx = pytest.importorskip("networkx")
    graph = nobel_germany()
    want = nx.betweenness_centrality(nx.Graph(graph.cables()),
                                     normalized=False)
    got = betweenness(graph)
    assert got.keys() == want.keys()
    for node, score in want.items():
        assert got[node] == pytest.approx(2.0 * score, rel=1e-12)


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(11)
    for trial in range(15):
        graph = random_connected_graph(rng, max_nodes=8)
        want = betweenness_oracle(graph)
        got = betweenness(graph)
        for node in want:
            assert got[node] == pytest.approx(want[node]), \
                "node %d trial %d" % (node, trial)


def test_baseline_follows_shortest_path_once():
    graph = layered_graph(cores=64)
    rng = random.Random(8)
    demands = [make_demand(i, *rng.sample(range(9), 2), chain=WEB,
                           bandwidth_mbps=1.0, budget_ms=500.0)
               for i in range(15)]
    sol = bc_place_all(graph, demands)
    assert sol.state.validate() == []
    for outcome in sol.outcomes:
        if not outcome.accepted:
            continue
        demand = outcome.demand
        route_links = list(outcome.allocation.route.links())
        # hop-shortest: BFS distance equals the hop count
        dist = {demand.src: 0}
        queue = deque([demand.src])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(route_links) == dist[demand.dst]
        # contiguous src -> dst walk, no link revisited
        assert route_links[0].src == demand.src
        assert route_links[-1].dst == demand.dst
        for a, b in zip(route_links, route_links[1:]):
            assert a.dst == b.src
        assert len({(l.src, l.dst) for l in route_links}) == len(route_links)
        # chain nodes appear along the walk in order
        walk = [demand.src] + [l.dst for l in route_links]
        pos = 0
        for assign in outcome.allocation.assignments:
            while walk[pos] != assign.node:
                pos += 1


def test_baseline_backtracks_off_a_full_hub():
    # the hub is the most central node; a pure greedy would park the whole
    # chain there, fill it after four functions, and strand the fifth
    graph = make_graph(4, [(0, 1, 1000.0, 0.1), (1, 2, 1000.0, 0.1),
                           (1, 3, 1000.0, 0.1)], cores=16)
    demand = make_demand(0, 0, 1, WEB, 1.0, 500.0)
    sol = bc_place_all(graph, [demand])
    assert sol.acceptance == 1.0
    nodes = [a.node for a in sol.outcomes[0].allocation.assignments]
    assert nodes == [0, 1, 1, 1, 1]
    assert sol.state.validate() == []


def test_baseline_rejection_reasons():
    graph = make_graph(2, [(0, 1, 3.0, 0.1)], cores=16)
    sol = bc_place_all(graph, [make_demand(0, 0, 1, WEB, 4.0, 500.0)])
    assert sol.outcomes[0].reason == "bandwidth"

    graph = make_graph(2, [(0, 1, 1000.0, 10.0)], cores=16)
    sol = bc_place_all(graph, [make_demand(0, 0, 1, WEB, 1.0, 55.0)])
    assert sol.outcomes[0].reason == "delay"

    graph = make_graph(2, [(0, 1, 1000.0, 0.1)], cores=4)
    sol = bc_place_all(graph, [make_demand(0, 0, 1, WEB, 1.0, 500.0)])
    assert sol.outcomes[0].reason == "no-pm"
    assert sol.state.snapshot() == NetworkState(graph).snapshot()


def test_demand_no_instance_can_carry_is_rejected_as_no_pm():
    # a NAT instance carries 200 Mb/s, so no plan serves 300 Mb/s; the
    # ordinary demand after it is still served
    graph = make_graph(2, [(0, 1, 1000.0, 1.0)], cores=16)
    demands = [make_demand(0, 0, 1, (FN["NAT"],), 300.0, 500.0),
               make_demand(1, 0, 1, (FN["NAT"],), 1.0, 500.0)]
    for sol in (place_all(graph, demands, BETAS),
                bc_place_all(graph, demands)):
        assert [o.reason for o in sol.outcomes] == ["no-pm", None]
        assert sol.state.validate() == []


def test_baseline_is_deterministic():
    graph = layered_graph(cores=16)
    rng = random.Random(4)
    demands = [make_demand(i, *rng.sample(range(9), 2),
                           chain=(FN["NAT"], FN["FW"]), bandwidth_mbps=2.0,
                           budget_ms=100.0)
               for i in range(12)]
    one = bc_place_all(graph, demands)
    two = bc_place_all(graph, demands)
    assert one.state.snapshot() == two.state.snapshot()
    assert one.total_power_w == two.total_power_w


VOIP = (FN["NAT"], FN["FW"], FN["TM"], FN["FW"], FN["NAT"])


def _host(state, demand_id, node, function, mbps, reuse=True):
    """Commit a one-node demand on a best-fit instance of the function,
    or on a new one if reuse is False or none fits; False when a new
    instance is needed and the PM has no room."""
    demand = make_demand(demand_id, node, node, (function,), mbps, 1e9)
    overlay = StateOverlay(state)
    found = overlay.find_reusable(node, function, demand.bandwidth_kbps)
    if found is None or not reuse:
        if not overlay.has_room(node, function):
            return False
        found = (-1, None)
    planned = Allocation(demand_id,
                         (FunctionAssignment(function, node, found[0]),),
                         Route(((), ())), function.processing_delay,
                         demand.bandwidth_kbps)
    state.apply_allocation(planned, demand)
    return True


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_path_table_search_matches_the_forking_reference(seed):
    # random graphs whose PMs hold 1-4 instances, loaded beforehand so some
    # are full and others keep spare kb/s; chains repeat functions like
    # voip does, and the position order is any permutation. Few function
    # kinds and loads equal to the demand's kb/s make best-fit ties
    # between instances, and between an instance and a placeholder, common
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_nodes=10,
                                   cores=rng.choice([4, 8, 12, 16]))
    state = NetworkState(graph)
    n = len(graph.nodes)
    fns = list(FN.values())[:rng.randrange(1, 6)]
    for i in range(rng.randrange(0, 5 * n)):
        _host(state, i, rng.randrange(n), rng.choice(fns),
              rng.choice([1.0, 64.0, 100.0, 150.0]), rng.random() < 0.5)
    src, dst = rng.randrange(n), rng.randrange(n)
    path = reference_bfs_path(graph, src, dst)
    if rng.random() < 0.3:
        chain = VOIP
    else:
        chain = tuple(rng.choice(fns) for _ in range(rng.randrange(1, 7)))
    kbps = rng.choice([1000, 64000, 100000, 150000])
    pref = list(range(len(path)))
    rng.shuffle(pref)
    want = reference_assign_on_path(StateOverlay(state), path, chain, kbps,
                                    pref, 0, 0)
    table = _PathTable(state, path)
    assert _assign_on_path(table, chain, kbps, pref) == want
    if want is None:
        fresh = _PathTable(state, path)
        assert table.rows == fresh.rows
        assert table.used == fresh.used
        assert table.next_placeholder == -1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_path_table_reads_equal_the_read_api(seed):
    # random committed states, some of their allocations released again so
    # that PMs go back off: a path table's rows, cores in use and PM cores
    # equal what the state's read API and the graph give for each node
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_nodes=10,
                                   cores=rng.choice([4, 8, 16]))
    state = NetworkState(graph)
    n = len(graph.nodes)
    fns = list(FN.values())[:rng.randrange(1, 6)]
    for i in range(rng.randrange(0, 4 * n)):
        _host(state, i, rng.randrange(n), rng.choice(fns),
              rng.choice([1.0, 64.0, 150.0]), rng.random() < 0.5)
    for demand_id in list(state.allocations):
        if rng.random() < 0.3:
            state.release_allocation(demand_id)
    path = reference_bfs_path(graph, rng.randrange(n), rng.randrange(n))
    table = _PathTable(state, path)
    assert table.rows == [[[inst.id, inst.function.name, free]
                           for inst, free in state.hosted(node)]
                          for node in path]
    assert table.used == [state.used_cores(node) for node in path] == \
        [sum(inst.function.cores for inst, _ in state.hosted(node))
         for node in path]
    assert table.caps == [graph.node(node).pm.cores for node in path]


def test_suffix_bound_refuses_a_long_path_in_few_trials(monkeypatch):
    # a 60-node line whose PMs hold NAT/FW/TM/WOC instances with spare
    # kb/s and host no IDPS: every nondecreasing placement of the first
    # four functions fits, the fifth fits nowhere, either because the PMs
    # are full or because a new instance of it cannot carry the demand
    size = 60
    narrow = FunctionType("IDPS", {CPU: 4}, 0.5, 10.0)
    for cores, last in ((16, WEB[4]), (20, narrow)):
        graph = make_graph(size, [(i, i + 1, 1000.0, 0.1)
                                  for i in range(size - 1)], cores=cores)
        state = NetworkState(graph)
        demand_id = 0
        for node in range(size):
            for fn in WEB[:4]:
                assert _host(state, demand_id, node, fn, 1.0)
                demand_id += 1
        calls = []
        search = placement._assign_on_path

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(placement, "_assign_on_path", counted)
        route = _pair_route(graph, betweenness(graph), 0, size - 1, {})
        demand = make_demand(demand_id, 0, size - 1, WEB[:4] + (last,),
                             1.0, 1e9)
        assert _plan_on_path(state, route, demand) == (None, "no-pm")
        assert 0 < len(calls) <= 2 * size * len(WEB)
        monkeypatch.undo()


def test_baseline_finds_each_pair_route_once(monkeypatch):
    graph = layered_graph(cores=64)
    rng = random.Random(3)
    pairs = [tuple(rng.sample(range(9), 2)) for _ in range(5)]
    # the first pair's source also sends to every other node, so one
    # source's tree serves several pairs
    src = pairs[0][0]
    pairs += [(src, dst) for dst in range(9)
              if dst != src and (src, dst) not in pairs]
    demands = [make_demand(i, *pairs[i % len(pairs)], chain=(FN["NAT"],),
                           bandwidth_mbps=1.0, budget_ms=500.0)
               for i in range(2 * len(pairs))]
    calls, searches = [], []
    route, search = placement._pair_route, placement._bfs

    def counted_route(graph, scores, src, dst, trees):
        calls.append((src, dst))
        return route(graph, scores, src, dst, trees)

    def counted_search(neighbors, src):
        searches.append(src)
        return search(neighbors, src)

    monkeypatch.setattr(placement, "_pair_route", counted_route)
    monkeypatch.setattr(placement, "_bfs", counted_search)
    sol = bc_place_all(graph, demands)
    assert sorted(calls) == sorted(set(pairs))
    # betweenness searches from every node in turn; each route search
    # after it starts from a new source
    nodes = len(graph.nodes)
    assert searches[:nodes] == list(range(nodes))
    assert sorted(searches[nodes:]) == sorted({src for src, _ in pairs})
    assert sol.acceptance == 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), split=st.booleans())
def test_pair_routes_and_hops_equal_the_reference_searches(seed, split):
    # random connected graphs, and with split a second copy of the cables
    # on new nodes so that half of the pairs cannot be reached: every
    # ordered pair's route is the reference BFS path (None when
    # unreachable) and each source's hop counts a fresh BFS
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_nodes=12)
    n = len(graph.nodes)
    if split:
        cables = [(a, b, graph.link(a, b).capacity, graph.link(a, b).delay)
                  for a, b in graph.cables()]
        graph = make_graph(2 * n, cables + [(a + n, b + n, cap, delay)
                                            for a, b, cap, delay in cables])
    nodes = range(len(graph.nodes))
    whole = BlockingIsland(0, frozenset(nodes), frozenset(graph.cables()))
    scores = betweenness(graph)
    trees = {}
    for src in nodes:
        assert _bfs(graph.neighbors, src)[1] == _fresh_hops(graph, whole, src)
        for dst in nodes:
            route = _pair_route(graph, scores, src, dst, trees)
            want = reference_bfs_path(graph, src, dst)
            assert (route and route[0]) == want
    assert sorted(trees) == list(nodes)
