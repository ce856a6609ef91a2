"""Demand sampling."""

import pytest

from helpers import make_graph
from vnfplace.topology import default_catalogs, nobel_germany
from vnfplace.workload import WorkloadError, generate_demands

FUNCTIONS, SERVICES = default_catalogs()


def test_demand_exposes_service_profile():
    graph = nobel_germany()
    demand = generate_demands(graph, 1, SERVICES, seed=0)[0]
    svc = demand.service
    assert demand.chain == svc.chain
    assert demand.bandwidth == svc.bandwidth
    assert demand.bandwidth_kbps == round(svc.bandwidth * 1000)
    assert demand.delay_budget == svc.delay_budget


def test_generation_is_seed_deterministic():
    graph = nobel_germany()
    one = generate_demands(graph, 200, SERVICES, seed=42)
    two = generate_demands(graph, 200, SERVICES, seed=42)
    assert one == two
    other = generate_demands(graph, 200, SERVICES, seed=43)
    assert one != other


def test_generated_endpoints_are_valid():
    graph = nobel_germany()
    demands = generate_demands(graph, 500, SERVICES, seed=7)
    assert [d.id for d in demands] == list(range(500))
    for d in demands:
        assert 0 <= d.src < graph.num_nodes
        assert 0 <= d.dst < graph.num_nodes
        assert d.src != d.dst


def test_service_mix_follows_traffic_shares():
    graph = nobel_germany()
    demands = generate_demands(graph, 10000, SERVICES, seed=1)
    counts = {name: 0 for name in SERVICES}
    for d in demands:
        counts[d.service.name] += 1
    chi2 = 0.0
    for name, svc in SERVICES.items():
        expected = svc.traffic_share * len(demands)
        observed = counts[name]
        assert abs(observed / len(demands) - svc.traffic_share) < 0.02, name
        chi2 += (observed - expected) ** 2 / expected
    # 3 degrees of freedom at the 0.1% level
    assert chi2 < 16.27


def test_every_ordered_pair_gets_sampled():
    graph = nobel_germany()
    demands = generate_demands(graph, 10000, SERVICES, seed=2)
    pairs = {(d.src, d.dst) for d in demands}
    n = graph.num_nodes
    assert len(pairs) == n * (n - 1)


def test_zero_count_is_fine():
    assert generate_demands(nobel_germany(), 0, SERVICES, seed=0) == []


def test_generation_rejects_bad_input():
    graph = nobel_germany()
    with pytest.raises(WorkloadError, match="negative"):
        generate_demands(graph, -1, SERVICES, seed=0)
    lonely = make_graph(1, [])
    with pytest.raises(WorkloadError, match="at least 2 nodes"):
        generate_demands(lonely, 5, SERVICES, seed=0)
    assert generate_demands(lonely, 0, SERVICES, seed=0) == []
    with pytest.raises(WorkloadError, match="empty service"):
        generate_demands(graph, 5, {}, seed=0)
    lopsided = {"web": SERVICES["web"]}
    with pytest.raises(WorkloadError, match="shares sum"):
        generate_demands(graph, 5, lopsided, seed=0)
