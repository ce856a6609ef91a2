"""Demand sampling and the demand file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_graph
from vnfplace.topology import default_catalogs, nobel_germany
from vnfplace.workload import (WorkloadError, export_demands,
                               generate_demands, parse_demands)

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


def test_demand_file_round_trip():
    graph = nobel_germany()
    demands = generate_demands(graph, 50, SERVICES, seed=9)
    text = export_demands(demands)
    assert parse_demands(text, graph, SERVICES) == demands
    assert export_demands([]) == ""
    assert parse_demands("", graph, SERVICES) == []


def test_parse_skips_comments_and_blanks():
    graph = nobel_germany()
    text = "# demand list\n\n0 0 1 web   # first\n1 2 3 voip\n"
    demands = parse_demands(text, graph, SERVICES)
    assert [(d.id, d.src, d.dst, d.service.name) for d in demands] == \
        [(0, 0, 1, "web"), (1, 2, 3, "voip")]


def test_parse_reports_offending_line():
    graph = nobel_germany()
    cases = [
        ("0 0 1\n", "line 1", "expected"),
        ("0 0 1 web\n0 2 3 voip\n", "line 2", "duplicate demand id"),
        ("0 0 99 web\n", "line 1", "outside the topology"),
        ("0 4 4 web\n", "line 1", "src equals dst"),
        ("# ok\n0 0 1 torrent\n", "line 2", "unknown service"),
        ("0 0 one web\n", "line 1", "invalid literal"),
    ]
    for text, where, what in cases:
        with pytest.raises(WorkloadError) as err:
            parse_demands(text, graph, SERVICES)
        assert where in str(err.value)
        assert what in str(err.value)


@settings(max_examples=50, deadline=None)
@given(count=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_export_parse_round_trip(count, seed):
    graph = nobel_germany()
    demands = generate_demands(graph, count, SERVICES, seed)
    text = export_demands(demands)
    assert parse_demands(text, graph, SERVICES) == demands
    assert export_demands(parse_demands(text, graph, SERVICES)) == text
