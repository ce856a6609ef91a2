"""Graph model, file format, bundled topology and catalogs."""

import copy
import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnfplace.bih import ladder_kbps
from vnfplace.topology import (CPU, FunctionType, Link, NetworkGraph,
                               NodeSpec, PmSpec, PowerParams, ServiceType,
                               TopologyError, default_catalogs,
                               link_delay_from_length, nobel_germany,
                               parse_topology, to_kbps)


def test_link_delay_from_length():
    assert link_delay_from_length(200.0) == 1.0
    assert link_delay_from_length(0.0) == 0.0
    assert link_delay_from_length(64.0) == pytest.approx(0.32)
    with pytest.raises(TopologyError):
        link_delay_from_length(-1.0)


def test_link_cable_is_normalized():
    assert Link(3, 1, 10.0, 0.1).cable == (1, 3)
    assert Link(1, 3, 10.0, 0.1).cable == (1, 3)


def test_stored_cable_is_no_part_of_the_link_value():
    # the cable is set once at construction: eq, hash and repr stay those
    # of the four fields, and copies keep it, in both directions
    for src, dst in ((3, 1), (1, 3)):
        link = Link(src, dst, 10.0, 0.1)
        assert link.cable == (1, 3)
        assert link == Link(src, dst, 10.0, 0.1)
        assert hash(link) == hash((src, dst, 10.0, 0.1))
        assert repr(link) == ("Link(src=%d, dst=%d, capacity=10.0, delay=0.1)"
                              % (src, dst))
        assert link != Link(src, dst, 10.0, 0.2)
        for dup in (copy.copy(link), copy.deepcopy(link)):
            assert dup == link and dup.cable == (1, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.cable = (0, 0)
    assert Link(3, 1, 10.0, 0.1) != Link(1, 3, 10.0, 0.1)
    assert [f.name for f in dataclasses.fields(Link) if f.init] == \
        ["src", "dst", "capacity", "delay"]


def test_pm_spec_requires_cpu():
    with pytest.raises(TopologyError):
        PmSpec({"mem": 4})
    with pytest.raises(TopologyError):
        PmSpec({CPU: 0})
    with pytest.raises(TopologyError, match="cores only"):
        PmSpec({CPU: 4, "gpu": 1})
    assert PmSpec({CPU: 16}).cores == 16


def test_function_type_validation():
    with pytest.raises(TopologyError):
        FunctionType("X", {"mem": 2}, 100.0, 1.0)
    with pytest.raises(TopologyError, match="non-positive cpu demand"):
        FunctionType("X", {CPU: 0}, 100.0, 1.0)
    with pytest.raises(TopologyError):
        FunctionType("X", {CPU: 4}, 0.0, 1.0)
    with pytest.raises(TopologyError):
        FunctionType("X", {CPU: 4}, 100.0, -1.0)
    with pytest.raises(TopologyError, match="cores only"):
        FunctionType("X", {CPU: 4, "gpu": 1}, 100.0, 1.0)
    fn = FunctionType("X", {CPU: 4}, 100.0, 1.0)
    assert fn.cores == 4


def test_service_type_validation():
    fn = FunctionType("X", {CPU: 4}, 100.0, 1.0)
    with pytest.raises(TopologyError):
        ServiceType("s", (), 1.0, 10.0, 0.5)
    with pytest.raises(TopologyError):
        ServiceType("s", (fn,), 0.0, 10.0, 0.5)
    with pytest.raises(TopologyError):
        ServiceType("s", (fn,), 1.0, 0.0, 0.5)
    with pytest.raises(TopologyError):
        ServiceType("s", (fn,), 1.0, 10.0, 1.5)
    # bandwidth is booked in whole kb/s: what rounds to 0 (half to even)
    # would be routed while reserving nothing
    for mbps in (-1.0, 0.0004, 0.0005, math.nan, math.inf):
        with pytest.raises(TopologyError, match="bandwidth"):
            ServiceType("s", (fn,), mbps, 10.0, 0.5)
    for mbps in (0.0004, 0.0005, 0.00050001, 0.0006, 0.0015, 0.064):
        try:
            kbps = ServiceType("s", (fn,), mbps, 10.0, 0.5).bandwidth_kbps
        except TopologyError:
            assert to_kbps(mbps) == 0
        else:
            assert kbps == to_kbps(mbps) >= 1


def _fields(graph):
    """What a graph holds: its nodes, its links by (src, dst) and its power
    ratings."""
    return graph.nodes, {(l.src, l.dst): l for l in graph.links}, graph.power


def _topology_text(graph):
    """The graph in the file format, each delay as an exact 'ms' figure."""
    lines = ["node %d %d" % (n.id, n.pm.cores) for n in graph.nodes]
    for a, b in graph.cables():
        link = graph.link(a, b)
        lines.append("link %d %d %r %rms" % (a, b, link.capacity, link.delay))
    return "\n".join(lines) + "\n"


def _graph_text():
    return "\n".join([
        "# three nodes, two cables",
        "node 0 16",
        "node 1 16",
        "node 2 8",
        "link 0 1 1000 200    # 200 km",
        "link 1 2 500 0.5ms",
    ]) + "\n"


def test_parse_topology_fields():
    g = parse_topology(_graph_text())
    assert g.num_nodes == 3
    assert g.node(2).pm.cores == 8
    assert g.cables() == [(0, 1), (1, 2)]
    assert g.link(0, 1).capacity == 1000.0
    assert g.link(0, 1).delay == 1.0
    assert g.link(1, 2).delay == 0.5
    # both directions exist and agree
    assert g.link(1, 0).capacity == 1000.0
    assert g.neighbors(1) == [0, 2]


def test_parse_length_suffix_equivalence():
    base = "node 0 4\nnode 1 4\n"
    bare = parse_topology(base + "link 0 1 100 50\n")
    suffixed = parse_topology(base + "link 0 1 100 50km\n")
    assert bare.link(0, 1).delay == suffixed.link(0, 1).delay == 0.25


def test_parse_errors_carry_line_numbers():
    cases = [
        ("node 0\n", "line 1"),
        ("node 0 4\nnode 0 4\n", "line 2: duplicate node id"),
        ("node 0 4\nfoo 1 2\n", "line 2: unknown record"),
        ("node 0 4\nnode 1 4\nlink 0 1 100\n", "line 3"),
        ("node 0 4\nnode 1 4\nlink 0 1 100 -5\n", "line 3"),
        ("node 0 4\nnode 1 4\nlink 0 1 100 bad\n", "line 3"),
        ("node 0 4\nnode 1 4\nlink 0 5 10 1\n", "line 3: link endpoint 5"),
        ("node 0 4\nlink 0 0 10 1\n", "line 2: self loop"),
        ("node 0 4\nnode 1 4\nlink 0 1 10 1\nlink 1 0 10 1\n",
         "line 4: duplicate cable 0-1"),
        ("node 0 4\nnode 1 4\nlink 0 1 0 1ms\n",
         "line 3: cable 0-1: capacity 0.0 Mb/s"),
        ("node 0 4\nnode 1 4\nlink 0 1 10 -5ms\n",
         "line 3: cable 0-1: negative delay"),
    ]
    for text, needle in cases:
        with pytest.raises(TopologyError) as err:
            parse_topology(text)
        assert needle in str(err.value)


@pytest.mark.parametrize("link", ["link 0 1 inf 10km", "link 0 1 nan 10km",
                                  "link 0 1 1000 nanms", "link 0 1 1000 inf"])
def test_parse_rejects_non_finite_values(link):
    bad = "capacity" if link.split()[3] in ("inf", "nan") else "non-finite delay"
    with pytest.raises(TopologyError, match="line 3: cable 0-1: " + bad):
        parse_topology("node 0 4\nnode 1 4\n%s\n" % link)


@pytest.mark.parametrize("field", ["capacity", "delay"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_graph_rejects_non_finite_cable_values(field, value):
    cable = {"capacity": 100.0, "delay": 1.0}
    cable[field] = value
    nodes = [NodeSpec(i, PmSpec({CPU: 4})) for i in range(2)]
    needle = "capacity" if field == "capacity" else "non-finite delay"
    with pytest.raises(TopologyError, match="cable 0-1: " + needle):
        NetworkGraph(nodes, [(0, 1, cable["capacity"], cable["delay"])])


@pytest.mark.parametrize("field", ["processing_capacity", "processing_delay"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_function_type_rejects_non_finite_values(field, value):
    # an infinite capacity overflows to_kbps inside place_all, and a nan
    # delay fails every budget test of place_all yet none of bc_place_all's
    values = {"processing_capacity": 100.0, "processing_delay": 1.0}
    values[field] = value
    with pytest.raises(TopologyError, match=field.replace("_", " ")):
        FunctionType("X", {CPU: 4}, values["processing_capacity"],
                     values["processing_delay"])


_FN = FunctionType("X", {CPU: 4}, 100.0, 1.0)
_MBPS_ENTRIES = {
    "function X: processing capacity":
        lambda mbps: FunctionType("X", {CPU: 4}, mbps, 1.0),
    "service s: bandwidth": lambda mbps: ServiceType("s", (_FN,), mbps,
                                                     10.0, 0.5),
    "cable 0-1: capacity": lambda mbps: NetworkGraph(
        [NodeSpec(i, PmSpec({CPU: 4})) for i in range(2)],
        [(0, 1, mbps, 1.0)]),
    "threshold": lambda mbps: ladder_kbps([mbps]),
}


@pytest.mark.parametrize("mbps", [1e308, 1e-320, 0.0004, math.inf, math.nan,
                                  -1.0])
@pytest.mark.parametrize("entry", sorted(_MBPS_ENTRIES))
def test_every_mbps_entry_refuses_what_books_no_finite_kbps(entry, mbps):
    # a value in Mb/s enters the library at four points, and each books
    # it in whole kb/s: 1e308 overflows to inf kb/s, and 1e-320 and 0.0004
    # round to 0 kb/s, which would reserve nothing or fit nothing
    with pytest.raises(TopologyError, match=re.escape(
            "%s %r Mb/s is not a finite amount of at least 1 kb/s"
            % (entry, mbps))):
        _MBPS_ENTRIES[entry](mbps)
    # the smallest and a large value the rule admits
    for ok in (0.00051, 1e305):
        _MBPS_ENTRIES[entry](ok)


class _HashableCores(dict):
    """A core count that hashes, so that a function and its services do."""

    def __hash__(self):
        return hash(tuple(sorted(self.items())))


@settings(max_examples=100, deadline=None)
@given(mbps=st.floats(min_value=0.00051, max_value=1e305))
def test_each_mbps_value_keeps_the_kbps_of_its_check(mbps):
    # the kb/s is found once, by check_kbps, and kept; no part of eq, hash
    # or repr, so a value that differs in it alone is the same value
    fn = FunctionType("X", _HashableCores({CPU: 4}), mbps, 1.0)
    svc = ServiceType("s", (fn,), mbps, 10.0, 0.5)
    graph = _MBPS_ENTRIES["cable 0-1: capacity"](mbps)
    kept = [fn.capacity_kbps, svc.bandwidth_kbps] + [
        link.capacity_kbps for link in graph.links]
    assert kept == [to_kbps(mbps)] * 4
    for value, name in ((fn, "capacity_kbps"), (svc, "bandwidth_kbps"),
                        (graph.links[0], "capacity_kbps")):
        twin = copy.copy(value)
        object.__setattr__(twin, name, getattr(value, name) + 1)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_service_type_rejects_a_non_finite_delay_budget(value):
    fn = FunctionType("X", {CPU: 4}, 100.0, 1.0)
    with pytest.raises(TopologyError, match="delay budget"):
        ServiceType("s", (fn,), 1.0, value, 0.5)


@pytest.mark.parametrize("cores", [2.5, 4.0, True, "4", None])
def test_core_counts_must_be_plain_ints(cores):
    with pytest.raises(TopologyError, match="cpu capacity .* is not an int"):
        PmSpec({CPU: cores})
    with pytest.raises(TopologyError, match="cpu demand .* is not an int"):
        FunctionType("X", {CPU: cores}, 100.0, 1.0)


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
def test_power_params_reject_negative_or_non_finite_ratings(value):
    for name in ("switch_static_w", "port_w", "pm_idle_w", "pm_max_w"):
        with pytest.raises(ValueError, match=name):
            PowerParams(**{name: value})
    PowerParams(0.0, 0.0, 0.0, 0.0)
    # a PM's power runs from idle up to its peak, never down
    with pytest.raises(ValueError, match="pm_max_w 100.0 is below pm_idle_w"):
        PowerParams(pm_idle_w=200.0, pm_max_w=100.0)
    PowerParams(pm_idle_w=200.0, pm_max_w=200.0)


def test_parse_rejects_structural_problems():
    with pytest.raises(TopologyError):
        parse_topology("")                               # no nodes
    with pytest.raises(TopologyError):
        parse_topology("node 0 4\nnode 2 4\nlink 0 2 10 1\n")   # sparse ids


def test_graph_refuses_an_empty_node_list():
    for build in (lambda: NetworkGraph([], []), lambda: parse_topology(""),
                  lambda: parse_topology("link 0 1 10 1\n")):
        with pytest.raises(TopologyError, match="^topology defines no nodes$"):
            build()


def test_graph_lookup_errors():
    g = parse_topology(_graph_text())
    for bad in (7, -1):
        with pytest.raises(TopologyError, match="unknown node id"):
            g.node(bad)
    with pytest.raises(TopologyError):
        g.link(0, 2)


def test_bundled_topology_shape():
    g = nobel_germany()
    assert g.num_nodes == 17
    assert len(g.cables()) == 26
    assert all(l.capacity == 1000.0 for l in g.links)
    assert all(n.pm.cores == 16 for n in g.nodes)
    # the two degree-6 hubs
    assert len(g.neighbors(8)) == 6
    assert len(g.neighbors(10)) == 6
    degrees = sorted(len(g.neighbors(n.id)) for n in g.nodes)
    assert sum(degrees) == 52
    assert g.max_link_delay == pytest.approx(1.47)


def test_bundled_topology_round_trips():
    g = nobel_germany()
    assert _fields(parse_topology(_topology_text(g))) == _fields(g)


def test_default_function_catalog():
    functions, _ = default_catalogs()
    assert sorted(functions) == ["FW", "IDPS", "NAT", "TM", "VOC", "WOC"]
    for fn in functions.values():
        assert fn.requirements == {CPU: 4}
        assert fn.processing_capacity == 200.0
        assert fn.processing_delay == 10.0


def test_default_service_catalog():
    _, services = default_catalogs()
    assert sorted(services) == ["gaming", "video", "voip", "web"]
    chains = {name: [f.name for f in s.chain] for name, s in services.items()}
    assert chains["web"] == ["NAT", "FW", "TM", "WOC", "IDPS"]
    assert chains["voip"] == ["NAT", "FW", "TM", "FW", "NAT"]
    assert chains["video"] == ["NAT", "FW", "TM", "VOC", "IDPS"]
    assert chains["gaming"] == ["NAT", "FW", "VOC", "WOC", "IDPS"]
    profile = {name: (s.bandwidth, s.delay_budget, s.traffic_share)
               for name, s in services.items()}
    assert profile["web"] == (0.1, 500.0, 0.182)
    assert profile["voip"] == (0.064, 100.0, 0.118)
    assert profile["video"] == (4.0, 100.0, 0.699)
    assert profile["gaming"] == (0.05, 60.0, 0.001)
    total = sum(s.traffic_share for s in services.values())
    assert abs(total - 1.0) <= 1e-6


def test_duplicate_node_ids_rejected():
    nodes = [NodeSpec(0, PmSpec({CPU: 4})), NodeSpec(0, PmSpec({CPU: 4}))]
    with pytest.raises(TopologyError):
        NetworkGraph(nodes, [])


_FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip_ignores_cable_order_and_orientation(data):
    # a graph's cables given in any order, either end first, with any
    # finite capacity and delay, give the same nodes and links, and the
    # graph written with exact 'ms' delays parses back to them
    n = data.draw(st.integers(2, 8))
    nodes = [NodeSpec(i, PmSpec({CPU: data.draw(st.integers(1, 64))}))
             for i in range(n)]
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        unique_by=frozenset, max_size=n * (n - 1) // 2))
    cables = [(a, b, data.draw(st.floats(1e-3, 1e6, **_FINITE)),
               data.draw(st.floats(0.0, 1e3, **_FINITE))) for a, b in pairs]
    graph = NetworkGraph(nodes, cables)
    shuffled = data.draw(st.permutations(cables))
    flips = data.draw(st.lists(st.booleans(), min_size=len(cables),
                               max_size=len(cables)))
    other = NetworkGraph(nodes, [(b, a, c, d) if flip else (a, b, c, d)
                                 for (a, b, c, d), flip in zip(shuffled, flips)])
    assert _fields(parse_topology(_topology_text(graph))) == \
        _fields(graph) == _fields(other)
    assert other.cables() == graph.cables()
