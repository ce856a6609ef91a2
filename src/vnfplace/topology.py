"""Substrate network model, topology file I/O, and default catalogs.

The substrate is an undirected multigraph-free network of switches, each
co-located with one physical machine (PM). Internally every undirected
cable is represented as two directed links with equal capacity and delay.
Public inputs in Mb/s are quantized to a 1 kb/s grid here, once, where
they are checked; the link, function or service keeps the kb/s.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

CPU = "cpu"

# signal propagation in fiber, microseconds per km
PROPAGATION_US_PER_KM = 5.0


class TopologyError(ValueError):
    """Malformed topology input or inconsistent graph data."""


def to_kbps(mbps: float) -> int:
    return int(round(mbps * 1000.0))


def check_kbps(mbps: float, what: str) -> int:
    """The kb/s of a value in Mb/s. TopologyError, naming what, unless that
    kb/s, rounded half to even as netstate books it, is finite and at least
    1: traffic of 0 kb/s would reserve nothing, and a capacity fit none."""
    if not 0.5 < mbps * 1000.0 < math.inf:
        raise TopologyError("%s %r Mb/s is not a finite amount of at least "
                            "1 kb/s" % (what, mbps))
    return to_kbps(mbps)


def link_delay_from_length(length_km: float) -> float:
    """Propagation delay (ms) of a fiber span of the given length (km)."""
    if length_km < 0:
        raise TopologyError("negative link length: %r" % (length_km,))
    return length_km * PROPAGATION_US_PER_KM / 1000.0


@dataclass(frozen=True)
class PowerParams:
    """Power ratings of the substrate hardware, all in watts."""

    switch_static_w: float = 130.0
    port_w: float = 1.0
    pm_idle_w: float = 150.0
    pm_max_w: float = 250.0

    def __post_init__(self):
        for name in ("switch_static_w", "port_w", "pm_idle_w", "pm_max_w"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("%s must be finite and non-negative, got %r"
                                 % (name, value))
        if self.pm_max_w < self.pm_idle_w:
            raise ValueError("pm_max_w %r is below pm_idle_w %r: a PM's "
                             "power must not fall as its load rises"
                             % (self.pm_max_w, self.pm_idle_w))


@dataclass(frozen=True, slots=True)
class Link:
    """One direction of a cable: capacity in Mb/s, delay in ms. Its cable
    (low, high) and capacity_kbps are set once, no part of eq, hash or repr."""

    src: int
    dst: int
    capacity: float
    delay: float
    cable: Tuple[int, int] = field(init=False, repr=False, compare=False)
    capacity_kbps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cable", (self.src, self.dst)
                           if self.src < self.dst else (self.dst, self.src))
        object.__setattr__(self, "capacity_kbps", to_kbps(self.capacity))


@dataclass(frozen=True)
class PmSpec:
    """A physical machine's size in CPU cores, the one resource the power
    model prices, given as {CPU: cores}; any other key is refused."""

    capacity: Mapping[str, int]

    def __post_init__(self):
        if set(self.capacity) != {CPU}:
            raise TopologyError("a PM is sized in %r cores only, got %r"
                                % (CPU, list(self.capacity)))
        if type(self.cores) is not int:
            raise TopologyError("cpu capacity %r is not an int" % (self.cores,))
        if not 0 < self.cores <= 2 ** 53:   # build_model takes cores as floats
            raise TopologyError("cpu capacity %r is not in 1..2**53" % self.cores)

    @property
    def cores(self) -> int:
        return self.capacity[CPU]


@dataclass(frozen=True)
class NodeSpec:
    id: int
    pm: PmSpec


@dataclass(frozen=True)
class FunctionType:
    """A network function type deployable on any PM.

    requirements: {CPU: cores} of one instance; any other key is refused.
    processing_capacity: traffic one instance can serve, Mb/s.
    processing_delay: per-traversal processing latency, ms.
    """

    name: str
    requirements: Mapping[str, int]
    processing_capacity: float
    processing_delay: float
    capacity_kbps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.requirements) != {CPU}:
            raise TopologyError("function %s is sized in %r cores only, got %r"
                                % (self.name, CPU, list(self.requirements)))
        if type(self.cores) is not int:
            raise TopologyError("function %s: cpu demand %r is not an int"
                                % (self.name, self.cores))
        if self.cores <= 0:
            raise TopologyError("function %s: non-positive cpu demand" % self.name)
        object.__setattr__(self, "capacity_kbps", check_kbps(
            self.processing_capacity, "function %s: processing capacity" % self.name))
        if not 0 <= self.processing_delay < math.inf:
            raise TopologyError("function %s: processing delay %r is not "
                                "finite and non-negative"
                                % (self.name, self.processing_delay))

    @property
    def cores(self) -> int:
        return self.requirements[CPU]


@dataclass(frozen=True)
class ServiceType:
    """An ordered function chain with its traffic profile."""

    name: str
    chain: Tuple[FunctionType, ...]
    bandwidth: float        # Mb/s per demand
    delay_budget: float     # ms end to end
    traffic_share: float    # fraction of generated demands
    bandwidth_kbps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.chain:
            raise TopologyError("service %s has an empty chain" % self.name)
        object.__setattr__(self, "bandwidth_kbps", check_kbps(
            self.bandwidth, "service %s: bandwidth" % self.name))
        if not 0 < self.delay_budget < math.inf:
            raise TopologyError("service %s: delay budget %r ms is not finite "
                                "and positive" % (self.name, self.delay_budget))
        if not 0.0 <= self.traffic_share <= 1.0:
            raise TopologyError("service %s: traffic share outside [0, 1]" % self.name)


class NetworkGraph:
    """Immutable substrate graph. Every cable appears as two directed links."""

    def __init__(self, nodes: Iterable[NodeSpec],
                 cables: Iterable[Tuple[int, int, float, float]],
                 power: Optional[PowerParams] = None):
        self.nodes: List[NodeSpec] = sorted(nodes, key=lambda n: n.id)
        if not self.nodes:
            raise TopologyError("topology defines no nodes")
        self.power = power if power is not None else PowerParams()
        self.links: List[Link] = []
        self._by_pair: Dict[Tuple[int, int], Link] = {}
        self._adj: Dict[int, List[int]] = {n.id: [] for n in self.nodes}
        self._cables: List[Tuple[int, int]] = []
        if len(self._adj) != len(self.nodes):
            raise TopologyError("duplicate node id")
        for a, b, capacity, delay in cables:
            self._add_cable(a, b, capacity, delay)
        for nbrs in self._adj.values():
            nbrs.sort()
        self._cables.sort()
        self._max_delay = max((l.delay for l in self.links), default=0.0)
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise TopologyError("node ids must be dense 0..N-1, got %r" % (ids,))

    def _add_cable(self, a: int, b: int, capacity: float, delay: float) -> None:
        if a == b:
            raise TopologyError("self loop at node %d" % a)
        if a not in self._adj or b not in self._adj:
            raise TopologyError("link endpoint %d not defined as a node" % (a if a not in self._adj else b))
        key = (min(a, b), max(a, b))
        if key in self._by_pair:
            raise TopologyError("duplicate cable %d-%d" % key)
        check_kbps(capacity, "cable %d-%d: capacity" % key)
        if not math.isfinite(delay):
            raise TopologyError("cable %d-%d: non-finite delay" % key)
        if delay < 0:
            raise TopologyError("cable %d-%d: negative delay" % key)
        for src, dst in ((a, b), (b, a)):
            link = Link(src, dst, capacity, delay)
            self.links.append(link)
            self._by_pair[(src, dst)] = link
        self._adj[a].append(b)
        self._adj[b].append(a)
        self._cables.append(key)

    # -- lookups ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> NodeSpec:
        if 0 <= node_id < len(self.nodes):
            return self.nodes[node_id]
        raise TopologyError("unknown node id %r" % node_id)

    def check_endpoints(self, demand) -> None:
        """Refuse a demand whose source or destination is not a node."""
        if demand.src not in self._adj or demand.dst not in self._adj:
            raise ValueError("demand %d has endpoints outside the graph" % demand.id)

    def link(self, src: int, dst: int) -> Link:
        try:
            return self._by_pair[(src, dst)]
        except KeyError:
            raise TopologyError("no link %d->%d" % (src, dst)) from None

    def neighbors(self, node_id: int) -> List[int]:
        return self._adj[node_id]

    def cables(self) -> List[Tuple[int, int]]:
        """Undirected cables as sorted (low, high) node pairs."""
        return self._cables

    @property
    def max_link_delay(self) -> float:
        return self._max_delay


# -- file format ---------------------------------------------------------
#
#   node <id> <cores>
#   link <src> <dst> <capacity_mbps> <length_km | length"km" | delay"ms">
#
# '#' starts a comment, blank lines are skipped. A bare number in the
# fourth link field is a length in km; a 'ms' suffix gives the delay
# directly. Each link line declares one undirected cable.


def parse_topology(text: str, power: Optional[PowerParams] = None) -> NetworkGraph:
    nodes: List[NodeSpec] = []
    cables: List[Tuple[int, Tuple[int, int, float, float]]] = []
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                if len(parts) != 3:
                    raise ValueError("expected 'node <id> <cores>'")
                node_id, cores = int(parts[1]), int(parts[2])
                if node_id in seen_ids:
                    raise ValueError("duplicate node id %d" % node_id)
                seen_ids.add(node_id)
                nodes.append(NodeSpec(node_id, PmSpec({CPU: cores})))
            elif parts[0] == "link":
                if len(parts) != 5:
                    raise ValueError("expected 'link <src> <dst> <capacity> <length|delay>'")
                src, dst = int(parts[1]), int(parts[2])
                capacity = float(parts[3])
                spec = parts[4]
                if spec.endswith("ms"):
                    delay = float(spec[:-2])
                elif spec.endswith("km"):
                    delay = link_delay_from_length(float(spec[:-2]))
                else:
                    delay = link_delay_from_length(float(spec))
                cables.append((lineno, (src, dst, capacity, delay)))
            else:
                raise ValueError("unknown record %r" % parts[0])
        except (ValueError, TopologyError) as exc:
            raise TopologyError("line %d: %s" % (lineno, exc)) from None
    at: List[int] = []      # the line of the cable the graph is adding

    def numbered():
        for lineno, cable in cables:
            at[:] = [lineno]
            yield cable
        at.clear()

    try:
        return NetworkGraph(nodes, numbered(), power)
    except TopologyError as exc:
        if not at:          # sparse node ids: a fault of the whole file
            raise
        raise TopologyError("line %d: %s" % (at[0], exc)) from None


def nobel_germany(power: Optional[PowerParams] = None) -> NetworkGraph:
    """The bundled 17-node German reference backbone."""
    text = importlib.resources.files("vnfplace").joinpath(
        "data/nobel_germany.txt").read_text(encoding="utf-8")
    return parse_topology(text, power)


def default_catalogs() -> Tuple[Dict[str, FunctionType], Dict[str, ServiceType]]:
    """Built-in function and service catalogs.

    Six function types, each needing 4 cores, serving 200 Mb/s and adding
    10 ms of processing delay. Four services whose traffic shares sum to 1.
    """
    functions = {
        name: FunctionType(name, {CPU: 4}, 200.0, 10.0)
        for name in ("NAT", "FW", "TM", "WOC", "VOC", "IDPS")
    }
    f = functions

    def chain(*names):
        return tuple(f[n] for n in names)

    services = {
        "web": ServiceType("web", chain("NAT", "FW", "TM", "WOC", "IDPS"),
                           0.1, 500.0, 0.182),
        "voip": ServiceType("voip", chain("NAT", "FW", "TM", "FW", "NAT"),
                            0.064, 100.0, 0.118),
        "video": ServiceType("video", chain("NAT", "FW", "TM", "VOC", "IDPS"),
                             4.0, 100.0, 0.699),
        "gaming": ServiceType("gaming", chain("NAT", "FW", "VOC", "WOC", "IDPS"),
                              0.05, 60.0, 0.001),
    }
    return functions, services
