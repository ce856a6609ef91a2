"""Bandwidth-based clustering of the substrate into blocking islands.

A beta-island is a maximal set of nodes mutually reachable over links
whose free capacity (min of both directions) is at least beta. Islands
are computed per threshold; thresholds stacked in descending order form
a hierarchy in which every island lies inside one island at the next
lower threshold. The hierarchy stores only each level's islands (members
and internal cables), which is all placement reads when it picks the
island a demand is routed in. Islands have no ids and compare by
identity; a level maps each node to its island.

Allocations and releases update the islands in place of a rebuild, and
keep one invariant: an island's internal_links is exactly the set of
cables between its nodes whose sym residual is at least its beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .netstate import NetworkState, Route
from .topology import check_kbps

Cable = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class BlockingIsland:
    beta_kbps: int
    nodes: FrozenSet[int]
    internal_links: FrozenSet[Cable]


@dataclass
class BIGraph:
    """One clustering level: the island of each node at a single threshold."""

    node_island: Dict[int, BlockingIsland] = field(default_factory=dict)

    @property
    def islands(self) -> List[BlockingIsland]:
        """Each island of the level once."""
        return list(dict.fromkeys(self.node_island.values()))

    def add(self, island: BlockingIsland) -> None:
        """Make island the island of each of its nodes."""
        for n in island.nodes:
            self.node_island[n] = island


def _flood(state, start: int, beta_kbps: int,
           within: Optional[FrozenSet[int]] = None
           ) -> Tuple[FrozenSet[int], FrozenSet[Cable]]:
    """Greedy expansion from start over links with sym residual >= beta.

    Each cable is examined at most twice (once per flooded endpoint), so
    the search is linear in the link count.
    """
    graph = state.graph
    nodes = {start}
    stack = [start]
    links = set()
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if within is not None and v not in within:
                continue
            if state.sym_residual(u, v) >= beta_kbps:
                links.add((u, v) if u < v else (v, u))
                if v not in nodes:
                    nodes.add(v)
                    stack.append(v)
    return frozenset(nodes), frozenset(links)


def ladder_kbps(betas_mbps: List[float]) -> List[int]:
    """The threshold ladder in kb/s. ValueError unless it is non-empty,
    each threshold passes check_kbps and it strictly descends in kb/s."""
    if not betas_mbps:
        raise ValueError("empty threshold ladder")
    kbps = [check_kbps(b, "threshold") for b in betas_mbps]
    if any(a <= b for a, b in zip(kbps, kbps[1:])):
        raise ValueError("thresholds must be strictly descending in kb/s: "
                         "%r gives %r" % (betas_mbps, kbps))
    return kbps


class BIHierarchy:
    """Island clusterings at a descending ladder of thresholds."""

    def __init__(self, state: NetworkState, betas_mbps: Iterable[float]):
        self.betas_kbps = ladder_kbps(list(betas_mbps))
        self.levels: Dict[int, BIGraph] = {}
        for beta in self.betas_kbps:
            level = self.levels[beta] = BIGraph()
            for node in sorted(n.id for n in state.graph.nodes):
                if node not in level.node_island:
                    level.add(BlockingIsland(beta, *_flood(state, node, beta)))

    # -- lookups ---------------------------------------------------------

    def select(self, src: int, dst: int, kbps: int, mode: str) -> Optional[BlockingIsland]:
        """Pick the island to place a demand in, or None if no level both
        satisfies the bandwidth and joins the endpoints.

        'hbi' prefers the highest qualifying threshold (smallest island),
        'lbi' the lowest (largest island).
        """
        if mode not in ("hbi", "lbi"):
            raise ValueError("mode must be 'hbi' or 'lbi', got %r" % mode)
        chosen = None
        for beta in self.betas_kbps:
            if beta < kbps:
                continue
            level = self.levels[beta]
            island = level.node_island.get(src)
            if island is not None and island is level.node_island.get(dst):
                if mode == "hbi":
                    return island
                chosen = island
        return chosen

    # -- incremental maintenance ----------------------------------------

    def update_on_allocation(self, state: NetworkState, route: Route) -> None:
        """Maintain the hierarchy after bandwidth was taken on a route:
        flood again, within its nodes, each island that holds a route
        cable now below its beta. Residual drops can only split islands
        (or thin their internal links)."""
        cables = _route_cables(state, route)
        for beta in self.betas_kbps:
            level = self.levels[beta]
            hit = dict.fromkeys(
                level.node_island[c[0]] for c, free in cables
                if free < beta and c in level.node_island[c[0]].internal_links)
            for island in hit:
                for node in sorted(island.nodes):
                    if level.node_island[node] is island:
                        level.add(BlockingIsland(beta, *_flood(
                            state, node, beta, within=island.nodes)))

    def update_on_release(self, state: NetworkState, route: Route) -> None:
        """Maintain the hierarchy after bandwidth returned on a route: in
        cable order, join the islands of the ends of each route cable now
        at or above beta and not yet internal, plus that cable. Residual
        rises can only merge islands (or add internal links)."""
        cables = _route_cables(state, route)
        for beta in self.betas_kbps:
            level = self.levels[beta]
            for cable, free in cables:
                one = level.node_island[cable[0]]
                if free < beta or cable in one.internal_links:
                    continue
                two = level.node_island[cable[1]]
                level.add(BlockingIsland(
                    beta, one.nodes | two.nodes,
                    one.internal_links | two.internal_links | {cable}))

    # -- comparison ------------------------------------------------------

    def canonical(self):
        """Structural form of every level's islands: used to compare
        against a rebuild."""
        return tuple(
            (beta, tuple(sorted(
                (tuple(sorted(i.nodes)), tuple(sorted(i.internal_links)))
                for i in self.levels[beta].islands)))
            for beta in self.betas_kbps)


def _route_cables(state: NetworkState, route: Route) -> List[Tuple[Cable, int]]:
    """The cables a route crosses, sorted, each with its sym residual."""
    cables = sorted({l.cable for l in route.links()})
    return [(c, state.sym_residual(*c)) for c in cables]


def build_bih(state: NetworkState, betas_mbps: Iterable[float]) -> BIHierarchy:
    return BIHierarchy(state, betas_mbps)
