"""Bandwidth-based clustering of the substrate into blocking islands.

A beta-island is a maximal set of nodes mutually reachable over links
whose free capacity (min of both directions) is at least beta. Islands
are computed per threshold; thresholds stacked in descending order form
a hierarchy in which every island lies inside one island at the next
lower threshold. The hierarchy stores only each level's islands (members
and internal cables), which is all placement reads when it picks the
island a demand is routed in. The islands are maintained incrementally as
allocations come and go, and always equal a from-scratch rebuild.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .netstate import NetworkState, Route, to_kbps

Cable = Tuple[int, int]


@dataclass
class BlockingIsland:
    id: int
    beta_kbps: int
    nodes: FrozenSet[int]
    internal_links: FrozenSet[Cable]


@dataclass
class BIGraph:
    """One clustering level: the islands at a single threshold."""

    beta_kbps: int
    islands: Dict[int, BlockingIsland] = field(default_factory=dict)
    node_island: Dict[int, int] = field(default_factory=dict)


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
    finite, at least 1 kb/s and strictly descending in kb/s."""
    if not betas_mbps:
        raise ValueError("empty threshold ladder")
    if not all(math.isfinite(b) for b in betas_mbps):
        raise ValueError("thresholds must be finite: %r" % betas_mbps)
    kbps = [to_kbps(b) for b in betas_mbps]
    if any(k <= 0 for k in kbps):
        raise ValueError("thresholds must be at least 1 kb/s: %r" % betas_mbps)
    if any(a <= b for a, b in zip(kbps, kbps[1:])):
        raise ValueError("thresholds must be strictly descending in kb/s: "
                         "%r gives %r" % (betas_mbps, kbps))
    return kbps


class BIHierarchy:
    """Island clusterings at a descending ladder of thresholds."""

    def __init__(self, state: NetworkState, betas_mbps: Iterable[float]):
        self.betas_kbps = ladder_kbps(list(betas_mbps))
        self._next_id = 0
        self.levels: Dict[int, BIGraph] = {}
        for beta in self.betas_kbps:
            self.levels[beta] = self._build_level(state, beta)

    # -- construction ----------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _build_level(self, state: NetworkState, beta_kbps: int) -> BIGraph:
        level = BIGraph(beta_kbps)
        for node in sorted(n.id for n in state.graph.nodes):
            if node in level.node_island:
                continue
            nodes, links = _flood(state, node, beta_kbps)
            iid = self._new_id()
            level.islands[iid] = BlockingIsland(iid, beta_kbps, nodes, links)
            for n in nodes:
                level.node_island[n] = iid
        return level

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
            iid = level.node_island.get(src)
            if iid is not None and iid == level.node_island.get(dst):
                if mode == "hbi":
                    return level.islands[iid]
                chosen = level.islands[iid]
        return chosen

    # -- incremental maintenance ----------------------------------------

    def _changed_cables(self, state: NetworkState, route: Route, kbps: int,
                        released: bool) -> Dict[Cable, Tuple[int, int]]:
        """Map cable -> (old sym residual, new sym residual) for cables the
        route touched. The state already reflects the change."""
        per_dir = Counter()
        for link in route.links():
            per_dir[(link.src, link.dst)] += kbps
        sign = -1 if released else 1
        changed: Dict[Cable, Tuple[int, int]] = {}
        cables = {((s, d) if s < d else (d, s)) for s, d in per_dir}
        for a, b in cables:
            old = min(state.residual(a, b) + sign * per_dir.get((a, b), 0),
                      state.residual(b, a) + sign * per_dir.get((b, a), 0))
            new = state.sym_residual(a, b)
            changed[(a, b)] = (old, new)
        return changed

    def update_on_allocation(self, state: NetworkState, route: Route, kbps: int) -> None:
        """Maintain the hierarchy after bandwidth was taken on a route.
        Residual drops can only split islands (or thin internal links)."""
        changed = self._changed_cables(state, route, kbps, released=False)
        for beta in self.betas_kbps:
            level = self.levels[beta]
            drops = [c for c, (old, new) in changed.items()
                     if old >= beta > new]
            hit_islands = {level.node_island[c[0]] for c in drops}
            for iid in sorted(hit_islands):
                island = level.islands[iid]
                remaining = set(island.nodes)
                parts: List[Tuple[FrozenSet[int], FrozenSet[Cable]]] = []
                while remaining:
                    seed = min(remaining)
                    nodes, links = _flood(state, seed, beta, within=island.nodes)
                    parts.append((nodes, links))
                    remaining -= nodes
                if len(parts) == 1:
                    # still connected, only the internal link set thinned
                    level.islands[iid] = BlockingIsland(
                        iid, beta, parts[0][0], parts[0][1])
                else:
                    del level.islands[iid]
                    for nodes, links in parts:
                        nid = self._new_id()
                        level.islands[nid] = BlockingIsland(nid, beta, nodes, links)
                        for n in nodes:
                            level.node_island[n] = nid

    def update_on_release(self, state: NetworkState, route: Route, kbps: int) -> None:
        """Maintain the hierarchy after bandwidth returned on a route.
        Residual rises can only merge islands (or add internal links)."""
        changed = self._changed_cables(state, route, kbps, released=True)
        for beta in self.betas_kbps:
            level = self.levels[beta]
            rises = sorted(c for c, (old, new) in changed.items()
                           if new >= beta > old)
            for a, b in rises:
                ia, ib = level.node_island[a], level.node_island[b]
                cable = (a, b)
                if ia == ib:
                    island = level.islands[ia]
                    level.islands[ia] = BlockingIsland(
                        ia, beta, island.nodes,
                        island.internal_links | {cable})
                else:
                    one, two = level.islands[ia], level.islands[ib]
                    nid = self._new_id()
                    merged = BlockingIsland(
                        nid, beta, one.nodes | two.nodes,
                        one.internal_links | two.internal_links | {cable})
                    del level.islands[ia]
                    del level.islands[ib]
                    level.islands[nid] = merged
                    for n in merged.nodes:
                        level.node_island[n] = nid

    # -- comparison ------------------------------------------------------

    def canonical(self):
        """Id-free structural form of every level's islands: used to
        compare against a rebuild."""
        return tuple(
            (beta, tuple(sorted(
                (tuple(sorted(i.nodes)), tuple(sorted(i.internal_links)))
                for i in self.levels[beta].islands.values())))
            for beta in self.betas_kbps)


def build_bih(state: NetworkState, betas_mbps: Iterable[float]) -> BIHierarchy:
    return BIHierarchy(state, betas_mbps)
