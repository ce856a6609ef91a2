"""Random demand generation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from .topology import NetworkGraph, ServiceType


class WorkloadError(ValueError):
    """Bad demand input or an unusable service mix."""


@dataclass(frozen=True)
class Demand:
    """One service request between two distinct substrate nodes."""

    id: int
    src: int
    dst: int
    service: ServiceType

    @property
    def chain(self):
        return self.service.chain

    @property
    def bandwidth(self) -> float:
        return self.service.bandwidth

    @property
    def bandwidth_kbps(self) -> int:
        return self.service.bandwidth_kbps

    @property
    def delay_budget(self) -> float:
        return self.service.delay_budget


def _check_services(services: Dict[str, ServiceType]) -> None:
    if not services:
        raise WorkloadError("empty service catalog")
    total = sum(s.traffic_share for s in services.values())
    if abs(total - 1.0) > 1e-6:
        raise WorkloadError("traffic shares sum to %r, expected 1" % total)


def generate_demands(graph: NetworkGraph, count: int,
                     services: Dict[str, ServiceType], seed: int) -> List[Demand]:
    """Sample demands with uniform ordered (src, dst) pairs, src != dst,
    and services drawn by traffic share.

    Only rng.random() is drawn (pairs by index arithmetic, services by
    inverse CDF), so a seed pins the exact sequence.
    """
    if count < 0:
        raise WorkloadError("negative demand count")
    n = graph.num_nodes
    if count > 0 and n < 2:
        raise WorkloadError("need at least 2 nodes to build demands")
    _check_services(services)
    ordered = list(services.values())
    rng = random.Random(seed)
    demands = []
    for i in range(count):
        k = int(rng.random() * n * (n - 1))
        src = k // (n - 1)
        off = k % (n - 1)
        dst = off if off < src else off + 1
        r = rng.random()
        acc = 0.0
        service = ordered[-1]
        for s in ordered:
            acc += s.traffic_share
            if r < acc:
                service = s
                break
        demands.append(Demand(i, src, dst, service))
    return demands


def read_demands(graph: NetworkGraph, demands: Iterable[Demand]) -> Iterator[Demand]:
    """Each demand in turn, once its endpoints and new id are checked: the
    one reading of a demand stream, shared by the placers and the model."""
    seen = set()
    for demand in demands:
        graph.check_endpoints(demand)
        if demand.id in seen:
            raise ValueError("demand id %d repeats" % demand.id)
        seen.add(demand.id)
        yield demand
