"""Span tracing by rebinding public library functions and methods.

For the length of a traced run, each target below is replaced by a
wrapper that records one span per call: name, start, end, parent span
and the request id (pass index, demand index) current when it started.
The wrapper is set on the attribute the caller looks up at call time,
e.g. ``vnfplace.placement.calculate_best_path`` rather than the
``vnfplace`` re-export, and every original is put back on exit.

Self time is a span's duration minus the time covered by the spans it
encloses; it is accumulated while the run goes, so the per-layer
figures need no pass over the stored spans. Private helpers such as
``placement._dijkstra`` are not wrapped, so their time stays in the
self time of their public caller.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (module, attribute path inside it, span name). The span name is the
# layer that owns the code, which differs from the module the caller
# looks the function up in for functions imported into placement.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("placement", "place_all", "placement.place_all"),
    ("placement", "bc_place_all", "placement.bc_place_all"),
    ("placement", "betweenness", "placement.betweenness"),
    ("placement", "calculate_best_path", "placement.calculate_best_path"),
    ("placement", "get_candidate_pms", "placement.get_candidate_pms"),
    ("placement", "incremental_cost", "power.incremental_cost"),
    ("placement", "build_bih", "bih.build_bih"),
    ("bih", "BIHierarchy.select", "bih.BIHierarchy.select"),
    ("bih", "BIHierarchy.update_on_allocation",
     "bih.BIHierarchy.update_on_allocation"),
    ("netstate", "NetworkState.apply_allocation",
     "netstate.NetworkState.apply_allocation"),
    ("netstate", "NetworkState.validate", "netstate.NetworkState.validate"),
    ("netstate", "StateOverlay.find_reusable",
     "netstate.StateOverlay.find_reusable"),
    ("netstate", "StateOverlay.has_room", "netstate.StateOverlay.has_room"),
    ("netstate", "StateOverlay.fork", "netstate.StateOverlay.fork"),
    ("power", "total_power", "power.total_power"),
    ("exact", "build_model", "exact.build_model"),
    ("exact", "solve_exact_small", "exact.solve_exact_small"),
    ("exact", "validate_solution", "exact.validate_solution"),
    ("workload", "generate_demands", "workload.generate_demands"),
    ("topology", "nobel_germany", "topology.nobel_germany"),
)


# Spans beyond this many still count towards the totals but are not kept,
# which bounds memory (about 50 bytes a span) on call-heavy workloads.
SPAN_LIMIT = 1_000_000


def resolve(lib, module: str, path: str):
    """(owner, attribute name) that a call through `path` looks up."""
    owner = getattr(lib, module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _raw(owner, attr):
    # read a class attribute from __dict__ so that restoring it puts back
    # the very object (function, staticmethod) that was there
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Collects spans and per-name call counts, self and total time."""

    def __init__(self):
        self.names: List[str] = [name for _, _, name in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        # placement.calculate_best_path returning None, candidates listed
        # by get_candidate_pms, islands of each hierarchy built, and the
        # (variables, constraints) size of each model built
        self.path_failures = 0
        self.candidates = 0
        self.hierarchies: List[object] = []
        self.models: List[Tuple[int, int]] = []
        # largest weight-setting count place_all(stats=...) reported
        self.weight_settings_max = 0
        self.pass_index = -1
        self.demand_index = -1
        self._stack: List[List[int]] = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("h")
        self.span_pass = array("q")
        self.span_demand = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def _wrap(self, nid: int, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        name = self.names[nid]

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            req_pass, req_demand = self.pass_index, self.demand_index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - frame[1]
                if sid < SPAN_LIMIT:
                    self.span_id.append(sid)
                    self.span_parent.append(parent)
                    self.span_name.append(nid)
                    self.span_pass.append(req_pass)
                    self.span_demand.append(req_demand)
                    self.span_start.append(start)
                    self.span_end.append(end)
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        if name == "placement.calculate_best_path":
            self.path_failures += result is None
        elif name == "placement.get_candidate_pms":
            self.candidates += len(result)
        elif name == "bih.build_bih":
            self.hierarchies.append(result)
        elif name == "exact.build_model":
            self.models.append((len(result.variables),
                                len(result.constraints)))

    @contextmanager
    def installed(self, lib):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = []
        try:
            for nid, (module, path, _) in enumerate(TARGETS):
                owner, attr = resolve(lib, module, path)
                raw = _raw(owner, attr)
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(nid, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def islands_final(self) -> List[int]:
        """Island count over all levels of each hierarchy, as it stands
        now, i.e. after the placer that built it returned."""
        return [sum(len(level.islands) for level in h.levels.values())
                for h in self.hierarchies]

    def write(self, path: str) -> None:
        """Dump the stored spans as gzip'd tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tpass\tdemand\tstart_ns\tend_ns\n")
            for row in zip(self.span_id, self.span_parent, self.span_name,
                           self.span_pass, self.span_demand,
                           self.span_start, self.span_end):
                fh.write("%d\t%d\t%s\t%d\t%d\t%d\t%d\n"
                         % (row[0], row[1], self.names[row[2]], *row[3:]))

    @property
    def spans(self) -> int:
        """Spans recorded, stored or not."""
        return self._next_id

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds)."""
        return {name: (self.calls[i], self.self_ns[i] / 1e9,
                       self.total_ns[i] / 1e9)
                for i, name in enumerate(self.names)}
