"""Experiment driver: run algorithms over seed batches, collect metrics.

Each (algorithm, demand count) cell is repeated over seeds 0..n-1 with
freshly generated demands and a fresh substrate, then aggregated to
mean and population standard deviation. Every run is gated on
placement.check_solution: the state's integrity check, the reported
power against the final state re-priced, and each outcome record.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .bih import ladder_kbps
from .exact import build_model, export_lp
from .placement import _check_step, bc_place_all, check_solution, place_all
from .topology import (NetworkGraph, PowerParams, TopologyError,
                       default_catalogs, nobel_germany, parse_topology)
from .workload import generate_demands

ALGORITHMS = ("bi-lbi", "bi-hbi", "bc", "lp-export")
MAX_COUNT = 1_000_000   # limit on demands per sequence and on seeds

CSV_HEADER = ("algorithm,demands,seeds,"
              "total_power_mean_w,total_power_std_w,"
              "network_power_mean_w,network_power_std_w,"
              "pm_power_mean_w,pm_power_std_w,"
              "mean_delay_mean_ms,mean_delay_std_ms,"
              "acceptance_mean_pct,acceptance_std_pct,"
              "runtime_mean_s,runtime_std_s")


class HarnessError(RuntimeError):
    """A run produced an inconsistent or unverifiable result."""


@dataclass
class ExperimentConfig:
    topology: str = "nobel-germany"
    algorithms: List[str] = field(default_factory=lambda: ["bi-lbi"])
    demand_counts: List[int] = field(default_factory=lambda: [100])
    seeds: int = 30
    betas_mbps: List[float] = field(
        default_factory=lambda: [900.0, 700.0, 500.0, 300.0])
    weight_step: float = 0.25
    power: PowerParams = field(default_factory=PowerParams)
    out: Optional[str] = None


@dataclass
class RunResult:
    algorithm: str
    demand_count: int
    seed: int
    total_power_w: float
    network_power_w: float
    pm_power_w: float
    mean_delay_ms: float
    acceptance: float
    runtime_s: float
    rejections: Dict[str, int] = field(default_factory=dict)   # per reason


@dataclass
class AggregateRow:
    algorithm: str
    demand_count: int
    seeds: int
    stats: Dict[str, float]        # <metric>_mean / <metric>_std
    rejections: Dict[str, int] = field(default_factory=dict)   # all seeds


@dataclass
class MetricsReport:
    rows: List[AggregateRow]
    runs: List[RunResult]
    lp_files: List[str] = field(default_factory=list)


def read_text(path: str, error: type = ValueError) -> str:
    """A file's UTF-8 text, else error("line N: not UTF-8 text")."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error("line %d: not UTF-8 text" % (
            raw.count(b"\n", 0, exc.start) + 1)) from None


def load_topology(spec: str, power: Optional[PowerParams] = None) -> NetworkGraph:
    if spec == "nobel-germany":
        return nobel_germany(power)
    return parse_topology(read_text(spec, TopologyError), power)


def _run_once(graph: NetworkGraph, algorithm: str, demands,
              config: ExperimentConfig, count: int, seed: int) -> RunResult:
    if algorithm == "bc":
        sol = bc_place_all(graph, demands)
    else:
        sol = place_all(graph, demands, config.betas_mbps,
                        mode=algorithm.split("-")[1],
                        weight_step=config.weight_step)
    bad = check_solution(sol)
    if bad:
        raise HarnessError("solution check failed: " + "; ".join(bad[:5]))
    return RunResult(algorithm, count, seed, sol.total_power_w,
                     sol.network_power_w, sol.pm_power_w, sol.mean_delay_ms,
                     sol.acceptance, sol.runtime_s,
                     Counter(o.reason for o in sol.outcomes if not o.accepted))


def _stats(values: List[float]) -> tuple:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return math.nan, math.nan
    return statistics.fmean(clean), statistics.pstdev(clean)


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    if not config.algorithms or not config.demand_counts:
        raise ValueError("need at least one algorithm and one demand count")
    for algorithm in config.algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r, expected one of %s"
                             % (algorithm, ", ".join(ALGORITHMS)))
    for what, values in (("algorithm", config.algorithms),
                         ("demand count", config.demand_counts)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError("%s %s repeats" % (what, value))
    if config.seeds < 1:
        raise ValueError("need at least one seed")
    if any(c < 1 for c in config.demand_counts):
        raise ValueError("demand counts must be positive, got %r"
                         % (config.demand_counts,))
    if max(config.seeds, *config.demand_counts) > MAX_COUNT:
        raise ValueError("demands and seeds are limited to %d" % MAX_COUNT)
    ladder_kbps(config.betas_mbps)
    _check_step(config.weight_step)
    tables = set(config.algorithms) - {"lp-export"}
    if config.out and tables and "lp-export" in config.algorithms:
        raise ValueError("--out cannot be lp-export's directory and a CSV too")
    csv_dir = os.path.dirname(config.out or "")
    if csv_dir and not os.path.isdir(csv_dir) and tables:
        raise ValueError("output directory %s does not exist" % csv_dir)
    if config.out and tables and os.path.isdir(config.out):
        raise ValueError("output path %s is a directory" % config.out)
    graph = load_topology(config.topology, config.power)
    # all hardware at full rating bounds one run's power, W; statistics
    # takes a cell only if W * seeds (its sums' bound) and W * W (its
    # variance's; W ** 2 would raise) are finite
    p = config.power
    worst = ((p.switch_static_w + p.pm_max_w) * graph.num_nodes
             + 2 * p.port_w * len(graph.cables()))
    if not math.isfinite(worst * config.seeds) or not math.isfinite(worst * worst):
        raise ValueError("power ratings too large: all hardware at full "
                         "rating, %r W, times %d seeds or times itself is "
                         "not a finite number of watts" % (worst, config.seeds))
    _, services = default_catalogs()
    report = MetricsReport([], [])
    for algorithm in config.algorithms:
        for count in config.demand_counts:
            if algorithm == "lp-export":
                outdir = config.out or "."
                os.makedirs(outdir, exist_ok=True)
                for seed in range(config.seeds):
                    demands = generate_demands(graph, count, services, seed)
                    model = build_model(graph, demands)
                    path = os.path.join(outdir,
                                        "model_c%d_s%d.lp" % (count, seed))
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(export_lp(model))
                    report.lp_files.append(path)
                continue
            cell: List[RunResult] = []
            for seed in range(config.seeds):
                demands = generate_demands(graph, count, services, seed)
                cell.append(_run_once(graph, algorithm, demands, config,
                                      count, seed))
            report.runs.extend(cell)
            stats = {}
            for metric, values in (
                    ("total_power", [r.total_power_w for r in cell]),
                    ("network_power", [r.network_power_w for r in cell]),
                    ("pm_power", [r.pm_power_w for r in cell]),
                    ("mean_delay", [r.mean_delay_ms for r in cell]),
                    ("acceptance", [r.acceptance * 100.0 for r in cell]),
                    ("runtime", [r.runtime_s for r in cell])):
                mean, std = _stats(values)
                stats[metric + "_mean"] = mean
                stats[metric + "_std"] = std
            rejections = sum((Counter(r.rejections) for r in cell), Counter())
            report.rows.append(AggregateRow(algorithm, count, config.seeds,
                                            stats, rejections))
    return report


def emit_csv(report: MetricsReport, path: str) -> None:
    """Fixed-format CSV; identical reports serialize to identical bytes."""
    lines = [CSV_HEADER]
    for row in report.rows:
        s = row.stats
        fields = [row.algorithm, str(row.demand_count), str(row.seeds)]
        for metric in ("total_power", "network_power", "pm_power",
                       "mean_delay", "acceptance", "runtime"):
            fields.append("%.6f" % s[metric + "_mean"])
            fields.append("%.6f" % s[metric + "_std"])
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
