"""Command line front end."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .harness import (ALGORITHMS, ExperimentConfig, HarnessError,
                      MetricsReport, emit_csv, run_experiment)
from .topology import PowerParams, TopologyError
from .workload import WorkloadError


def _joined(values) -> str:
    return ",".join("%g" % v for v in values)


def _build_parsers():
    defaults = ExperimentConfig()
    power = defaults.power
    parser = argparse.ArgumentParser(
        prog="vnfplace",
        description="Power-aware placement of service function chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run placement experiments",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    run.add_argument("--config", metavar="FILE",
                     help="JSON file supplying defaults for the flags below")
    run.add_argument("--topology", default=defaults.topology,
                     help="topology file, or 'nobel-germany' for the bundled "
                          "instance")
    run.add_argument("--algo", default=",".join(defaults.algorithms),
                     help="comma list of algorithms: %s"
                          % ", ".join(ALGORITHMS))
    run.add_argument("--demands", default=_joined(defaults.demand_counts),
                     help="comma list of demand counts")
    run.add_argument("--seeds", type=int, default=defaults.seeds,
                     help="repetitions per cell, seeds 0..n-1")
    run.add_argument("--betas", default=_joined(defaults.betas_mbps),
                     help="descending bandwidth thresholds in Mb/s")
    run.add_argument("--delta-w", dest="delta_w", type=float,
                     default=defaults.weight_step,
                     help="path search reweighting step")
    run.add_argument("--out", default=defaults.out,
                     help="CSV output path; a directory for lp-export")
    run.add_argument("--switch-power", dest="switch_power", type=float,
                     default=power.switch_static_w,
                     help="switch static wattage")
    run.add_argument("--port-power", dest="port_power", type=float,
                     default=power.port_w,
                     help="wattage per busy port")
    run.add_argument("--pm-idle-power", dest="pm_idle_power", type=float,
                     default=power.pm_idle_w,
                     help="PM idle wattage")
    run.add_argument("--pm-max-power", dest="pm_max_power", type=float,
                     default=power.pm_max_w,
                     help="PM full-load wattage")
    return parser, run


def _listify(value, cast) -> List:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    return [cast(p) for p in parts]


def _real(value) -> float:
    """float() that refuses a config file's booleans."""
    if isinstance(value, bool):
        raise ValueError("expected a number, got %r" % (value,))
    return float(value)


def _integer(value) -> int:
    """int() that refuses a config file's booleans and fractions."""
    if not _real(value).is_integer():
        raise ValueError("expected an integer, got %r" % (value,))
    return int(value)


def _print_report(report: MetricsReport) -> None:
    if report.lp_files:
        for path in report.lp_files:
            print("wrote %s" % path)
    if not report.rows:
        return
    print("%-10s %8s %6s %12s %12s %12s %10s %8s %10s  %s"
          % ("algorithm", "demands", "seeds", "total[W]", "net[W]",
             "pm[W]", "delay[ms]", "acc[%]", "time[s]", "rejected"))
    for row in report.rows:
        s = row.stats
        rejected = " ".join("%s:%d" % kv for kv in sorted(row.rejections.items()))
        print("%-10s %8d %6d %12.1f %12.1f %12.1f %10.2f %8.1f %10.3f  %s"
              % (row.algorithm, row.demand_count, row.seeds,
                 s["total_power_mean"], s["network_power_mean"],
                 s["pm_power_mean"], s["mean_delay_mean"],
                 s["acceptance_mean"], s["runtime_mean"], rejected or "-"))


def main(argv: Optional[List[str]] = None) -> int:
    parser, run_parser = _build_parsers()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print("bad config file: %s" % exc, file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print("bad config file: top level must be a JSON object",
                  file=sys.stderr)
            return 2
        # a config file may set any flag of the run command but --config
        keys = set(vars(run_parser.parse_args([]))) - {"config"}
        unknown = sorted(set(data) - keys)
        if unknown:
            print("unknown config keys: %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2
        run_parser.set_defaults(**data)
        args = parser.parse_args(argv)     # explicit flags still win
    try:
        # a config file's values bypass argparse's types
        if not isinstance(args.topology, str) or not isinstance(
                args.out, (str, type(None))):
            raise TypeError("topology must be a string and out a string or "
                            "null, got %r and %r" % (args.topology, args.out))
        config = ExperimentConfig(
            topology=args.topology,
            algorithms=_listify(args.algo, str),
            demand_counts=_listify(args.demands, _integer),
            seeds=_integer(args.seeds),
            betas_mbps=_listify(args.betas, _real),
            weight_step=_real(args.delta_w),
            power=PowerParams(_real(args.switch_power), _real(args.port_power),
                              _real(args.pm_idle_power),
                              _real(args.pm_max_power)),
            out=args.out)
    except (TypeError, ValueError) as exc:
        print("bad option value: %s" % exc, file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except (TopologyError, WorkloadError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except HarnessError as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    _print_report(report)
    if config.out and report.rows:
        emit_csv(report, config.out)
        print("wrote %s" % config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
