"""Placement benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload island --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports vnfplace from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics,
measured untraced over the rounds described in workloads.py, with every
time scaled to a nominal host speed by workloads.HostClock; with
``--trace 1`` it runs the workload's cycle once untraced and once traced,
unscaled, and prints the per-layer metrics and the tracing overhead. The
last line of standard output is the JSON result. It exits 1 when any output check failed and 2 when there is no source
tree to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not __package__:        # run as a script: make perfbench importable
    sys.path.insert(0, ROOT)
from perfbench import tracing, workloads  # noqa: E402

# Set-up is repeated up to this many times and its median reported; the
# first repetition also pays for compiling and importing numpy.
SETUP_REPS = 6

END_TO_END = (("setup_s", "s"), ("demands_per_s", "1/s"),
              ("decision_p50_ms", "ms"), ("decision_p99_ms", "ms"),
              ("total_power_w", "W"), ("acceptance_pct", "%"),
              ("mean_delay_ms", "ms"), ("peak_rss_mb", "MB"),
              ("passed_pct", "%"))

PER_LAYER = (
    ("placement.placer_s", "s"),
    ("placement.place_all.self_s", "s"),
    ("placement.bc_place_all.self_s", "s"),
    ("placement.betweenness.s", "s"),
    ("placement.calculate_best_path.calls", "count"),
    ("placement.calculate_best_path.self_s", "s"),
    ("placement.calculate_best_path.fail_ratio", "ratio"),
    ("placement.calculate_best_path.share_pct", "%"),
    ("placement.weight_settings_max", "count"),
    ("placement.get_candidate_pms.calls", "count"),
    ("placement.get_candidate_pms.self_s", "s"),
    ("placement.get_candidate_pms.candidates_per_call", "count"),
    ("power.incremental_cost.calls", "count"),
    ("power.incremental_cost.self_s", "s"),
    ("bih.build_bih.s", "s"),
    ("bih.BIHierarchy.select.calls", "count"),
    ("bih.BIHierarchy.select.self_s", "s"),
    ("bih.BIHierarchy.update_on_allocation.calls", "count"),
    ("bih.BIHierarchy.update_on_allocation.self_s", "s"),
    ("bih.islands_final", "count"),
    ("netstate.NetworkState.apply_allocation.calls", "count"),
    ("netstate.NetworkState.apply_allocation.self_s", "s"),
    ("netstate.StateOverlay.find_reusable.calls", "count"),
    ("netstate.StateOverlay.find_reusable.self_s", "s"),
    ("netstate.StateOverlay.has_room.calls", "count"),
    ("netstate.StateOverlay.has_room.self_s", "s"),
    ("netstate.StateOverlay.fork.calls", "count"),
    ("netstate.StateOverlay.fork.self_s", "s"),
    ("netstate.NetworkState.validate.s", "s"),
    ("power.total_power.s", "s"),
    ("exact.build_model.s", "s"),
    ("exact.build_model.variables", "count"),
    ("exact.build_model.constraints", "count"),
    ("exact.solve_exact_small.self_s", "s"),
    ("exact.validate_solution.s", "s"),
    ("workload.generate_demands.s", "s"),
    ("topology.nobel_germany.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end(run, setup_times, exact: bool) -> dict:
    decisions = [d for p in run.distinct for d in p.decisions]
    placer_s = sum(p.wall_s for p in run.distinct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "demands_per_s": sum(p.offered for p in run.distinct) / placer_s,
        "decision_p50_ms": statistics.median(decisions) * 1e3,
        "decision_p99_ms": workloads.percentile_p99(decisions) * 1e3,
    }
    metrics.update(workloads.outcome_metrics(run.distinct, exact))
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["passed_pct"] = 100.0 * (len(run.timed) - run.failed) / len(
        run.timed)
    print("%d passes run, %d decisions at their fastest of %d rounds, p99 "
          "has %d beyond it, %.3f s of placer time at nominal host speed "
          "(%.3f s of wall time for all rounds), %d set-ups"
          % (len(run.timed), len(decisions),
             len(run.timed) // len(run.distinct),
             len(decisions) - math.ceil(0.99 * len(decisions)), placer_s,
             run.unscaled_s, len(setup_times)))
    return metrics


def per_layer(tracer, untraced, traced) -> dict:
    totals = tracer.totals()
    placer_s = sum(p.wall_s for p in traced.timed)
    untraced_s = sum(p.wall_s for p in untraced.timed)
    metrics = {"placement.placer_s": placer_s}
    for name, (calls, self_s, total_s) in totals.items():
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
        metrics[name + ".s"] = total_s
    searches = totals["placement.calculate_best_path"][0]
    metrics["placement.calculate_best_path.fail_ratio"] = (
        tracer.path_failures / searches if searches else 0.0)
    metrics["placement.calculate_best_path.share_pct"] = (
        100.0 * totals["placement.calculate_best_path"][1] / placer_s)
    metrics["placement.weight_settings_max"] = tracer.weight_settings_max
    listings = totals["placement.get_candidate_pms"][0]
    metrics["placement.get_candidate_pms.candidates_per_call"] = (
        tracer.candidates / listings if listings else 0.0)
    metrics["bih.islands_final"] = _mean(tracer.islands_final())
    metrics["exact.build_model.variables"] = _mean(
        [v for v, _ in tracer.models])
    metrics["exact.build_model.constraints"] = _mean(
        [c for _, c in tracer.models])
    metrics["trace.overhead_s"] = placer_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (placer_s - untraced_s) / untraced_s
    metrics["trace.spans"] = tracer.spans
    print("tracing: %d spans, traced placer time %.3f s, untraced %.3f s; "
          "%d of %d path searches failed"
          % (tracer.spans, placer_s, untraced_s, tracer.path_failures,
             searches))
    return {name: metrics[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "vnfplace", "__init__.py")):
        print("no vnfplace source tree under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r, expected one of %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    passes = workload.passes(args.seconds)

    setup_times = []
    host = workloads.HostClock()

    def set_up():
        factor = host.factor_now()
        start = time.perf_counter()
        lib = workloads.fresh_library()
        cycle = workload.make_cycle(lib, args.seed, passes)
        setup_times.append((time.perf_counter() - start) * factor)
        return lib, cycle

    lib, cycle = set_up()
    # the pre-generated inputs of every pass are long-lived; keep them out
    # of the cyclic collector so a full collection costs what it would for
    # a caller holding one demand sequence
    gc.collect()
    gc.freeze()
    if args.trace:
        untraced = workloads.run_cycle(lib, cycle, 1)
        tracer = tracing.Tracer()
        with tracer.installed(lib):
            cycle = workload.make_cycle(lib, args.seed, passes)
            traced = workloads.run_cycle(lib, cycle, 1, tracer)
        attempted = len(untraced.timed) + len(traced.timed)
        failed = untraced.failed + traced.failed
        if traced.fingerprint != untraced.fingerprint:
            print("traced run left another state than the untraced one",
                  file=sys.stderr)
            failed += 1
        metrics = per_layer(tracer, untraced, traced)
        units = dict(PER_LAYER)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-seed%d.tsv.gz"
                             % (args.workload, args.seed))
        tracer.write(spans)
        print("%d spans written to %s"
              % (len(tracer.span_id), os.path.relpath(spans, ROOT)))
        fingerprint = untraced.fingerprint
    else:
        # further set-ups are spread over the run, between passes, so that
        # their median does not hang on one moment of the host's speed;
        # each imports a new copy of the library, which the run ignores
        step = max(1, workload.rounds * len(cycle) // (SETUP_REPS - 1))

        def after_pass(i):
            if (i + 1) % step == 0 and len(setup_times) < SETUP_REPS:
                set_up()

        run = workloads.run_cycle(lib, cycle, workload.rounds, host=host,
                                  after_pass=after_pass)
        attempted, failed = len(run.timed), run.failed
        metrics = end_to_end(run, setup_times,
                             isinstance(cycle[0], workloads.ExactPass))
        units = dict(END_TO_END)
        fingerprint = run.fingerprint

    print("workload %s seed %d fingerprint %s"
          % (args.workload, args.seed, fingerprint))
    for name, value in metrics.items():
        print("%-48s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
