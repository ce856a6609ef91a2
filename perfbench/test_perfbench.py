"""Tests of the benchmark's own code: tracing, inputs and output checks."""

import dataclasses
import json
import os
import random
from types import SimpleNamespace

from perfbench import run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_restores_every_rebound_attribute():
    lib = workloads.library()
    before = [tracing._raw(*tracing.resolve(lib, module, path))
              for module, path, _ in tracing.TARGETS]
    cycle = workloads.WORKLOADS["island"].make_cycle(lib, 0, 1)
    demands = cycle[0].demands[:5]
    graph = cycle[0].graph
    tracer = tracing.Tracer()
    with tracer.installed(lib):
        for (module, path, _), raw in zip(tracing.TARGETS, before):
            assert tracing._raw(*tracing.resolve(lib, module, path)) is not raw
        workloads.PlacerPass(graph, "lbi", demands).run(lib, tracer)
    after = [tracing._raw(*tracing.resolve(lib, module, path))
             for module, path, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))
    totals = tracer.totals()
    assert totals["placement.place_all"][0] == 1
    assert totals["placement.calculate_best_path"][0] > 0
    assert totals["power.incremental_cost"][0] > 0
    spans = tracer.spans
    # untraced runs execute the originals and record nothing
    workloads.PlacerPass(graph, "lbi", demands).run(lib)
    assert tracer.spans == spans


def test_self_time_excludes_child_spans():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["island"].make_cycle(lib, 0, 1)
    tracer = tracing.Tracer()
    with tracer.installed(lib):
        workloads.PlacerPass(cycle[0].graph, "lbi",
                             cycle[0].demands[:5]).run(lib, tracer)
    calls, self_s, total_s = tracer.totals()["placement.place_all"]
    children = sum(t for name, (_, _, t) in tracer.totals().items()
                   if name in ("bih.build_bih", "bih.BIHierarchy.select",
                               "placement.get_candidate_pms",
                               "placement.calculate_best_path",
                               "power.incremental_cost",
                               "netstate.NetworkState.apply_allocation",
                               "bih.BIHierarchy.update_on_allocation"))
    assert abs(total_s - self_s - children) < 1e-6


def test_tiny_instances_stay_inside_exact_limits():
    lib = workloads.library()
    limits = lib.exact.ExactLimits()
    rng = random.Random(7)
    for i in range(300):
        graph, demands = workloads.tiny_instance(
            lib, rng, i % workloads.TINY_SHAPES)
        assert graph.num_nodes <= limits.max_nodes
        assert len(graph.cables()) <= limits.max_cables
        assert 1 <= len(demands) <= limits.max_demands
        assert all(len(d.chain) <= limits.max_chain_len for d in demands)
        if i % 3 == 0:
            # raises ExactLimitError for anything outside the regime
            lib.exact.solve_exact_small(lib.exact.build_model(graph, demands))


def test_exact_pass_checks_pass_on_generated_instances():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["exact-tiny"].make_cycle(lib, 1, 20)
    run_result = workloads.run_cycle(lib, cycle, 2)
    assert run_result.failed == 0
    assert len(run_result.timed) == 40
    assert len(run_result.distinct) == 20


def test_rounds_keep_each_decisions_fastest_time():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["island"].make_cycle(lib, 0, 1)
    short = workloads.PlacerPass(cycle[0].graph, "hbi", cycle[0].demands[:20])
    run_result = workloads.run_cycle(lib, [short], 3)
    assert run_result.failed == 0
    best = run_result.distinct[0]
    for k, time_s in enumerate(best.decisions):
        assert time_s == min(r.decisions[k] for r in run_result.timed)
    assert best.snapshot == run_result.timed[0].snapshot
    assert best.wall_s <= min(r.wall_s for r in run_result.timed)


def test_host_clock_scales_by_the_median_reading_around_each_instant():
    host = workloads.HostClock()
    host.at = [float(i) for i in range(100)]
    host.took = [workloads.REF_NOMINAL_S * (1 if i < 50 else 2)
                 for i in range(100)]
    assert host.scale([10.0, 90.0, 10.0]) == [1.0, 0.5, 1.0]
    assert 0 < host.factor_now() < 10
    assert len(host.took) == 100 + 2 * workloads.REF_WINDOW + 1


def test_scaled_run_keeps_outcomes_and_reports_unscaled_time():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["exact-tiny"].make_cycle(lib, 1, 5)
    plain = workloads.run_cycle(lib, cycle, 1)
    scaled = workloads.run_cycle(lib, cycle, 1, host=workloads.HostClock())
    assert scaled.failed == 0
    assert scaled.fingerprint == plain.fingerprint
    assert scaled.unscaled_s > 0
    assert all(len(p.decisions) == 1 for p in scaled.distinct)


def test_a_round_that_leaves_another_state_fails():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["exact-tiny"].make_cycle(lib, 1, 2)
    flaky = iter(["a", "b", "a", "c"])

    class Pass:
        def __init__(self, inner):
            self.inner = inner

        def run(self, lib, tracer=None, host=None):
            res = self.inner.run(lib, tracer, host)
            res.snapshot = next(flaky)
            return res

    run_result = workloads.run_cycle(lib, [Pass(p) for p in cycle], 2)
    assert run_result.failed == 1
    assert "left another state" in run_result.timed[3].problems[-1]


def test_decision_check_catches_a_placer_that_reads_demands_up_front():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["island"].make_cycle(lib, 0, 1)
    graph, demands = cycle[0].graph, cycle[0].demands[:20]
    lazy = workloads.PlacerPass(graph, "lbi", demands).run(lib)
    assert lazy.problems == []
    assert len(lazy.decisions) == 20

    def eager(graph, demands, *args, **kwargs):
        return lib.placement.place_all(graph, list(demands), *args, **kwargs)

    fake = SimpleNamespace(**vars(lib))
    fake.placement = SimpleNamespace(place_all=eager)
    result = workloads.PlacerPass(graph, "lbi", demands).run(fake)
    assert any("one at a time" in p for p in result.problems)


def test_placement_check_catches_a_budget_overrun():
    lib = workloads.library()
    cycle = workloads.WORKLOADS["island"].make_cycle(lib, 0, 1)
    graph, demands = cycle[0].graph, cycle[0].demands[:10]
    sol = lib.placement.place_all(graph, demands, workloads.BETAS_MBPS)
    assert workloads.check_placement(lib, sol, demands) == []
    first = sol.outcomes[0]
    assert first.accepted
    cut = dataclasses.replace(first.demand, service=dataclasses.replace(
        first.demand.service, delay_budget=1.0))
    sol.outcomes[0] = dataclasses.replace(first, demand=cut)
    bad = workloads.check_placement(lib, sol, [cut] + demands[1:])
    assert any("budget overrun" in b for b in bad)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
