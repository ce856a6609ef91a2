"""Experiment driver and command line front end."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BAD_POWER_RATINGS, EDGE_TOPOLOGY
import vnfplace
from vnfplace import cli
from vnfplace.netstate import NetworkState, Route
from vnfplace.placement import DemandOutcome, SolutionSet, check_solution
from vnfplace.harness import (ALGORITHMS, CSV_HEADER, MAX_COUNT,
                              ExperimentConfig, HarnessError, emit_csv,
                              load_topology, run_experiment)


def _small_config(**kw):
    base = dict(algorithms=["bi-lbi"], demand_counts=[5], seeds=2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_collects_cells():
    report = run_experiment(_small_config(algorithms=["bi-lbi", "bc"],
                                          demand_counts=[5, 10]))
    assert [(r.algorithm, r.demand_count) for r in report.rows] == \
        [("bi-lbi", 5), ("bi-lbi", 10), ("bc", 5), ("bc", 10)]
    assert len(report.runs) == 8
    for run in report.runs:
        assert run.seed in (0, 1)
        assert run.total_power_w == pytest.approx(run.network_power_w
                                                  + run.pm_power_w)
        assert 0.0 <= run.acceptance <= 1.0
        assert run.runtime_s >= 0.0
    for row in report.rows:
        assert row.seeds == 2
        for metric in ("total_power", "network_power", "pm_power",
                       "mean_delay", "acceptance", "runtime"):
            assert metric + "_mean" in row.stats
            assert metric + "_std" in row.stats
        assert 0.0 <= row.stats["acceptance_mean"] <= 100.0


def test_results_repeat_except_runtime():
    one = run_experiment(_small_config())
    two = run_experiment(_small_config())
    for a, b in zip(one.runs, two.runs):
        assert (a.algorithm, a.demand_count, a.seed) == \
            (b.algorithm, b.demand_count, b.seed)
        assert a.total_power_w == b.total_power_w
        assert a.network_power_w == b.network_power_w
        assert a.pm_power_w == b.pm_power_w
        assert a.mean_delay_ms == b.mean_delay_ms
        assert a.acceptance == b.acceptance


def test_csv_is_stable_except_runtime_columns(tmp_path):
    paths = []
    for i in range(2):
        report = run_experiment(_small_config(demand_counts=[5, 10]))
        path = tmp_path / ("out%d.csv" % i)
        emit_csv(report, str(path))
        paths.append(path)
    texts = [p.read_text().splitlines() for p in paths]
    assert texts[0][0] == CSV_HEADER
    assert len(texts[0]) == 3
    for lines in texts:
        for line in lines[1:]:
            assert len(line.split(",")) == 15
    for left, right in zip(texts[0][1:], texts[1][1:]):
        assert left.split(",")[:13] == right.split(",")[:13]


def test_lp_export_writes_model_files(tmp_path):
    out = tmp_path / "models"
    report = run_experiment(_small_config(algorithms=["lp-export"],
                                          demand_counts=[3],
                                          out=str(out)))
    assert report.rows == []
    want = [str(out / "model_c3_s0.lp"), str(out / "model_c3_s1.lp")]
    assert report.lp_files == want
    for path in want:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("Minimize")
        assert text.endswith("End\n")


def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_experiment(_small_config(algorithms=["magic"]))
    with pytest.raises(ValueError, match="at least one seed"):
        run_experiment(_small_config(seeds=0))
    with pytest.raises(ValueError, match="demand counts must be positive"):
        run_experiment(_small_config(demand_counts=[-3]))
    with pytest.raises(ValueError, match="demand counts must be positive"):
        run_experiment(_small_config(demand_counts=[5, 0]))


def test_repeated_cells_are_refused(tmp_path, capsys):
    # a repeated algorithm or demand count would run its cell twice and
    # report the same row twice
    with pytest.raises(ValueError, match="^algorithm bi-lbi repeats$"):
        run_experiment(_small_config(algorithms=["bi-lbi", "bc", "bi-lbi"]))
    with pytest.raises(ValueError, match="^demand count 5 repeats$"):
        run_experiment(_small_config(demand_counts=[5, 10, 5]))
    out = tmp_path / "out.csv"
    for argv, message in ((["--algo", "bc", "--demands", "5,5"],
                           "demand count 5 repeats"),
                          (["--algo", "bi-lbi,bi-lbi", "--demands", "5"],
                           "algorithm bi-lbi repeats")):
        assert cli.main(["run", *argv, "--seeds", "1", "--out",
                         str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message
        assert captured.out == "" and not out.exists()


def test_load_topology_sources(tmp_path):
    assert load_topology("nobel-germany").num_nodes == 17
    text = "node 0 16\nnode 1 16\nlink 0 1 100 2ms\n"
    path = tmp_path / "tiny.txt"
    path.write_text(text)
    graph = load_topology(str(path))
    assert graph.num_nodes == 2
    assert graph.link(0, 1).delay == 2.0
    with pytest.raises(OSError):
        load_topology(str(tmp_path / "missing.txt"))


def test_gate_rejects_tampered_results(monkeypatch):
    from vnfplace import harness as mod

    real = mod.place_all

    def crooked(*args, **kw):
        sol = real(*args, **kw)
        sol.total_power_w += 7.0
        return sol

    monkeypatch.setattr(mod, "place_all", crooked)
    with pytest.raises(HarnessError, match="reported power"):
        run_experiment(_small_config(seeds=1))
    # the check allows 1e-9 W between reported and recomputed power
    sol = real(load_topology("nobel-germany"), [], [900.0])
    sol.total_power_w = 1e-10
    assert check_solution(sol) == []
    sol.total_power_w = 1e-7
    assert check_solution(sol) == ["reported power 1e-07, recomputed 0.0"]


def test_check_solution_reports_an_acceptance_without_allocation():
    graph = load_topology("nobel-germany")
    _, services = vnfplace.default_catalogs()
    demand = vnfplace.generate_demands(graph, 1, services, 0)[0]
    sol = SolutionSet([DemandOutcome(demand, True, None, None)],
                      NetworkState(graph), 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert check_solution(sol) == ["demand 0: accepted with no allocation"]


def test_run_rejects_a_corrupt_state(monkeypatch):
    from vnfplace import harness as mod

    real = mod.place_all

    def miscounted(*args, **kw):
        sol = real(*args, **kw)
        sol.state.cores_used[5] += 4
        return sol

    monkeypatch.setattr(mod, "place_all", miscounted)
    with pytest.raises(HarnessError, match="PM 5 indexes"):
        run_experiment(_small_config(seeds=1))


def test_run_rejects_bad_outcome_records(monkeypatch):
    from vnfplace import harness as mod

    real = mod.bc_place_all

    def dropped_segment(*args, **kw):
        sol = real(*args, **kw)
        outcome = next(o for o in sol.outcomes if o.accepted)
        route = Route(outcome.allocation.route.segments[:-1])
        outcome.allocation = dataclasses.replace(outcome.allocation,
                                                 route=route)
        return sol

    def silent_rejection(*args, **kw):
        sol = real(*args, **kw)
        next(o for o in sol.outcomes if o.accepted).accepted = False
        return sol

    for crooked, what in ((dropped_segment, "segment count"),
                          (silent_rejection, "bad rejection record")):
        monkeypatch.setattr(mod, "bc_place_all", crooked)
        with pytest.raises(HarnessError, match="solution check failed.*" + what):
            run_experiment(_small_config(algorithms=["bc"], seeds=1))


def test_import_loads_no_third_party_module():
    src = os.path.dirname(os.path.dirname(vnfplace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import vnfplace; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'vnfplace'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_pyproject_declares_the_test_dependencies():
    """The library needs nothing beyond the standard library; the suite
    needs pytest and hypothesis, declared as the `test` extra."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert project["optional-dependencies"]["test"] == ["pytest",
                                                        "hypothesis"]


# -- command line ---------------------------------------------------------


def test_csv_header_is_pinned():
    # the existing columns stay byte-stable when a column is added
    assert CSV_HEADER == (
        "algorithm,demands,seeds,total_power_mean_w,total_power_std_w,"
        "network_power_mean_w,network_power_std_w,pm_power_mean_w,"
        "pm_power_std_w,mean_delay_mean_ms,mean_delay_std_ms,"
        "acceptance_mean_pct,acceptance_std_pct,runtime_mean_s,"
        "runtime_std_s")


def test_cli_rejects_a_plan_over_the_budget_in_commit_order(tmp_path,
                                                            capsys):
    # seed 87's route passes the budget with its segments added apart and
    # misses it by the commit's sum, by which the walk judges each route:
    # no route meets the budget, so "no-path", not bad input
    path = tmp_path / "edge.txt"
    path.write_text(EDGE_TOPOLOGY)
    assert cli.main(["run", "--topology", str(path), "--algo", "bi-lbi",
                     "--demands", "1", "--seeds", "88", "--betas", "1"]) == 0
    assert "no-path:1" in capsys.readouterr().out.split()


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = cli.main(["run", "--algo", "bi-lbi", "--demands", "5",
                   "--seeds", "1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "bi-lbi" in captured
    assert "wrote %s" % out in captured
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_table_counts_rejection_reasons(tmp_path, capsys):
    # a 1 kb/s ladder fits no demand: each is rejected as no-island, and
    # the printed row sums the reasons over the cell's seeds
    out = tmp_path / "rejected.csv"
    assert cli.main(["run", "--betas", "0.001", "--demands", "5",
                     "--seeds", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "rejected"
    assert lines[1].split()[0] == "bi-lbi"
    assert lines[1].split()[-1] == "no-island:10"
    report = run_experiment(_small_config(betas_mbps=[0.001]))
    assert [r.rejections for r in report.runs] == [{"no-island": 5}] * 2
    assert report.rows[0].rejections == {"no-island": 10}
    # the counts stay out of the CSV
    text = out.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text[1].split(",")) == 15
    # a row with no rejection shows a dash
    assert cli.main(["run", "--demands", "5", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "-"


def test_cli_lp_export(tmp_path, capsys):
    out = tmp_path / "models"
    rc = cli.main(["run", "--algo", "lp-export", "--demands", "2",
                   "--seeds", "1", "--out", str(out)])
    assert rc == 0
    assert "model_c2_s0.lp" in capsys.readouterr().out
    assert (out / "model_c2_s0.lp").exists()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_runs_every_listed_algorithm(algo, tmp_path):
    out = tmp_path / ("models" if algo == "lp-export" else "report.csv")
    assert cli.main(["run", "--algo", algo, "--demands", "1", "--seeds", "1",
                     "--out", str(out)]) == 0
    assert out.exists()


def test_cli_bad_inputs_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--algo", "magic", "--seeds", "1"]) == 2
    assert cli.main(["run", "--topology", str(tmp_path / "nope.txt"),
                     "--seeds", "1"]) == 2
    # a topology file that is not UTF-8 text: the line of the bad byte
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"node 0 16\nnode 1 16\nlink 0 1 100 2ms # \xff\n")
    capsys.readouterr()
    assert cli.main(["run", "--topology", str(latin), "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert "line 3" in captured.err and captured.out == ""
    # so is a config file, with the bad byte on line 2
    latin_conf = tmp_path / "latin.json"
    latin_conf.write_bytes(b'{"seeds": 1,\n "algo": "\xff"}\n')
    assert cli.main(["run", "--config", str(latin_conf)]) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and captured.out == ""
    assert cli.main(["run", "--demands", "abc", "--seeds", "1"]) == 2
    capsys.readouterr()
    # an empty algorithm or demand-count list would run nothing
    for argv in (["--demands", ""], ["--algo", ",", "--demands", "3"]):
        assert cli.main(["run", *argv, "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert "need at least one algorithm" in captured.err
        assert captured.out == ""
    for data in ({"algo": []}, {"demands": []}):
        conf = tmp_path / "empty.json"
        conf.write_text(json.dumps(dict(data, seeds=1)))
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert "need at least one algorithm" in capsys.readouterr().err
    # no CLI algorithm runs the exact solver: the library does
    assert cli.main(["run", "--algo", "exact-small", "--demands", "1",
                     "--seeds", "1"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err
    assert cli.main(["run", "--seeds", "0"]) == 2
    assert cli.main(["run", "--delta-w", "0", "--demands", "1",
                     "--seeds", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["run", "--demands", "0", "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert "demand counts must be positive" in captured.err
    assert captured.out == ""
    # threshold ladders: non-finite, 0 kb/s, or not descending in kb/s
    for betas, message in (("inf", "finite"), ("nan", "finite"),
                           ("1e308", "threshold 1e+308 Mb/s"),
                           ("0.0004", "at least 1 kb/s"),
                           ("900.0004,900.0001,300", "descending in kb/s")):
        assert cli.main(["run", "--betas", betas, "--demands", "1",
                         "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
    # a cable capacity past the float range in kb/s, or one that books
    # 0 kb/s, is refused on its line, not run
    for capacity in ("1e308", "1e-320"):
        cable = tmp_path / "cable.txt"
        cable.write_text("node 0 16\nnode 1 16\nlink 0 1 %s 1\n" % capacity)
        assert cli.main(["run", "--topology", str(cable), "--demands", "1",
                         "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert "line 3: cable 0-1: capacity" in captured.err
        assert captured.out == ""
    # power ratings whose worst case over the graph and the seeds, or whose
    # square, is not a finite number of watts fail before any cell runs
    for _, argv in BAD_POWER_RATINGS:
        assert cli.main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: power ratings too large")
        assert captured.out == ""
    # found by the fuzz property below: an integer float() cannot take, as
    # a flag or a config value, and a PM of more cores than a float holds
    digits = "9" * 400
    conf = tmp_path / "digits.json"
    conf.write_text('{"seeds": 1, "demands": 1, "switch_power": %s}' % digits)
    cores = tmp_path / "cores.txt"
    cores.write_text("node 0 %s\nnode 1 16\nlink 0 1 100 1\n" % digits)
    for argv, message in (
            (["--seeds", digits, "--demands", "1"], "bad option value: "),
            (["--config", str(conf)], "bad option value: "),
            (["--algo", "lp-export", "--topology", str(cores), "--out",
              str(tmp_path / "lp"), "--demands", "1", "--seeds", "1"],
             "error: line 1: cpu capacity")):
        assert cli.main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
    # a CSV path in a missing directory fails before any cell runs
    missing = tmp_path / "nope" / "out.csv"
    assert cli.main(["run", "--demands", "1", "--seeds", "1",
                     "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert "error: output directory" in captured.err
    assert captured.out == "" and not missing.parent.exists()
    # so does a CSV path that names a directory
    assert cli.main(["run", "--algo", "bc", "--demands", "2", "--seeds", "1",
                     "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: output path %s is a directory\n" % tmp_path
    assert captured.out == ""
    # a bad ladder or weight step fails before any cell runs, bc cells
    # included
    for flag, value, message in (("--betas", "nan", "finite"),
                                 ("--delta-w", "5", "weight step"),
                                 ("--delta-w", "0", "weight step")):
        for algo in ("bc", "bc,bi-lbi"):
            assert cli.main(["run", "--algo", algo, flag, value,
                             "--demands", "2", "--seeds", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert message in captured.err
            assert captured.out == ""
    # --out cannot be both the LP directory and the CSV path
    lpout = tmp_path / "lpout"
    assert cli.main(["run", "--algo", "bi-lbi,lp-export", "--demands", "2",
                     "--seeds", "1", "--out", str(lpout)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "lp-export" in captured.err
    assert captured.out == "" and not lpout.exists()


def test_cli_refuses_counts_above_the_limit(tmp_path, capsys, monkeypatch):
    # a count this large would grow a demand list until memory runs out,
    # so a run that gets as far as generating demands fails at once
    def started(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(vnfplace.harness, "generate_demands", started)
    huge = "99999999999999999999"
    argvs = []
    for key, other in (("demands", "seeds"), ("seeds", "demands")):
        for flag, number in ((huge, 1e308), (str(MAX_COUNT + 1),
                                             MAX_COUNT + 1)):
            conf = tmp_path / ("%s_%d.json" % (key, len(argvs)))
            conf.write_text(json.dumps({key: number, other: 1}))
            argvs += [["--" + key, flag, "--" + other, "1"],
                      ["--config", str(conf)]]
    for argv in argvs:
        assert cli.main(["run", "--algo", "bc,lp-export", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: demands and seeds are limited to "
                                "%d\n" % MAX_COUNT)
        assert captured.out == ""
    # the limit itself passes validation and starts the run
    config = _small_config(demand_counts=[MAX_COUNT], seeds=MAX_COUNT)
    with pytest.raises(AssertionError, match="the run started"):
        run_experiment(config)


def test_cli_refuses_pm_peak_below_idle(capsys):
    assert cli.main(["run", "--algo", "bi-lbi,bc", "--demands", "20",
                     "--seeds", "2", "--pm-idle-power", "200",
                     "--pm-max-power", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad option value: ")
    assert "below pm_idle_w" in captured.err
    assert captured.out == ""


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "exp.json"
    conf.write_text(json.dumps({"algo": "bc", "demands": "4", "seeds": 1}))
    assert cli.main(["run", "--config", str(conf)]) == 0
    assert "bc" in capsys.readouterr().out
    # explicit flags beat the config file
    assert cli.main(["run", "--config", str(conf),
                     "--algo", "bi-lbi"]) == 0
    out = capsys.readouterr().out
    assert "bi-lbi" in out
    # every flag of the run command may come from the file
    conf.write_text(json.dumps({"topology": "nobel-germany", "algo": "bi-hbi",
                                "demands": [3], "seeds": 1, "betas": [800],
                                "delta_w": 0.5, "out": None,
                                "switch_power": 100, "port_power": 2,
                                "pm_idle_power": 100, "pm_max_power": 200}))
    assert cli.main(["run", "--config", str(conf)]) == 0
    assert "bi-hbi" in capsys.readouterr().out

    # argparse's types do not apply to a file's values: a value of the
    # wrong JSON type is refused, not truncated or left to raise
    for bad in ({"topology": None}, {"topology": []}, {"out": 5},
                {"seeds": 1.7}, {"seeds": True}, {"demands": [2.9]},
                {"betas": True}, {"delta_w": True}, {"switch_power": True}):
        conf.write_text(json.dumps(dict({"algo": "bc", "demands": "2",
                                         "seeds": 1}, **bad)))
        assert cli.main(["run", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad option value: ")
        assert captured.out == ""

    conf.write_text(json.dumps({"algo": "bc", "surprise": 1}))
    assert cli.main(["run", "--config", str(conf)]) == 2
    assert "unknown config keys: surprise" in capsys.readouterr().err

    conf.write_text(json.dumps(["algo", "bc"]))
    assert cli.main(["run", "--config", str(conf)]) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err

    conf.write_text("{not json")
    assert cli.main(["run", "--config", str(conf)]) == 2
    assert "bad config file" in capsys.readouterr().err

    assert cli.main(["run", "--config", str(tmp_path / "ghost.json")]) == 2
    capsys.readouterr()


def test_cli_maps_harness_error_to_one(monkeypatch, capsys):
    def explode(config):
        raise HarnessError("synthetic")

    monkeypatch.setattr(cli, "run_experiment", explode)
    assert cli.main(["run", "--seeds", "1"]) == 1
    assert "run failed: synthetic" in capsys.readouterr().err


def test_cli_maps_a_csv_write_failure_to_two(monkeypatch, tmp_path, capsys):
    def refuse(report, path):
        raise PermissionError("synthetic: %s" % path)

    monkeypatch.setattr(cli, "emit_csv", refuse)
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--algo", "bc", "--demands", "2", "--seeds", "1",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: synthetic: %s\n" % out
    assert "wrote" not in captured.out


def test_python_m_vnfplace_runs_the_cli():
    src = os.path.dirname(os.path.dirname(vnfplace.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "vnfplace", "run", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = run("--algo", "bc", "--demands", "2", "--seeds", "1")
    assert done.returncode == 0
    assert done.stdout.split()[:3] == ["algorithm", "demands", "seeds"]
    done = run("--seeds", "0")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stdout == ""


def test_cli_power_flags_reach_the_model(tmp_path, capsys):
    out = tmp_path / "a.csv"
    rc = cli.main(["run", "--algo", "bi-lbi", "--demands", "5", "--seeds", "1",
                   "--switch-power", "260", "--out", str(out)])
    assert rc == 0
    doubled = out.read_text().splitlines()[1].split(",")
    rc = cli.main(["run", "--algo", "bi-lbi", "--demands", "5", "--seeds", "1",
                   "--out", str(tmp_path / "b.csv")])
    assert rc == 0
    base = (tmp_path / "b.csv").read_text().splitlines()[1].split(",")
    capsys.readouterr()
    # same placements, each lit switch now costs 130 W more
    switches = (float(doubled[5]) - float(base[5])) / 130.0
    assert switches == pytest.approx(round(switches))
    assert switches > 0


_FUZZ_TOPOLOGY = ["node 0 16", "node 1 16", "node 2 8", "link 0 1 1000 200",
                  "link 1 2 500 0.5ms", "link 0 2 1000 3km"]
# "\udcff" encodes, by surrogateescape, to the byte 0xff: not UTF-8 text
_FUZZ_TOKENS = ["0", "-1", "1e308", "1e-320", "inf", "nan", "9" * 400,
                "\u0661\u0662", "5ms", "5km", "-5ms", "1e308ms", "\udcff"]
# the fields whose fault is their line's alone: an id or an endpoint can
# clash with another line or leave the ids sparse
_LOCAL_FIELDS = {"node": {0, 2}, "link": {0, 3, 4}}
_FUZZ_FLAGS = ["--seeds", "--demands", "--betas", "--delta-w",
               "--switch-power", "--port-power", "--pm-idle-power",
               "--pm-max-power"]
_FUZZ_NUMBERS = ["0", "-1", "1", "2", "2.5", "1e307", "1e308", "1e-320",
                 "inf", "-inf", "nan", "9" * 400, "abc", ""]
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.sampled_from([-1, 0, 3, 10 ** 400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
# demand counts and seeds stay small: MAX_COUNT of each is a long run,
# not malformed input
_FUZZ_COUNT = st.one_of(
    st.integers(-1, 2), st.lists(st.integers(-1, 5), max_size=3),
    st.sampled_from([2.5, 1e308, math.inf, math.nan, True, None, "1,2", "x",
                     {}, "9" * 400, 10 ** 400]))


def _fuzz_argv(data, folder):
    """One drawn command line over files written to folder, and the line
    of the topology file that alone is at fault if the run is refused."""
    algo = ",".join(data.draw(st.lists(st.sampled_from(ALGORITHMS),
                                       min_size=1, max_size=2, unique=True)))
    topology = os.path.join(folder, "topology.txt")
    lines = list(_FUZZ_TOPOLOGY)
    kind = data.draw(st.sampled_from(["topology", "config", "flags"]))
    argv = ["run", "--algo", algo, "--topology", topology]
    at_fault = None
    if kind == "topology":
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        spots = data.draw(st.lists(st.integers(0, len(fields) - 1),
                                   min_size=1, max_size=3, unique=True))
        for spot in spots:
            fields[spot] = data.draw(st.sampled_from(_FUZZ_TOKENS))
        if set(spots) <= _LOCAL_FIELDS[lines[i].split()[0]]:
            at_fault = i + 1
        lines[i] = " ".join(fields)
        argv += ["--demands", "2", "--seeds", "1"]
    elif kind == "config":
        keys = ["topology", "algo", "betas", "delta_w", "out", "switch_power",
                "port_power", "pm_idle_power", "pm_max_power", "bogus"]
        config = data.draw(st.dictionaries(st.sampled_from(keys), _FUZZ_JSON,
                                           max_size=3))
        if "out" in config:     # a drawn string could name a path anywhere
            config["out"] = data.draw(st.sampled_from(
                [None, "out.csv", "missing/out.csv", ".", "lp", 5, []]))
        config["demands"] = data.draw(_FUZZ_COUNT)
        config["seeds"] = data.draw(_FUZZ_COUNT)
        path = os.path.join(folder, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["run", "--config", path]
    else:
        argv += ["--demands", "2", "--seeds", "1"]
        for flag in data.draw(st.lists(st.sampled_from(_FUZZ_FLAGS),
                                       min_size=1, max_size=3, unique=True)):
            values = data.draw(st.lists(st.sampled_from(_FUZZ_NUMBERS),
                                        min_size=1, max_size=2))
            argv.append("%s=%s" % (flag, ",".join(values)))
    with open(topology, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    return argv, at_fault


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_never_ends_malformed_input_in_a_traceback(data):
    # mutated topology lines, config files of any JSON values, and extreme
    # values of each numeric flag: each run exits 0, or 2 with a message
    # that names the faulty line of a topology file
    with tempfile.TemporaryDirectory() as folder:
        argv, at_fault = _fuzz_argv(data, folder)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(folder)        # where lp-export writes without --out
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:       # argparse refusing a flag
                    rc = exc.code
        finally:
            os.chdir(cwd)
    stderr = err.getvalue()
    assert rc in (0, 2), (argv, stderr)
    assert "Traceback" not in stderr
    if rc == 2:
        assert stderr.strip(), argv
        if at_fault is not None:
            assert "line %d" % at_fault in stderr, (argv, stderr)
