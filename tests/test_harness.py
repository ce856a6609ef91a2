"""Experiment driver and command line front end."""

import json
import os
import subprocess
import sys

import pytest

import vnfplace
from vnfplace import cli
from vnfplace.harness import (ALGORITHMS, CSV_HEADER, ExperimentConfig,
                              HarnessError, emit_csv, load_topology,
                              run_experiment)


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
    # the gate allows 1e-9 W between reported and recomputed power
    state = real(load_topology("nobel-germany"), [], [900.0]).state
    mod._gate(state, 1e-10)
    with pytest.raises(HarnessError, match="reported power"):
        mod._gate(state, 1e-7)


def test_import_loads_no_third_party_module():
    src = os.path.dirname(os.path.dirname(vnfplace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import vnfplace; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'vnfplace'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


# -- command line ---------------------------------------------------------


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
    assert cli.main(["run", "--demands", "abc", "--seeds", "1"]) == 2
    capsys.readouterr()
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
                           ("0.0004", "at least 1 kb/s"),
                           ("900.0004,900.0001,300", "descending in kb/s")):
        assert cli.main(["run", "--betas", betas, "--demands", "1",
                         "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
    # a CSV path in a missing directory fails before any cell runs
    missing = tmp_path / "nope" / "out.csv"
    assert cli.main(["run", "--demands", "1", "--seeds", "1",
                     "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert "error: output directory" in captured.err
    assert captured.out == "" and not missing.parent.exists()
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
