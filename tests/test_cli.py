import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from civitas import cli
from civitas import ctmdp as ctmdpmod
from civitas import fsm as fsmmod
from civitas import fuzzy as fuzzymod
from civitas import world as worldmod
from civitas.textfmt import parse_sections


# A zone task graph for the twin network whose first column no signal can serve.
ALTERNATING_CTG = Path(__file__).with_name("alternating.ctg")


def sim_args(data_dir, out, mode="fixed", horizon="120", seed="5"):
    return ["simulate",
            "--network", str(data_dir / "twin.network"),
            "--demand", str(data_dir / "twin.demand"),
            "--ctg", str(data_dir / "twin.ctg"),
            "--horizon", horizon, "--seed", seed,
            "--out", str(out), "--mode", mode]


class TestExitCodes:
    def test_missing_network_file_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--network", "/nope/missing.network",
                       "--demand", "/nope/missing.demand",
                       "--horizon", "10", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_usage_is_exit_one(self, tmp_path):
        assert cli.main(["simulate", "--horizon", "10"]) == 1

    def test_malformed_network_is_exit_one(self, tmp_path):
        bad = tmp_path / "bad.network"
        bad.write_text("[segment s]\nfrom = a\n")
        rc = cli.main(["simulate", "--network", str(bad),
                       "--demand", str(bad), "--horizon", "10",
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_success_is_exit_zero(self, tmp_path, data_dir):
        assert cli.main(sim_args(data_dir, tmp_path / "run")) == 0

    def test_zero_dt_is_config_error(self, tmp_path, data_dir, capsys):
        rc = cli.main(sim_args(data_dir, tmp_path / "run") + ["--dt", "0"])
        assert rc == 1
        assert "--dt" in capsys.readouterr().err

    def test_negative_dt_is_config_error(self, tmp_path, data_dir, capsys):
        rc = cli.main(sim_args(data_dir, tmp_path / "run") + ["--dt", "-1"])
        assert rc == 1
        assert "--dt" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.csv").exists()

    def test_tick_count_overflow_names_the_flags(self, tmp_path, data_dir, capsys):
        rc = cli.main(sim_args(data_dir, tmp_path / "run", horizon="1e300")
                      + ["--dt", "1e-300"])
        assert rc == 1
        assert ("--horizon 1e+300 / --dt 1e-300 is not a finite number of ticks"
                in capsys.readouterr().err)

    def test_dt_beyond_clock_range_names_the_flag(self, tmp_path, data_dir, capsys):
        rc = cli.main(sim_args(data_dir, tmp_path / "run", horizon="1e300")
                      + ["--dt", "1e299"])
        assert rc == 1
        assert "--dt: dt 1e+299 overflows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dt", ["1e-11", "4e-11"])
    def test_dt_below_clock_resolution_is_config_error(self, tmp_path, data_dir,
                                                       capsys, dt):
        rc = cli.main(sim_args(data_dir, tmp_path / "run", horizon="1e-8")
                      + ["--dt", dt])
        assert rc == 1
        assert "--dt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_dt_longer_than_horizon_is_config_error(self, tmp_path, data_dir,
                                                    capsys):
        rc = cli.main(sim_args(data_dir, tmp_path / "run", horizon="0.04"))
        assert rc == 1
        assert "--dt" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["length", "speed"])
    def test_segment_missing_number_is_parse_error(self, tmp_path, key, capsys):
        values = {"from": "a", "to": "b", "length": "10", "speed": "5",
                  "entry": "true", "exit": "true"}
        del values[key]
        net = tmp_path / "bad.network"
        net.write_text("[intersection a]\n[intersection b]\n[segment s]\n"
                       + "".join(f"{k} = {v}\n" for k, v in values.items()))
        rc = cli.main(["simulate", "--network", str(net), "--demand", str(net),
                       "--horizon", "10", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[segment s]" in err and repr(key) in err

    def test_fuzzy_surface_one_point_grid_is_config_error(self, tmp_path,
                                                          capsys):
        rc = cli.main(["fuzzy-surface", "0.5,1,1.2", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert "n must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["1,0.5,1.2", "0.5,1,inf"])
    def test_fuzzy_surface_bad_params_is_config_error(self, tmp_path, params,
                                                      capsys):
        rc = cli.main(["fuzzy-surface", params, "5", "--out", str(tmp_path)])
        assert rc == 1
        assert "params" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, mode", [
        ("--seed", "-1", "fixed"), ("--target", "-5", "hierarchical"),
        ("--deadline", "-5", "hierarchical"), ("--deadline", "nan", "hierarchical")])
    def test_bad_flag_is_config_error(self, tmp_path, data_dir, capsys, flag, value,
                                      mode):
        out = tmp_path / "run"
        rc = cli.main(sim_args(data_dir, out, mode=mode) + [flag, value])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_directory_input_is_config_error(self, tmp_path, data_dir, capsys):
        args = sim_args(data_dir, tmp_path / "run")
        args[args.index("--demand") + 1] = str(tmp_path)
        assert cli.main(args) == 1
        assert f"demand {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_non_utf8_input_is_config_error(self, tmp_path, data_dir, capsys):
        ctg = tmp_path / "latin1.ctg"
        ctg.write_bytes((data_dir / "twin.ctg").read_bytes() + "# caf\xe9\n".encode("latin-1"))
        assert cli.main(["schedule", "--ctg", str(ctg), "--out", str(tmp_path / "o")]) == 1
        assert f"ctg {ctg}: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("windows", ["0:x:0.1", "10:0:0.1", "0:10:0.1, 20:30:0.1",
                                         "0:nan:0.1", "0:600:nan", "0:600:inf"])
    def test_malformed_demand_window_is_parse_error(self, tmp_path, data_dir,
                                                    windows, capsys):
        demand = tmp_path / "bad.demand"
        demand.write_text(f"[arrivals s1]\nwindows = {windows}\n")
        args = sim_args(data_dir, tmp_path / "run")
        args[args.index("--demand") + 1] = str(demand)
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "[arrivals s1]" in err and "windows" in err


# One value made malformed in a shipped input file: (command, file, the
# first occurrence of `old` -> `new`, the section and key the message names).
# `simulate` runs in hierarchical mode, so its task graph is read too.
MALFORMED_VALUES = [
    ("classify", "city.registry", "goals = network_throughput:maximize",
     "goals = q:maxim", "[module tcu] goals"),
    ("classify", "city.registry", "role = goal-setting", "role = goalsetting",
     "[link l1] role"),
    ("classify", "city.registry", "capabilities = throughput:30",
     "capabilities = throughput:x", "[module itu_a] capabilities"),
    ("simulate", "twin.network", "modes = fast:0.01:5", "modes = fast:x:5",
     "[signal A] modes"),
    ("simulate", "twin.network", "modes = fast:0.01:5", "modes = fast:0.01:-5",
     "[signal A] modes"),
    ("simulate", "twin.network", "anchor = Green", "anchor = Purple",
     "[signal A] anchor"),
    # a zone's signal with no safe mode to fall back to
    ("simulate", "twin.network",
     "modes = fast:0.01:5, normal:0.1:1, safe:1.0:0.2\nsafe_mode = safe\n", "",
     "[signal A] modes: ITU A of zone Z has no safe mode"),
    ("simulate", "twin.network",
     "[signal A]\ngreen = 30\nyellow = 5\nred = 25\noffset = 0\nanchor = Green\n"
     "modes = fast:0.01:5, normal:0.1:1, safe:1.0:0.2\nsafe_mode = safe\n", "",
     "[intersection A]: ITU A of zone Z has no safe mode"),
    ("simulate", "twin.network", "green = 30", "green = -5", "[signal A] green"),
    # splits below fsm's minimums: 1 s green and red, 3 s yellow
    ("simulate", "twin.network", "yellow = 5", "yellow = 1e-300", "[signal A] yellow"),
    ("simulate", "twin.network", "red = 25", "red = 0.5", "[signal A] red"),
    ("simulate", "twin.network", "offset = 0\n", "offset = 500\n",
     "[signal A] offset"),
    ("schedule", "twin.ctg", "thresholds = 6", "thresholds = x",
     "[site c1] thresholds"),
    ("schedule", "twin.ctg", "labels = L, H", "labels = L", "[site c1] labels"),
    ("schedule", "twin.ctg", "thresholds = 6", "thresholds = 6, 7",
     "[site c1] thresholds"),
    ("schedule", "twin.ctg", "direction = 1", "direction = 3",
     "[task T2] direction"),
    ("simulate", "twin.network", "length = 120", "length = -5",
     "[segment s1] length"),
    ("simulate", "twin.network", "length = 120", "length = nan",
     "[segment s1] length"),
    ("simulate", "twin.network", "speed = 10", "speed = 0", "[segment s1] speed"),
    # 1e308 m at 1e-10 m/s: a travel time of inf, which no vehicle would end
    ("simulate", "twin.network", "length = 120\nspeed = 10",
     "length = 1e308\nspeed = 1e-10", "[segment s1] length"),
    ("simulate", "twin.network", "capacity = 30", "capacity = 0",
     "[segment s1] capacity"),
    ("schedule", "twin.ctg", "thresholds = 6", "thresholds = nan",
     "[site c1] thresholds"),
    ("classify", "city.registry", "level = 4\n", "",
     "[module tcu]: missing key 'level'"),
    ("classify", "city.registry", "role = goal-setting", "role = capability-report",
     "[link l1]: capability report must step one level up"),
    ("classify", "city.registry", "src = tcu.area_goals", "src = nobody.area_goals",
     "[link l1]: unknown module 'nobody'"),
    # task graph values: finite and >= 0, t_ex > 0 off dummy tasks, every
    # label a task runs under covered, guards naming a label of their site
    ("schedule", "twin.ctg", "t_ex = 10\n", "t_ex = nan\n", "[task dT12] t_ex"),
    ("schedule", "twin.ctg", "t_ex = 10\n", "t_ex = -10\n", "[task dT12] t_ex"),
    ("schedule", "twin.ctg", "n = L:3, H:12", "n = L:3, H:nan", "[task T1] n"),
    ("schedule", "twin.ctg", "n = L:3, H:12", "n = L:3, H:-4", "[task T1] n"),
    ("schedule", "twin.ctg", "n = L:3, H:12", "n = L:3, H:1e16", "[task T1] n"),
    ("schedule", "twin.ctg", "t_ex = H:22", "t_ex = H:inf", "[task T2p] t_ex"),
    ("schedule", "twin.ctg", "t_ex = L:6, H:10", "t_ex = L:0, H:10", "[task T1] t_ex"),
    ("schedule", "twin.ctg", "t_ex = L:6, H:10", "t_ex = L:6", "[task T1] t_ex"),
    ("schedule", "twin.ctg", "clearance = 5", "clearance = -5", "[ctg Z] clearance"),
    ("schedule", "twin.ctg", "clearance = 5", "clearance = nan", "[ctg Z] clearance"),
    ("schedule", "twin.ctg", "guard = c1:L", "guard = c1", "[task T2] guard"),
    ("schedule", "twin.ctg", "guard = c1:L", "guard = c1:Q", "[task T2] guard"),
    # non-finite numbers elsewhere
    ("simulate", "twin.network", "modes = fast:0.01:5", "modes = fast:nan:5",
     "[signal A] modes"),
    ("simulate", "twin.network", "modes = fast:0.01:5", "modes = fast:-1:5",
     "[signal A] modes"),
    # mode ids are distinct: a second safe or a second fast
    ("simulate", "twin.network", "normal:0.1:1", "safe:0.1:1",
     "[signal A] modes: controller A: mode id 'safe' repeated"),
    ("simulate", "twin.network", "normal:0.1:1", "fast:0.1:1",
     "[signal A] modes: controller A: mode id 'fast' repeated"),
    ("classify", "city.registry", "capabilities = throughput:30",
     "capabilities = throughput:nan", "[module itu_a] capabilities"),
    # a dead end that is no exit, and arrivals on a segment that is no entry
    ("simulate", "twin.network", "exit = true", "exit = false",
     "[segment s4]: not an exit, yet no turn leaves it"),
    ("simulate", "twin.network", "entry = true", "entry = false",
     "[arrivals s1]: [segment s1] is not an entry segment"),
    ("schedule", "twin.ctg", "labels = L, H", "labels = L, L", "[site c1] labels"),
    # a turn onto a segment elsewhere, and a precedence cycle
    ("simulate", "twin.network", "turns = s2, s4", "turns = s2, s7",
     "[segment s1] turns: [segment s7] does not start at A"),
    ("schedule", "twin.ctg", "after = T1\n", "after = T1, T5\n",
     "graph has a cycle; these cannot be ordered: [task T2], [task T5]"),
    # arrivals before the clock starts
    ("simulate", "twin.demand", "0:600:0.08", "-5:600:0.08", "[arrivals s1] windows"),
    # the zone topology: the task graph names a network zone, whose
    # segments hold its sites and whose entered signals are its tasks' ITUs
    ("simulate", "twin.ctg", "[ctg Z]", "[ctg Q]", "[ctg Q]: the network has no [zone Q]"),
    ("simulate", "twin.network", "members = s1, s2", "members = s2",
     "[site c1] segment: 's1' is not a segment of zone Z"),
    ("simulate", "twin.ctg", "segment = s1", "segment = s99",
     "[site c1] segment: 's99' is not a segment of zone Z"),
    ("simulate", "twin.ctg", "itu = B", "itu = Q",
     "[task T7] itu: 'Q' is not an ITU of zone Z (A, B)"),
]


@pytest.mark.parametrize("command, name, old, new, where", MALFORMED_VALUES)
def test_malformed_value_is_exit_one(tmp_path, data_dir, capsys, command, name,
                                     old, new, where):
    text = (data_dir / name).read_text()
    assert old in text
    bad = tmp_path / name
    bad.write_text(text.replace(old, new, 1))
    out = str(tmp_path / "o")
    args = {"classify": ["classify", "--registry", str(bad), "--out", out],
            "schedule": ["schedule", "--ctg", str(bad), "--out", out],
            "simulate": sim_args(data_dir, out, mode="hierarchical")}[command]
    if command == "simulate":
        flag = "--" + name.rpartition(".")[2]
        args[args.index(flag) + 1] = str(bad)
    assert cli.main(args) == 1
    assert where in capsys.readouterr().err


# Lines outside the line grammar, each in a shipped file: (command, file,
# the first occurrence of `old` -> `new`, the number of the line at fault,
# the message).  configparser read the first three; it refused the repeated
# key too.
REFUSED_LINES = [
    ("schedule", "twin.ctg", "[ctg Z]", "[DEFAULT]\nclearance = 5\n[ctg Z]",
     5, "unknown section kind 'DEFAULT' in ctg file"),
    ("simulate", "twin.network", "turns = s2, s4", "turns = s2,\n    s4",
     28, "[segment s1] indented line 's4'"),
    ("simulate", "twin.network", "[segment s1]", "[segment s1] junk",
     19, "text after ']' of [segment s1]: 'junk'"),
    ("schedule", "twin.ctg", "labels = L, H", "labels = L, H\nlabels = L, H",
     12, "[site c1] labels: repeated key"),
]


@pytest.mark.parametrize("command, name, old, new, number, message", REFUSED_LINES)
def test_line_outside_the_grammar_names_file_and_line(tmp_path, data_dir, capsys, command,
                                                      name, old, new, number, message):
    bad = tmp_path / name
    bad.write_text((data_dir / name).read_text().replace(old, new, 1))
    out = str(tmp_path / "o")
    if command == "schedule":
        args = ["schedule", "--ctg", str(bad), "--out", out]
    else:
        args = sim_args(data_dir, out)
        args[args.index("--network") + 1] = str(bad)
    assert cli.main(args) == 1
    assert f"{bad}: line {number}: {message}" in capsys.readouterr().err


def test_vehicle_count_beyond_exact_doubles_is_exit_one(tmp_path, data_dir, capsys):
    # n = 1e308 once overflowed the area LP into a nan certificate that
    # passed, and the run exited 0 with capability 1e+308.
    bad = tmp_path / "twin.ctg"
    bad.write_text((data_dir / "twin.ctg").read_text().replace(
        "n = L:3, H:12", "n = L:3, H:1e308", 1))
    args = sim_args(data_dir, tmp_path / "o", mode="hierarchical", horizon="600",
                    seed="3")
    args[args.index("--ctg") + 1] = str(bad)
    assert cli.main(args) == 1
    assert "[task T1] n" in capsys.readouterr().err


class TestSimulate:
    def test_artifacts_written(self, tmp_path, data_dir):
        out = tmp_path / "run"
        assert cli.main(sim_args(data_dir, out)) == 0
        assert (out / "events.log").exists()
        assert (out / "summary.csv").exists()
        assert (out / "reports.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, data_dir):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(sim_args(data_dir, out1, mode="hierarchical")) == 0
        assert cli.main(sim_args(data_dir, out2, mode="hierarchical")) == 0
        for name in ("events.log", "summary.csv", "reports.csv",
                     "schedule_table.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path, data_dir):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(sim_args(data_dir, out1, seed="1"))
        cli.main(sim_args(data_dir, out2, seed="2"))
        assert (out1 / "events.log").read_bytes() != (out2 / "events.log").read_bytes()

    def test_hierarchical_mode_requires_ctg(self, tmp_path, data_dir):
        rc = cli.main(["simulate",
                       "--network", str(data_dir / "twin.network"),
                       "--demand", str(data_dir / "twin.demand"),
                       "--horizon", "60", "--out", str(tmp_path / "x"),
                       "--mode", "hierarchical"])
        assert rc == 1

    def test_golden_event_log_regression(self, tmp_path, data_dir):
        # frozen after the first verified run of the shipped case study
        import hashlib
        out = tmp_path / "golden"
        rc = cli.main(sim_args(data_dir, out, horizon="300", seed="1234"))
        assert rc == 0
        digest = hashlib.sha256((out / "events.log").read_bytes()).hexdigest()
        assert digest == ("60bf0506f0016b0712d4165c59a7192b"
                          "6b41dc8ae944ad96446092a345146d7b")

    def test_hierarchical_run_reaches_the_zone_search(self, tmp_path, data_dir):
        # The first column of alternating.ctg needs three alternating runs
        # at A: the first reconcile reports it and the zone moves on.
        out = tmp_path / "run"
        args = sim_args(data_dir, out, mode="hierarchical", horizon="300", seed="1")
        args[args.index("--ctg") + 1] = str(ALTERNATING_CTG)
        assert cli.main(args) == 0
        with open(out / "reports.csv", newline="") as fh:
            assert "2" in {row["passes"] for row in csv.DictReader(fh)}
        lines = (out / "events.log").read_text().splitlines()
        assert any(line.startswith("violation\t") for line in lines)

    def test_artifacts_are_utf8_whatever_the_locale(self, tmp_path, data_dir):
        # Segment s1 renamed s1é: events.log and schedule_table.csv name it.
        # Under the C locale, with neither coercion nor UTF-8 mode, the
        # run writes the bytes an in-process run writes.
        for name in ("twin.network", "twin.demand", "twin.ctg"):
            text = re.sub(r"\bs1\b", "s1é", (data_dir / name).read_text(encoding="utf-8"))
            (tmp_path / name).write_text(text, encoding="utf-8")
        args = sim_args(tmp_path, tmp_path / "here", mode="hierarchical", horizon="60")
        assert cli.main(args) == 0
        args[args.index("--out") + 1] = str(tmp_path / "c")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "civitas.cli", *args], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("events.log", "schedule_table.csv"):
            raw = (tmp_path / "c" / name).read_bytes()
            assert "s1é" in raw.decode("utf-8"), name
        names = sorted(p.name for p in (tmp_path / "here").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
        for name in names:
            assert ((tmp_path / "c" / name).read_bytes()
                    == (tmp_path / "here" / name).read_bytes()), name

    def test_network_without_zones_is_one_implicit_zone(self, tmp_path, data_dir):
        # The twin's one zone holds every segment, and so both signals: the
        # run is the same without it.
        text = (data_dir / "twin.network").read_text()
        section = "[zone Z]\nmembers = s1, s2, s3, s4, s5, s6, s7, s8, s9\n"
        assert section in text
        bare = tmp_path / "bare.network"
        bare.write_text(text.replace(section, ""))
        for name, network in (("zoned", data_dir / "twin.network"), ("bare", bare)):
            args = sim_args(data_dir, tmp_path / name, mode="hierarchical",
                            horizon="1800", seed="3")
            args[args.index("--network") + 1] = str(network)
            assert cli.main(args) == 0
        names = sorted(p.name for p in (tmp_path / "zoned").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "bare").iterdir())
        assert {"events.log", "function_graph.csv"} <= set(names)
        for name in names:
            assert ((tmp_path / "zoned" / name).read_bytes()
                    == (tmp_path / "bare" / name).read_bytes()), name

    def test_unnamed_ctg_is_zone_z(self, tmp_path, data_dir, monkeypatch):
        # The shift log and the CTMDP must name an unnamed [ctg]'s states
        # alike, or every observed shift is ignored for the uniform prior.
        priors = []
        build = ctmdpmod.from_schedule_tables

        def spy(*args, **kwargs):
            model = build(*args, **kwargs)
            priors.append(model.prior_pairs)
            return model

        monkeypatch.setattr(ctmdpmod, "from_schedule_tables", spy)
        unnamed = tmp_path / "unnamed.ctg"
        unnamed.write_text((data_dir / "twin.ctg").read_text().replace("[ctg Z]", "[ctg]"))
        runs = {}
        for name, ctg in (("named", data_dir / "twin.ctg"), ("unnamed", unnamed)):
            args = sim_args(data_dir, tmp_path / name, mode="hierarchical",
                            horizon="600", seed="3")
            args[args.index("--ctg") + 1] = str(ctg)
            priors.clear()
            assert cli.main(args) == 0
            runs[name] = (list(priors), {f.name: f.read_bytes()
                                         for f in (tmp_path / name).iterdir()})
        assert runs["unnamed"] == runs["named"]
        assert [len(p) for p in runs["named"][0]] == [6, 3]

    def test_golden_hierarchical_artifacts(self, tmp_path, data_dir):
        # 1800 s = 30 epochs, so the area CTMDP is rebuilt and solved 6 times
        import hashlib
        out = tmp_path / "golden_hier"
        rc = cli.main(sim_args(data_dir, out, mode="hierarchical",
                               horizon="1800", seed="1234"))
        assert rc == 0
        want = {
            "events.log": "923ad38c22a0f318b27c8b7fe58b1271"
                          "29e0d06c34fc3d1cb0f26df38ed7766f",
            "summary.csv": "f4fc7e992a1d7b677eceba269bcdd6b9"
                           "5851dc2812bd4e8c061986b55b202989",
            "reports.csv": "cd739e41aca8a0e97dded696f7b8472c"
                           "8808010d20da66be424705e1b1b26684",
            "schedule_table.csv": "6d2aeb026f67699a8d61729197f3b282"
                                  "137af87391d1695f5c2c01732c0647d8",
            "goal_allocation.csv": "d644848725dcc23ad44f4847579d1e10"
                                   "33120dacec90c03e589d818a2bc997d3",
            "function_graph.csv": "573ed3bc51987b04c3ae27a47dc8e4f4"
                                  "2c04f587ded1820c8a02ff231bf0c1fc",
        }
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want

    def test_golden_swapped_signal_order(self, tmp_path, data_dir):
        # [signal B] declared before [signal A], the zone over a 20 s
        # deadline: every reconcile stalls, events.log lists the safe_mode
        # lines in declaration order (B, then A) and reports.csv lists A;B
        import hashlib
        text = (data_dir / "twin.network").read_text()
        a, b = text.index("[signal A]"), text.index("[signal B]")
        swapped = tmp_path / "swapped.network"
        swapped.write_text(text[:a] + text[b:] + "\n" + text[a:b])
        out = tmp_path / "swapped"
        args = sim_args(data_dir, out, mode="hierarchical", horizon="600",
                        seed="1") + ["--deadline", "20"]
        args[args.index("--network") + 1] = str(swapped)
        assert cli.main(args) == 0
        safe = [line.split("\t")[2] for line in (out / "events.log").read_text().splitlines()
                if line.startswith("safe_mode\t")]
        assert safe[:2] == ["B violation=reconcile stalled at 0.0",
                            "A violation=reconcile stalled at 0.0"]
        want = {
            "events.log": "7f4959a3f76b7a95b6ba50aa8c7380e3"
                          "088084d170e72ac97077b9212416b3c6",
            "reports.csv": "f06d235b4791a76a6e8abcaa1ee7d5bb"
                           "128aaa7d327c4a5250948e54d23c9ab0",
        }
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want

    # Recorded before the tick clock became integer units, at dts other than
    # the benchmark's 0.1: every dt on the 1e-10 grid keeps its artifacts.
    @pytest.mark.parametrize("mode, dt, want", [
        ("fixed", "0.05", {
            "events.log": "d9d3b6b9f22227ace600de7a622ae712"
                          "fbb89cac33f292f739e9839ff46393f0",
            "reports.csv": "b5adbff28d26bf8c09df1d1d2aef6fe9"
                           "c89e85f3998b410967bbba34739993f0",
            "summary.csv": "3bd2228c34c356e2b44b056ef8287eb3"
                           "c95f0f4680cfe4aed612c1924e0d3892",
        }),
        ("fixed", "0.25", {
            "events.log": "7bb6260c65ef9234fe562c45a2c66a76"
                          "a0aeac0904dbec36a73a13fc458b0481",
            "reports.csv": "b5adbff28d26bf8c09df1d1d2aef6fe9"
                           "c89e85f3998b410967bbba34739993f0",
            "summary.csv": "d7e2f84916d3bade0698845a10659c7e"
                           "d974aecb5111e31a0e0831027b5cffeb",
        }),
        ("fixed", "0.7", {
            "events.log": "26f3183035a774db4d000fd29483a4a7"
                          "44fdf5a0012c34583a0e7ec9bc2c3da2",
            "reports.csv": "b5adbff28d26bf8c09df1d1d2aef6fe9"
                           "c89e85f3998b410967bbba34739993f0",
            "summary.csv": "e3ded0d1cef14066592dd3c05449b60c"
                           "1b7488b760f8c218ed78aea793acd079",
        }),
        ("hierarchical", "0.05", {
            "events.log": "d69cb77733f5c64d3bc456744aa27594"
                          "84b0318e1c308439bf0d0dff427eb20b",
            "function_graph.csv": "ec1397013041e1667cae14651aac2313"
                                  "086346db4f6d9006d512c2be5b9e2d81",
            "goal_allocation.csv": "d644848725dcc23ad44f4847579d1e10"
                                   "33120dacec90c03e589d818a2bc997d3",
            "reports.csv": "cd739e41aca8a0e97dded696f7b8472c"
                           "8808010d20da66be424705e1b1b26684",
            "schedule_table.csv": "6d2aeb026f67699a8d61729197f3b282"
                                  "137af87391d1695f5c2c01732c0647d8",
            "summary.csv": "8a45c17829abf04ca1d14e807bea7f7d"
                           "243250d0b68fa2ce7f4b35a00e2529aa",
        }),
        ("hierarchical", "0.25", {
            "events.log": "179f4cf5cd9eee89ad46c50cc845e0a5"
                          "9d10f532199321233804a306e9d4d22a",
            "function_graph.csv": "a600f7aac5c95c68352401d47c757add"
                                  "39430332fab50a62521bb8212a947005",
            "goal_allocation.csv": "d644848725dcc23ad44f4847579d1e10"
                                   "33120dacec90c03e589d818a2bc997d3",
            "reports.csv": "cd739e41aca8a0e97dded696f7b8472c"
                           "8808010d20da66be424705e1b1b26684",
            "schedule_table.csv": "6d2aeb026f67699a8d61729197f3b282"
                                  "137af87391d1695f5c2c01732c0647d8",
            "summary.csv": "5dd5546cf3ff40a97c304300a4ffdbf4"
                           "457c9cc9dd6a58636e3a63b50ae7cc31",
        }),
        ("hierarchical", "0.7", {
            "events.log": "ce38f1c9f4a70c404fb45f8f6b0acc16"
                          "d1fb2c0f47d5ee5db9a69beab8880fa3",
            "function_graph.csv": "aefc2e602664f2f05e17718ba766226c"
                                  "2a31a9d7445632fa3a15c73669cf5b02",
            "goal_allocation.csv": "d644848725dcc23ad44f4847579d1e10"
                                   "33120dacec90c03e589d818a2bc997d3",
            "reports.csv": "8dc1397b925d7636571196a3818e2fbb"
                           "032b2a4077208f8d9ea3123c0b740134",
            "schedule_table.csv": "6d2aeb026f67699a8d61729197f3b282"
                                  "137af87391d1695f5c2c01732c0647d8",
            "summary.csv": "856502e70f9a0916a73f622cee4a1bf1"
                           "765148c2d3a3ef88aa2d29dada436720",
        }),
    ])
    def test_golden_artifacts_at_other_dts(self, tmp_path, data_dir, mode, dt, want):
        import hashlib
        out = tmp_path / "golden_dt"
        assert cli.main(sim_args(data_dir, out, mode=mode, horizon="1800", seed="1")
                        + ["--dt", dt]) == 0
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.iterdir()}
        assert got == want

    def test_registry_flag_is_unrecognized(self, tmp_path, data_dir, capsys):
        # interactions.csv comes only from `classify --registry`
        out = tmp_path / "withreg"
        rc = cli.main(sim_args(data_dir, out)
                      + ["--registry", str(data_dir / "city.registry")])
        assert rc == 1
        assert "unrecognized arguments: --registry" in capsys.readouterr().err
        assert not out.exists()


class TestSchedule:
    def test_case_study_table_has_eight_columns(self, tmp_path, data_dir):
        out = tmp_path / "sch"
        assert cli.main(["schedule", "--ctg", str(data_dir / "twin.ctg"),
                         "--out", str(out)]) == 0
        with open(out / "schedule_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["scenario"] for r in rows}) == 8


class TestFuzzySurface:
    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "fz"
        assert cli.main(["fuzzy-surface", "0.5,1,1.2", "121",
                         "--out", str(out)]) == 0
        lines = (out / "surface.csv").read_text().strip().splitlines()
        assert lines[0] == "i,d,u"
        assert len(lines) == 1 + 121 * 121

    def test_bad_params_rejected(self, tmp_path):
        assert cli.main(["fuzzy-surface", "1,2", "11",
                         "--out", str(tmp_path)]) == 1

    def test_unallocatable_grid_names_n(self, tmp_path, capsys):
        # 100000 x 100000 points exited 2 ("Unable to allocate 74.5 GiB");
        # the stub raises what numpy raised, so nothing is allocated
        error = MemoryError("Unable to allocate 74.5 GiB")
        with mock.patch.object(fuzzymod, "surface", side_effect=error) as surface:
            rc = cli.main(["fuzzy-surface", "0.5,1,1.2", "100000",
                           "--out", str(tmp_path)])
        assert rc == 1 and surface.call_args.kwargs["n"] == 100000
        assert ("fuzzy-surface n: 100000 x 100000 points do not fit in memory"
                " (Unable to allocate 74.5 GiB)" in capsys.readouterr().err)

    # Recorded from the sampled centroid before the closed form replaced it:
    # the benchmark's row and three rows whose spikes sit where the two
    # differ in the last bits.
    @pytest.mark.parametrize("params, n, digest", [
        ("0.5,1,1.2", 2, "1456d4437c89365d2084b1d61612b9b2bf712b010258fa835b834a4ffcbdda5b"),
        ("0.5,1,1.2", 7, "57bd12433880e502daaa8b82f990a1ad71967faa47181073fefd6b44203e44d6"),
        ("0.5,1,1.2", 121, "e046d43431786c275eccebe5a4a2646d9570a836f2663d708516685feb49eaba"),
        ("0.39,0.47,0.54", 2, "1bdf65972f7de4a741c8222e390d414d0cd36a541eb70d4f2b10735f63b94237"),
        ("0.39,0.47,0.54", 7, "6ea69a3a153bbe70da52d96897b747d7d8614224e98cef25fe5693ecf2758de5"),
        ("0.39,0.47,0.54", 121, "beeb1783cc583ee8f3cbc76c4d2f82aa914c179baf68c1fc31b06a81bef139ce"),
        ("1.34,1.58,1.71", 2, "90f63ba17d2e359a37100da4cbe2addc8f74f289f533817ec8093fd1d6498066"),
        ("1.34,1.58,1.71", 7, "c576f9a6f4dd69afb3fd784d38c490b5b16d2c5c59f8f9bdeac578a4a743264d"),
        ("1.34,1.58,1.71", 121, "c4b318c747e46fd1ad1cb03dd662948b366bd9ecb5558e1289e479262e437aa2"),
        ("0.75,1.25,2.73", 2, "1de2fa88f9f66b8e85453a99b06ba7d67356565684d8a1b80f3c7d6e6d8d1914"),
        ("0.75,1.25,2.73", 7, "ed912b9e00e3a2efb4b61fd4f29a8a5886433ed4595acda61ddb4aa06e67ba19"),
        ("0.75,1.25,2.73", 121, "c61e0d91ad8ff130b0d34e4651d63554109caebe5041be778c00754b1a5ec38e"),
    ])
    def test_golden_surface(self, tmp_path, params, n, digest):
        import hashlib
        assert cli.main(["fuzzy-surface", params, str(n), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "surface.csv").read_bytes()).hexdigest() == digest


class TestClassify:
    def test_interaction_report_written(self, tmp_path, data_dir):
        out = tmp_path / "cls"
        assert cli.main(["classify", "--registry", str(data_dir / "city.registry"),
                         "--out", str(out)]) == 0
        text = (out / "interactions.csv").read_text()
        for kind in ("Collaborative", "Competing", "Guiding", "Enabling"):
            assert kind in text


class TestCtmdpCommand:
    def test_solves_from_ctg_and_shift_log(self, tmp_path, data_dir):
        shifts = tmp_path / "shifts.csv"
        with open(shifts, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "action", "dwell", "next"])
            writer.writerow(["Z:(L,L,L)", "default", "120", "Z:(H,L,L)"])
            writer.writerow(["Z:(H,L,L)", "default", "60", "Z:(L,L,L)"])
        out = tmp_path / "mdp"
        rc = cli.main(["ctmdp", "--ctg", str(data_dir / "twin.ctg"),
                       "--shifts", str(shifts), "--out", str(out)])
        assert rc == 0
        sol = (out / "ctmdp_solution.csv").read_text().splitlines()
        assert sol[0] == "i,a,x,pi"
        assert len(sol) > 1

    def test_requires_model_or_ctg_and_shifts(self, tmp_path):
        assert cli.main(["ctmdp", "--out", str(tmp_path)]) == 1

    def run_shifts(self, tmp_path, data_dir, capsys, text):
        shifts = tmp_path / "shifts.csv"
        shifts.write_text(text)
        rc = cli.main(["ctmdp", "--ctg", str(data_dir / "twin.ctg"),
                       "--shifts", str(shifts), "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    def test_bad_dwell_is_exit_one(self, tmp_path, data_dir, capsys):
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  "state,action,dwell,next\n"
                                  '"Z:(L,L,L)",default,60,"Z:(H,L,L)"\n'
                                  '"Z:(H,L,L)",default,abc,"Z:(L,L,L)"\n')
        assert rc == 1
        assert "shifts.csv, line 3: bad dwell 'abc'" in err

    @pytest.mark.parametrize("dwell", ["-5", "nan", "inf"])
    def test_dwell_out_of_range_is_exit_one(self, tmp_path, data_dir, capsys, dwell):
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  "state,action,dwell,next\n"
                                  f'"Z:(L,L,L)",default,{dwell},"Z:(H,L,L)"\n')
        assert rc == 1
        assert f"line 2: bad dwell '{dwell}': dwell must be finite and >= 0" in err

    def test_missing_dwell_column_is_exit_one(self, tmp_path, data_dir, capsys):
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  'state,action,next\n"Z:(L,L,L)",default,"Z:(H,L,L)"\n')
        assert rc == 1
        assert "shifts.csv: missing column dwell" in err

    @pytest.mark.parametrize("column", ["state", "next"])
    def test_unknown_shift_state_is_exit_one(self, tmp_path, data_dir, capsys, column):
        row = {"state": '"Z:(L,L,L)"', "next": '"Z:(H,L,L)"', column: "ghost"}
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  "state,action,dwell,next\n"
                                  '"Z:(H,L,L)",default,60,"Z:(L,L,L)"\n'
                                  f"{row['state']},default,5,{row['next']}\n")
        assert rc == 1
        assert (f"shifts.csv, line 3: {column} 'ghost' is not a state of the task graph"
                in err)

    def test_empty_shift_action_is_exit_one(self, tmp_path, data_dir, capsys):
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  "state,action,dwell,next\n"
                                  '"Z:(L,L,L)",default,60,"Z:(H,L,L)"\n'
                                  '"Z:(H,L,L)",,60,"Z:(L,L,L)"\n')
        assert rc == 1
        assert "shifts.csv, line 3: empty action" in err

    def test_shift_without_next_state_is_accepted(self, tmp_path, data_dir, capsys):
        rc, err = self.run_shifts(tmp_path, data_dir, capsys,
                                  'state,action,dwell,next\n"Z:(L,L,L)",default,60,\n')
        assert rc == 0, err

    def run_model(self, tmp_path, capsys, rows):
        model_csv = tmp_path / "model.csv"
        model_csv.write_text("kind,i,j,a,k,value\n"
                             "rate,a,b,x,,1\n"
                             "rate,b,a,x,,1\n"
                             "reward,a,,x,0,1\n"
                             "reward,b,,x,0,2\n" + "".join(r + "\n" for r in rows))
        rc = cli.main(["ctmdp", "--model", str(model_csv),
                       "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_bound_is_exit_one(self, tmp_path, capsys, bound):
        rc, err = self.run_model(tmp_path, capsys,
                                 ["reward,a,,x,1,1", f"bound,,,,1,{bound}"])
        assert rc == 1
        assert f"model.csv: row 7: bound '{bound}' must be a finite number" in err

    @pytest.mark.parametrize("k", ["0", "2", "-1"])
    def test_bound_naming_no_criterion_is_exit_one(self, tmp_path, capsys, k):
        rc, err = self.run_model(tmp_path, capsys, ["reward,a,,x,1,1", f"bound,,,,{k},0.5"])
        assert rc == 1
        assert (f"model.csv: row 7: bound k {k} names no reward criterion beyond the"
                " objective (reward rows give k 0 to 1)" in err)

    def test_criterion_gap_is_exit_one(self, tmp_path, capsys):
        rc, err = self.run_model(tmp_path, capsys, ["reward,a,,x,3,1"])
        assert rc == 1
        assert "model.csv: row 6: reward k 3 skips criterion 1" in err

    @pytest.mark.parametrize("rows, where", [
        (["rate,a,b,x,,5"], "row 6: repeats row 2: a second rate for i=a, j=b, a=x"),
        (["reward,b,,x,0,3"], "row 6: repeats row 5: a second reward for i=b, a=x, k=0"),
        (["reward,a,,x,1,1", "bound,,,,1,0.9", "bound,,,,01,0.1"],
         "row 8: repeats row 7: a second bound for k=1"),
    ])
    def test_repeated_row_is_exit_one(self, tmp_path, capsys, rows, where):
        rc, err = self.run_model(tmp_path, capsys, rows)
        assert rc == 1
        assert f"model.csv: {where}" in err

    def test_bounded_model_solves(self, tmp_path, capsys):
        rc, err = self.run_model(tmp_path, capsys, ["reward,a,,x,1,1", "bound,,,,1,0.25"])
        assert rc == 0, err

    def test_bad_model_value_is_exit_one(self, tmp_path, capsys):
        q = np.zeros((2, 2, 1))
        q[0, 1, 0] = q[1, 0, 0] = 1.0
        m = ctmdpmod.make_ctmdp(("a", "b"), ("x",), q, np.ones((2, 1)))
        lines = ctmdpmod.model_to_csv(m).splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1] + ["x"])
        model_csv = tmp_path / "model.csv"
        model_csv.write_text("\n".join(lines) + "\n")
        rc = cli.main(["ctmdp", "--model", str(model_csv),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "model.csv: row 3: could not convert string to float: 'x'" in capsys.readouterr().err


    @pytest.mark.parametrize("rate", ["nan", "-1", "inf"])
    def test_bad_rate_is_exit_one(self, tmp_path, capsys, rate):
        model_csv = tmp_path / "model.csv"
        model_csv.write_text("kind,i,j,a,k,value\n"
                             "rate,a,b,x,,1\n"
                             f"rate,b,a,x,,{rate}\n"
                             "reward,a,,x,0,1\n"
                             "reward,b,,x,0,1\n")
        rc = cli.main(["ctmdp", "--model", str(model_csv),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert (f"model.csv: row 3: rate '{rate}' must be a finite number >= 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_model_without_rate_or_reward_rows_is_exit_one(self, tmp_path, capsys,
                                                           body):
        model_csv = tmp_path / "model.csv"
        model_csv.write_text("kind,i,j,a,k,value\n" + body)
        rc = cli.main(["ctmdp", "--model", str(model_csv),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"civitas: error: model {model_csv}: "), err


class TestMetricsCommand:
    JOB = """
[scalability demo]
p1 = 10
cost1 = 1
p2 = 20
cost2 = 4

[efficiency demo]
file = curves.csv

[predictability demo]
file = pairs.csv
limit = 1

[autonomy demo]
perf = 0, 1
area = 0, 1
time = 0, 1
constant = 2.5
shape = 4, 4, 4

[flexibility demo]
attrs = x:0:1
rule = x<=0.5
n = 20000
seed = 3
"""

    def test_job_file_evaluated(self, tmp_path):
        curves = tmp_path / "curves.csv"
        curves.write_text("p,adaptive,single\n0,0,0\n1,1,0\n")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("estimated,actual\n10,12\n")
        job = tmp_path / "job.metrics"
        job.write_text(self.JOB)
        out = tmp_path / "met"
        assert cli.main(["metrics", "--job", str(job), "--out", str(out)]) == 0
        with open(out / "metrics.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["metric", "value", "parameters"]
            rows = {r["metric"]: r for r in reader}
        assert float(rows["scalability"]["value"]) == 2.0
        assert float(rows["efficiency"]["value"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows["autonomy"]["value"]) == pytest.approx(2.5, abs=1e-9)
        assert float(rows["predictability"]["value"]) == 2.0
        assert abs(float(rows["flexibility"]["value"]) - 0.5) < 0.02
        assert rows["flexibility"]["parameters"] == "name=demo;n=20000;seed=3"

    def test_data_files_are_utf8_whatever_the_locale(self, tmp_path):
        # A `café` cell in each CSV a job reads: under the C locale, with
        # neither coercion nor UTF-8 mode, the job writes the bytes it
        # writes under a UTF-8 locale.
        (tmp_path / "curves.csv").write_text(
            "p,adaptive,single,label\n0,0,0,café\n1,1,0,café\n", encoding="utf-8")
        (tmp_path / "pairs.csv").write_text(
            "estimated,actual,label\n10,12,café\n", encoding="utf-8")
        job = tmp_path / "job.metrics"
        job.write_text(self.JOB)
        assert cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "here")]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "civitas.cli", "metrics", "--job",
                               str(job), "--out", str(tmp_path / "c")], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert ((tmp_path / "c" / "metrics.csv").read_bytes()
                == (tmp_path / "here" / "metrics.csv").read_bytes())

    def test_flexibility_row_names_the_defaults_it_ran(self, tmp_path):
        job = tmp_path / "job.metrics"
        job.write_text("[flexibility f]\nattrs = a:0:1\nrule = a <= 0.5\n")
        assert cli.main(["metrics", "--job", str(job), "--out", str(tmp_path)]) == 0
        explicit = tmp_path / "explicit.metrics"
        explicit.write_text(job.read_text() + "n = 10000\nseed = 0\n")
        assert cli.main(["metrics", "--job", str(explicit),
                         "--out", str(tmp_path / "explicit")]) == 0
        row = (tmp_path / "metrics.csv").read_text().splitlines()[1]
        assert row.endswith(",name=f;n=10000;seed=0")
        assert row == (tmp_path / "explicit" / "metrics.csv").read_text().splitlines()[1]


class TestMetricsJobErrors:
    @pytest.mark.parametrize("section, where", [
        ("[flexibility f]\nattrs = a:0:1\nrule = a <= zz\n",
         "[flexibility f] rule: bad number 'zz'"),
        ("[flexibility f]\nattrs = a:0\nrule = a <= 1\n",
         "[flexibility f] attrs: bad item 'a:0'"),
        ("[flexibility f]\nattrs = a:0:one\nrule = a <= 1\n",
         "[flexibility f] attrs: bad number 'one'"),
        ("[flexibility f]\nattrs = a:0:1\nrule = b <= 1\n",
         "[flexibility f] rule: 'b' is not one of attrs"),
        ("[autonomy u]\nperf = 0\narea = 0, 1\ntime = 0, 1\nconstant = 1\n",
         "[autonomy u] perf: expected low, high, got '0'"),
        ("[autonomy u]\nperf = 0, 1\narea = 0, x\ntime = 0, 1\nconstant = 1\n",
         "[autonomy u] area: bad number 'x'"),
        ("[autonomy u]\nperf = 0, 1\narea = 0, 1\ntime = 0, 1\n",
         "[autonomy u]: missing key 'constant'"),
        ("[autonomy u]\nperf = 0, 1\narea = 0, 1\ntime = 0, 1\nconstant = 1\n"
         "shape = 2, 2.5, 2\n",
         "[autonomy u] shape: bad number '2.5'"),
        ("[autonomy u]\nperf = 1, 0\narea = 0, 1\ntime = 0, 1\nconstant = 1\n",
         "[autonomy u]: perf axis must be strictly increasing"),
        ("[flexibility f]\nattrs = a:0:1\nrule = a <= 1\nn = 0\n",
         "[flexibility f]: n must be >= 1"),
        ("[scalability s]\np1 = 10\ncost1 = 1\np2 = 20\n",
         "[scalability s]: missing key 'cost2'"),
        ("[efficiency e]\nfile = nope.csv\n", "[efficiency e]: "),
        ("[scalability s]\np1 = nan\ncost1 = 1\np2 = 20\ncost2 = 4\n",
         "[scalability s] p1: must be a finite number, got 'nan'"),
        ("[scalability s]\np1 = inf\ncost1 = 1\np2 = 20\ncost2 = 4\n",
         "[scalability s] p1: must be a finite number, got 'inf'"),
        ("[autonomy u]\nperf = 0, 1\narea = 0, 1\ntime = 0, 1\nconstant = nan\n",
         "[autonomy u] constant: must be a finite number, got 'nan'"),
        ("[flexibility f]\nattrs = a:0:1\nrule = a <= nan\n",
         "[flexibility f] rule: must be a finite number, got 'nan'"),
        ("[flexibility f]\nattrs = a:0:inf\nrule = a <= 1\n",
         "[flexibility f] attrs: must be a finite number, got 'inf'"),
        ("[flexibility f]\nattrs = a:-1e308:1e308\nrule = a <= 1\n",
         "[flexibility f] attrs: attribute 'a': high - low is not finite"),
        ("[flexibility f]\nattrs = a:1:0\nrule = a <= 1\n",
         "[flexibility f] attrs: attribute 'a': need low < high"),
        ("[flexibility f]\nattrs = a:0:1\nrule = a <= 1\nseed = -1\n",
         "[flexibility f] seed: must be >= 0, got -1"),
    ])
    @pytest.mark.filterwarnings("error")  # numpy warned on an overflowing range
    def test_bad_value_is_exit_one(self, tmp_path, capsys, section, where):
        job = tmp_path / "job.metrics"
        job.write_text(section)
        rc = cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"civitas: error: metrics job {job}: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("data, where", [
        ("estimated,actual\n10,x\n",
         "[predictability p]: could not convert string to float: 'x'"),
        ("estimated,truth\n10,12\n",
         "[predictability p] file: "),
    ])
    def test_bad_data_file_is_exit_one(self, tmp_path, capsys, data, where):
        (tmp_path / "pairs.csv").write_text(data)
        job = tmp_path / "job.metrics"
        job.write_text("[predictability p]\nfile = pairs.csv\n")
        rc = cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert where in capsys.readouterr().err

    def test_samples_are_drawn_in_bounded_memory(self, tmp_path):
        from civitas import metrics  # noqa: F401  imported before tracing starts
        job = tmp_path / "job.metrics"
        job.write_text("[flexibility f]\nattrs = a:0:1, b:0:1, c:0:1\nrule = a <= 0.5\n"
                       "n = 1000000\n")
        tracemalloc.start()
        try:
            rc = cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        # One draw of all samples would hold 10**6 x 3 doubles, 24 MB.
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("limit, where", [
        ("nan", "[predictability p] limit: must be a finite number, got 'nan'"),
        ("-1", "[predictability p] limit: must be >= 0, got -1"),
    ])
    def test_bad_limit_is_exit_one(self, tmp_path, capsys, limit, where):
        (tmp_path / "pairs.csv").write_text("estimated,actual\n10,12\n")
        job = tmp_path / "job.metrics"
        job.write_text(f"[predictability p]\nfile = pairs.csv\nlimit = {limit}\n")
        rc = cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()


class TestEarlySwitch:
    NETWORK = """
[intersection a]
[intersection b]
signalized = true
[intersection c]
[intersection d]
[segment x]
from = a
to = b
length = 100
speed = 10
capacity = 5
approach = 1
entry = true
[segment z]
from = d
to = b
length = 100
speed = 10
capacity = 5
approach = 2
entry = true
[segment y]
from = b
to = c
length = 50
speed = 10
capacity = 5
exit = true

[signal b]
green = 40
yellow = 5
red = 15
anchor = Green
{early}
"""
    DEMAND = """
[arrivals x]
windows = 0:60:0.2
"""

    def run(self, tmp_path, early, name):
        net = tmp_path / f"{name}.network"
        net.write_text(self.NETWORK.format(
            early="early_switch = true" if early else ""))
        dem = tmp_path / f"{name}.demand"
        dem.write_text(self.DEMAND)
        out = tmp_path / name
        rc = cli.main(["simulate", "--network", str(net), "--demand", str(dem),
                       "--horizon", "120", "--seed", "3",
                       "--out", str(out), "--mode", "fixed"])
        assert rc == 0
        return out

    def test_lone_vehicles_cross_sooner_with_early_switch(self, tmp_path):
        # demand only on approach 1, which moves on Red: with the 40 s green
        # dwell empty, early switching should service them much earlier
        base = self.run(tmp_path, early=False, name="base")
        fast = self.run(tmp_path, early=True, name="fast")

        def first_move(out):
            for line in (out / "events.log").read_text().splitlines():
                parts = line.split("\t")
                if parts[0] == "move":
                    return float(parts[1])
            return None

        assert "early_switch" in (fast / "events.log").read_text()
        assert first_move(fast) < first_move(base)

    def test_off_by_default(self, tmp_path):
        base = self.run(tmp_path, early=False, name="default")
        assert "early_switch" not in (base / "events.log").read_text()


class TestDefaultTiming:
    def test_signal_without_splits_and_signal_without_section_agree(
            self, twin_network_text):
        # [signal A] keeps its modes but gives no splits; B loses its section.
        head, signals = twin_network_text.split("[signal A]")
        signal_a = signals[:signals.index("[signal B]")].splitlines()
        text = head + "\n".join(["[signal A]"] + [
            line for line in signal_a if not line.startswith(("green", "yellow", "red"))])
        controllers = cli._build_controllers(worldmod.load_network(text))
        splits = {node: (c.fsm.green, c.fsm.yellow, c.fsm.red)
                  for node, c in controllers.items()}
        assert splits == {"A": fsmmod.DEFAULT_SPLITS, "B": fsmmod.DEFAULT_SPLITS}
        assert controllers["A"].modes and not controllers["B"].modes


# The twin_hier_4h benchmark's demand: one window over the whole horizon.
TWIN_RATES = {"s1": 0.15, "s3": 0.04, "s5": 0.03, "s6": 0.05, "s8": 0.03}


class TestBoundedState:
    """What a run holds does not grow with its horizon: at each epoch's end
    and at the run's, at most one pending arrival per entry, the log lines
    since the last epoch and, per segment, the crossings after one cycle
    before the last epoch, or else its last."""

    @pytest.mark.parametrize("horizon", [3600, 14400])
    def test_twin_hierarchical(self, tmp_path, data_dir, horizon):
        demand = tmp_path / "twin.demand"
        demand.write_text("".join(f"[arrivals {seg}]\nwindows = 0:{horizon}:{rate}\n"
                                  for seg, rate in TWIN_RATES.items()))
        cfg = cli.RunConfig(str(data_dir / "twin.network"), str(demand),
                            str(data_dir / "twin.ctg"), float(horizon), 5,
                            str(tmp_path / "out"), "hierarchical")
        os.makedirs(cfg.out)
        net, world, *_ = inputs = cli.load_simulation(cfg)
        write, forget = cli._write_epoch, worldmod.forget_crossings
        written, boundaries = [], []

        def check_pending():
            pending = world.arrivals.next
            assert len({entry for _, entry, _ in pending}) == len(pending)
            assert len(pending) <= len(net.entries())

        def check_crossings(upto):
            for times in world.completed_at.values():
                assert len(times) <= 1 or times[0] > upto

        def write_epoch(log, reports, written_world, epochs):
            assert written_world is world
            check_pending()
            written.append(bytes(world.events))
            write(log, reports, world, epochs)
            assert not world.events and not epochs.reports

        def forget_crossings(forgetful_world, upto):
            forget(forgetful_world, upto)
            boundaries.append(upto)
            check_crossings(upto)

        with (mock.patch.object(cli, "_write_epoch", write_epoch),
              mock.patch.object(worldmod, "forget_crossings", forget_crossings)):
            cli.run_simulation(cfg, inputs)
        assert len(written) == len(boundaries) == horizon // 60
        check_pending()
        check_crossings(boundaries[-1])
        # each epoch held exactly its own lines, and the run's end the rest
        log = (tmp_path / "out" / "events.log").read_bytes()
        assert log == b"".join(written) + world.events
        rows = (tmp_path / "out" / "reports.csv").read_text().splitlines()
        assert rows[0] == "time,converged,passes,unresolved,safe_engaged"
        assert len(rows) == 1 + 1 + horizon // 60


class TestRuntimeFailure:
    def test_failure_in_third_epoch_keeps_the_first_two(self, tmp_path, data_dir):
        # The twin's cycle is 60 s: a run over 120 s writes the same first
        # two epochs and ends there.
        assert cli.main(sim_args(data_dir, tmp_path / "two", "hierarchical", "120")) == 0
        close, closed = cli.EpochLoop.close, []

        def failing(epochs, t):
            closed.append(t)
            if len(closed) == 3:
                raise RuntimeError("the third epoch fails")
            close(epochs, t)
        with mock.patch.object(cli.EpochLoop, "close", failing):
            assert cli.main(sim_args(data_dir, tmp_path / "run", "hierarchical", "300")) == 2
        assert closed == [60.0, 120.0, 180.0]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "events.log", "reports.csv"]
        for name in ("events.log", "reports.csv"):
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes()), name
        assert [row.split(",", 1)[0] for row in
                (tmp_path / "run" / "reports.csv").read_text().splitlines()] == [
            "time", "0", "60", "120"]

    def test_unsolvable_model_is_exit_two(self, tmp_path):
        q = np.zeros((2, 2, 1))
        q[0, 1, 0] = 1.0
        q[1, 0, 0] = 1.0
        rewards = np.ones((2, 2, 1))
        m = ctmdpmod.make_ctmdp(("a", "b"), ("x",), q, rewards, bounds=(100.0,))
        model_csv = tmp_path / "model.csv"
        model_csv.write_text(ctmdpmod.model_to_csv(m))
        rc = cli.main(["ctmdp", "--model", str(model_csv),
                       "--out", str(tmp_path / "o")])
        assert rc == 2


# ---------------------------------------------------------------------------
# Exit-code fuzzer: one value of one input file replaced by a drawn token.

FUZZ_TEXTS = {name: (resources.files("civitas") / "data" / name).read_text()
              for name in ("twin.network", "twin.demand", "twin.ctg", "city.registry")}
FUZZ_TEXTS["job.metrics"] = TestMetricsCommand.JOB
# The two CSV inputs of `ctmdp`: a model with one bounded criterion, and a
# shift log over the twin task graph's states.
FUZZ_TEXTS["model.csv"] = """kind,i,j,a,k,value
rate,a,b,x,,1
rate,b,a,x,,2
rate,a,b,y,,3
rate,b,a,y,,0.5
reward,a,,x,0,4
reward,b,,x,0,1
reward,a,,y,0,2
reward,b,,y,0,3
reward,a,,x,1,1
reward,b,,y,1,1
bound,,,,1,0.25
"""
FUZZ_TEXTS["shifts.csv"] = """state,action,dwell,next
"Z:(L,L,L)",default,120,"Z:(H,L,L)"
"Z:(H,L,L)",default,60,"Z:(L,L,L)"
"Z:(L,L,L)",hold,60,"Z:(L,H,L)"
"Z:(L,H,L)",hold,90,
"""
# The cells the model loader reads, per row kind; every shift-log cell is read.
MODEL_COLUMNS = {"rate": ("kind", "i", "j", "a", "value"),
                 "reward": ("kind", "i", "a", "k", "value"),
                 "bound": ("kind", "k", "value")}
# Keys the README grammar documents as numbers (or lists of numbers).
NUMERIC_KEYS = {"length", "speed", "capacity", "approach", "green", "yellow", "red",
                "offset", "clearance", "thresholds", "direction", "n", "t_ex", "level",
                "p1", "cost1", "p2", "cost2", "limit", "constant", "perf", "area",
                "time", "shape", "seed", "value", "k", "dwell"}
TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-1", "0", "2.5", "1e308", "x", "", "a:b"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12))


def _key_lines(name: str) -> list[tuple[str, int, str, str]]:
    """(file, line index, "[kind name]", key) of every `key = value` line."""
    out, where = [], None
    for i, line in enumerate(FUZZ_TEXTS[name].splitlines()):
        if line.startswith("["):
            sec = parse_sections(line + "\n")[0]
            where = f"[{sec.kind} {sec.name}]"
        elif "=" in line and not line.startswith("#"):
            out.append((name, i, where, line.split("=")[0].strip()))
    return out


def _csv_cells(name: str) -> list[tuple[str, int, str, str]]:
    """(file, row index, "row N:" or "line N:", column) of every read cell."""
    rows = list(csv.reader(io.StringIO(FUZZ_TEXTS[name])))
    if name == "model.csv":
        return [(name, n, f"row {n + 1}:", column) for n, row in enumerate(rows[1:], 1)
                for column in MODEL_COLUMNS[row[0]]]
    return [(name, n, f"line {n + 1}:", column) for n in range(1, len(rows))
            for column in rows[0]]


FUZZ_EDITS = [edit for name in FUZZ_TEXTS
              for edit in (_csv_cells(name) if name.endswith(".csv") else _key_lines(name))]


def _non_finite(token: str) -> bool:
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "curves.csv").write_text("p,adaptive,single\n0,0,0\n1,1,0\n")
    (base / "pairs.csv").write_text("estimated,actual\n10,12\n")
    return base


@settings(max_examples=400, derandomize=True, deadline=None)
@given(edit=st.sampled_from(FUZZ_EDITS), token=TOKENS)
def test_one_bad_value_exits_zero_or_one(data_dir, fuzz_dir, edit, token):
    name, index, where, key = edit
    path = fuzz_dir / name
    out = str(fuzz_dir / "out")
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(FUZZ_TEXTS[name])))
        rows[index][rows[0].index(key)] = token
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        path.write_text(buf.getvalue())
    else:
        lines = FUZZ_TEXTS[name].splitlines()
        lines[index] = f"{key} = {token}"
        path.write_text("\n".join(lines) + "\n")
    if name == "city.registry":
        args = ["classify", "--registry", str(path), "--out", out]
    elif name == "job.metrics":
        args = ["metrics", "--job", str(path), "--out", out]
    elif name == "model.csv":
        args = ["ctmdp", "--model", str(path), "--out", out]
    elif name == "shifts.csv":
        args = ["ctmdp", "--ctg", str(data_dir / "twin.ctg"), "--shifts", str(path),
                "--out", out]
    else:
        args = sim_args(data_dir, out, mode="hierarchical", horizon="300", seed="3")
        args[args.index("--" + path.suffix[1:]) + 1] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(args)
    message = err.getvalue()
    if name == "model.csv" and rc == 2:  # a well-formed model may be infeasible
        model = ctmdpmod.model_from_csv(path.read_text())
        assert ctmdpmod.solve_model(model).status == "infeasible"
        return
    assert rc in (0, 1), message
    if rc == 1:
        assert str(path) in message and where in message, message
    if key in NUMERIC_KEYS and _non_finite(token):
        assert rc == 1, f"{where} {key} = {token!r} exited 0"


SIMULATE_FLAGS = ("--horizon", "--dt", "--deadline", "--seed", "--target")
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(
    (5e-324, 1e-300, 1e-11, 1e-10, 0.1, 1e298, 1e299, 1e308, -0.0)))
ANY_INT = st.one_of(st.integers(), st.integers(2**63 - 2, 2**70), st.integers(-2**70, -1))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(horizon=ANY_FLOAT, dt=ANY_FLOAT, deadline=st.none() | ANY_FLOAT,
       seed=ANY_INT, target=st.none() | ANY_INT,
       mode=st.sampled_from(("fixed", "hierarchical")))
def test_simulate_flags_build_or_name_the_flag(horizon, dt, deadline, seed, target,
                                               mode):
    """Any numbers for `simulate`'s flags build a config or raise ConfigError
    naming a flag; the config is only built, no run starts."""
    try:
        cfg = cli.RunConfig("n.network", "n.demand", "n.ctg", horizon, seed,
                            "out", mode, dt, target, deadline)
    except cli.ConfigError as exc:
        assert any(flag in str(exc) for flag in SIMULATE_FLAGS), str(exc)
        return
    assert cfg.seed >= 0 and (target is None or target >= 0)
    assert deadline is None or 0 < deadline < math.inf
    assert round(horizon / dt) >= 1 and worldmod.step_units(dt) >= 1


# The flags of the other commands, one drawn value at a time.  Paths are
# relative to the working directory the test runs in, so a drawn `--out`
# stays inside it; `n` and `--out` are drawn from the fixed tokens only
# (a drawn number could ask for a surface of n * n points beyond memory,
# and a drawn absolute path for an output directory anywhere).
FLAG_ARGS = {
    "schedule": {"--ctg": "twin.ctg", "--objective": "makespan", "--out": "out"},
    "ctmdp": {"--ctg": "twin.ctg", "--shifts": "shifts.csv", "--out": "out"},
    "ctmdp model": {"--model": "model.csv", "--out": "out"},
    "fuzzy-surface": {"params": "0.5,1,1.2", "n": "5", "--out": "out"},
    "metrics": {"--job": "job.metrics", "--out": "out"},
    "classify": {"--registry": "city.registry", "--out": "out"},
}
FLAG_CASES = [(command, flag) for command, flags in FLAG_ARGS.items() for flag in flags]
FLAG_TOKENS = ("nan", "inf", "-1", "0", "1", "2.5", "1e308", "x", "", "a:b", "1,2",
               "0.5,1,inf", "nan,1,2", "1,1,1", "2,1,3", "0.5,1,1.2,4", "-",
               "adir", "afile", "binary", "missing/x", "afile/x", "a\x00b")


@pytest.fixture(scope="module")
def flag_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("flags")
    for name, text in FUZZ_TEXTS.items():
        (base / name).write_text(text)
    (base / "curves.csv").write_text("p,adaptive,single\n0,0,0\n1,1,0\n")
    (base / "pairs.csv").write_text("estimated,actual\n10,12\n")
    (base / "adir").mkdir()
    (base / "afile").write_text("x = 1\n")
    (base / "binary").write_bytes(b"\xff\xfe\x00[")
    return base


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(FLAG_CASES), data=st.data())
def test_one_bad_flag_exits_zero_or_one(flag_dir, case, data):
    command, flag = case
    tokens = st.sampled_from(FLAG_TOKENS)
    if flag not in ("n", "--out"):
        tokens |= st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
    token = data.draw(tokens, label="token")
    args = [command.split()[0]]
    for key, value in FLAG_ARGS[command].items():
        value = token if key == flag else value
        args += [key, value] if key.startswith("--") else [value]
    err = io.StringIO()
    with contextlib.chdir(flag_dir), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # a drawn "-h" asks argparse for help
            rc = exc.code
    message = err.getvalue()
    assert rc in (0, 1), message
    if rc == 1:
        assert re.search(rf"(?<!\w){re.escape(flag.lstrip('-'))}(?!\w)", message), message


@pytest.mark.parametrize("out", ["afile", "afile/x", "", "a\x00b"])
def test_output_that_is_no_directory_is_exit_one(flag_dir, capsys, out):
    # the run used to fail writing into it and exit 2 (or, given an empty
    # path, write into the working directory and exit 0)
    with contextlib.chdir(flag_dir):
        assert cli.main(["classify", "--registry", "city.registry", "--out", out]) == 1
    assert "--out" in capsys.readouterr().err


def test_shift_log_errors_name_the_flag(flag_dir, capsys):
    with contextlib.chdir(flag_dir):
        assert cli.main(["ctmdp", "--ctg", "twin.ctg", "--shifts", "adir",
                         "--out", "out"]) == 1
    assert "shifts adir: Is a directory" in capsys.readouterr().err
