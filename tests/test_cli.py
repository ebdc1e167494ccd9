import contextlib
import csv
import io
import math
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from civitas import cli
from civitas.textfmt import parse_sections


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
    ("simulate", "twin.network", "green = 30", "green = -5", "[signal A] green"),
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
            "simulate": sim_args(data_dir, out)}[command]
    if command == "simulate":
        args[args.index("--network") + 1] = str(bad)
    assert cli.main(args) == 1
    assert where in capsys.readouterr().err


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

    def test_unnamed_ctg_is_zone_z(self, tmp_path, data_dir, monkeypatch):
        # The shift log and the CTMDP must name an unnamed [ctg]'s states
        # alike, or every observed shift is ignored for the uniform prior.
        from civitas import ctmdp as ctmdpmod
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

    def test_registry_flag_emits_interaction_report(self, tmp_path, data_dir):
        out = tmp_path / "withreg"
        rc = cli.main(sim_args(data_dir, out)
                      + ["--registry", str(data_dir / "city.registry")])
        assert rc == 0
        assert (out / "interactions.csv").exists()


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

    def test_bad_model_value_is_exit_one(self, tmp_path, capsys):
        from civitas import ctmdp as ctmdpmod
        import numpy as np
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
    ])
    def test_bad_value_is_exit_one(self, tmp_path, capsys, section, where):
        job = tmp_path / "job.metrics"
        job.write_text(section)
        rc = cli.main(["metrics", "--job", str(job), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert where in capsys.readouterr().err

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


class TestRuntimeFailure:
    def test_unsolvable_model_is_exit_two(self, tmp_path):
        from civitas import ctmdp as ctmdpmod
        import numpy as np
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
# Keys the README grammar documents as numbers (or lists of numbers).
NUMERIC_KEYS = {"length", "speed", "capacity", "approach", "green", "yellow", "red",
                "offset", "clearance", "thresholds", "direction", "n", "t_ex", "level",
                "p1", "cost1", "p2", "cost2", "limit", "constant", "perf", "area",
                "time", "shape", "seed"}
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


FUZZ_EDITS = [edit for name in FUZZ_TEXTS for edit in _key_lines(name)]


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edit=st.sampled_from(FUZZ_EDITS), token=TOKENS)
def test_one_bad_value_exits_zero_or_one(data_dir, fuzz_dir, edit, token):
    name, index, where, key = edit
    lines = FUZZ_TEXTS[name].splitlines()
    lines[index] = f"{key} = {token}"
    path = fuzz_dir / name
    path.write_text("\n".join(lines) + "\n")
    out = str(fuzz_dir / "out")
    if name == "city.registry":
        args = ["classify", "--registry", str(path), "--out", out]
    elif name == "job.metrics":
        args = ["metrics", "--job", str(path), "--out", out]
    else:
        args = sim_args(data_dir, out, mode="hierarchical", horizon="300", seed="3")
        args[args.index("--" + path.suffix[1:]) + 1] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(args)
    message = err.getvalue()
    assert rc in (0, 1), message
    if rc == 1:
        assert str(path) in message and where in message, message
    if key in NUMERIC_KEYS and _non_finite(token):
        assert rc == 1, f"{where} {key} = {token!r} exited 0"
