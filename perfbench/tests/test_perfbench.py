"""Tests of the benchmark itself: generators, self-time arithmetic, checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import checks  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from civitas import cli  # noqa: E402

DATA = REPO / "src" / "civitas" / "data"


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _inputs(tmp_path: Path, workload: str, seed: int, tag: str) -> dict[str, bytes]:
    inputs = tmp_path / tag
    inputs.mkdir()
    run.WORKLOADS[workload](inputs, seed)
    return _files(inputs)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = _inputs(tmp_path, workload, 7, "a")
    b = _inputs(tmp_path, workload, 7, "b")
    assert a and a == b


@pytest.mark.parametrize("workload", ["grid8_fixed", "offline_plan"])
def test_other_seed_gives_other_inputs(tmp_path, workload):
    assert _inputs(tmp_path, workload, 7, "a") != _inputs(tmp_path, workload, 8, "b")


def test_grid_has_the_documented_shape():
    from civitas import world
    net = world.load_network(gen.grid_network(8, np.random.default_rng(0)))
    assert len(net.segments) == 288
    assert len(net.signalized_nodes()) == 64
    assert len(net.entries()) == len(net.exits()) == 32


def test_shift_log_quotes_state_names():
    text = gen.shift_log(3, 2, np.random.default_rng(0))
    row = text.splitlines()[1]
    assert row.startswith('"Z:(') and next(csv.reader([row]))[0].count(",") == 2


def test_self_time_of_a_synthetic_span_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3];  main -> c [5, 9];  root d [11, 12]
    names = ["main", "a", "b", "c", "d"]
    name_id = [0, 1, 2, 3, 4]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    split = spans.self_times(names, name_id, parent, start, end)
    assert split.self_s == {"main": 3.0, "a": 2.0, "b": 1.0, "c": 4.0, "d": 1.0}
    assert split.calls == {n: 1 for n in names}
    assert split.covered_s == 11.0
    assert sum(split.self_s.values()) == split.covered_s
    assert split.min_self_s == 1.0


def test_self_time_sums_repeated_names_and_flags_bad_nesting():
    split = spans.self_times(["f", "g"], [0, 1, 1], [-1, 0, 0],
                             [0.0, 0.0, 0.5], [1.0, 0.75, 1.0])
    assert split.calls == {"f": 1, "g": 2}
    assert split.self_s["g"] == 1.25
    assert split.min_self_s == pytest.approx(-0.25)


def test_calls_under_counts_direct_children_only():
    raw = {"names": np.array(["p", "q", "r"]), "name_id": np.array([0, 1, 2, 1]),
           "parent": np.array([-1, 0, 1, 2])}
    assert spans.calls_under(raw, "q", "p") == 1
    assert spans.calls_under(raw, "q", "r") == 1


def test_epoch_latency_pairs_first_observation_with_reconcile():
    observe = [1.0, 1.1, 1.2, 5.0, 5.1]
    reconciled = [0.5, 1.5, 5.4]
    assert run.epoch_latencies(observe, reconciled) == pytest.approx([500.0, 400.0])


def test_reference_time_scales_by_the_calibration_of_each_run():
    ref = run.CALIBRATION_REFERENCE_S
    assert run.reference_time(6.0, ref) == pytest.approx(6.0)
    assert run.reference_time(6.0, 2 * ref) == pytest.approx(3.0)
    wl = run.TwinHier4h.__new__(run.TwinHier4h)
    reps = [run.Rep(False, [0], run_s, setup_s=0.5, calibration_s=cal,
                    outcomes=[run.Outcome("simulate")])
            for run_s, cal in ((4.0, ref), (6.0, 1.5 * ref), (9.0, ref))]
    e2e = run.summarize(wl, reps, "")["e2e"]
    assert e2e["run_wall_s"][0] == pytest.approx(6.0)
    assert e2e["run_s"][0] == pytest.approx(4.0)
    assert e2e["setup_wall_s"][0] == pytest.approx(0.5)
    assert e2e["setup_s"][0] == pytest.approx(0.5)
    assert e2e["calibration_s"][0] == pytest.approx(ref)


@pytest.fixture(scope="module")
def twin_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("twin")
    demand = root / "twin.demand"
    demand.write_text(gen.twin_demand(1200))
    out = root / "out"
    assert cli.main(["simulate", "--network", str(DATA / "twin.network"),
                     "--demand", str(demand), "--ctg", str(DATA / "twin.ctg"),
                     "--mode", "hierarchical", "--horizon", "1200",
                     "--seed", "3", "--out", str(out)]) == 0
    return out


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _corrupt(src: Path, tmp_path: Path, name: str, edit) -> Path:
    dst = tmp_path / "corrupt"
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_simulate_check_passes_then_fails_on_corruption(twin_out, tmp_path):
    epochs = 1200 // 60
    assert checks.check_simulate(str(twin_out), epochs) == []

    def drop_first_arrival(text):
        lines = text.splitlines()
        lines.remove(next(x for x in lines if x.startswith("arrive")))
        return "\n".join(lines) + "\n"
    bad = _corrupt(twin_out, tmp_path / "a", "events.log", drop_first_arrival)
    assert any("arrive" in p for p in checks.check_simulate(str(bad), epochs))

    def one_more_remaining(text):
        header, values = (line.split(",") for line in text.splitlines())
        i = header.index("remaining")
        values[i] = str(int(values[i]) + 1)
        return ",".join(header) + "\n" + ",".join(values) + "\n"
    bad = _corrupt(twin_out, tmp_path / "b", "summary.csv", one_more_remaining)
    assert any("remaining" in p for p in checks.check_simulate(str(bad), epochs))
    reports = _corrupt(twin_out, tmp_path / "c", "reports.csv",
                       lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
    assert any("reports.csv" in p for p in checks.check_simulate(str(reports), epochs))


def test_schedule_check_fails_on_a_broken_precedence(tmp_path):
    ctg = tmp_path / "z.ctg"
    ctg.write_text(gen.ctg_text(4, np.random.default_rng(1)))
    out = tmp_path / "sched"
    assert cli.main(["schedule", "--ctg", str(ctg), "--out", str(out)]) == 0
    assert checks.check_schedule(str(out), str(ctg)) == []

    def early_crossing(text):
        rows = list(csv.reader(text.splitlines()))
        next(r for r in rows[1:] if r[1].startswith("X"))[2] = "0"
        return _csv(rows)
    bad = _corrupt(out, tmp_path / "x", "schedule_table.csv", early_crossing)
    assert checks.check_schedule(str(bad), str(ctg))


def test_ctmdp_objective_check_against_highs(tmp_path):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(gen.LADDER_SEED)
    ctg, shifts = tmp_path / "z.ctg", tmp_path / "s.csv"
    ctg.write_text(gen.ctg_text(4, rng))
    shifts.write_text(gen.shift_log(4, 3, rng))
    out = tmp_path / "mdp"
    assert cli.main(["ctmdp", "--ctg", str(ctg), "--shifts", str(shifts),
                     "--out", str(out)]) == 0
    ref = checks.highs_objective(str(ctg), str(shifts))
    assert checks.ctmdp_objective(str(out), str(ctg), str(shifts)) == pytest.approx(ref, rel=1e-6)

    def move_mass(text):
        rows = list(csv.reader(text.splitlines()))
        xs = [float(r[2]) for r in rows[1:]]
        hi, lo = int(np.argmax(xs)) + 1, int(np.argmin(xs)) + 1
        rows[hi][2], rows[lo][2] = rows[lo][2], rows[hi][2]
        return _csv(rows)
    bad = _corrupt(out, tmp_path / "x", "ctmdp_solution.csv", move_mass)
    got = checks.ctmdp_objective(str(bad), str(ctg), str(shifts))
    assert abs(got - ref) > checks.OBJECTIVE_RTOL * ref


def test_fuzzy_check_fails_on_a_changed_point(tmp_path):
    out = tmp_path / "fz"
    assert cli.main(["fuzzy-surface", "0.5,1,1.2", "11", "--out", str(out)]) == 0
    rng = np.random.default_rng
    assert checks.check_fuzzy(str(out), (0.5, 1.0, 1.2), 11, rng(0), samples=121) == []
    bad = _corrupt(out, tmp_path / "x", "surface.csv", lambda t: t.replace(
        t.splitlines()[60], t.splitlines()[60].rsplit(",", 1)[0] + ",0.123"))
    assert checks.check_fuzzy(str(bad), (0.5, 1.0, 1.2), 11, rng(0), samples=121)


def test_fgraph_check_fails_when_mass_is_lost(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(gen.function_graph(np.random.default_rng(2), nodes=4))
    sinks = tmp_path / "out" / "sinks.csv"
    assert child._evaluate_graph(str(graph), str(sinks)) == 0
    assert checks.check_fgraph(str(sinks), str(graph)) == []
    bad = _corrupt(sinks.parent, tmp_path / "x", "sinks.csv",
                   lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
    assert checks.check_fgraph(str(bad / "sinks.csv"), str(graph))


def test_flexibility_check_fails_on_a_changed_value(tmp_path):
    job = tmp_path / "flex.job"
    job.write_text(gen.flexibility_job(np.random.default_rng(4), n=2000))
    out = tmp_path / "met"
    assert cli.main(["metrics", "--job", str(job), "--out", str(out)]) == 0
    assert checks.check_flexibility(str(out), str(job)) == []
    bad = _corrupt(out, tmp_path / "x", "metrics.csv", lambda t: t.replace(
        t.splitlines()[1].split(",")[1], "0.5", 1))
    assert checks.check_flexibility(str(bad), str(job))


def test_classify_check_fails_on_a_missing_link(tmp_path):
    out = tmp_path / "cls"
    registry = DATA / "city.registry"
    assert cli.main(["classify", "--registry", str(registry), "--out", str(out)]) == 0
    assert checks.check_classify(str(out), str(registry)) == []
    bad = _corrupt(out, tmp_path / "x", "interactions.csv",
                   lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
    assert checks.check_classify(str(bad), str(registry))


def test_cross_checks_flag_nondeterminism_and_reference_mismatch(tmp_path, monkeypatch):
    wl = run.TwinHier4h(tmp_path, 5)
    same = {"out/events.log": "aa", "out/summary.csv": "bb"}

    def reps():
        return [run.Rep(False, [0], 1.0, digests=dict(same),
                        outcomes=[run.Outcome("simulate")]),
                run.Rep(True, [0], 1.0, digests=dict(same, **{"out/summary.csv": "cc"}),
                        outcomes=[run.Outcome("simulate")])]
    monkeypatch.setattr(run, "reference_digests", lambda w, s: {"out/events.log": "zz"})
    flagged = reps()
    assert "differ" in run.cross_checks(wl, flagged)
    assert [r.outcomes[0].status for r in flagged] == ["wrong", "wrong"]
    assert "summary.csv" in flagged[1].outcomes[0].detail
    monkeypatch.setattr(run, "reference_digests", lambda w, s: {"out/events.log": "aa"})
    clean = reps()[:1]
    assert "match" in run.cross_checks(wl, clean)
    assert clean[0].outcomes[0].status == "ok"


def test_reference_file_covers_both_simulate_workloads():
    table = json.loads((REPO / "perfbench" / "reference.json").read_text())
    for workload in ("twin_hier_4h", "grid8_fixed"):
        entry = table[workload]["1"]
        assert {f"out/{n}" for n in checks.SIMULATE_DIGESTED} <= set(entry)
