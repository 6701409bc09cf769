"""The pair comparison of tools/bench_trajectory.py, on synthetic runs."""
import importlib.util
import json
import pathlib
import subprocess

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", REPO / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

METRICS = {"jobs_per_s": ("1/s", "higher"), "peak_rss_mb": ("MB", "lower")}


def _run(seed, jobs, rss):
    return {"seed": seed, "correct": True,
            "metrics": {"jobs_per_s": jobs, "peak_rss_mb": rss}}


def test_pairs_count_wins_by_the_declared_direction():
    base = [_run(s, 10.0, 140.0) for s in (1, 2, 3, 4)]
    runs = [_run(1, 11.0, 110.0), _run(2, 10.0, 112.0),
            _run(3, 9.0, 150.0), _run(4, 12.0, 114.0)]
    cmp = bench_trajectory.compare_pairs(runs, base, METRICS)
    # higher is better: seed 2 ties and seed 3 is worse
    assert cmp["jobs_per_s"] == {"better": "higher", "pairs": 4, "won": 2,
                                 "lost_or_tied": 2,
                                 "ratio_median": pytest.approx(1.05)}
    # lower is better: only seed 3 rose
    rss = cmp["peak_rss_mb"]
    assert (rss["won"], rss["lost_or_tied"]) == (3, 1)
    assert rss["ratio_median"] == pytest.approx((112.0 + 114.0) / 2 / 140.0)
    assert bench_trajectory.pair_line("mc_1d", "peak_rss_mb", rss) == (
        "mc_1d peak_rss_mb: median ratio 0.8071, better (lower) in 3 of 4 "
        "pairs")


def test_pairs_skip_unfinished_runs_and_zero_bases():
    # a run that failed on either side leaves its pair out, and a base of 0
    # gives no ratio although its pair still counts
    base = [_run(1, 0.0, 140.0), _run(2, 10.0, 140.0),
            {"seed": 3, "correct": False, "error": ["boom"]}]
    runs = [_run(1, 1.0, 130.0), {"seed": 2, "correct": False},
            _run(3, 10.0, 100.0), _run(4, 10.0, 100.0)]
    cmp = bench_trajectory.compare_pairs(runs, base, METRICS)
    assert cmp["jobs_per_s"] == {"better": "higher", "pairs": 1, "won": 1,
                                 "lost_or_tied": 0, "ratio_median": None}
    assert bench_trajectory.pair_line("w", "jobs_per_s", cmp["jobs_per_s"]) \
        == "w jobs_per_s: median ratio n/a, better (higher) in 1 of 1 pairs"
    assert cmp["peak_rss_mb"]["ratio_median"] == pytest.approx(130.0 / 140.0)
    assert bench_trajectory.compare_pairs(runs[1:2], base, METRICS) == {}


def test_spec_reads_each_metric_direction():
    workloads, metrics = bench_trajectory.spec(REPO)
    assert workloads == ["mc_1d", "image_sure", "lambda_calib"]
    assert metrics["peak_rss_mb"] == ("MB", "lower")
    assert metrics["jobs_per_s"] == ("1/s", "higher")
    summary = bench_trajectory.summarize(
        [_run(1, 10.0, 140.0), _run(2, 12.0, 120.0)], METRICS)
    assert summary["jobs_per_s"]["median"] == 11.0
    assert summary["peak_rss_mb"]["unit"] == "MB"


def test_bench_doc_holds_the_parent_in_its_against_section():
    runs = {"w": [_run(1, 11.0, 110.0), _run(2, 12.0, 112.0)]}
    base = {"w": [_run(1, 10.0, 140.0), _run(2, 10.0, 150.0)]}
    doc, lines = bench_trajectory.bench_doc(
        36, {"git_commit": "new"}, runs, METRICS,
        (35, {"git_commit": "old"}, base))
    assert (doc["pr"], doc["provenance"]) == (36, {"git_commit": "new"})
    assert doc["workloads"]["w"]["runs"] == runs["w"]
    assert doc["workloads"]["w"]["pairs"] == bench_trajectory.compare_pairs(
        runs["w"], base["w"], METRICS)
    against = doc["against"]
    assert (against["pr"], against["provenance"]) == (35, {"git_commit": "old"})
    assert against["workloads"]["w"]["runs"] == base["w"]
    assert against["workloads"]["w"]["correct"]
    assert against["workloads"]["w"]["metrics"]["peak_rss_mb"]["median"] \
        == 145.0
    assert len(lines) == 2 and lines[1].startswith("w peak_rss_mb:")


def _checkouts(tmp_path, parent_files=("BENCH_35.json",)):
    """Two checkouts declaring one benchmark: (here, parent, workloads);
    the parent holds ``parent_files``."""
    here, parent = tmp_path / "here", tmp_path / "parent"
    workloads = ["mc_1d", "image_sure"]
    declared = json.dumps({
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": k, "unit": unit, "better": better}
                       for k, (unit, better) in METRICS.items()]})
    for root in (here, parent):
        root.mkdir()
        (root / "BENCHMARK.json").write_text(declared)
    for name in parent_files:
        (parent / name).write_text("{}\n")
    return here, parent, workloads


def _no_runs(*args):
    raise AssertionError("a refused pairing must start no run")


def test_main_writes_one_file_with_against(tmp_path, monkeypatch, capsys):
    # the recorded runs and their provenance are stubbed, so no benchmark or
    # git process starts; the parent's file must be left as it is
    here, parent, workloads = _checkouts(tmp_path)

    def record(sides, names):
        assert sides == [(str(parent), 35), (str(here), 36)]
        assert names == workloads
        return ([{w: [_run(1, 10.0 + pr, 100.0)] for w in names}
                 for _, pr in sides], [{"root": root} for root, _ in sides])

    monkeypatch.setattr(bench_trajectory, "ROOT", str(here))
    monkeypatch.setattr(bench_trajectory, "record", record)
    assert bench_trajectory.main(["--pr", "36", "--against", str(parent)]) \
        == 0
    assert sorted(p.name for p in tmp_path.rglob("BENCH_*")) \
        == ["BENCH_35.json", "BENCH_36.json"]
    assert (parent / "BENCH_35.json").read_text() == "{}\n"
    doc = json.loads((here / "BENCH_36.json").read_text())
    assert doc["provenance"] == {"root": str(here)}
    assert doc["against"]["pr"] == 35
    assert doc["against"]["provenance"] == {"root": str(parent)}
    for w in workloads:
        assert doc["against"]["workloads"][w]["runs"] \
            == [_run(1, 45.0, 100.0)]
        assert doc["workloads"][w]["runs"] == [_run(1, 46.0, 100.0)]
    assert capsys.readouterr().out.splitlines()[0] \
        == str(here / "BENCH_36.json")


def test_main_refuses_this_checkout_as_its_parent(tmp_path, monkeypatch):
    # a self-pair would compare every run with itself; any spelling of this
    # checkout is refused before a git or benchmark process starts
    here, _, _ = _checkouts(tmp_path)
    (here / "BENCH_35.json").write_text("{}\n")
    monkeypatch.setattr(bench_trajectory, "ROOT", str(here))
    for stub in ("record", "dirty", "bench_run"):
        monkeypatch.setattr(bench_trajectory, stub, _no_runs)
    (tmp_path / "link").symlink_to(here)
    for spelling in (here, here / ".", tmp_path / "link"):
        with pytest.raises(SystemExit) as exc:
            bench_trajectory.main(["--pr", "36", "--against", str(spelling)])
        assert exc.value.code == 2
    assert not (here / "BENCH_36.json").exists()


def test_parent_pr_is_read_from_its_newest_bench_file(tmp_path, monkeypatch):
    # the largest number, not the last name in sorted order; other names
    # that merely look alike do not count
    here, parent, _ = _checkouts(tmp_path, (
        "BENCH_9.json", "BENCH_35.json", "BENCH_4.json", "BENCH_99.txt",
        "BENCH_x.json", "OLD_BENCH_120.json"))
    assert bench_trajectory.parent_pr(str(parent)) == 35
    assert bench_trajectory.parent_pr(str(here)) is None
    monkeypatch.setattr(bench_trajectory, "ROOT", str(here))
    monkeypatch.setattr(bench_trajectory, "record", _no_runs)
    # a parent without a BENCH file, and an --pr not above the parent's
    for argv in (["--pr", "36", "--against", str(here / "..")],
                 ["--pr", "35", "--against", str(parent)],
                 ["--pr", "36", "--against", str(tmp_path / "missing")]):
        with pytest.raises(SystemExit) as exc:
            bench_trajectory.main(argv)
        assert exc.value.code == 2


def test_each_checkout_is_probed_before_its_first_run(tmp_path, monkeypatch):
    here, parent, workloads = _checkouts(tmp_path)
    events = []
    monkeypatch.setattr(bench_trajectory, "SEEDS", (1, 2))
    monkeypatch.setattr(bench_trajectory, "dirty", lambda root: (
        events.append(("git", root)) or root == str(here)))
    monkeypatch.setattr(bench_trajectory, "bench_run", lambda root, w, seed: (
        events.append(("run", root)) or _run(seed, 1.0, 1.0),
        {"workload_seed": seed, "root": root}))
    sides = [(str(parent), 35), (str(here), 36)]
    runs, provs = bench_trajectory.record(sides, workloads)
    for root, _ in sides:
        assert events.count(("git", root)) == 1
        assert events.index(("git", root)) < events.index(("run", root))
    # odd seeds run the parent first, even seeds this checkout
    assert [root for _, root in events[2:6]] \
        == [str(parent), str(here), str(here), str(parent)]
    assert [p["dirty"] for p in provs] == [False, True]
    assert [p["root"] for p in provs] == [str(parent), str(here)]
    assert all("workload_seed" not in p for p in provs)
    assert [len(rs[w]) for rs in runs for w in workloads] == [2] * 4


def test_failed_runs_are_recorded_and_the_session_goes_on(tmp_path,
                                                         monkeypatch):
    # a timeout, a last line that is not JSON and a missing result file
    # each give a failed run with an error; the next run still happens
    here, parent, _ = _checkouts(tmp_path)
    calls = []

    def run(cmd, cwd, **kwargs):
        calls.append(cwd)
        if len(calls) == 1:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        if len(calls) == 2:
            return subprocess.CompletedProcess(cmd, 0, "Traceback?\n", "")
        workload = cmd[cmd.index("--workload") + 1]
        seed = int(cmd[cmd.index("--seed") + 1])
        summary = {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"jobs_per_s": {"value": 2.0}}}
        if len(calls) > 3:
            results = pathlib.Path(cwd) / "perfbench" / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / ("%s-seed%d-trace0.json" % (workload, seed))) \
                .write_text(json.dumps({"provenance": {
                    "source_sha256": "abc", "workload_seed": seed}}))
        return subprocess.CompletedProcess(cmd, 0, json.dumps(summary), "")

    monkeypatch.setattr(bench_trajectory, "SEEDS", (1, 2))
    monkeypatch.setattr(bench_trajectory, "dirty", lambda root: False)
    monkeypatch.setattr(bench_trajectory.subprocess, "run", run)
    sides = [(str(parent), 35), (str(here), 36)]
    (base, mine), (base_prov, prov) = bench_trajectory.record(sides, ["w"])
    assert len(calls) == 4
    timed_out, garbage = base["w"][0], mine["w"][0]
    no_file = mine["w"][1]
    for r in (timed_out, garbage, no_file):
        assert r["correct"] is False and "metrics" not in r and r["error"]
    assert "timed out" in timed_out["error"][0]
    assert "JSONDecodeError" in garbage["error"][0]
    assert "FileNotFoundError" in no_file["error"][0]
    assert base["w"][1] == {"seed": 2, "correct": True, "attempted": 3,
                            "failed": 0, "source_sha256": "abc",
                            "metrics": {"jobs_per_s": 2.0}}
    assert base_prov["source_sha256"] == "abc"
    assert "source_sha256" not in prov and prov["dirty"] is False
