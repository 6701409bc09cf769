"""The pair comparison of tools/bench_trajectory.py, on synthetic runs."""
import importlib.util
import json
import pathlib

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
    alone, lines = bench_trajectory.bench_doc(36, {}, runs, METRICS)
    assert "against" not in alone and "pairs" not in alone["workloads"]["w"]
    assert lines == []


def test_main_writes_one_file_with_against(tmp_path, monkeypatch, capsys):
    # the recorded runs and the provenance are stubbed, so no benchmark or
    # git process starts; the parent's file must not be written
    here, parent = tmp_path / "here", tmp_path / "parent"
    workloads = ["mc_1d", "image_sure"]
    declared = json.dumps({
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": k, "unit": unit, "better": better}
                       for k, (unit, better) in METRICS.items()]})
    for root in (here, parent):
        root.mkdir()
        (root / "BENCHMARK.json").write_text(declared)

    def record(sides, names):
        assert [pr for _, pr in sides] == [35, 36] and names == workloads
        return ({root: {w: [_run(1, 10.0 + pr, 100.0)] for w in names}
                 for root, pr in sides}, {root: None for root, _ in sides})

    monkeypatch.setattr(bench_trajectory, "ROOT", str(here))
    monkeypatch.setattr(bench_trajectory, "record", record)
    monkeypatch.setattr(bench_trajectory, "provenance",
                        lambda root, prov: {"root": root})
    assert bench_trajectory.main(["--pr", "36", "--against", str(parent),
                                  "--against-pr", "35"]) == 0
    assert sorted(p.name for p in tmp_path.rglob("BENCH_*")) \
        == ["BENCH_36.json"]
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
