"""The pair comparison of tools/bench_trajectory.py, on synthetic runs."""
import importlib.util
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
