"""Tests for the seeded Monte Carlo benchmark drivers."""
import numpy as np
import pytest

import tvdn.bench
import tvdn.tvsolve
from tvdn.bench import (ExperimentConfig, ResultTable, _mean_se, _mse_rep,
                        _seg_rep, bench_mse, bench_seg, lambda_fit_report,
                        qq_pairs, run_lambda_samples)
from tvdn.grid import LatticeShape, Signal
from tvdn.lambda_stat import GumbelParams, monte_carlo_lambda, sample_lambda_1d
from tvdn.risk import default_lambda_grid, risk_curve
from tvdn.signals import TEST_FUNCTIONS, gen_piecewise, gen_test_function


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("bogus")
    with pytest.raises(ValueError):
        ExperimentConfig("mse_1d", sizes=(10, 20), reps=(1, 2, 3))
    with pytest.raises(ValueError):
        ExperimentConfig("mse_1d", sizes=(10,), reps=(0,))
    for sigma in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="sigma"):
            ExperimentConfig("seg_1d", sigma=sigma)
    assert ExperimentConfig("mse_1d", sigma=0.0).sigma == 0.0
    for alphas in ((), (0.01, 0.2)):
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig("seg_1d", alphas=alphas)
    cfg = ExperimentConfig("mse_1d", sizes=(10, 20, 30), reps=(7,))
    assert [cfg.reps_for(i) for i in range(3)] == [7, 7, 7]
    cfg = ExperimentConfig("mse_1d", sizes=(10, 20), reps=(5, 9))
    assert [cfg.reps_for(i) for i in range(2)] == [5, 9]


def test_result_table():
    t = ResultTable()
    t.add("blocks", 100, "sure", "risk_x100", 6.5, 0.1, 50)
    t.add("blocks", 100, "oracle", "risk_x100", 6.0, 0.1, 50)
    row = t.get("blocks", 100, "sure", "risk_x100")
    assert row["value"] == 6.5 and row["reps"] == 50
    with pytest.raises(KeyError):
        t.get("blocks", 100, "adaptive", "risk_x100")
    miss = t.missing(("blocks",), (100,), ("sure", "oracle", "adaptive"),
                     ("risk_x100",))
    assert miss == [("blocks", 100, "adaptive", "risk_x100")]
    assert t.payload() == {"rows": t.rows}
    with pytest.raises(ValueError):
        t.add("blocks", 100, "sure", "risk_x100", 1.0, -0.1, 50)


def test_bench_mse_small_run():
    cfg = ExperimentConfig("mse_1d", functions=("blocks",), sizes=(100,),
                           reps=(6,), seed=2, sigma=1.0)
    table = bench_mse(cfg)
    assert not table.missing(("blocks",), (100,),
                             ("oracle", "sure", "adaptive"), ("risk_x100",))
    oracle = table.get("blocks", 100, "oracle", "risk_x100")["value"]
    sure_v = table.get("blocks", 100, "sure", "risk_x100")["value"]
    # per replicate the oracle is the grid minimum, so its mean cannot lose
    assert oracle <= sure_v + 1e-12
    assert all(row["se"] >= 0 for row in table.rows)
    table2 = bench_mse(cfg)
    assert table.rows == table2.rows


def test_bench_mse_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig("mse_1d", functions=("blocks",), sizes=(100,),
                           reps=(4,), seed=5, sigma=1.0)
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = bench_mse(cfg)
    monkeypatch.setenv("TVDN_THREADS", "2")
    parallel = bench_mse(cfg)
    assert serial.rows == parallel.rows


def test_bench_mse_cells_share_one_flat_run(monkeypatch):
    # every cell's replicates run in one flat call and are sliced back into
    # their cells: serial and parallel agree, and each cell summarizes
    # exactly its own replicates
    cfg = ExperimentConfig("mse_1d", functions=("blocks", "bumps"),
                           sizes=(60, 90), reps=(3, 2), seed=8, sigma=1.0)
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = bench_mse(cfg)
    monkeypatch.setenv("TVDN_THREADS", "2")
    assert bench_mse(cfg).rows == serial.rows
    expected = ResultTable()
    for fi, function in enumerate(cfg.functions):
        for n, reps in zip(cfg.sizes, cfg.reps):
            f = gen_test_function(function, n, snr=cfg.snr)
            out = [_mse_rep((f, cfg.sigma, (cfg.seed, fi, n, r)))
                   for r in range(reps)]
            for mi, method in enumerate(("oracle", "sure", "adaptive")):
                mean, se = _mean_se([100.0 * o[mi] for o in out])
                expected.add(function, n, method, "risk_x100", mean, se, reps)
            if fi == 0:
                solo = bench_mse(ExperimentConfig(
                    "mse_1d", functions=(function,), sizes=(n,),
                    reps=(reps,), seed=cfg.seed, sigma=cfg.sigma))
                assert solo.rows == expected.rows[-3:]
    assert serial.rows == expected.rows


def test_mse_rep_runs_one_fusion_pass(monkeypatch):
    # the grid fits and both adaptive fits share one pass over the signal
    calls = []
    fusion_times = tvdn.tvsolve._fusion_times

    def counted(y):
        calls.append(y.size)
        return fusion_times(y)

    monkeypatch.setattr(tvdn.tvsolve, "_fusion_times", counted)
    _mse_rep((gen_test_function("bumps", 200, 7.0), 1.0, (3, 0, 200, 0)))
    assert calls == [200]


def test_seg_rep_runs_one_fusion_pass(monkeypatch):
    # both thresholds' fits share one pass over each replicate's signal
    calls = []
    fusion_times = tvdn.tvsolve._fusion_times

    def counted(y):
        calls.append(y.size)
        return fusion_times(y)

    monkeypatch.setattr(tvdn.tvsolve, "_fusion_times", counted)
    lambdas = {"exact_seg": 3.0, "universal": 3.5}
    for r in range(3):
        res = _seg_rep((gen_piecewise("staircase", 100, 5, 4.0), 1.0, lambdas,
                        (3, 0, 0, 1, r)))
        assert sorted(res) == sorted(lambdas)
        assert calls == [100] * (r + 1)


def test_bench_mse_default_reps_follow_the_size(monkeypatch):
    # without --reps a size n runs 50000 // n replicates (at least 1),
    # whatever its position among the sizes; counted with no solves
    counts = []

    def counted(fn, items):
        counts.append(len(items))
        return [(0.0, 0.0, 0.0)] * len(items)

    monkeypatch.setattr(tvdn.bench, "parallel_map", counted)
    for sizes, reps in (((10000,), [5]), ((100, 10000), [500, 5]),
                        ((), [500, 50, 5]), ((60000,), [1])):
        table = bench_mse(ExperimentConfig("mse_1d", functions=("blocks",),
                                           sizes=sizes))
        assert counts.pop() == sum(reps)
        assert [row["reps"] for row in table.rows] == [r for r in reps
                                                       for _ in range(3)]


def test_bench_mse_wrong_experiment():
    with pytest.raises(ValueError):
        bench_mse(ExperimentConfig("seg_1d"))
    with pytest.raises(ValueError):
        bench_seg(ExperimentConfig("mse_1d"))


def test_bench_seg_small_run():
    cfg = ExperimentConfig("seg_1d", functions=("battlements",), sizes=(100,),
                           reps=(20,), seed=3, alphas=(0.05,), sigma=1.0)
    table = bench_seg(cfg)
    functions = ["battlements@%s" % tag for tag in ("2h*", "h*", "h*/10")]
    assert not table.missing(functions, (100,), ("exact_seg", "universal"),
                             ("pi_exact", "pi_screen", "mean_levels"))
    for fn in functions:
        for method in ("exact_seg", "universal"):
            p_ex = table.get(fn, 100, method, "pi_exact")["value"]
            p_sc = table.get(fn, 100, method, "pi_screen")["value"]
            assert 0.0 <= p_ex <= p_sc <= 1.0
            assert table.get(fn, 100, method, "mean_levels")["value"] >= 1.0
    # large jumps at the exact-recovery threshold segment near-perfectly;
    # tiny jumps never do
    assert table.get("battlements@2h*", 100, "exact_seg",
                     "pi_exact")["value"] >= 0.8
    assert table.get("battlements@h*/10", 100, "exact_seg",
                     "pi_exact")["value"] == 0.0


def test_bench_seg_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig("seg_1d", functions=("battlements", "staircase"),
                           sizes=(40, 60), reps=(4, 3), seed=6,
                           alphas=(0.05,), sigma=1.0)
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = bench_seg(cfg)
    monkeypatch.setenv("TVDN_THREADS", "2")
    parallel = bench_seg(cfg)
    assert len(serial.rows) == 2 * 2 * 3 * 2 * 3
    assert serial.rows == parallel.rows


def test_events_and_sure_argmin_are_scale_equivariant():
    # scaling y and sigma by c scales every fit and threshold by c; pieces
    # and jumps are decided at zero tolerance, so no segmentation event and
    # no SURE argmin moves, far below or above unit scale
    def events(sigma):
        cfg = ExperimentConfig("seg_1d", functions=("battlements", "staircase"),
                               sizes=(100,), reps=(20,), seed=0, sigma=sigma)
        return [(r["function"], r["method"], r["metric"], r["value"])
                for r in bench_seg(cfg).rows]

    def sure_argmin(f, noise, c):
        y = Signal(f.shape, c * (f.values + noise))
        grid = default_lambda_grid(sample_lambda_1d(y))
        return int(np.argmin(risk_curve(y, grid, "sure", sigma=c).values))

    ref = events(1.0)
    rng = np.random.default_rng(3)
    draws = [(gen_test_function(name, n, 7.0), rng.standard_normal(n))
             for name in TEST_FUNCTIONS for n in (100, 1000)]
    argmins = [sure_argmin(f, noise, 1.0) for f, noise in draws]
    for c in (1e-4, 1e4):
        assert events(c) == ref, c
        assert [sure_argmin(f, noise, c) for f, noise in draws] == argmins, c


def test_run_lambda_samples_matches_closed_form():
    draws = run_lambda_samples(1, [30], reps=10, seed=5)[30]
    expected = []
    for child in np.random.SeedSequence(5).spawn(10):
        rng = np.random.default_rng(child)
        y = Signal.from_array(rng.standard_normal(30))
        expected.append(sample_lambda_1d(y))
    np.testing.assert_array_equal(draws, expected)


def test_run_lambda_samples_shifts_seed_per_size():
    both = run_lambda_samples(1, [30, 40], reps=5, seed=5)
    solo = run_lambda_samples(1, [40], reps=5, seed=6)
    np.testing.assert_array_equal(both[40], solo[40])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_lambda_samples_one_pool_call(monkeypatch, threads):
    # every size's draws go through one parallel_map call and equal the
    # draws of monte_carlo_lambda at seed + size index
    monkeypatch.setenv("TVDN_THREADS", threads)
    calls = []
    pmap = tvdn.bench.parallel_map

    def counted(fn, items):
        calls.append(1)
        return pmap(fn, items)

    monkeypatch.setattr(tvdn.bench, "parallel_map", counted)
    sizes = (4, 6, 5)
    got = run_lambda_samples(2, sizes, reps=3, seed=9)
    assert len(calls) == 1
    assert list(got) == list(sizes)
    for i, n in enumerate(sizes):
        want = monte_carlo_lambda(LatticeShape((n, n)), 3, seed=9 + i)
        np.testing.assert_array_equal(got[n], want)


def test_lambda_fit_report_payload():
    samples = run_lambda_samples(1, [40, 80], reps=40, seed=11)
    payload = lambda_fit_report(samples, 1, reps=40, seed=11)
    for key in ("dim", "n_values", "mu", "beta", "a_mu", "b_mu", "a_beta",
                "b_beta", "gev", "reps", "seed"):
        assert key in payload
    assert payload["n_values"] == [40, 80]
    assert len(payload["mu"]) == 2 and len(payload["beta"]) == 2
    assert all(b > 0 for b in payload["beta"])
    assert len(payload["gev"]) == 2
    for row in payload["gev"]:
        assert 0.0 <= row["p_value"] <= 1.0
        assert row["scale"] > 0
    # fewer than 30 draws per size: Gumbel fits still present, GEV skipped
    small = {n: s[:20] for n, s in samples.items()}
    payload2 = lambda_fit_report(small, 1)
    assert payload2["gev"] == []
    assert payload2["reps"] is None and payload2["seed"] is None


def test_qq_pairs():
    rng = np.random.default_rng(8)
    samples = rng.gumbel(loc=2.0, scale=0.5, size=25)
    pairs = qq_pairs(samples, GumbelParams(2.0, 0.5))
    assert pairs.shape == (25, 2)
    np.testing.assert_array_equal(pairs[:, 0], np.sort(samples))
    assert np.all(np.diff(pairs[:, 1]) > 0)
