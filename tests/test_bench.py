"""Tests for the seeded Monte Carlo benchmark drivers."""
import numpy as np
import pytest

import tvdn.bench
import tvdn.tvsolve
from tvdn.bench import (ExperimentConfig, ResultTable, _chunks, _mean_se,
                        _mse_reps, _seg_reps, bench_mse, bench_seg,
                        lambda_fit_report, qq_pairs, run_lambda_samples)
from tvdn.grid import LatticeShape, Signal
from tvdn.lambda_stat import GumbelParams, sample_lambda, sample_lambda_1d
from tvdn.risk import default_lambda_grid, risk_curve
from tvdn.segmentation import evaluate_outcome
from tvdn.selection import (adaptive_tv, exact_seg_threshold,
                            min_jump_height, universal_threshold)
from tvdn.signals import TEST_FUNCTIONS, gen_piecewise, gen_test_function
from tvdn.tvsolve import FusionPath


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
    cfg = ExperimentConfig("mse_1d", sizes=(10, 20, 30), reps=(7,))
    assert cfg.reps == (7, 7, 7)
    cfg = ExperimentConfig("mse_1d", sizes=(10, 20), reps=(5, 9))
    assert cfg.reps == (5, 9)
    # empty fields take the experiment's defaults, and the counts are then
    # checked against the resolved sizes
    cfg = ExperimentConfig("mse_1d")
    assert cfg.functions == TEST_FUNCTIONS
    assert cfg.sizes == (100, 1000, 10000) and cfg.reps == (500, 50, 5)
    assert ExperimentConfig("mse_1d", reps=(4,)).reps == (4, 4, 4)
    assert ExperimentConfig("mse_1d", sizes=(60000,)).reps == (1,)
    cfg = ExperimentConfig("seg_1d")
    assert cfg.functions == ("battlements", "staircase")
    assert cfg.sizes == (100,) and cfg.reps == (200,)
    assert ExperimentConfig("seg_1d", sizes=(40, 60)).reps == (200, 200)
    for experiment, reps in (("mse_1d", (1, 2)), ("seg_1d", (1, 2))):
        with pytest.raises(ValueError, match="one count per size"):
            ExperimentConfig(experiment, reps=reps)
    with pytest.raises(ValueError, match="sizes must be distinct"):
        ExperimentConfig("mse_1d", sizes=(100, 100))
    for experiment, function in (("mse_1d", "blocks"),
                                 ("seg_1d", "staircase")):
        with pytest.raises(ValueError, match="functions must be distinct"):
            ExperimentConfig(experiment, functions=(function, function))
    # a size or replicate count that is not integral is refused, not
    # truncated, and so is an infinity, a NaN or a boolean; an integral
    # float passes
    for sizes, reps in (((1000.7,), ()), ((100,), (2.9,)), ((0,), ()),
                        ((1000.7,), (2.9,)), ((float("inf"),), ()),
                        ((float("nan"),), ()), ((True,), ()),
                        ((100,), (np.True_,))):
        with pytest.raises(ValueError, match="must be positive integers"):
            ExperimentConfig("mse_1d", sizes=sizes, reps=reps)
    assert ExperimentConfig("mse_1d", sizes=(100.0,),
                            reps=(np.int64(3),)).reps == (3,)
    # a field only the other experiment reads is refused at any value but
    # its default, naming the experiment that reads it
    with pytest.raises(ValueError, match="alpha is read only by the seg_1d"):
        ExperimentConfig("mse_1d", alpha=0.01)
    with pytest.raises(ValueError, match="snr is read only by the mse_1d"):
        ExperimentConfig("seg_1d", snr=3.0)
    assert ExperimentConfig("seg_1d", alpha=0.01).alpha == 0.01
    assert ExperimentConfig("mse_1d", snr=3.0).snr == 3.0


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
            out = [_mse_reps((f, cfg.sigma, [(cfg.seed, fi, n, r)]))[0]
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
    # a chunk's replicates share one pass over the block of their signals,
    # and each replicate's grid fits and both adaptive fits come from its
    # row's path, whose grid reads its top, Lambda, off that path
    calls = []
    fusion_times = tvdn.tvsolve._fusion_times
    lambdas = []

    def counted(y):
        calls.append(y.shape)
        return fusion_times(y)

    def counted_lambda(y, *args, **kwargs):
        lambdas.append(y.shape.n_sites)
        return sample_lambda(y, *args, **kwargs)

    monkeypatch.setattr(tvdn.tvsolve, "_fusion_times", counted)
    monkeypatch.setattr(tvdn.tvsolve, "sample_lambda", counted_lambda)
    monkeypatch.setattr(tvdn.bench, "sample_lambda", counted_lambda)
    out = _mse_reps((gen_test_function("bumps", 200, 7.0), 1.0,
                     [(3, 0, 200, r) for r in range(3)]))
    assert len(out) == 3
    assert calls == [(3, 200)]
    assert lambdas == [200] * 3


def _reference_loss(f_hat, f):
    d = f_hat.values - f.values
    return float(d @ d) / d.size


def _reference_sure(y, f_hat, sigma):
    m = y.shape.n_sites
    rss = float(np.sum((y.values - f_hat.values) ** 2))
    pieces = 1 + int(np.count_nonzero(np.diff(f_hat.values)))
    return rss / m + 2.0 * sigma ** 2 * pieces / m - sigma ** 2


def _reference_mse_rep(args):
    # the replicate as it was written before grid fits were written in
    # blocks: one FusionPath.solve, loss and sure per grid value, with loss
    # and sure as they were written for one fit
    f, sigma, entropy = args
    rng = np.random.default_rng(entropy)
    y = Signal(f.shape, f.values + sigma * rng.standard_normal(f.shape.n_sites))
    grid = default_lambda_grid(sample_lambda(y)[0])
    losses = np.empty(grid.size)
    sures = np.empty(grid.size)
    path = FusionPath(y)
    for i, sol in enumerate(map(path.solve, grid.tolist())):
        losses[i] = _reference_loss(sol.estimate, f)
        sures[i] = _reference_sure(y, sol.estimate, sigma)
    _, sol2, _ = adaptive_tv(path, sigma=sigma)
    return (float(losses.min()),
            float(losses[int(np.argmin(sures))]),
            _reference_loss(sol2.estimate, f))


def test_mse_rep_matches_the_one_row_reference():
    # bit for bit, with every grid in one block (n = 200) and with blocks
    # of fewer rows than the grid's 30 values, each replicate of a chunk
    # as the one-row reference scores it alone: a chunk of 5 at n = 2000
    # takes the split pass, a lone signal of that size the heap
    long = 2000
    assert tvdn.tvsolve._BLOCK // long < 30
    assert 5 * long >= tvdn.tvsolve._SPLIT_MIN > long
    cases = [(function, 200) for function in TEST_FUNCTIONS[:4]]
    cases += [("doppler", long), ("blocks", long)]
    for i, (function, n) in enumerate(cases):
        f = gen_test_function(function, n, 7.0)
        for sigma in (1.0, 0.25):
            entropies = [(28, i, n, int(4 * sigma) + r)
                         for r in range(5 if n == long else 2)]
            got = _mse_reps((f, sigma, entropies))
            for rep, entropy in zip(got, entropies):
                want = _reference_mse_rep((f, sigma, entropy))
                assert [v.hex() for v in rep] == [v.hex() for v in want], \
                    (function, n, sigma)


def test_fits_do_not_depend_on_the_block_size(monkeypatch):
    # grid fits, duals and gaps on a path, and replicate results, are the
    # same bytes with one row per block, 7 and every row in one block
    f = gen_test_function("heavisine", 300, 7.0)
    y = Signal(f.shape, f.values + np.random.default_rng(28).normal(size=300))
    grid = default_lambda_grid(sample_lambda(y)[0], 40)
    seen = set()
    for block in (1, 7 * 300, 1 << 40):
        monkeypatch.setattr(tvdn.tvsolve, "_BLOCK", block)
        sols = tvdn.tvsolve.tv_denoise_grid(y, grid)
        reps = _mse_reps((f, 1.0, [(28, 0, 300, r) for r in range(3)]))
        seen.add((b"".join(s.estimate.values.tobytes() + s.dual.tobytes()
                           for s in sols),
                  tuple(s.gap.hex() for s in sols),
                  tuple(v.hex() for rep in reps for v in rep)))
    assert len(seen) == 1


def _seg_args(spec, sigma, lambdas, entropies):
    return (spec.realize(), spec.jump_locations - 1, sigma, lambdas,
            entropies)


def test_seg_rep_runs_one_fusion_pass(monkeypatch):
    # both thresholds' events of every replicate of a chunk are read off
    # one pass over the block of the chunk's signals
    calls = []
    fusion_times = tvdn.tvsolve._fusion_times

    def counted(y):
        calls.append(y.shape)
        return fusion_times(y)

    monkeypatch.setattr(tvdn.tvsolve, "_fusion_times", counted)
    lambdas = {"exact_seg": 3.0, "universal": 3.5}
    for r in range(1, 4):
        res = _seg_reps(_seg_args(gen_piecewise("staircase", 100, 5, 4.0),
                                  1.0, lambdas,
                                  [(3, 0, 0, 1, i) for i in range(r)]))
        assert len(res) == r
        assert all(sorted(rep) == sorted(lambdas) for rep in res)
        assert calls[-1] == (r, 100)
    assert len(calls) == 3


def test_seg_rep_makes_no_fit(monkeypatch):
    # the events come from the fusion times alone: no threshold's fit is
    # written or certified
    def refused(*args, **kwargs):
        raise AssertionError("a replicate wrote a fit")

    monkeypatch.setattr(tvdn.tvsolve.FusionPath, "solve", refused)
    monkeypatch.setattr(tvdn.tvsolve.CutSolver, "solve", refused)
    monkeypatch.setattr(tvdn.tvsolve, "_certified", refused)
    lambdas = {"exact_seg": 3.0, "universal": 3.5}
    res = _seg_reps(_seg_args(gen_piecewise("battlements", 100, 5, 8.0), 1.0,
                              lambdas, [(3, 0, 0, 0, r) for r in range(2)]))
    assert [sorted(rep) for rep in res] == [sorted(lambdas)] * 2


def test_seg_rep_events_match_the_scored_fits():
    # the window lookups give evaluate_outcome's events on each lambda's
    # certified fit: both bench thresholds, random lambdas and the window's
    # own ends, far below and above unit scale, and on a one-piece signal
    # (h = 0), which has no true edge, so hi is inf
    rng = np.random.default_rng(26)
    n, alpha = 60, 0.05
    for sigma in (1e-4, 1.0, 1e4):
        hstar = min_jump_height(sigma, alpha)
        for kind in ("battlements", "staircase"):
            for height in (2.0 * hstar, hstar, hstar / 10.0, 0.0):
                spec = gen_piecewise(kind, n, 5, height)
                f, edges = spec.realize(), spec.jump_locations - 1
                for r in range(4):
                    entropy = (26, r)
                    noise = np.random.default_rng(entropy).standard_normal(n)
                    path = FusionPath(Signal(f.shape, f.values + sigma * noise))
                    top = float(path.times.max())
                    lambdas = {
                        "exact_seg": exact_seg_threshold(
                            int(spec.lengths.max()), sigma, alpha),
                        "universal": universal_threshold(f.shape, sigma),
                        "lo": float(np.delete(path.times, edges).max(
                            initial=0.0)),
                        "hi": float(path.times[edges].min(initial=top)),
                    }
                    for i, lam in enumerate(rng.uniform(0.0, 1.2 * top, 8)):
                        lambdas["random%d" % i] = float(lam)
                    (res,) = _seg_reps((f, edges, sigma, lambdas, [entropy]))
                    for method, lam in lambdas.items():
                        out = evaluate_outcome(path.solve(lam).estimate, spec)
                        assert res[method] == (
                            out.exact, out.screening,
                            len(out.jumps_estimated) + 1), (sigma, method)


def test_bench_mse_default_reps_follow_the_size(monkeypatch):
    # without --reps a size n runs 50000 // n replicates (at least 1),
    # whatever its position among the sizes; counted with no solves
    counts = []

    def counted(fn, items):
        counts.append(sum(len(entropies) for _, _, entropies in items))
        return [[(0.0, 0.0, 0.0)] * len(entropies)
                for _, _, entropies in items]

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
                           reps=(20,), seed=3, alpha=0.05, sigma=1.0)
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


def test_bench_seg_n_max_is_the_longest_drawn_piece(monkeypatch):
    # 103 samples in 5 pieces are drawn as 21, 21, 21, 20, 20, so the
    # exact-recovery threshold takes N_max = 21
    seen = []
    threshold = tvdn.bench.exact_seg_threshold

    def recorded(n_max, sigma, alpha):
        seen.append(n_max)
        return threshold(n_max, sigma, alpha)

    monkeypatch.setattr(tvdn.bench, "exact_seg_threshold", recorded)
    assert gen_piecewise("battlements", 103, 5, 1.0).lengths.tolist() == \
        [21, 21, 21, 20, 20]
    cfg = ExperimentConfig("seg_1d", functions=("staircase",),
                           sizes=(100, 103), reps=(1,))
    bench_seg(cfg)
    assert seen == [20, 21]


def test_bench_seg_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig("seg_1d", functions=("battlements", "staircase"),
                           sizes=(40, 60), reps=(4, 3), seed=6,
                           alpha=0.05, sigma=1.0)
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = bench_seg(cfg)
    monkeypatch.setenv("TVDN_THREADS", "2")
    parallel = bench_seg(cfg)
    assert len(serial.rows) == 2 * 2 * 3 * 2 * 3
    assert serial.rows == parallel.rows


def test_bench_seg_chunks_do_not_depend_on_the_worker_count(monkeypatch):
    # cells of several chunks, some above the split pass's block size:
    # bench_seg rows, like bench_mse rows, are the same at any TVDN_THREADS
    cfg = ExperimentConfig("seg_1d", functions=("staircase",),
                           sizes=(60, 5000), reps=(5, 8), seed=30,
                           alpha=0.05, sigma=1.0)
    assert [len(c) for c in _chunks((30,), 5000, 8)] == [6, 2]
    assert 2 * 5000 >= tvdn.tvsolve._SPLIT_MIN
    rows = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        rows.append(bench_seg(cfg).rows)
    assert rows[0] == rows[1]


def test_chunks_depend_only_on_the_config(monkeypatch):
    # every cell's replicates go out in order, as chunks of consecutive
    # replicates of at most _CHUNK sites (or one replicate), whatever the
    # worker count; an mc_1d-shaped job (20 replicates at 1e3, 2 at 1e4)
    # is 2 tasks; recorded with no solves
    seen = []

    def recorded(fn, items):
        seen.append([item[-1] for item in items])
        if fn is tvdn.bench._seg_reps:
            return [[{method: (False, False, 1) for method in item[3]}]
                    * len(item[-1]) for item in items]
        return [[(0.0, 0.0, 0.0)] * len(item[-1]) for item in items]

    monkeypatch.setattr(tvdn.bench, "parallel_map", recorded)
    configs = [
        ExperimentConfig("mse_1d", functions=("blocks",), sizes=(1000, 10000),
                         reps=(20, 2), seed=4, sigma=1.0),
        ExperimentConfig("mse_1d", functions=("bumps", "doppler"),
                         sizes=(300, 40000), reps=(120, 2), seed=4),
        ExperimentConfig("seg_1d", sizes=(100, 2000), reps=(400, 40), seed=4)]
    for threads in ("1", "2"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        for cfg in configs:
            (bench_mse if cfg.experiment == "mse_1d" else bench_seg)(cfg)
    assert seen[:3] == seen[3:]
    assert len(seen[0]) == 2
    for chunks in seen[:3]:
        for chunk in chunks:
            # an mse entropy is (seed, function, n, r), a seg one (seed,
            # function, size index, height, r)
            n = chunk[0][2] if len(chunk[0]) == 4 else (100, 2000)[chunk[0][2]]
            assert len(chunk) == 1 or len(chunk) * n <= tvdn.bench._CHUNK
            assert [e[-1] for e in chunk] == list(range(chunk[0][-1],
                                                        chunk[-1][-1] + 1))
        cells = {}
        for chunk in chunks:
            cells.setdefault(chunk[0][:-1], []).extend(e[-1] for e in chunk)
        assert all(reps == list(range(len(reps))) for reps in cells.values())
    assert [len(c) for c in seen[1]] == [109, 11, 1, 1] * 2
    assert _chunks((1,), 1 << 16, 3) == [[(1, 0)], [(1, 1)], [(1, 2)]]


def test_run_lambda_samples_submits_one_task_per_draw(monkeypatch):
    # draws of Lambda are not chunked: one task per draw keeps a large
    # calibration spread over every worker
    items = []
    pmap = tvdn.bench.parallel_map

    def recorded(fn, args):
        items.append(len(args))
        return pmap(fn, args)

    monkeypatch.setattr(tvdn.bench, "parallel_map", recorded)
    run_lambda_samples(2, (4, 6, 5), reps=7, seed=9)
    run_lambda_samples(1, (2000,), reps=20, seed=9)
    assert items == [21, 20]


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
    # every size's draws go through one parallel_map call and equal direct
    # draws from the children of SeedSequence(seed + size index)
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
        noise = [np.random.default_rng(ss).standard_normal(n * n)
                 for ss in np.random.SeedSequence(9 + i).spawn(3)]
        want = [sample_lambda(Signal(LatticeShape((n, n)), v))[0]
                for v in noise]
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
