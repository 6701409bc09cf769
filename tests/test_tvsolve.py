import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariants import assert_mean_fit
from oracles import (cut_solve_two_way, fusion_times_heap, oracle_diff,
                     tv_objective, tv_oracle_boxqp, tv_oracle_direct_1d)
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.lambda_stat import sample_lambda, sample_lambda_1d
from tvdn._pool import parallel_map
from tvdn.risk import RiskCurve, default_lambda_grid, ncc, risk_curve, sure
from tvdn.segmentation import kkt_check
from tvdn.signals import TEST_FUNCTIONS, gen_test_function
import tvdn.tvsolve
from tvdn.tvsolve import (CutSolver, FusionPath, SolverConfig, TvSolution,
                          _certified, lambda_max, tv_denoise, tv_denoise_1d,
                          tv_denoise_grid, tv_solver)

S = Signal.from_array


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_1d_lambda_zero_returns_input():
    y = S([3.0, -1.0, 2.0])
    sol = tv_denoise_1d(y, 0.0)
    assert np.array_equal(sol.estimate.values, y.values)
    assert sol.gap == 0.0


def test_1d_two_point_hand_solution():
    sol = tv_denoise_1d(S([0.0, 2.0]), 0.5)
    assert np.allclose(sol.estimate.values, [0.5, 1.5], atol=1e-12)
    sol = tv_denoise_1d(S([0.0, 2.0]), 1.0)
    assert np.allclose(sol.estimate.values, [1.0, 1.0], atol=1e-12)


def test_1d_large_lambda_gives_mean():
    rng = np.random.default_rng(0)
    y = S(rng.normal(size=50))
    lam = sample_lambda_1d(y)
    sol = tv_denoise_1d(y, lam * 1.000001)
    assert np.allclose(sol.estimate.values, y.values.mean(), atol=1e-10)


def test_1d_rejects_negative_lambda():
    with pytest.raises(ValueError):
        tv_denoise_1d(S([1.0, 2.0]), -0.1)


def test_1d_solution_certificates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        y = S(rng.normal(size=n) * 3)
        lam = float(rng.uniform(0, 4))
        sol = tv_denoise_1d(y, lam)
        assert sol.gap <= 1e-10
        assert np.abs(sol.dual).max() <= lam + 1e-9
        recon = y.values - adjoint_flat(sol.dual, (n,))
        assert np.allclose(sol.estimate.values, recon, atol=1e-8)


def test_1d_matches_dual_boxqp_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 16))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.1, 2.0))
        est = tv_denoise_1d(S(y), lam).estimate.values
        ref = tv_oracle_boxqp(y, lam, (n,))
        assert np.abs(est - ref).max() <= 1e-8


def test_1d_jump_sets_nest_as_lambda_grows():
    rng = np.random.default_rng(3)
    y = S(np.repeat(rng.normal(size=6) * 5, 12) + rng.normal(size=72))
    prev = None
    for lam in np.linspace(0.05, 8.0, 25):
        jumps = set(np.flatnonzero(np.diff(tv_denoise_1d(y, lam).estimate.values) != 0).tolist())
        if prev is not None:
            assert jumps.issubset(prev), lam
        prev = jumps


def _path_input(n, seed, log_amp, ties):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n)
    # rounding to integers gives runs of equal data and equal group values
    return S(10.0 ** log_amp * (np.round(2 * base) if ties else base))


def _path_grid(y, seed, k):
    # 0, interior values, and values at and beyond the collapse point Lambda
    rng = np.random.default_rng(seed + 1)
    lam_max = sample_lambda_1d(y)
    inner = lam_max * rng.uniform(0.0, 1.0, size=k)
    return np.sort(np.concatenate([[0.0, lam_max, 2 * lam_max + 1e-3], inner]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 2),
       log_amp=st.floats(-6.0, 6.0), ties=st.booleans(), k=st.integers(0, 12))
def test_path_matches_direct_pass_with_certificates(n, seed, log_amp, ties, k):
    y = _path_input(n, seed, log_amp, ties)
    _assert_path_matches_direct_pass(y, _path_grid(y, seed, k))


def test_path_matches_direct_pass_at_benchmark_scale():
    # a smooth signal at the size of the Monte Carlo risk study, where the
    # direct-pass oracle is slowest and the path has the most merges
    f = gen_test_function("doppler", 10000, 7.0)
    y = Signal(f.shape, f.values + np.random.default_rng(7).normal(size=10000))
    lam_max = sample_lambda_1d(y)
    _assert_path_matches_direct_pass(
        y, np.array([0.0, 0.01, 0.1, 0.5, 1.0]) * lam_max)


def _assert_path_matches_direct_pass(y, grid):
    n = y.shape.n_sites
    lam_max = sample_lambda_1d(y)
    amp = float(np.abs(y.values).max())
    sols = tv_denoise_grid(y, grid)
    assert [s.lam for s in sols] == grid.tolist()
    for lam, sol in zip(grid, sols):
        f = sol.estimate.values
        direct = tv_oracle_direct_1d(y.values, lam)
        assert np.abs(f - direct).max() <= 1e-10 * (1.0 + amp)
        assert np.abs(sol.dual).max() <= lam
        assert np.abs(y.values - adjoint_flat(sol.dual, (n,)) - f).max() \
            <= 1e-8 * amp
        assert 0.0 <= sol.gap <= 1e-9 * (1.0 + sol.objective(y))
        if lam == 0.0:
            assert np.array_equal(f, y.values)
        if lam >= lam_max:
            assert np.abs(f - y.values.mean()).max() <= 1e-12 * amp * n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 2),
       ties=st.booleans(), k=st.integers(1, 6))
def test_path_matches_boxqp_oracle(n, seed, ties, k):
    y = _path_input(n, seed, 0.0, ties)
    grid = _path_grid(y, seed, k)
    for lam, sol in zip(grid, tv_denoise_grid(y, grid)):
        ref = tv_oracle_boxqp(y.values, lam, (n,))
        assert np.abs(sol.estimate.values - ref).max() <= 1e-8


def test_fusion_path_times_and_bounds():
    # runs of equal data fuse at 0 and every other edge at a finite time, so
    # one path writes the fit at any lambda >= 0 (the direct-pass oracle's):
    # the mean fit, with gap 0, from Lambda on
    y = S([1.0, 1.0, 4.0, 0.0, 0.0])
    path = FusionPath(y)
    assert path.times[0] == 0.0 and path.times[3] == 0.0
    assert np.all(np.isfinite(path.times))
    for lam in (0.0, 0.5, 1.0, 10.0):
        sol = path.solve(lam)
        assert np.abs(sol.estimate.values
                      - tv_oracle_direct_1d(y.values, lam)).max() <= 1e-15
    assert np.abs(path.solve(10.0).estimate.values - 1.2).max() <= 1e-15
    assert path.solve(10.0).gap == 0.0
    for bad in (-0.1, -np.inf, np.inf, np.nan):
        with pytest.raises(ValueError):
            path.solve(bad)
    with pytest.raises(ValueError):
        FusionPath(S(np.zeros((2, 3))))
    # the pass ends with one group at any amplitude, with or without ties
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 50, 400):
        for amp in (1e-6, 1.0, 1e6):
            for v in (amp * rng.normal(size=n), amp * rng.integers(0, 3, n)):
                path = FusionPath(S(v))
                assert path.times.shape == (n - 1,)
                assert np.all(np.isfinite(path.times))
                sol = path.solve(sample_lambda_1d(S(v)))
                assert np.ptp(sol.estimate.values) == 0.0 and sol.gap == 0.0
                assert abs(sol.estimate.values[0] - v.mean()) \
                    <= 1e-12 * (1.0 + np.abs(v).max())


def _fusion_corpus(n, rng, amps):
    # the four test functions plus noise (below 8 sites, the first n values
    # of their 8-site versions), integers in {0, 1, 2}, normals rounded to
    # 0.1, a mirrored sequence and a noiseless ramp, at each amplitude
    rows = [gen_test_function(f, max(n, 8), 7.0).values[:n]
            + rng.standard_normal(n) for f in TEST_FUNCTIONS[:4]]
    half = rng.standard_normal((n + 1) // 2)
    rows += [rng.integers(0, 3, n).astype(float),
             np.round(rng.standard_normal(n), 1),
             np.concatenate((half, half[:n // 2][::-1])),
             np.arange(n, dtype=float)]
    return [amp * row for amp in amps for row in rows]


def test_fusion_times_match_the_reference_heap_pass(monkeypatch):
    # the split pass and its heap tail against the heap pass they replace,
    # on every row of blocks of 1, 7 and 20 rows at amplitudes 1e-6, 1 and
    # 1e6 (at n = 1e4, to save time, amplitude 1 only): every time within
    # 1e-12 Lambda of the reference's, every row the tail takes whole (all
    # rows of a block under _SPLIT_MIN sites) the reference's bits, and a
    # row's times the same bits in every block of at least _SPLIT_MIN
    # sites. The tail takes a row whole when it gets a segment of the full
    # row with no cap
    whole = []
    tail = tvdn.tvsolve._heap_tail

    def spy(v, times, starts, sizes, s_left, s_right, caps):
        whole.append(starts[np.isinf(caps)])
        return tail(v, times, starts, sizes, s_left, s_right, caps)

    monkeypatch.setattr(tvdn.tvsolve, "_heap_tail", spy)
    rng = np.random.default_rng(30)
    split_min = tvdn.tvsolve._SPLIT_MIN
    for n in (1, 2, 3, 100, 1000, 10000):
        rows = _fusion_corpus(n, rng, (1.0,) if n == 10000
                              else (1e-6, 1.0, 1e6))
        want = [fusion_times_heap(row) for row in rows]
        lams = [sample_lambda_1d(S(row)) for row in rows]
        seen = {}
        for k in (1, 7, 20):
            for i in range(0, len(rows), k):
                block = np.array(rows[i:i + k])
                whole.clear()
                got = tvdn.tvsolve._fusion_times(block)
                assert got.shape == (block.shape[0], n - 1)
                taken = {int(x) // (n + 1) for x in np.concatenate(whole)}
                if block.size < split_min:
                    assert taken == set(range(block.shape[0]))
                for j, times in enumerate(got):
                    r = i + j
                    assert np.abs(times - want[r]).max(initial=0.0) \
                        <= 1e-12 * lams[r], (n, r, k)
                    if j in taken:
                        assert times.tobytes() == want[r].tobytes(), (n, r, k)
                    if block.size >= split_min:
                        seen.setdefault(r, set()).add(times.tobytes())
        assert all(len(v) == 1 for v in seen.values()), n
        if n >= split_min:
            assert len(seen) == len(rows)


def test_split_pass_hands_a_tie_to_the_heap(monkeypatch):
    # after the first split, at edge 4, sites 0..4 (s_L = 0, s_R = +1) have
    # t = 1.44 / 0.8 = 1.08 / 0.6 = 1.8 at edges 0 and 1; only edge 0
    # unfuses there, and edge 1 at 0.6. Rounding puts edge 1's t above edge
    # 0's, so the split levels alone would record edge 1 at 1.8; the group
    # goes to the heap tail, which puts it at 0.6 as the reference does
    y = np.array([-2.0, -0.2, 1.0, -1.3, -0.3, 2.1])
    monkeypatch.setattr(tvdn.tvsolve, "_SPLIT_MIN", 1)
    handed = []
    tail = tvdn.tvsolve._heap_tail

    def spy(v, times, starts, sizes, *rest):
        handed.extend(sizes.tolist())
        return tail(v, times, starts, sizes, *rest)

    monkeypatch.setattr(tvdn.tvsolve, "_heap_tail", spy)
    got = tvdn.tvsolve._fusion_times(y[None])[0]
    want = fusion_times_heap(y)
    assert handed
    assert np.abs(got - want).max() <= 1e-12 * sample_lambda_1d(S(y))
    assert got[1] == pytest.approx(0.6, abs=1e-12)


def test_fusion_times_of_a_noiseless_ramp_are_exact_to_rounding():
    # on y_j = c j the end group of s sites meets the next site at
    # c s (s + 1) / 2, from either end, until the two end groups meet. A
    # ramp's A is a small difference of large running sums near a group's
    # end, where its d is about 1 / |g|, so the split levels take A from
    # the nearer end of the group and the running sums in extended
    # precision, where the platform has it (10 to 100 times the error
    # without either)
    n = 20000
    bound = 1e-13 if np.finfo(np.longdouble).eps < np.finfo(float).eps \
        else 1e-12
    e = np.arange(n - 1)
    s = np.minimum(e + 1, n - 1 - e)
    off = np.abs(2 * e + 2 - n) > 2
    for c in (1e-6, 0.1):
        exact = c * s * (s + 1) / 2
        got = tvdn.tvsolve._fusion_times(c * np.arange(float(n))[None])[0]
        assert np.abs(got - exact)[off].max() <= bound * exact.max(), c


def test_fusion_path_block_is_one_pass_over_its_signals(monkeypatch):
    # one pass over the block, one path per signal, each the one-row
    # path's Lambda and, up to rounding, its times and fits
    calls = []
    fusion_times = tvdn.tvsolve._fusion_times

    def counted(y):
        calls.append(y.shape)
        return fusion_times(y)

    monkeypatch.setattr(tvdn.tvsolve, "_fusion_times", counted)
    rng = np.random.default_rng(30)
    ys = [S(rng.normal(size=500) + np.repeat([0.0, 3.0], 250))
          for _ in range(17)]
    paths = FusionPath.block(ys)
    assert calls == [(17, 500)]
    assert 17 * 500 >= tvdn.tvsolve._SPLIT_MIN > 500
    for path, y in zip(paths, ys):
        one = FusionPath(y)
        assert path.y is y and path.lam_max == one.lam_max
        assert np.abs(path.times - one.times).max() <= 1e-12 * one.lam_max
        for lam in default_lambda_grid(one.lam_max, 7).tolist():
            assert np.array_equal(path.solve(lam).estimate.values,
                                  one.solve(lam).estimate.values)
    assert FusionPath.block([]) == []
    with pytest.raises(ValueError):
        FusionPath.block([S(np.zeros((2, 3)))])
    with pytest.raises(ValueError):
        FusionPath.block([S(np.zeros(3)), S(np.zeros((1, 3)))])


def test_path_fit_at_lambda_max_is_constant():
    # every default grid ends at Lambda, the closed form of
    # sample_lambda_1d, which the path keeps; the pass's last fusion time
    # can exceed it by a few ulps, but the fit there is the mean, with no
    # step left at any scale
    rng = np.random.default_rng(1)
    for function in ("blocks", "bumps", "heavisine", "doppler", "zero"):
        for n in (100, 1000, 10000):
            f = gen_test_function(function, n, 7.0)
            y = Signal(f.shape, f.values + rng.standard_normal(n))
            lam = sample_lambda_1d(y)
            path = FusionPath(y)
            assert path.lam_max == lam
            assert path.times.max() <= lam
            fit = path.solve(lam).estimate.values
            assert np.ptp(fit) == 0.0, (function, n)


def test_path_edge_cases_and_bad_grids():
    sols = tv_denoise_grid(S([2.5]), [0.0, 1.0])
    assert [s.estimate.values.tolist() for s in sols] == [[2.5], [2.5]]
    const = S(np.full(7, 0.1))
    for sol in tv_denoise_grid(const, [0.0, 0.3, 9.0]):
        assert np.array_equal(sol.estimate.values, const.values)
        assert sol.gap == 0.0
    # a path and a 2D lattice take the same grid checks
    for y in (S([0.0, 3.0, 1.0]), S([[0.0, 3.0, 1.0], [2.0, -1.0, 0.5]])):
        assert tv_denoise_grid(y, []) == []
        for bad in ([1.0, 0.5], [-0.1, 1.0], [0.0, np.nan], [np.inf, 1.0],
                    [-np.inf, 1.0], [0.0, np.inf]):
            with pytest.raises(ValueError):
                tv_denoise_grid(y, bad)


def test_path_fit_that_cannot_be_certified_raises():
    # fusion times that do not belong to the data give a fit its running-sum
    # dual does not reconstruct: the true fit at lambda = 1 is [1, 9]
    path = FusionPath(S([0.0, 10.0]))
    assert path.solve(1.0).estimate.values.tolist() == [1.0, 9.0]
    path.times = np.array([0.5])
    with pytest.raises(RuntimeError):
        path.solve(1.0)
    # a block is refused when any of its rows is: the fit at 0.2 still
    # certifies, the one at 1 in the same block does not
    assert path.solve(0.2).estimate.values.tolist() == [0.2, 9.8]
    for grid in ([0.2, 1.0], [1.0, 2.0], [0.2, 0.3, 1.0]):
        with pytest.raises(RuntimeError):
            list(path.blocks(grid))
    # a bad grid is refused before any block is drawn
    for bad in ([1.0, 0.5], [-0.1], [np.nan]):
        with pytest.raises(ValueError):
            path.blocks(bad)


def test_cut_blocks_are_warm_chains_of_cold_fits(monkeypatch):
    # CutSolver.blocks, the lattice twin of FusionPath.blocks: the grid is
    # checked before any solve, the blocks are the _CHAIN-value chains in
    # grid order, every row's fit is the bytes of a cold solve with a
    # certified dual, and the rows do not depend on the process count
    rng = np.random.default_rng(33)
    solves = []
    fit = CutSolver._fit

    def counted(self, lam, start):
        solves.append(lam)
        return fit(self, lam, start)

    monkeypatch.setattr(CutSolver, "_fit", counted)
    blocky = np.kron(rng.integers(0, 4, (3, 3)), np.ones((4, 4)))
    for v in (blocky, np.round(rng.normal(size=(3, 4, 5)))):
        y = S(v + 0.5 * rng.normal(size=v.shape))
        solver = CutSolver(y)
        solves.clear()
        for bad in ([1.0, 0.5], [-0.1], [0.1, np.nan], [0.1, np.inf]):
            with pytest.raises(ValueError):
                solver.blocks(bad)
        assert list(solver.blocks([])) == [] and solves == []
        top = sample_lambda(y)[0]
        grid = np.sort(np.concatenate([[0.0, top, top, 2.0 * top],
                                       np.geomspace(1e-3, 0.9, 9) * top]))
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("TVDN_THREADS", threads)
            runs.append(list(solver.blocks(grid)))
        for blocks in runs:
            assert [len(b) for b in blocks] == [4, 4, 4]
            assert [b[0].size for b in blocks] == [5, 5, 3]
            assert np.concatenate([b[0] for b in blocks]).tolist() \
                == grid.tolist()
        rows = [[a.tobytes() for a in block] for block in runs[0]]
        assert rows == [[a.tobytes() for a in block] for block in runs[1]]
        for lams, fits, duals, rounds in runs[0]:
            # each chain is solved from its top down, every solve started
            # from the dual of the one above: its duals and rounds are those
            warm = None
            for lam, f, w, r in reversed(list(zip(
                    lams.tolist(), fits, duals, rounds.tolist()))):
                cold = CutSolver(y).solve(lam)
                assert f.tobytes() == cold.estimate.values.tobytes()
                _cut_certificate(y, lam, TvSolution(Signal(y.shape, f),
                                                    lam, w, r))
                g, dual, n = fit(solver, lam, warm)
                warm = _certified(y, np.array([lam]), g[None], dual[None])[0]
                assert w.tobytes() == warm.tobytes()
                assert r == n


def _path_cases():
    # noisy, tied and integer data on every path layout, with a grid that
    # repeats values and holds 0, Lambda and values above it
    rng = np.random.default_rng(28)
    v = gen_test_function("bumps", 97, 7.0).values + rng.normal(size=97)
    for data in (v, np.round(v), np.repeat(rng.integers(-2, 3, 20), 5)[:97],
                 np.full(97, 2.5)):
        for sizes in ((97,), (1, 97), (97, 1)):
            y = Signal(LatticeShape(sizes), data)
            top = sample_lambda(y)[0]
            grid = np.sort(np.concatenate([
                [0.0, 0.0, top, top, 2.0 * top + 1.0],
                np.geomspace(1e-3, 1.0, 12) * (top or 1.0)]))
            yield y, grid


def test_path_blocks_write_every_row_as_one_row_writes_it(monkeypatch):
    # fit, dual and gap of every row, within a block and across block
    # boundaries, are the bytes of the one-row write at that value; a block
    # holds no gaps, each solution derives its own
    for rows in (1, 3, 7, 100):
        monkeypatch.setattr(tvdn.tvsolve, "_BLOCK", 97 * rows)
        for y, grid in _path_cases():
            path = FusionPath(y)
            blocks = list(path.blocks(grid))
            assert [b[0].size for b in blocks[:-1]] == \
                [rows] * (len(blocks) - 1)
            assert np.concatenate([b[0] for b in blocks]).tolist() \
                == grid.tolist()
            assert all(len(b) == 4 for b in blocks)
            assert all(b[3].tolist() == [0] * b[0].size for b in blocks)
            written = [row for _, *block, _ in blocks for row in zip(*block)]
            for lam, (f, w), sol in zip(grid.tolist(), written,
                                        tv_denoise_grid(y, grid)):
                one = path.solve(lam)
                assert f.tobytes() == one.estimate.values.tobytes() \
                    == sol.estimate.values.tobytes()
                assert w.tobytes() == one.dual.tobytes() == sol.dual.tobytes()
                row = TvSolution(Signal(y.shape, f), lam, w, 0)
                assert row.gap.hex() == one.gap.hex() == sol.gap.hex()
                assert sol.lam == lam and sol.estimate.shape == y.shape


def test_grid_ends_in_the_mean_fit():
    # a grid reaching Lambda gets the mean fit there and above, certified
    # with gap 0, on a path and on a lattice; on a path every value keeps
    # tv_denoise's fit bit for bit
    v = np.random.default_rng(3).normal(size=16)
    for sizes in [(8,), (1, 8), (4, 4)]:
        y = Signal(LatticeShape(sizes), v[:np.prod(sizes)])
        top = sample_lambda(y)[0]
        grid = [0.0, 0.4, top, 10.0 * top]
        sols = tv_denoise_grid(y, grid)
        assert [s.lam for s in sols] == grid
        for lam, sol in zip(grid[2:], sols[2:]):
            assert_mean_fit(y, sol, lam)
        if y.shape.is_path:
            for lam, sol in zip(grid, sols):
                ref = tv_denoise(y, lam)
                assert sol.estimate.values.tobytes() \
                    == ref.estimate.values.tobytes()
                assert sol.gap == ref.gap


def test_nd_constant_input():
    y = S(np.full((4, 5), 2.5))
    sol = tv_denoise(y, 1.0)
    assert np.array_equal(sol.estimate.values, y.values)
    assert sol.objective(y) == 0.0
    assert sol.gap == 0.0


def test_tv_denoise_1d_is_the_fusion_path():
    # a path lattice never enters the cut solver, whatever the config: every
    # layout of n values on one chain gets, at one lambda from tv_denoise or
    # tv_denoise_1d, the fusion path's fit on the flat values bit for bit,
    # the same as tv_denoise_grid's at that lambda, in the input's shape
    rng = np.random.default_rng(13)
    cfg = SolverConfig(max_iter=1)
    for n in (1, 2, 50, 300):
        v = rng.normal(size=n)
        lams = sorted([0.0, 0.3, 2.0, 1.5 * sample_lambda_1d(S(v))])
        for sizes in [(n,), (1, n), (n, 1), (1, 1, n)]:
            ys = Signal(LatticeShape(sizes), v)
            path = FusionPath(ys)
            for lam, c in zip(lams, tv_denoise_grid(ys, lams)):
                ref = path.solve(lam)
                for a in (tv_denoise(ys, lam, cfg), tv_denoise_1d(ys, lam), c):
                    assert a.estimate.shape.sizes == sizes
                    assert a.estimate.values.tobytes() \
                        == ref.estimate.values.tobytes()
                    assert a.dual.tobytes() == ref.dual.tobytes()
                    assert (a.lam, a.gap, a.iterations, a.converged) \
                        == (lam, ref.gap, 0, True)
    # lambda must satisfy lam >= 0, which NaN fails on every lattice
    for bad in (-0.1, np.nan):
        for sizes in [(2,), (1, 3), (3, 4)]:
            with pytest.raises(ValueError, match="nonnegative"):
                tv_denoise(S(rng.normal(size=sizes)), bad, cfg)
        with pytest.raises(ValueError, match="nonnegative"):
            tv_denoise_1d(S([1.0, 2.0]), bad)
    with pytest.raises(ValueError):
        tv_denoise_1d(S(np.zeros((2, 3))), 0.1)


def test_nd_matches_1d_direct():
    # the cut solver on lattices with one nontrivial axis, against the exact
    # 1D pass on the same values; tv_denoise sends these lattices to the 1D
    # pass, so a CutSolver is called directly
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(8, 65))
        v = rng.normal(size=n)
        lam = float(rng.uniform(0.2, 3.0))
        b = tv_denoise_1d(S(v), lam).estimate.values
        for sizes in [(1, n), (n, 1)]:
            a = CutSolver(Signal(LatticeShape(sizes), v)).solve(lam)
            assert a.iterations > 0
            assert np.abs(a.estimate.values - b).max() <= 1e-6


def test_tv_solver_is_tv_denoise_bit_for_bit():
    # tv_denoise solves through tv_solver: a FusionPath on every path
    # lattice, a CutSolver on any other; one solver serving several lambdas
    # gives each the fit, dual, gap and rounds of tv_denoise
    rng = np.random.default_rng(27)
    v = np.repeat(rng.normal(scale=3.0, size=6), 20) + rng.normal(size=120)
    img = np.kron(rng.normal(scale=3.0, size=(3, 3)), np.ones((5, 5)))
    for y, kind in [(S(v), FusionPath), (S(v.reshape(1, 120)), FusionPath),
                    (S(img + rng.normal(size=(15, 15))), CutSolver),
                    (S(rng.normal(size=(3, 4, 5))), CutSolver)]:
        solver = tv_solver(y)
        assert type(solver) is kind
        top = sample_lambda(y)[0]
        for lam in [0.0, 0.05 * top, 0.4 * top, 0.1 * top, top, 10.0 * top]:
            a, b = solver.solve(lam), tv_denoise(y, lam)
            assert a.estimate.shape.sizes == y.shape.sizes
            assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
            assert a.dual.tobytes() == b.dual.tobytes()
            assert (a.gap, a.iterations) == (b.gap, b.iterations)


def test_cut_solver_refuses_a_bad_lambda():
    solver = CutSolver(S(np.arange(12.0).reshape(3, 4)))
    for lam in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            solver.solve(lam)


_CERTIFICATE_SHAPES = st.one_of(
    st.integers(1, 40).map(lambda n: (1, n)),
    st.integers(1, 40).map(lambda n: (n, 1)),
    st.integers(1, 40).map(lambda n: (1, 1, n)),
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 4)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sizes=_CERTIFICATE_SHAPES, seed=st.integers(0, 2 ** 32 - 2),
       log_amp=st.floats(-3.0, 3.0), frac=st.floats(0.0, 1.5))
def test_tv_denoise_certificate_on_random_shapes(sizes, seed, log_amp, frac):
    # every solve carries a feasible dual that reconstructs the estimate and
    # a nonnegative gap; a path lattice is the 1D pass on its flat values
    shape = LatticeShape(sizes)
    v = 10.0 ** log_amp * np.random.default_rng(seed).normal(size=shape.n_sites)
    y = Signal(shape, v)
    lam = frac * sample_lambda(y)[0]
    sol = tv_denoise(y, lam)
    f = sol.estimate.values
    assert sol.estimate.shape == shape
    assert sol.gap >= 0.0
    assert np.abs(sol.dual).max(initial=0.0) <= lam
    assert np.abs(v - adjoint_flat(sol.dual, sizes) - f).max() \
        <= 1e-8 * np.abs(v).max()
    if shape.is_path:
        ref = tv_denoise_1d(S(v), lam)
        assert sol.iterations == 0
        assert f.tobytes() == ref.estimate.values.tobytes()
        assert sol.dual.tobytes() == ref.dual.tobytes()
        assert sol.gap == ref.gap


def test_nd_converged_constant_fit_reports_minimum_sup_dual():
    # at the upper end of Lambda's certified bracket and just above it the
    # first cut round already finds the constant fit; its certificate is a
    # dual of sup-norm at most lambda, so at lambda = Lambda it is a
    # minimum sup-norm dual within the bracket
    y = S(np.random.default_rng(1).normal(size=(4, 4)))
    value, _ = sample_lambda(y, tol=1e-8)
    for lam in (value, value * (1 + 1e-6), 10.0 * value):
        sol = tv_denoise(y, lam)
        assert sol.converged and sol.iterations > 0
        assert np.ptp(sol.estimate.values) == 0.0
        assert sol.estimate.values[0] == pytest.approx(y.values.mean(), rel=1e-15)
        assert np.abs(sol.dual).max() <= lam
        assert np.abs(y.values - adjoint_flat(sol.dual, (4, 4))
                      - sol.estimate.values).max() <= 1e-12
        assert sol.gap == 0.0


def test_lambda_at_and_above_lambda_max_gives_the_mean():
    # every threshold is finite: at Lambda and at 10 Lambda a path and a
    # lattice get the constant mean fit, certified with gap 0
    v = np.random.default_rng(2).normal(size=16)
    for sizes in [(8,), (1, 8), (4, 4)]:
        y = Signal(LatticeShape(sizes), v[:np.prod(sizes)])
        top = sample_lambda(y)[0]
        for lam in (top, 10.0 * top):
            assert_mean_fit(y, tv_denoise(y, lam), lam)
            if y.shape.is_path:
                assert_mean_fit(y, tv_denoise_1d(y, lam), lam)


_PATH = S(np.random.default_rng(8).normal(size=8))
_LATTICE = S(np.random.default_rng(8).normal(size=(4, 4)))


@pytest.mark.parametrize("y", [_PATH, _LATTICE], ids=["path", "lattice"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_every_threshold_entry_refuses_a_non_finite_lambda(y, bad):
    # check_lambda alone states the threshold domain, so every entry that
    # takes a lambda refuses +-inf and NaN in its words
    entries = [lambda: tv_denoise(y, bad),
               lambda: tv_denoise_grid(y, [0.5, bad]),
               lambda: CutSolver(y).solve(bad),
               lambda: risk_curve(y, [0.5, bad], "sure", sigma=1.0),
               lambda: RiskCurve([0.5, bad], [1.0, 2.0]),
               lambda: default_lambda_grid(bad)]
    if y.shape.is_path:
        entries += [lambda: FusionPath(y).solve(bad),
                    lambda: kkt_check(y, [4], bad)]
    for entry in entries:
        with pytest.raises(ValueError,
                           match="lambda must be finite and nonnegative"):
            entry()


@pytest.mark.parametrize("y", [_PATH, _LATTICE], ids=["path", "lattice"])
def test_a_bad_lambda_is_refused_before_a_solver_is_built(y, monkeypatch):
    # a solver's set-up is a whole fusion pass or a cut network, so a bad
    # threshold or grid is refused before any solver exists
    def built(y):
        raise AssertionError("a solver was built")

    monkeypatch.setattr(tvdn.tvsolve, "tv_solver", built)
    monkeypatch.setattr(tvdn.risk, "tv_solver", built)
    for bad in (np.nan, -1.0, np.inf):
        for entry in (lambda: tv_denoise(y, bad),
                      lambda: tv_denoise_grid(y, [0.5, bad]),
                      lambda: risk_curve(y, [0.5, bad], "sure", sigma=1.0)):
            with pytest.raises(ValueError,
                               match="lambda must be finite and nonnegative"):
                entry()
    for entry in (lambda: tv_denoise_grid(y, [1.0, 0.5]),
                  lambda: risk_curve(y, [1.0, 0.5], "sure", sigma=1.0)):
        with pytest.raises(ValueError, match="lambda grid must be ascending"):
            entry()


def test_boxqp_oracle_is_optimal_on_4x4_lattices():
    # instances where bvls at its default iteration cap returned fits above
    # the minimum objective (by 0.54%, 2.8% and 5e-5 relative); the oracle
    # now certifies its fit, so it agrees with the certified cut fit
    for seed, frac in ((995, 0.9), (3198, 0.9), (3486, 1.1)):
        v = np.random.default_rng(seed).standard_normal(16)
        y = S(v.reshape(4, 4))
        lam = frac * sample_lambda(y)[0]
        sol = tv_denoise(y, lam)
        _cut_certificate(y, lam, sol)
        ref = tv_oracle_boxqp(v, lam, (4, 4))
        assert np.abs(sol.estimate.values - ref).max() <= 1e-8
        assert tv_objective(v, ref, lam, (4, 4)) \
            <= sol.objective(y) * (1 + 1e-12)


def test_nd_certificates_and_reconstruction():
    rng = np.random.default_rng(5)
    for sizes in [(7, 9), (4, 5, 3)]:
        y = S(rng.normal(size=sizes))
        lam = 0.4
        sol = tv_denoise(y, lam)
        assert sol.converged
        assert sol.gap <= 1e-10 * (1 + sol.objective(y))
        assert np.abs(sol.dual).max() <= lam + 1e-9
        recon = y.values - adjoint_flat(sol.dual, sizes)
        assert np.abs(sol.estimate.values - recon).max() <= 1e-8


def test_nd_nonconvergence_flagged(monkeypatch):
    # a lattice fit that cannot be certified is never returned: the solver
    # raises instead (here the certificate bound is made unreachable)
    rng = np.random.default_rng(8)
    y = S(rng.normal(size=(12, 12)))
    sol = tv_denoise(y, 1.0, SolverConfig(gap_tol=1e-12, max_iter=2))
    assert sol.converged
    monkeypatch.setattr(tvdn.tvsolve, "_CERTIFIED_TOL", -1.0)
    with pytest.raises(RuntimeError):
        tv_denoise(y, 1.0)


def test_solver_config_is_not_read():
    rng = np.random.default_rng(10)
    y = S(rng.normal(size=(9, 7)))
    ref = tv_denoise(y, 0.6)
    for cfg in (SolverConfig(max_iter=1), SolverConfig(gap_tol=1.0)):
        sol = tv_denoise(y, 0.6, cfg)
        assert sol.estimate.values.tobytes() == ref.estimate.values.tobytes()
        assert sol.dual.tobytes() == ref.dual.tobytes()
        assert sol.iterations == ref.iterations


_WARM_SHAPES = st.one_of(
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
    st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sizes=_WARM_SHAPES, seed=st.integers(0, 2 ** 32 - 2),
       log_amp=st.floats(-3.0, 3.0), fracs=st.tuples(st.floats(0.01, 1.2),
                                                      st.floats(0.01, 1.2)))
def test_cut_solve_warm_start_keeps_the_fit(sizes, seed, log_amp, fracs):
    # a solve started from the dual of another lambda's fit of the same data,
    # from above or from below, is certified and has the cold solve's fit
    shape = LatticeShape(sizes)
    v = 10.0 ** log_amp * np.random.default_rng(seed).normal(size=shape.n_sites)
    y = Signal(shape, v)
    amp = np.abs(v).max()
    top = sample_lambda(y)[0]
    lams = [frac * top for frac in fracs]
    solver = CutSolver(y)
    cold = [solver.solve(lam) for lam in lams]
    for lam, ref, start in zip(lams, cold, cold[::-1]):
        f, w, rounds = solver._fit(lam, start.dual)
        w = _certified(y, np.array([lam]), f[None], w[None])[0]
        sol = TvSolution(Signal(shape, f), lam, w, rounds)
        assert np.abs(sol.dual).max() <= lam
        assert np.abs(v - adjoint_flat(sol.dual, sizes) - f).max() <= 1e-8 * amp
        assert 0.0 <= sol.gap <= 1e-12 * (1.0 + sol.objective(y))
        assert np.abs(f - ref.estimate.values).max() <= 1e-12 * amp


def _cut_certificate(y, lam, sol):
    v = y.values
    assert sol.converged
    assert sol.gap >= 0.0
    assert np.abs(sol.dual).max(initial=0.0) <= lam
    assert np.abs(v - adjoint_flat(sol.dual, y.shape.sizes)
                  - sol.estimate.values).max() <= 1e-8 * np.abs(v).max()


def test_cut_fit_is_scale_equivariant():
    # the fit at (a y, a lambda) is a times the fit at (y, lambda), at
    # amplitudes far below and above unit scale; every piece is one constant
    rng = np.random.default_rng(14)
    for sizes in [(32, 32), (5, 7), (3, 4, 5)]:
        v = rng.normal(size=sizes)
        y = S(v)
        for frac in (0.05, 0.3, 0.9):
            lam = frac * sample_lambda(y, tol=1e-9)[0]
            ref = tv_denoise(y, lam)
            _cut_certificate(y, lam, ref)
            pieces = len(np.unique(ref.estimate.values))
            for amp in (1e-6, 1.0, 1e6):
                ya = S(amp * v)
                sol = tv_denoise(ya, amp * lam)
                _cut_certificate(ya, amp * lam, sol)
                assert len(np.unique(sol.estimate.values)) == pieces
                assert np.abs(sol.estimate.values / amp
                              - ref.estimate.values).max() <= 1e-9 * np.abs(v).max()


def test_lattice_lambda_and_fit_at_extreme_scales():
    # each route's unit comes from an exact binary exponent, so data near
    # the bottom and top of the double range route like unit-scale data
    tol = 1e-6
    for sizes in [(8, 8), (3, 4, 5)]:
        v = np.random.default_rng(17).normal(size=sizes)
        lam_max = sample_lambda(S(v), tol)[0]
        lam = 0.3 * lam_max
        ref = tv_denoise(S(v), lam)
        for scale in (1e-300, 1e150):
            ys = S(scale * v)
            assert abs(sample_lambda(ys, tol)[0] / scale - lam_max) \
                <= 2 * tol * lam_max
            sol = tv_denoise(ys, scale * lam)
            _cut_certificate(ys, scale * lam, sol)
            assert np.abs(sol.estimate.values / scale
                          - ref.estimate.values).max() <= 1e-12


def _bench_phantom(k, n):
    # perfbench's noisy_phantom(2, k, n): three rectangles and two discs at
    # levels +-[2, 4], plus unit noise
    rng = np.random.default_rng([160501438, 2, k])
    yy, xx = (np.mgrid[0:n, 0:n] + 0.5) / n
    f = np.zeros((n, n))
    for _ in range(3):
        y0, x0 = rng.uniform(0.0, 0.6, 2)
        h, w = rng.uniform(0.15, 0.4, 2)
        f[(yy >= y0) & (yy < y0 + h) & (xx >= x0) & (xx < x0 + w)] = \
            rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 4.0)
    for _ in range(2):
        cy, cx = rng.uniform(0.2, 0.8, 2)
        r = rng.uniform(0.08, 0.18)
        f[(yy - cy) ** 2 + (xx - cx) ** 2 < r * r] = \
            rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 4.0)
    return f + rng.standard_normal(f.shape), f


def test_cut_solve_converges_on_the_256_phantom():
    # the default universal-threshold solve of the 256^2 phantom, where the
    # former splitting solver stopped at its 5000-iteration cap with gap
    # 1.6e-2
    from tvdn.selection import estimate_sigma, universal_threshold
    v, f = _bench_phantom(0, 256)
    y = S(v)
    lam = universal_threshold(y.shape, estimate_sigma(y))
    sol = tv_denoise(y, lam)
    _cut_certificate(y, lam, sol)
    assert sol.gap <= 1e-8 * (1.0 + sol.objective(y))
    assert np.mean((sol.estimate.values - f.ravel()) ** 2) < 0.1


def _cold_fits(args):
    # a cold solve's fit, and the fit of the two-way-split reference
    values, lam = args
    return (CutSolver(S(values)).solve(lam).estimate.values,
            cut_solve_two_way(S(values), lam).estimate.values)


def test_warm_grid_fits_are_the_cold_fits_on_the_bench_phantoms():
    # the 30-point SURE grid on the three 64^2 benchmark phantoms, solved in
    # tv_denoise_grid's warm-started chains: every fit and risk value is
    # bitwise that of a cold solve and of the two-way-split reference
    for k in range(3):
        v, _ = _bench_phantom(k, 64)
        y = S(v)
        grid = default_lambda_grid(lambda_max(y))
        warm = tv_denoise_grid(y, grid)
        cold = parallel_map(_cold_fits, [(v, float(lam)) for lam in grid])
        assert len(warm) == len(cold) == 30
        for lam, sol, (f, ref) in zip(grid, warm, cold):
            assert sol.lam == lam
            assert sol.estimate.values.tobytes() == f.tobytes()
            assert f.tobytes() == ref.tobytes()
            assert sure(y, sol.estimate, 1.0) \
                == sure(y, Signal(y.shape, f), 1.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sizes=_WARM_SHAPES, seed=st.integers(0, 2 ** 32 - 2),
       tied=st.booleans(), log_amp=st.floats(-3.0, 3.0),
       fracs=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=4))
def test_cut_solve_matches_the_two_way_split(sizes, seed, tied, log_amp,
                                             fracs):
    # a region split into its connected components gives the fit of the
    # reference that splits it in two, sink side and rest, with its
    # certificate; tied integer data give level sets with many ties
    shape = LatticeShape(sizes)
    rng = np.random.default_rng(seed)
    if tied:
        v = rng.integers(-2, 3, size=shape.n_sites).astype(float)
    else:
        v = 10.0 ** log_amp * rng.normal(size=shape.n_sites)
    y = Signal(shape, v)
    top = sample_lambda(y)[0]
    solver = CutSolver(y)
    for frac in fracs:
        lam = frac * top
        sol, ref = solver.solve(lam), cut_solve_two_way(y, lam)
        _cut_certificate(y, lam, sol)
        assert np.abs(sol.estimate.values - ref.estimate.values).max() \
            <= 1e-12 * np.abs(v).max()


def test_separated_plateaus_settle_in_one_split():
    # eight 4x4 plateaus at heights 8..15 on a zero background, far enough
    # apart that at these lambda the fit keeps each plateau and the
    # background one piece. The first minimum cut takes every plateau at
    # once; split into its components, each plateau is its own region, so
    # a second round routes every region and the solve ends. The reference
    # keeps the plateaus in one region and needs a binary split per level,
    # at least log2(8) more rounds. Every piece has a power-of-two size and
    # lambda is dyadic, so the flows are exact and no round is spent on
    # rounding.
    img = np.zeros((24, 48))
    for i in range(8):
        r, c = divmod(i, 4)
        img[5 + 10 * r:9 + 10 * r, 6 + 10 * c:10 + 10 * c] = 8 + i
    y = S(img)
    for lam in (2.0 ** -6, 2.0 ** -4, 2.0 ** -2):
        sol, ref = CutSolver(y).solve(lam), cut_solve_two_way(y, lam)
        _cut_certificate(y, lam, sol)
        assert ncc(sol.estimate) == 9
        assert sol.estimate.values.tobytes() == ref.estimate.values.tobytes()
        assert sol.iterations <= 2
        assert ref.iterations >= 3


def test_tvsolution_objective():
    y = S([1.0, 3.0])
    sol = tv_denoise_1d(y, 0.5)
    expect = 0.5 * np.sum((y.values - sol.estimate.values) ** 2) \
        + 0.5 * np.abs(np.diff(sol.estimate.values)).sum()
    assert sol.objective(y) == pytest.approx(expect, abs=1e-12)
    # converged is a constant of the class and the gap is derived, so
    # neither is a field a caller can set
    assert sol.converged is True
    with pytest.raises(TypeError):
        TvSolution(sol.estimate, 0.5, sol.dual, 0, False)
    with pytest.raises(TypeError):
        TvSolution(sol.estimate, 0.5, sol.dual, 0.0, 0)
    assert [f.name for f in dataclasses.fields(TvSolution)] \
        == ["estimate", "lam", "dual", "iterations"]


def _assert_oracle_gap(sol):
    # lam sum |B f| - (B f) . w with the test suite's own difference
    # operator, within the rounding of sums of the size of lam ||B f||_1
    z = oracle_diff(sol.estimate.values, sol.estimate.shape.sizes)
    tv = sol.lam * float(np.abs(z).sum())
    assert sol.gap >= 0.0
    assert sol.gap == pytest.approx(tv - float(z @ sol.dual), rel=0.0,
                                    abs=1e-12 * (1.0 + tv))


def test_gap_is_derived_from_the_estimate_and_dual(monkeypatch):
    # path block rows, one-row solves and lattice cut solves all read the
    # gap lam ||B f||_1 - <B f, w> of their own estimate and dual
    rng = np.random.default_rng(29)
    monkeypatch.setattr(tvdn.tvsolve, "_BLOCK", 97 * 5)
    for y, grid in _path_cases():
        path = FusionPath(y)
        for sol in tv_denoise_grid(y, grid):
            _assert_oracle_gap(sol)
            _assert_oracle_gap(path.solve(sol.lam))
    for sizes in ((8, 8), (6, 9), (3, 4, 5)):
        y = S(rng.normal(size=sizes) + np.arange(np.prod(sizes)).reshape(
            sizes) % 3)
        solver = CutSolver(y)
        for lam in default_lambda_grid(lambda_max(y), 6).tolist():
            _assert_oracle_gap(solver.solve(lam))


def test_lambda_max_constant_and_hand_value():
    assert lambda_max(S([4.0, 4.0, 4.0])) == 0.0
    assert lambda_max(S([0.0, 0.0, 3.0])) == pytest.approx(2.0, abs=1e-12)


def test_lambda_max_consistency():
    rng = np.random.default_rng(9)
    for sizes in [(33,), (6, 7)]:
        y = S(rng.normal(size=sizes))
        lam = lambda_max(y)
        sol = tv_denoise(y, lam * (1 + 1e-6))
        assert np.ptp(sol.estimate.values) <= 1e-6
