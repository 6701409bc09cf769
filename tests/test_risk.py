import dataclasses

import numpy as np
import pytest

from invariants import assert_mean_fit, check_ncc_floodfill
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.risk import (RiskCurve, default_lambda_grid, loss, loss_rows, ncc,
                       risk_curve, sure, sure_rows)
from tvdn.signals import gen_piecewise, gen_test_function
import tvdn.risk
import tvdn.tvsolve
from tvdn.tvsolve import FusionPath, lambda_max, tv_denoise, tv_denoise_1d

S = Signal.from_array


def test_ncc_basic():
    assert ncc(S(np.full((5, 5), 1.0))) == 1
    assert ncc(S([[0.0, 1.0], [1.0, 0.0]])) == 4
    f = gen_piecewise("battlements", 100, 5, 3.0).realize()
    assert ncc(f) == 5
    # pieces are decided at zero tolerance, so a step far below the fit's
    # range, on a path or on a lattice, is a piece of its own at any scale
    for c in (1e-8, 1.0, 1e8):
        v = c * np.array([0.0, 0.0, 1e-12, 1e-12, 1.0])
        assert ncc(S(v)) == 3
        assert ncc(S(np.vstack([v, v]))) == 3
        assert ncc(S(np.vstack([v, v + c * 1e-13]))) == 6


def test_ncc_floodfill_suite():
    check_ncc_floodfill()


def test_ncc_counts_pieces_of_lattices_and_paths():
    assert ncc(S([[0.0, 1.0], [1.0, 0.0]])) == 4
    # the 0s (left column and bottom row), the 1s and the 2
    v = S([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    assert ncc(v) == 3
    f = gen_piecewise("staircase", 12, 3, 1.0).realize()
    assert ncc(f) == 3
    # the same pieces on a two-row lattice, counted by the graph routine
    assert ncc(S(np.vstack([f.values, f.values]))) == 3


def test_sure_identity_fit():
    rng = np.random.default_rng(31)
    y = S(rng.normal(size=50))
    # adjacent values are a.s. distinct, so NCC = M and SURE = sigma^2
    assert sure(y, y, 1.3) == pytest.approx(1.3 ** 2, rel=1e-12)


def test_loss_and_sure_refuse_mismatched_shapes():
    # neither broadcasts a fit against a truth of another shape
    for fit, truth in ((S([1.0]), S(np.zeros(5))),
                       (S(np.ones((2, 3))), S(np.zeros((3, 2))))):
        for score in (loss, lambda a, b: sure(b, a, 1.0)):
            with pytest.raises(ValueError, match="shapes do not match"):
                score(fit, truth)
    assert loss(S(np.ones((2, 3))), S(np.zeros((2, 3)))) == 1.0
    # row blocks take one fit per row, of the signal's site count
    y = S(np.zeros((2, 3)))
    for fits in (np.zeros(6), np.zeros((2, 5)), np.zeros((1, 2, 3)),
                 np.zeros((6, 1))):
        with pytest.raises(ValueError, match="shapes do not match"):
            loss_rows(fits, y)
        with pytest.raises(ValueError, match="shapes do not match"):
            sure_rows(y, fits, 1.0)


def test_rows_score_each_fit_as_it_is_scored_alone():
    # sure_rows and loss_rows on a block give, bit for bit, sure and loss of
    # each row, on paths (odd and even lengths) and on a lattice
    rng = np.random.default_rng(28)
    for sizes in ((101,), (1, 64), (7, 9)):
        y = Signal(LatticeShape(sizes), rng.normal(size=int(np.prod(sizes))))
        truth = Signal(y.shape, np.round(y.values))
        top = lambda_max(y)
        fits = np.array([tv_denoise(y, lam).estimate.values
                         for lam in (0.0, 0.01 * top, 0.2 * top, top)])
        rows = (sure_rows(y, fits, 0.7), loss_rows(fits, truth))
        for i, f in enumerate(fits):
            fit = Signal(y.shape, f)
            assert rows[0][i].hex() == sure(y, fit, 0.7).hex()
            assert rows[1][i].hex() == loss(fit, truth).hex()
            m = y.shape.n_sites
            d = f - truth.values
            assert loss(fit, truth).hex() == (float(d @ d) / m).hex()
            rss = float(np.sum((y.values - f) ** 2))
            assert sure(y, fit, 0.7).hex() == (
                rss / m + 2.0 * 0.7 ** 2 * ncc(fit) / m - 0.7 ** 2).hex()


def test_sure_mean_fit():
    rng = np.random.default_rng(32)
    y = S(rng.normal(size=40))
    fbar = S(np.full(40, y.values.mean()))
    expect = np.sum((y.values - y.values.mean()) ** 2) / 40 + 2 / 40 - 1.0
    assert sure(y, fbar, 1.0) == pytest.approx(expect, rel=1e-12)


def test_sure_shift_invariant():
    rng = np.random.default_rng(33)
    y = rng.normal(size=30)
    f = np.round(y, 1)
    a = sure(S(y), S(f), 1.0)
    b = sure(S(y + 5.0), S(f + 5.0), 1.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_sure_tracks_risk_on_zero_signal():
    rng = np.random.default_rng(77)
    n, reps = 100, 120
    grid = np.geomspace(0.5, 12.0, 8)
    diffs = np.zeros((reps, len(grid)))
    for r in range(reps):
        y = S(rng.normal(size=n))
        for j, lam in enumerate(grid):
            sol = tv_denoise_1d(y, lam)
            loss = float(np.mean(sol.estimate.values ** 2))
            diffs[r, j] = sure(y, sol.estimate, 1.0) - loss
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) <= 3 * se)


def test_default_lambda_grid():
    g = default_lambda_grid(10.0)
    assert len(g) == 30
    assert g[0] == pytest.approx(0.01)
    assert g[-1] == pytest.approx(10.0)
    assert np.all(np.diff(g) > 0)
    assert default_lambda_grid(3.0, 1).size == 1
    for n_points in (0, -1):
        with pytest.raises(ValueError, match="n_points must be at least 1"):
            default_lambda_grid(3.0, n_points)


def test_risk_curve_oracle_argmin_zero():
    rng = np.random.default_rng(34)
    y = S(rng.normal(size=25))
    grid = np.concatenate([[0.0], np.geomspace(0.1, 2.0, 5)])
    curve = risk_curve(y, grid, criterion="oracle", f_true=y)
    assert curve.argmin_lambda == 0.0
    assert curve.values[0] == 0.0


def test_risk_curve_deterministic_and_validated():
    rng = np.random.default_rng(35)
    f = gen_test_function("blocks", 200, 7.0)
    y = Signal(f.shape, f.values + rng.normal(size=200))
    grid = default_lambda_grid(lambda_max(y), n_points=12)
    a = risk_curve(y, grid, criterion="sure", sigma=1.0)
    b = risk_curve(y, grid, criterion="sure", sigma=1.0)
    assert np.array_equal(a.values, b.values)
    assert a.argmin_lambda == b.argmin_lambda
    with pytest.raises(ValueError):
        risk_curve(y, grid, criterion="sure")
    with pytest.raises(ValueError):
        risk_curve(y, grid, criterion="oracle")
    with pytest.raises(ValueError):
        risk_curve(y, np.array([]), criterion="sure", sigma=1.0)
    with pytest.raises(ValueError):
        risk_curve(y, np.array([-1.0]), criterion="sure", sigma=1.0)
    with pytest.raises(ValueError,
                       match="criterion must be 'sure' or 'oracle'"):
        risk_curve(y, grid, criterion="cv", sigma=1.0, f_true=y)
    # the grid must ascend, as tv_denoise_grid and RiskCurve require: it is
    # not sorted on the caller's behalf
    with pytest.raises(ValueError, match="lambda grid must be ascending"):
        risk_curve(y, grid[::-1], criterion="sure", sigma=1.0)


def test_risk_curve_rejects_nan_grid_values():
    # a NaN anywhere in the grid is refused on a path and on a lattice alike
    rng = np.random.default_rng(36)
    for sizes in [(20,), (1, 20), (4, 5)]:
        y = S(rng.normal(size=sizes))
        for grid in ([0.1, np.nan], [np.nan, 0.1, 0.5], [np.nan]):
            with pytest.raises(ValueError, match="nonnegative"):
                risk_curve(y, grid, criterion="sure", sigma=1.0)


def test_risk_curve_takes_repeated_lambdas_at_the_top(monkeypatch):
    # a grid may repeat its values; from Lambda on every fit is the mean,
    # so the repeated values at Lambda and 10 Lambda score alike and the
    # first of them is kept with the certified mean fit. The ties straddle
    # block boundaries: a path writes one row per block here, and the
    # lattice's first chain of _CHAIN values ends inside the run at Lambda.
    # Every value is the bits of sure or loss of tv_denoise's fit there.
    monkeypatch.setattr(tvdn.tvsolve, "_BLOCK", 1)
    chain = tvdn.tvsolve._CHAIN
    rng = np.random.default_rng(40)
    for sizes in [(8,), (1, 8), (4, 4)]:
        y = S(rng.normal(size=sizes))
        top = lambda_max(y)
        grid = [0.1 * top] * (chain - 2) + [top] * 4 + [10.0 * top] * 2
        first = chain - 2
        assert grid[chain - 1] == grid[chain] == top
        truth = S(np.zeros(sizes))
        for curve, score in (
                (risk_curve(y, grid, "sure", sigma=1.0),
                 lambda f: sure(y, f, 1.0)),
                (risk_curve(y, grid, "oracle", f_true=truth),
                 lambda f: loss(f, truth))):
            assert curve.lambdas.tolist() == grid
            assert [v.hex() for v in curve.values.tolist()] == \
                [score(tv_denoise(y, lam).estimate).hex() for lam in grid]
            assert np.all(curve.values[first:] == curve.values[first])
            assert curve.argmin_lambda == top == curve.argmin_fit.lam
            assert_mean_fit(y, curve.argmin_fit, top)


def test_risk_curve_reaches_the_mean_on_every_layout():
    # the fit at Lambda and above is the mean on a path and on a lattice
    # alike; on pure noise at the true sigma SURE prefers it to a fit at 0.1
    rng = np.random.default_rng(39)
    for sizes in [(8,), (1, 8), (4, 4)]:
        y = S(rng.normal(size=sizes))
        top = lambda_max(y)
        for lam in (top, 10.0 * top):
            curve = risk_curve(y, [0.1, lam], criterion="sure", sigma=1.0)
            assert curve.argmin_lambda == lam
            assert_mean_fit(y, curve.argmin_fit, lam)


def test_risk_curve_takes_a_scalar_grid():
    # a scalar lambda is a one-point grid, as tv_denoise_grid takes it
    rng = np.random.default_rng(0)
    for sizes in [(20,), (4, 5)]:
        y = S(rng.normal(size=sizes))
        for kwargs in ({"criterion": "sure", "sigma": 1.0},
                       {"criterion": "oracle", "f_true": y}):
            curve = risk_curve(y, 0.5, **kwargs)
            assert curve.lambdas.tolist() == [0.5]
            assert curve.argmin_lambda == 0.5
            assert curve.values.tolist() == \
                risk_curve(y, [0.5], **kwargs).values.tolist()


def test_risk_curve_rejects_bad_sigma(monkeypatch):
    rng = np.random.default_rng(40)
    ys = [S(rng.normal(size=sizes)) for sizes in [(20,), (4, 5)]]
    for y in ys:
        for sigma in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="sigma"):
                risk_curve(y, [0.1, 1.0], criterion="sure", sigma=sigma)
            # the scorers refuse it too, rather than read sigma^2
            with pytest.raises(ValueError, match="sigma"):
                sure(y, y, sigma)
            with pytest.raises(ValueError, match="sigma"):
                sure_rows(y, y.values[None], sigma)

    # the curve refuses a bad sigma before any solver is built
    def built(y):
        raise AssertionError("a solver was built")

    monkeypatch.setattr(tvdn.risk, "tv_solver", built)
    for y in ys:
        with pytest.raises(ValueError, match="sigma"):
            risk_curve(y, [0.1, 1.0], criterion="sure", sigma=-1.0)


def test_risk_curve_sure_close_to_oracle_on_blocks():
    rng = np.random.default_rng(3)
    f = gen_test_function("blocks", 1000, 7.0)
    y = Signal(f.shape, f.values + rng.normal(size=1000))
    grid = default_lambda_grid(lambda_max(y))
    rc_o = risk_curve(y, grid, criterion="oracle", f_true=f)
    rc_s = risk_curve(y, grid, criterion="sure", sigma=1.0)

    def loss_at(lam):
        est = tv_denoise_1d(y, lam).estimate.values
        return float(np.mean((est - f.values) ** 2))

    assert loss_at(rc_s.argmin_lambda) <= 1.10 * loss_at(rc_o.argmin_lambda)


def test_risk_curve_interior_argmin():
    rng = np.random.default_rng(36)
    f = gen_piecewise("battlements", 200, 5, 6.0).realize()
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        y = Signal(f.shape, f.values + rng.normal(size=200))
        grid = default_lambda_grid(lambda_max(y))
        curve = risk_curve(y, grid, criterion="oracle", f_true=f)
        assert grid[0] < curve.argmin_lambda < grid[-1]


def test_risk_curve_2d_path():
    rng = np.random.default_rng(37)
    base = np.zeros((8, 8))
    base[2:6, 2:6] = 4.0
    y = S(base + 0.5 * rng.normal(size=(8, 8)))
    grid = np.geomspace(0.05, 2.0, 6)
    curve = risk_curve(y, grid, criterion="sure", sigma=0.5)
    assert len(curve.values) == 6
    assert np.all(np.isfinite(curve.values))


def test_path_lattices_match_1d():
    # n values on any one-chain layout: the 1D piece count and the 1D
    # fusion-path curves, bit for bit
    rng = np.random.default_rng(38)
    f = gen_test_function("blocks", 120, 7.0)
    v = f.values + rng.normal(size=120)
    y = S(v)
    grid = default_lambda_grid(lambda_max(y), n_points=10)
    refs = [risk_curve(y, grid, "sure", sigma=1.0),
            risk_curve(y, grid, "oracle", f_true=f)]
    fits = [tv_denoise_1d(y, lam).estimate.values for lam in grid[::3]]
    for sizes in [(1, 120), (120, 1), (1, 1, 120)]:
        shape = LatticeShape(sizes)
        ys = Signal(shape, v)
        curves = [risk_curve(ys, grid, "sure", sigma=1.0),
                  risk_curve(ys, grid, "oracle", f_true=Signal(shape, f.values))]
        for curve, ref in zip(curves, refs):
            assert curve.values.tobytes() == ref.values.tobytes()
            assert curve.argmin_lambda == ref.argmin_lambda
            # the kept fit is the fusion path's at the argmin
            want = FusionPath(y).solve(curve.argmin_lambda)
            assert curve.argmin_fit.lam == curve.argmin_lambda
            assert curve.argmin_fit.estimate.shape.sizes == sizes
            assert curve.argmin_fit.estimate.values.tobytes() == \
                want.estimate.values.tobytes()
        for fit in fits:
            assert ncc(Signal(shape, fit)) == ncc(S(fit))


def test_risk_curve_class_validation():
    with pytest.raises(ValueError):
        RiskCurve(np.array([1.0, 2.0]), np.array([1.0]))
    # an empty curve has no argmin to derive
    with pytest.raises(ValueError, match="lambda grid is empty"):
        RiskCurve([], [])
    with pytest.raises(ValueError, match="ascending"):
        RiskCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    for lams in ([-1.0, 2.0], [np.nan, 2.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RiskCurve(lams, [1.0, 2.0])
    RiskCurve([1.0, 2.0, 2.0], [3.0, 2.0, 2.0])
    curve = RiskCurve([1.0, 2.0], [3.0, 4.0])
    assert curve.lambdas.dtype == curve.values.dtype == float
    assert curve.argmin_lambda == 1.0


def test_argmin_lambda_is_the_first_minimizer():
    # the argmin is read off the values, so a curve cannot disagree with it
    assert [f.name for f in dataclasses.fields(RiskCurve)] \
        == ["lambdas", "values", "argmin_fit"]
    for values, want in (([3.0, 1.0, 1.0, 2.0], 2.0),
                         ([1.0, 1.0, 1.0, 1.0], 1.0),
                         ([2.0, 5.0, 0.5, 0.5], 3.0),
                         ([4.0, 3.0, 2.0, 1.0], 4.0)):
        assert RiskCurve([1.0, 2.0, 3.0, 4.0], values).argmin_lambda == want
    # tied values at repeated lambdas keep the first
    assert RiskCurve([1.0, 2.0, 2.0], [3.0, 1.0, 1.0]).argmin_lambda == 2.0
    y = Signal.from_array(np.full(20, 1.5))
    curve = risk_curve(y, [0.1, 0.2, 0.3], "sure", sigma=1.0)
    assert curve.values[0] == curve.values[1] == curve.values[2]
    assert curve.argmin_lambda == 0.1 == curve.argmin_fit.lam


def _fit_values(args):
    sizes, values, lam = args
    return tv_denoise(Signal(LatticeShape(sizes), values), lam).estimate.values


def test_lattice_risk_curve_independent_of_worker_count(monkeypatch):
    # the fits behind a lattice risk curve, its values, its argmin and the
    # argmin's dual are bitwise the same with one worker and with two; the
    # fits are those of cold solves, while the dual of a warm-started solve
    # is certified but need not be the cold solve's
    from tvdn._pool import parallel_map
    rng = np.random.default_rng(36)
    y = S(np.kron(np.array([[0.0, 4.0], [2.0, -1.0]]), np.ones((6, 6)))
          + rng.normal(size=(12, 12)))
    grid = np.geomspace(0.05, 20.0, 6)
    args = [(y.shape.sizes, y.values, float(l)) for l in grid]
    curves, fits = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        curves.append(risk_curve(y, grid, criterion="sure", sigma=1.0))
        fits.append(parallel_map(_fit_values, args))
    assert curves[0].values.tobytes() == curves[1].values.tobytes()
    assert curves[0].argmin_lambda == curves[1].argmin_lambda
    lam = curves[0].argmin_lambda
    want = tv_denoise(y, lam)
    for curve in curves:
        sol = curve.argmin_fit
        assert sol.estimate.values.tobytes() == want.estimate.values.tobytes()
        assert np.abs(sol.dual).max() <= lam
        assert np.abs(y.values - adjoint_flat(sol.dual, y.shape.sizes)
                      - sol.estimate.values).max() <= 1e-8 * np.abs(y.values).max()
        assert 0.0 <= sol.gap <= 1e-12 * (1.0 + sol.objective(y))
    a, b = (curve.argmin_fit for curve in curves)
    assert a.dual.tobytes() == b.dual.tobytes()
    assert (a.gap, a.iterations) == (b.gap, b.iterations)
    for a, b, lam in zip(*fits, grid):
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() == tv_denoise(y, lam).estimate.values.tobytes()
