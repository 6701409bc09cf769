import numpy as np
import pytest

from invariants import check_ncc_floodfill
from tvdn.grid import LatticeShape, Signal
from tvdn.risk import (RiskCurve, component_labels, default_lambda_grid,
                       default_quantization, ncc, risk_curve, sure)
from tvdn.signals import gen_piecewise, gen_test_function
from tvdn.tvsolve import lambda_max, tv_denoise, tv_denoise_1d

S = Signal.from_array


def test_ncc_basic():
    assert ncc(S(np.full((5, 5), 1.0)), 0.0) == 1
    assert ncc(S([[0.0, 1.0], [1.0, 0.0]]), 0.0) == 4
    f = gen_piecewise("battlements", 100, 5, 3.0).realize()
    assert ncc(f, 0.0) == 5


def test_ncc_monotone_in_quantization():
    rng = np.random.default_rng(30)
    v = S(rng.integers(0, 4, size=(8, 8)).astype(float))
    counts = [ncc(v, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1


def test_ncc_floodfill_suite():
    check_ncc_floodfill()


def test_component_labels_smallest_site_first():
    v = S([[0.0, 1.0], [1.0, 0.0]])
    labels = component_labels(v, 0.0)
    assert np.array_equal(labels, [0, 1, 2, 3])
    v = S([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(component_labels(v, 0.0), [0, 1, 1, 0, 2, 1, 0, 0, 0])
    f = gen_piecewise("staircase", 12, 3, 1.0).realize()
    labels = component_labels(f, 0.0)
    assert np.array_equal(labels, np.repeat([0, 1, 2], 4))


def test_default_quantization_rule():
    f = S([0.0, 10.0])
    assert default_quantization(f) == pytest.approx(1e-4, rel=1e-12)
    assert default_quantization(S(np.zeros(4))) == pytest.approx(1e-8)


def test_sure_identity_fit():
    rng = np.random.default_rng(31)
    y = S(rng.normal(size=50))
    # adjacent values are a.s. distinct, so NCC = M and SURE = sigma^2
    assert sure(y, y, 1.3) == pytest.approx(1.3 ** 2, rel=1e-12)


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
        for fit in fits:
            for q in (0.0, default_quantization(S(fit))):
                assert ncc(Signal(shape, fit), q) == ncc(S(fit), q)
        with pytest.raises(ValueError):
            ncc(ys, -1.0)


def test_risk_curve_class_validation():
    with pytest.raises(ValueError):
        RiskCurve(np.array([1.0, 2.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        RiskCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]), 2.0)
    curve = RiskCurve([1.0, 2.0], [3.0, 4.0], 1.0)
    assert curve.lambdas.dtype == curve.values.dtype == float


def _fit_values(args):
    sizes, values, lam = args
    return tv_denoise(Signal(LatticeShape(sizes), values), lam).estimate.values


def test_lattice_risk_curve_independent_of_worker_count(monkeypatch):
    # the fits behind a lattice risk curve, its values and its argmin are
    # bitwise the same with one worker and with two
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
    for a, b, lam in zip(*fits, grid):
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() == tv_denoise(y, lam).estimate.values.tobytes()
