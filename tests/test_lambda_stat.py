import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from invariants import check_lambda_equivariance, check_mle_equivariance
from oracles import lambda_oracle_gridsearch, lambda_oracle_lp
import tvdn
from tvdn.bench import run_lambda_samples
from tvdn.cuts import CutNetwork
from tvdn.grid import (LatticeShape, Signal, SpectralLaplacian, adjoint_flat,
                       edge_endpoints)
from tvdn.lambda_stat import (GevParams, GumbelFitCoefficients, GumbelParams,
                              _best_level_ratio, fit_gev_and_lr_test, fit_gumbel,
                              fit_loglog_regression, gev_loglik, gumbel_loglik,
                              sample_lambda, sample_lambda_1d)

S = Signal.from_array


def test_param_validation():
    with pytest.raises(ValueError):
        GumbelParams(0.0, 0.0)
    with pytest.raises(ValueError):
        GevParams(0.0, -1.0, 0.1)
    with pytest.raises(ValueError,
                       match=r"quantile level must lie in \(0, 1\)"):
        GumbelParams(2.0, 0.5).quantile(1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError,
                           match="fit coefficients must be finite"):
            GumbelFitCoefficients(-0.4, 0.5, bad, -0.2, dim=2)


def test_gumbel_quantile_formula():
    g = GumbelParams(2.0, 0.5)
    for p in (0.1, 0.5, 0.9):
        assert g.quantile(p) == pytest.approx(2.0 - 0.5 * np.log(-np.log(p)),
                                              abs=1e-14)


def test_sample_lambda_1d_hand_values():
    assert sample_lambda_1d(S([5.0, 5.0, 5.0])) == 0.0
    assert sample_lambda_1d(S([1.0, -1.0])) == pytest.approx(1.0, abs=1e-15)
    assert sample_lambda_1d(S([0.0, 0.0, 3.0])) == pytest.approx(2.0, abs=1e-15)


def test_sample_lambda_1d_rejects_2d():
    with pytest.raises(ValueError):
        sample_lambda_1d(S(np.zeros((2, 2))))


def test_sample_lambda_constant():
    lam, w = sample_lambda(S(np.full((3, 3), 1.5)))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(w, 0.0, atol=1e-12)


def test_sample_lambda_matches_1d_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(15):
        n = int(rng.integers(2, 500))
        y = S(rng.normal(size=n))
        lam, w = sample_lambda(y, tol=1e-8)
        assert abs(lam - sample_lambda_1d(y)) <= 1e-6
        resid = adjoint_flat(w, (n,)) - (y.values - y.values.mean())
        assert np.linalg.norm(resid) <= 1e-6 * (1 + np.linalg.norm(y.values))


def test_sample_lambda_tree_lattices_share_partial_sums():
    # a lattice with one nontrivial axis is a path in flat order: Lambda
    # comes from the same partial sums as in 1D, and the dual solves B^T w = c
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 400):
        for amp in (1e-6, 1.0, 1e6):
            v = amp * rng.normal(size=n)
            c = v - v.mean()
            expect = sample_lambda_1d(S(v))
            for sizes in [(n,), (1, n), (n, 1), (1, 1, n)]:
                lam, w = sample_lambda(Signal(LatticeShape(sizes), v))
                assert lam == expect, sizes
                assert np.abs(adjoint_flat(w, sizes) - c).max() \
                    <= 1e-14 * np.abs(c).max()


def test_sample_lambda_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for sizes in [(2, 2), (2, 3)]:
        for _ in range(5):
            y = rng.normal(size=sizes)
            lam, _ = sample_lambda(S(y), tol=1e-7)
            ref = lambda_oracle_gridsearch(y.ravel(), sizes)
            assert abs(lam - ref) <= 1e-4


def test_sample_lambda_matches_lp_oracle():
    rng = np.random.default_rng(12)
    for sizes in [(3, 3), (2, 4), (2, 2, 2)]:
        y = rng.normal(size=sizes)
        lam, _ = sample_lambda(S(y), tol=1e-9)
        assert abs(lam - lambda_oracle_lp(y.ravel(), sizes)) <= 1e-6


def test_sample_lambda_constraint_residual():
    rng = np.random.default_rng(13)
    y = S(rng.normal(size=(6, 7)))
    lam, w = sample_lambda(y, tol=1e-8)
    c = y.values - y.values.mean()
    resid = np.linalg.norm(adjoint_flat(w, (6, 7)) - c)
    assert resid <= 1e-8 * np.linalg.norm(c)
    assert np.abs(w).max() <= lam * (1 + 1e-9)


def test_sample_lambda_iteration_cap(monkeypatch):
    # from the level-set start this draw certifies tol=1e-14 in 2 flows
    monkeypatch.setattr(tvdn.lambda_stat, "_MAX_FLOWS", 1)
    rng = np.random.default_rng(14)
    y = S(rng.normal(size=(5, 5)))
    with pytest.raises(RuntimeError):
        sample_lambda(y, tol=1e-14)


def test_sample_lambda_rejects_bad_tol():
    rng = np.random.default_rng(15)
    for y in (S(rng.normal(size=12)), S(rng.normal(size=(4, 4)))):
        for tol in (np.nan, np.inf, 0.0, -1e-6):
            with pytest.raises(ValueError, match="tol"):
                sample_lambda(y, tol=tol)


def _level_ratio_bruteforce(u, c, shape):
    near, far = edge_endpoints(shape)
    best = 0.0
    for t in np.unique(u)[1:]:
        inside = u >= t
        cut = np.count_nonzero(inside[near] != inside[far])
        best = max(best, abs(c[inside].sum()) / cut)
    return best


@pytest.mark.parametrize("sizes", [(4, 5), (6, 6), (2, 3, 4), (3, 3, 3)])
def test_best_level_ratio_matches_bruteforce(sizes):
    rng = np.random.default_rng(30)
    shape = LatticeShape(sizes)
    near, far = edge_endpoints(shape)
    for _ in range(10):
        y = rng.normal(size=shape.n_sites)
        c = y - y.mean()
        ref = lambda_oracle_lp(y, sizes)
        laplace = SpectralLaplacian(shape).solve(c)
        # the Laplacian's potential, a rounded copy with ties, and a
        # potential whose level sets have nothing to do with c
        for u in (laplace, np.round(laplace, 1), rng.integers(0, 3, shape.n_sites)):
            got = _best_level_ratio(u.astype(float), c, near, far)
            assert got == pytest.approx(_level_ratio_bruteforce(u, c, shape),
                                        rel=1e-12, abs=1e-15)
            assert got <= ref * (1 + 1e-9)
    # a constant potential has no level set but all sites
    assert _best_level_ratio(np.ones(shape.n_sites), c, near, far) == 0.0


def test_sample_lambda_flow_count(monkeypatch):
    # the level-set bound and the clipped minimum-norm dual certify this
    # draw in 3 flows; from ratio(c > 0) and a zero flow it took 6
    calls = []
    route = CutNetwork.route

    def counted(self, *args, **kwargs):
        calls.append(1)
        return route(self, *args, **kwargs)

    monkeypatch.setattr(CutNetwork, "route", counted)
    y = S(np.random.default_rng(2024).standard_normal((32, 32)))
    sample_lambda(y)
    assert 1 <= len(calls) <= 3


def test_sample_lambda_warm_start_keeps_bracket():
    rng = np.random.default_rng(31)
    y = rng.standard_normal((24, 24))
    lam, w = sample_lambda(S(y), tol=1e-9)
    ref = lambda_oracle_lp(y.ravel(), y.shape)
    assert abs(lam - ref) <= 1e-9 * (1.0 + lam)
    assert lam == np.abs(w).max()
    c = y.ravel() - y.mean()
    assert np.linalg.norm(adjoint_flat(w, y.shape) - c) <= 1e-8 * np.linalg.norm(c)


def test_sample_lambda_is_scale_equivariant():
    # the bracket is relative, so Lambda(a y) / a is Lambda(y) within tol at
    # every amplitude, far below unit scale included
    rng = np.random.default_rng(15)
    for sizes in [(32, 32), (5, 7), (3, 4, 5)]:
        v = rng.normal(size=sizes)
        ref = lambda_oracle_lp(v.ravel(), sizes) if v.size < 100 else None
        base, _ = sample_lambda(S(v), tol=1e-9)
        for amp in (1e-6, 1.0, 1e6):
            for tol in (1e-6, 1e-9):
                lam, w = sample_lambda(S(amp * v), tol=tol)
                assert lam == np.abs(w).max()
                assert abs(lam / amp - base) <= 2 * tol * base
                if ref is not None:
                    assert ref * (1 - 1e-7) <= lam / amp <= ref * (1 + tol) + 1e-7 * ref


LATTICES = st.one_of(
    st.sampled_from([(1, 9), (9, 1), (1, 1, 6), (1, 5, 1), (2, 2, 2), (3, 2, 4)]),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sizes=LATTICES, seed=st.integers(0, 2 ** 32 - 1),
       log_amp=st.floats(-6.0, 6.0), levels=st.booleans(),
       tol=st.sampled_from([1e-6, 1e-8, 1e-9]))
def test_sample_lambda_certificate_property(sizes, seed, log_amp, levels, tol):
    assume(int(np.prod(sizes)) >= 2)
    rng = np.random.default_rng(seed)
    # integer levels give flat regions and tied cuts; normals give neither
    base = rng.integers(-2, 3, size=sizes) if levels else rng.normal(size=sizes)
    amp = 10.0 ** log_amp
    y = amp * base
    lam, w = sample_lambda(S(y), tol=tol)
    c = y.ravel() - y.mean()
    assert np.linalg.norm(adjoint_flat(w, sizes) - c) <= 1e-8 * np.linalg.norm(c)
    assert lam == np.abs(w).max(initial=0.0)
    # Lambda is positively homogeneous; the LP runs at unit amplitude
    ref = amp * lambda_oracle_lp(base.ravel().astype(float), sizes)
    assert abs(lam - ref) <= tol * (1.0 + lam) + 1e-7 * ref


def _rectangles_and_disc(n):
    rows, cols = np.mgrid[:n, :n]
    f = np.zeros((n, n))
    f[2:n // 2, 3:n - 4] += 3.0
    f[n // 3:n - 2, n // 4:n // 2] -= 2.0
    f[(rows - 2 * n // 3) ** 2 + (cols - 2 * n // 3) ** 2 <= (n // 5) ** 2] += 5.0
    return f


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_sample_lambda_piecewise_constant_image(noise):
    # structured images need the largest integer capacities in the flow;
    # pure noise does not reach them
    rng = np.random.default_rng(21)
    y = _rectangles_and_disc(24) + noise * rng.normal(size=(24, 24))
    lam, w = sample_lambda(S(y), tol=1e-9)
    ref = lambda_oracle_lp(y.ravel(), y.shape)
    assert abs(lam - ref) <= 1e-9 * (1.0 + lam)
    c = y.ravel() - y.mean()
    assert np.linalg.norm(adjoint_flat(w, y.shape) - c) <= 1e-8 * np.linalg.norm(c)


def test_lambda_equivariance_suite():
    check_lambda_equivariance()


def test_monte_carlo_validation_and_determinism():
    for reps in (0, 2.5):
        with pytest.raises(ValueError, match="reps must be positive integers"):
            run_lambda_samples(2, [4], reps, seed=1)
    # a side of 8.6 is refused, not drawn at side 8; 30.0 is side 30
    for sizes in ((8.6, 12), (12, 0)):
        with pytest.raises(ValueError, match="sizes must be positive"):
            run_lambda_samples(2, sizes, 10, 0)
    assert list(run_lambda_samples(1, (30.0,), 2, 0)) == [30]
    a = run_lambda_samples(2, [4], 5, seed=3)[4]
    b = run_lambda_samples(2, [4], 5, seed=3)[4]
    assert np.array_equal(a, b)
    c = run_lambda_samples(2, [4], 5, seed=4)[4]
    assert not np.array_equal(a, c)


def test_monte_carlo_1d_quantile_below_closed_form_bound():
    n = 1000
    draws = run_lambda_samples(1, [n], 500, seed=42)[n]
    alpha = 2.0 / np.sqrt(np.log(n))
    q = float(np.quantile(draws, 1 - alpha))
    bound = 0.5 * np.sqrt(n * np.log(np.log(n)))
    assert q < bound


def test_fit_gumbel_recovers_parameters():
    rng = np.random.default_rng(15)
    x = rng.gumbel(loc=0.0, scale=1.0, size=100000)
    g = fit_gumbel(x)
    assert -0.02 <= g.mu <= 0.02
    assert 0.98 <= g.beta <= 1.02


def test_fit_gumbel_score_equations():
    rng = np.random.default_rng(16)
    x = rng.gumbel(loc=3.0, scale=0.7, size=5000)
    g = fit_gumbel(x)
    # stationarity of the log likelihood at the fit
    e = np.exp(-(x - g.mu) / g.beta)
    score_mu = (len(x) - e.sum()) / g.beta
    score_beta = (-len(x) + np.sum((x - g.mu) * (1 - e) / g.beta)) / g.beta
    assert abs(score_mu) <= 1e-8 * len(x)
    assert abs(score_beta) <= 1e-8 * len(x)


def test_fit_gumbel_errors():
    with pytest.raises(ValueError):
        fit_gumbel(np.ones(50))
    with pytest.raises(ValueError):
        fit_gumbel(np.arange(5.0))
    for bad in (np.nan, np.inf):
        draws = np.linspace(1.0, 2.0, 20)
        draws[7] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            fit_gumbel(draws)


def test_mle_equivariance_suite():
    check_mle_equivariance()


def test_gumbel_loglik_matches_scipy():
    rng = np.random.default_rng(17)
    x = rng.gumbel(size=200)
    g = GumbelParams(0.3, 1.2)
    ref = stats.gumbel_r.logpdf(x, loc=g.mu, scale=g.beta).sum()
    assert gumbel_loglik(g, x) == pytest.approx(ref, rel=1e-12)


def test_gev_loglik_matches_scipy():
    rng = np.random.default_rng(18)
    x = rng.gumbel(size=200)
    gp = GevParams(0.1, 1.1, 0.2)
    # scipy's genextreme uses the opposite sign convention for the shape
    ref = stats.genextreme.logpdf(x, -gp.xi, loc=gp.mu, scale=gp.scale).sum()
    assert gev_loglik(gp, x) == pytest.approx(ref, rel=1e-10)


def test_gev_nests_gumbel():
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = rng.gumbel(loc=1.0, scale=2.0, size=300)
        g = fit_gumbel(x)
        gev, p = fit_gev_and_lr_test(x)
        assert gev_loglik(gev, x) >= gumbel_loglik(g, x) - 1e-7
        assert 0.0 <= p <= 1.0


_IMPORT_PROBE = """
import sys
import numpy as np

def loaded():
    return sorted({m.split(".")[1] for m in sys.modules
                   if m.startswith("scipy.")})

import tvdn, tvdn.cli
print("import", "scipy" in sys.modules, loaded())
from tvdn import (Signal, adaptive_tv, default_lambda_grid, lambda_max,
                  risk_curve, tv_denoise)
rng = np.random.default_rng(3)
y = Signal.from_array(np.repeat([0.0, 4.0], 60) + rng.standard_normal(120))
tv_denoise(y, 1.0)
risk_curve(y, default_lambda_grid(lambda_max(y)), "sure", sigma=1.0)
adaptive_tv(y)
from tvdn.bench import ExperimentConfig, bench_mse, bench_seg
from tvdn.selection import exact_seg_threshold, jump_threshold
jump_threshold(120, 1.0)
exact_seg_threshold(60, 1.0, 0.05)
bench_mse(ExperimentConfig(
    "mse_1d", functions=("blocks",), sizes=(64,), reps=(2,)))
bench_seg(ExperimentConfig(
    "seg_1d", functions=("staircase",), sizes=(60,), reps=(2,)))
print("1d", "scipy" in sys.modules)
y = Signal.from_array(rng.standard_normal((4, 4)))
tv_denoise(y, 0.5 * lambda_max(y))
print("4x4", "sparse" in loaded(), "fft" in loaded())
"""


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # importing tvdn loads numpy alone: each scipy module is imported where
    # it is first needed. scipy.stats costs about half a second and 40 MB
    # at import and is never used; scipy.optimize, which only the two
    # fitters use, about 0.15 s and 12 MB; scipy.sparse, its csgraph,
    # scipy.fft and scipy.special together about 0.35 s and 38 MB, of which
    # a path-lattice run needs none: its normal quantiles are computed in
    # pure Python, so fits, risk curves, the adaptive rule, its thresholds
    # and both 1D experiments load no scipy module at all
    root = os.path.dirname(os.path.dirname(tvdn.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=root, TVDN_THREADS="1"),
        capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines() == [
        "import False []", "1d False", "4x4 True True"]


def test_lr_pvalue_is_chi2_tail():
    rng = np.random.default_rng(22)
    for x in (rng.gumbel(loc=5.0, size=200), rng.standard_normal(200)):
        fit, p = fit_gev_and_lr_test(x)
        lr = max(0.0, 2.0 * (gev_loglik(fit, x) - gumbel_loglik(fit_gumbel(x), x)))
        assert p == pytest.approx(stats.chi2.sf(lr, df=1), rel=1e-6, abs=1e-12)


def test_gev_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_gev_and_lr_test(np.arange(10.0))


def test_lr_pvalue_near_uniform_under_null():
    rng = np.random.default_rng(20)
    pvals = []
    for _ in range(200):
        x = rng.gumbel(size=100)
        _, p = fit_gev_and_lr_test(x)
        pvals.append(p)
    pvals = np.sort(pvals)
    # mixture null (half chi2_1, half point mass at 0 for the LR of a
    # boundary-free nested pair is not at play here: xi is interior), so
    # compare against Uniform(0,1) with a loose Kolmogorov distance
    grid = (np.arange(1, 201)) / 200.0
    ks = np.abs(pvals - grid).max()
    assert ks < 0.1


def test_loglog_regression_interpolates_exactly():
    a_mu, b_mu, a_beta, b_beta = -0.4, 0.55, -1.5, -0.25
    fits = []
    for n in (8, 16, 64, 256):
        ll = np.log(np.log(n))
        fits.append((n, GumbelParams(np.exp(a_mu + b_mu * ll),
                                     np.exp(a_beta + b_beta * ll))))
    co = fit_loglog_regression(fits, dim=2)
    assert co.a_mu == pytest.approx(a_mu, abs=1e-12)
    assert co.b_mu == pytest.approx(b_mu, abs=1e-12)
    assert co.a_beta == pytest.approx(a_beta, abs=1e-12)
    assert co.b_beta == pytest.approx(b_beta, abs=1e-12)
    assert co.dim == 2


def test_loglog_regression_errors():
    g = GumbelParams(1.0, 0.2)
    with pytest.raises(ValueError):
        fit_loglog_regression([(8, g)], dim=2)
    with pytest.raises(ValueError):
        fit_loglog_regression([(8, g), (8, g)], dim=2)
    for n in (1, 0.5):
        with pytest.raises(ValueError, match="side lengths must exceed 1"):
            fit_loglog_regression([(n, g), (8, g)], dim=2)
    # GumbelParams itself refuses beta <= 0, so a nonpositive beta comes in
    # through any object with mu and beta
    for mu, beta in ((0.0, 0.2), (-1.0, 0.2), (1.0, 0.0), (1.0, -0.1)):
        bad = SimpleNamespace(mu=mu, beta=beta)
        with pytest.raises(ValueError,
                           match="log-log fit needs positive mu and beta"):
            fit_loglog_regression([(8, g), (16, bad)], dim=2)


def test_coefficients_params_at():
    co = GumbelFitCoefficients(-0.395, 0.552, -1.512, -0.247, 2)
    ll = np.log(np.log(64.0))
    p = co.params_at(64.0)
    assert p.mu == pytest.approx(np.exp(-0.395 + 0.552 * ll), rel=1e-12)
    assert p.beta == pytest.approx(np.exp(-1.512 - 0.247 * ll), rel=1e-12)
    with pytest.raises(ValueError):
        co.params_at(1.0)
