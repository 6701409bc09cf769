import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from invariants import check_lambda_equivariance, check_mle_equivariance
from oracles import lambda_oracle_gridsearch, lambda_oracle_lp
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.lambda_stat import (GevParams, GumbelFitCoefficients, GumbelParams,
                              fit_gev_and_lr_test, fit_gumbel,
                              fit_loglog_regression, gev_loglik, gumbel_loglik,
                              monte_carlo_lambda, sample_lambda,
                              sample_lambda_1d)

S = Signal.from_array


def test_param_validation():
    with pytest.raises(ValueError):
        GumbelParams(0.0, 0.0)
    with pytest.raises(ValueError):
        GevParams(0.0, -1.0, 0.1)


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


def test_sample_lambda_iteration_cap():
    rng = np.random.default_rng(14)
    y = S(rng.normal(size=(5, 5)))
    with pytest.raises(RuntimeError):
        sample_lambda(y, tol=1e-14, max_iter=3)


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
    shape = LatticeShape((4, 4))
    with pytest.raises(ValueError):
        monte_carlo_lambda(shape, 0, seed=1)
    a = monte_carlo_lambda(shape, 5, seed=3)
    b = monte_carlo_lambda(shape, 5, seed=3)
    assert np.array_equal(a, b)
    c = monte_carlo_lambda(shape, 5, seed=4)
    assert not np.array_equal(a, c)


def test_monte_carlo_1d_quantile_below_closed_form_bound():
    n = 1000
    draws = monte_carlo_lambda(LatticeShape((n,)), 500, seed=42)
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


def test_coefficients_params_at():
    co = GumbelFitCoefficients(-0.395, 0.552, -1.512, -0.247, 2)
    ll = np.log(np.log(64.0))
    p = co.params_at(64.0)
    assert p.mu == pytest.approx(np.exp(-0.395 + 0.552 * ll), rel=1e-12)
    assert p.beta == pytest.approx(np.exp(-1.512 - 0.247 * ll), rel=1e-12)
    with pytest.raises(ValueError):
        co.params_at(1.0)
