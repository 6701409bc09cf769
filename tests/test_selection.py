import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tv_oracle_direct_1d
from tvdn.coeffs import default_coefficients
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.lambda_stat import GumbelFitCoefficients, sample_lambda
from tvdn.segmentation import extract_jumps
from tvdn.selection import (ThresholdReport, _normal_quantile, _threshold,
                            adaptive_tv, count_jumps, estimate_sigma,
                            exact_seg_prob_bound, exact_seg_threshold,
                            jump_threshold, min_jump_height,
                            universal_threshold)
from tvdn.signals import gen_piecewise, gen_test_function
from tvdn.tvsolve import (CutSolver, FusionPath, tv_denoise, tv_denoise_1d,
                          tv_solver)

S = Signal.from_array


def _path_threshold(n, sigma):
    return universal_threshold(LatticeShape((n,)), sigma)


def test_estimate_sigma_constant():
    assert estimate_sigma(S(np.full(10, 3.0))) == 0.0


def test_estimate_sigma_hand_value():
    # differences [1,2,3], median 2, abs devs [1,0,1], median 1
    got = estimate_sigma(S([0.0, 1.0, 3.0, 6.0]))
    assert got == pytest.approx(1.4826 / math.sqrt(2), abs=1e-12)
    assert got == pytest.approx(1.0484, abs=5e-4)


def test_estimate_sigma_consistency():
    rng = np.random.default_rng(21)
    f = gen_test_function("blocks", 10000, 7.0)
    y = S(f.values + rng.normal(size=10000))
    assert 0.95 <= estimate_sigma(y) <= 1.05


def test_estimate_sigma_needs_edges():
    with pytest.raises(ValueError):
        estimate_sigma(S([1.0, 2.0]))


def test_universal_threshold_1d_values():
    assert _path_threshold(100, 0.0) == 0.0
    assert _path_threshold(100, 1.0) == pytest.approx(6.179, abs=5e-4)
    assert _path_threshold(10000, 1.0) == pytest.approx(74.51, abs=1e-2)
    with pytest.raises(ValueError):
        _path_threshold(2, 1.0)


def _path_lambdas(y):
    """Lambda of each row of y, a block of signals on one path: the largest
    |partial sum| of the row less its mean, over the interior edges."""
    c = y - y.mean(axis=1, keepdims=True)
    return np.abs(np.cumsum(c, axis=1)[:, :-1]).max(axis=1)


def test_universal_threshold_1d_exceedance():
    # the 1D closed form solves 2 exp(-2 x^2) = alpha, the leading tail
    # term of sup|Brownian bridge|, so unit noise exceeds it less often than
    # the nominal alpha = 2/sqrt(log(N - 1)); pinned at the measured rates
    # (N, draws, measured rate, its standard error)
    rng = np.random.default_rng(12)
    y = rng.normal(size=(200, 100))
    want = [sample_lambda(S(row))[0] for row in y]
    assert _path_lambdas(y).tolist() == want
    for n, draws, rate, err in ((100, 20000, 0.755, 0.003),
                                (1000, 4000, 0.691, 0.007)):
        lam = _path_threshold(n, 1.0)
        p = float(np.mean(_path_lambdas(rng.normal(size=(draws, n))) > lam))
        se = math.sqrt(p * (1.0 - p) / draws)
        alpha = 2.0 / math.sqrt(math.log(n - 1))
        assert p <= alpha - 4.0 * se
        assert abs(p - rate) <= 4.0 * math.hypot(se, err)


def test_adaptive_threshold_1d_values():
    # step 2 on a path lattice: the closed form at the average piece size
    # N/L, which need not be an integer
    n_bar = 1000 / 12
    assert _threshold(1, 500.0, 499.0, 1.3, None) == _path_threshold(500, 1.3)
    assert _threshold(1, n_bar, n_bar - 1, 1.0, None) \
        == pytest.approx(5.566, abs=1e-3)
    assert _threshold(1, n_bar, n_bar - 1, 2.0, None) \
        == 2.0 * _threshold(1, n_bar, n_bar - 1, 1.0, None)


def test_thresholds_reject_bad_sigma():
    # a noise level must be finite and nonnegative in every rule
    path = S(np.random.default_rng(41).normal(size=30))
    image = S(np.random.default_rng(42).normal(size=(6, 6)))
    for sigma in (math.nan, math.inf, -1.0):
        for call in (lambda: _path_threshold(100, sigma),
                     lambda: universal_threshold(image.shape, sigma),
                     lambda: universal_threshold(path.shape, sigma),
                     lambda: adaptive_tv(path, sigma=sigma),
                     lambda: adaptive_tv(image, sigma=sigma),
                     lambda: jump_threshold(100, sigma),
                     lambda: count_jumps(path, sigma),
                     lambda: exact_seg_threshold(10, sigma, 0.05),
                     lambda: min_jump_height(sigma, 0.05)):
            with pytest.raises(ValueError, match="sigma"):
                call()


def test_thresholds_homogeneous_and_increasing():
    for n in (16, 100, 4096):
        assert _path_threshold(n, 3.0) \
            == pytest.approx(3.0 * _path_threshold(n, 1.0), rel=1e-15)
    vals = [_path_threshold(n, 1.0) for n in (16, 32, 128, 1024, 65536)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_count_jumps_constant_and_errors():
    assert count_jumps(S(np.zeros(50)), 1.0) == 0
    with pytest.raises(ValueError):
        count_jumps(S(np.zeros((3, 3))), 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        count_jumps(S(np.zeros(1)), 1.0)


def test_count_jumps_battlements_calibrated():
    f = gen_piecewise("battlements", 100, 5, 5.0).realize()
    assert count_jumps(f, 1.0) == 4


def test_jump_threshold_closed_form():
    # sigma*sqrt(2/N)*z_{1-0.025/(N-1)}: the z quantile of a Bonferroni
    # level 0.05 over N-1 differences, scaled to a within-piece average
    z = 3.478063372734981  # z_{1-0.025/99}
    assert jump_threshold(100, 1.0) == pytest.approx(0.1 * math.sqrt(2.0) * z,
                                                     rel=1e-12)
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            jump_threshold(n, 1.0)
    # from N - 1 = 0.025 * 2**54 on, the level 1 - 0.025/(N-1) rounds to 1,
    # which has no quantile
    with pytest.raises(ValueError):
        jump_threshold(10 ** 15, 1.0)


def test_normal_quantile_within_8_ulp_of_ndtri():
    # the standard library's quantile against scipy's ndtri: every
    # jump_threshold level up to N = 2e5, the segmentation levels
    # 1 - alpha/2, uniform draws, both tails, and both sides of each branch
    # point of either algorithm (ndtri's exp(-2); AS241's |p - 0.5| = 0.425
    # and p = exp(-25))
    from scipy.special import ndtri

    rng = np.random.default_rng(36)
    e2, e25 = math.exp(-2.0), math.exp(-25.0)
    edges = [b + k * math.ulp(b) for b in (e2, 1.0 - e2, 0.075, 0.925,
                                           e25, 1.0 - e25)
             for k in range(-3, 4)]
    p = np.concatenate((
        1.0 - 0.025 / (np.arange(2, 200_001) - 1.0),
        1.0 - rng.uniform(0.001, 0.5, 5_000) / 2.0,
        rng.uniform(size=300_000),
        1.0 - rng.uniform(0.0, 1e-3, 100_000),
        10.0 ** rng.uniform(-300.0, 0.0, 100_000),
        edges, [0.5]))
    ours = np.array([_normal_quantile(q) for q in p.tolist()])
    theirs = ndtri(p)
    assert np.all(np.abs(ours - theirs) <= 8 * np.spacing(np.abs(theirs)))
    assert _normal_quantile(0.5) == 0.0


def test_count_jumps_ordering_frequency():
    # true <= calibrated on fit <= every jump of the fit, typically
    rng = np.random.default_rng(5)
    n, reps = 1000, 40
    f = gen_test_function("blocks", n, 7.0)
    true_jumps = int(np.count_nonzero(np.diff(f.values)))
    lam = _path_threshold(n, 1.0)
    ok = 0
    for _ in range(reps):
        y = Signal(f.shape, f.values + rng.normal(size=n))
        fh = tv_denoise_1d(y, lam).estimate
        ok += true_jumps <= count_jumps(fh, 1.0) <= extract_jumps(fh).size
    assert ok / reps >= 0.9


def test_universal_threshold_lattice_pipeline_value():
    shape = LatticeShape((64, 64))
    assert shape.n_edges == 8064
    co = default_coefficients(2)
    p = co.params_at(64.0)
    assert p.mu == pytest.approx(1.4796, abs=5e-4)
    assert p.beta == pytest.approx(0.1551, abs=5e-4)
    alpha = 2.0 / math.sqrt(math.log(8064))
    assert alpha == pytest.approx(0.6669, abs=5e-4)
    thr = universal_threshold(shape, 1.0)
    assert thr == pytest.approx(1.465, abs=2e-3)
    assert universal_threshold(shape, 2.0) == pytest.approx(2 * thr, rel=1e-12)


def test_universal_threshold_lattice_geometric_mean_sides():
    co = default_coefficients(2)
    thr_rect = universal_threshold(LatticeShape((32, 128)), 1.0, co)
    n_geo = (32 * 128) ** 0.5
    p = co.params_at(n_geo)
    alpha = 2.0 / math.sqrt(math.log(LatticeShape((32, 128)).n_edges))
    assert thr_rect == pytest.approx(max(0.0, p.quantile(1 - alpha)), rel=1e-12)


def test_universal_threshold_dispatch():
    co2 = default_coefficients(2)
    # path lattices: the closed form, coefficients are not read
    for sizes in [(500,), (1, 500), (500, 1), (1, 1, 500)]:
        shape = LatticeShape(sizes)
        assert universal_threshold(shape, 1.3) == _path_threshold(500, 1.3)
        assert universal_threshold(shape, 1.3, co2) \
            == _path_threshold(500, 1.3)
        assert _path_threshold(500, 1.3) == pytest.approx(
            0.5 * 1.3 * math.sqrt(500 * math.log(math.log(500))), rel=1e-15)
    with pytest.raises(ValueError):
        universal_threshold(LatticeShape((2,)), 1.0)
    # alpha = 2/sqrt(log P) is below 1 only from P > e^4 edges: a 5 x 5
    # lattice has 40, a 6 x 6 one 60
    for sizes in [(5, 5), (2, 2, 2), (1, 4, 4)]:
        with pytest.raises(ValueError, match="lattice too small"):
            universal_threshold(LatticeShape(sizes), 1.0)
    assert universal_threshold(LatticeShape((6, 6)), 1.0) >= 0.0
    # any other lattice, a 1 x N x M one included: the Gumbel quantile of
    # its dimension at the geometric-mean side
    for sizes, d in [((32, 128), 2), ((1, 8, 64), 2), ((8, 8, 8), 3)]:
        shape = LatticeShape(sizes)
        alpha = 2.0 / math.sqrt(math.log(shape.n_edges))
        p = default_coefficients(d).params_at(shape.n_sites ** (1.0 / d))
        assert universal_threshold(shape, 2.0) \
            == pytest.approx(2.0 * p.quantile(1 - alpha), rel=1e-12)
    custom = GumbelFitCoefficients(-0.3, 0.5, -1.4, -0.2, dim=2)
    shape = LatticeShape((64, 64))
    thr = universal_threshold(shape, 1.0, custom)
    alpha = 2.0 / math.sqrt(math.log(8064))
    assert thr == pytest.approx(custom.params_at(64.0).quantile(1 - alpha),
                                rel=1e-12)
    assert thr != universal_threshold(shape, 1.0)


def test_trivial_axes_do_not_count_towards_the_dimension():
    # a 1 x 64 x 64 lattice is the 64 x 64 image in the same flat and edge
    # order: the same threshold (d = 2 law at side 64), the same fit and the
    # same adaptive rule, bit for bit
    rng = np.random.default_rng(64)
    v = np.kron(rng.normal(scale=3.0, size=(4, 4)), np.ones((16, 16))) \
        + rng.normal(size=(64, 64))
    flat, deep = S(v), Signal(LatticeShape((1, 64, 64)), v.ravel())
    assert LatticeShape((1, 64, 64)).squeezed == LatticeShape((64, 64))
    assert LatticeShape((1, 1)).squeezed == LatticeShape((1,))
    assert universal_threshold(deep.shape, 1.0) \
        == universal_threshold(flat.shape, 1.0)
    assert abs(universal_threshold(deep.shape, 1.0) - 1.465) < 1e-3
    lam = universal_threshold(flat.shape, 1.0)
    a, b = tv_denoise(deep, lam), tv_denoise(flat, lam)
    assert a.estimate.shape == deep.shape
    assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
    assert a.dual.tobytes() == b.dual.tobytes()
    ra, rb = adaptive_tv(deep, sigma=1.0)[2], adaptive_tv(flat, sigma=1.0)[2]
    assert ra == rb


def test_coefficients_must_fit_the_lattice_dimension():
    # a fit for another dimension is refused instead of read; a path lattice
    # takes the closed form and reads no coefficients
    c = default_coefficients(3)
    for shape, dim in [((64, 64), 3), ((64, 64), 1), ((8, 8, 8), 2)]:
        wrong = GumbelFitCoefficients(c.a_mu, c.b_mu, c.a_beta, c.b_beta, dim)
        with pytest.raises(ValueError, match="dimension"):
            universal_threshold(LatticeShape(shape), 1.0, wrong)
        with pytest.raises(ValueError, match="dimension"):
            adaptive_tv(S(np.arange(float(np.prod(shape))).reshape(shape)),
                        sigma=1.0, coeffs=wrong)
    y = S(np.repeat([0.0, 4.0, 1.0], 20).reshape(1, 60))
    wrong = GumbelFitCoefficients(c.a_mu, c.b_mu, c.a_beta, c.b_beta, 3)
    assert adaptive_tv(y, sigma=1.0, coeffs=wrong)[2] \
        == adaptive_tv(y, sigma=1.0)[2]


def test_default_coefficients_table():
    co2 = default_coefficients(2)
    assert (co2.a_mu, co2.b_mu, co2.a_beta, co2.b_beta) \
        == (-0.395, 0.552, -1.512, -0.247)
    co3 = default_coefficients(3)
    assert (co3.a_mu, co3.b_mu, co3.a_beta, co3.b_beta) \
        == (-0.523, 0.267, -2.008, -0.598)
    with pytest.raises(ValueError):
        default_coefficients(4)


def test_exact_seg_threshold_values():
    assert exact_seg_threshold(20, 1.0, 0.05) == pytest.approx(39.20, abs=5e-3)
    assert min_jump_height(1.0, 0.05) == pytest.approx(7.840, abs=5e-4)
    assert exact_seg_prob_bound(5, 0.05) \
        == pytest.approx(0.9 ** 3 * 0.95 ** 2, rel=1e-12)
    assert exact_seg_prob_bound(5, 0.05) == pytest.approx(0.66, abs=5e-3)
    with pytest.raises(ValueError):
        exact_seg_threshold(20, 1.0, 0.6)
    with pytest.raises(ValueError):
        exact_seg_threshold(0, 1.0, 0.05)
    with pytest.raises(ValueError):
        exact_seg_prob_bound(1, 0.05)
    # at or below 2**-53, 1 - alpha/2 rounds to 1, so z_{1-alpha/2} would
    # be inf; just above it every threshold is finite
    for alpha in (0.0, 1e-17, 2.0 ** -53):
        for call in (lambda: exact_seg_threshold(20, 1.0, alpha),
                     lambda: min_jump_height(1.0, alpha),
                     lambda: exact_seg_prob_bound(5, alpha)):
            with pytest.raises(ValueError, match="alpha"):
                call()
    alpha = np.nextafter(2.0 ** -53, 1.0)
    assert math.isfinite(exact_seg_threshold(20, 1.0, alpha))
    assert math.isfinite(min_jump_height(1.0, alpha))


def test_threshold_report_validation():
    with pytest.raises(ValueError, match="sigma"):
        ThresholdReport(-1.0, 1.0, 2, 0.5)
    for lam1, lam2 in ((-1.0, 0.5), (1.0, np.inf), (np.nan, 0.5)):
        with pytest.raises(ValueError, match="lambda must be finite"):
            ThresholdReport(1.0, lam1, 2, lam2)


def test_adaptive_tv_constant_1d():
    y = S(np.full(64, 2.0))
    sol1, sol2, report = adaptive_tv(y, sigma=1.0)
    assert report.count1 == 1
    assert report.lambda2 == report.lambda1
    assert np.array_equal(sol2.estimate.values, np.full(64, 2.0))
    assert np.array_equal(sol1.estimate.values, sol2.estimate.values)


def test_adaptive_tv_blocks_shrinks_threshold():
    rng = np.random.default_rng(22)
    f = gen_test_function("blocks", 1000, 7.0)
    y = Signal(f.shape, f.values + rng.normal(size=1000))
    sol1, sol2, report = adaptive_tv(y, sigma=1.0)
    assert report.count1 > 1
    assert report.lambda2 < report.lambda1
    loss1 = np.mean((sol1.estimate.values - f.values) ** 2)
    loss2 = np.mean((sol2.estimate.values - f.values) ** 2)
    assert loss2 < loss1


def test_adaptive_tv_estimates_sigma_when_absent():
    rng = np.random.default_rng(23)
    f = gen_test_function("blocks", 500, 7.0)
    y = Signal(f.shape, f.values + rng.normal(size=500))
    _, _, report = adaptive_tv(y)
    assert 0.8 <= report.sigma_used <= 1.2


def test_adaptive_tv_2d_runs_and_orders_thresholds():
    rng = np.random.default_rng(24)
    base = np.zeros((16, 16))
    base[4:12, 4:12] = 6.0
    y = S(base + rng.normal(size=(16, 16)))
    sol1, sol2, report = adaptive_tv(y, sigma=1.0)
    assert report.count1 >= 1
    if report.count1 > 1:
        assert report.lambda2 <= report.lambda1
    assert sol2.converged


def _step_image(sizes, seed):
    # a raised centre block plus unit noise
    base = np.zeros(sizes)
    base[tuple(slice(n // 4, 3 * n // 4) for n in sizes)] = 6.0
    return S(base + np.random.default_rng(seed).normal(size=sizes))


@pytest.mark.parametrize("sizes, fallback", [((24, 24), False),
                                             ((10, 10, 10), False),
                                             ((9, 9), True)])
def test_adaptive_lattice_lambda2_is_the_rule_at_n_bar(sizes, fallback):
    # step 2 on a d-lattice: sigma times the (1 - 2/sqrt(log P_bar))-quantile
    # of the Gumbel law at side n_bar = (N/count1)^(1/d), where P_bar =
    # d * n_bar^(d-1) * (n_bar - 1); step 1's threshold when that level is
    # not below 1
    d = len(sizes)
    y = _step_image(sizes, seed=30 + d)
    _, _, report = adaptive_tv(y, sigma=1.0)
    n_bar = max((y.shape.n_sites / report.count1) ** (1.0 / d), 2.0)
    p_bar = d * n_bar ** (d - 1) * (n_bar - 1.0)
    alpha = 2.0 / math.sqrt(math.log(p_bar))
    if fallback:
        assert alpha >= 1.0
        assert report.lambda2 == report.lambda1
    else:
        expected = default_coefficients(d).params_at(n_bar).quantile(1 - alpha)
        assert report.lambda2 == pytest.approx(expected, rel=1e-12)
        assert report.lambda2 < report.lambda1


def test_adaptive_tv_path_lattices_match_1d():
    # n values on any one-chain layout take both 1D passes bit for bit
    rng = np.random.default_rng(25)
    f = gen_test_function("blocks", 300, 7.0)
    v = f.values + rng.normal(size=300)
    ref1, ref2, ref = adaptive_tv(S(v))
    assert ref.count1 > 1 and ref.lambda2 < ref.lambda1
    for sizes in [(1, 300), (300, 1), (1, 1, 300), (1, 1, 1, 300)]:
        sol1, sol2, report = adaptive_tv(Signal(LatticeShape(sizes), v))
        assert report == ref
        for sol, r in ((sol1, ref1), (sol2, ref2)):
            assert sol.estimate.shape.sizes == sizes and sol.iterations == 0
            assert sol.estimate.values.tobytes() == r.estimate.values.tobytes()
    fit = ref1.estimate.values
    assert count_jumps(Signal(LatticeShape((1, 300)), fit), 1.0) \
        == count_jumps(S(fit), 1.0)


def test_adaptive_tv_takes_a_shared_path():
    # a path already used for a lambda grid gives the adaptive rule bit for
    # bit what the rule's own pass gives, in the signal's layout
    rng = np.random.default_rng(26)
    for function in ("blocks", "bumps", "heavisine", "doppler"):
        f = gen_test_function(function, 1000, 7.0)
        v = f.values + rng.normal(size=1000)
        for sizes in [(1000,), (1, 1000), (1000, 1)]:
            y = Signal(LatticeShape(sizes), v)
            path = FusionPath(y)
            for lam in np.geomspace(1e-2, 1e3, 5).tolist():
                path.solve(lam)
            shared = adaptive_tv(path, sigma=1.0)
            own = adaptive_tv(y, sigma=1.0)
            assert shared[2] == own[2]
            for a, b in zip(shared[:2], own[:2]):
                assert a.estimate.shape.sizes == sizes
                assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
                assert a.dual.tobytes() == b.dual.tobytes()
                assert (a.lam, a.gap) == (b.lam, b.gap)
            assert adaptive_tv(path)[2] == adaptive_tv(y)[2]
    # likewise a CutSolver on an image: one network for every lambda, and no
    # state carried from one solve to the next
    img = np.kron([[0.0, 3.0], [3.0, 0.0]], np.ones((8, 8)))
    y = S(img + rng.normal(size=(16, 16)))
    solver = tv_solver(y)
    assert isinstance(solver, CutSolver)
    for lam in np.geomspace(1e-2, 1e3, 5).tolist():
        solver.solve(lam)
    shared = adaptive_tv(solver, sigma=1.0)
    own = adaptive_tv(y, sigma=1.0)
    assert shared[2] == own[2]
    for a, b in zip(shared[:2], own[:2]):
        assert a.estimate.shape.sizes == (16, 16)
        assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
        assert a.dual.tobytes() == b.dual.tobytes()
        assert (a.lam, a.gap, a.iterations) == (b.lam, b.gap, b.iterations)
    assert adaptive_tv(solver)[2] == adaptive_tv(y)[2]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 300), layout=st.sampled_from(["n", "1xn", "nx1"]),
       seed=st.integers(0, 2 ** 32 - 2), log_amp=st.floats(-6.0, 6.0),
       data=st.sampled_from(["normal", "integer", "tied"]),
       known_sigma=st.booleans())
def test_adaptive_path_pass_matches_direct_pass(n, layout, seed, log_amp,
                                                data, known_sigma):
    # both fits of the adaptive rule on a path lattice come from one fusion
    # pass; they must be the direct-pass oracle's at the reported
    # thresholds, count the same levels and carry their certificates
    rng = np.random.default_rng(seed)
    amp = 10.0 ** log_amp
    blocks = np.repeat(rng.normal(size=8) * 4, -(-n // 8))[:n]
    v = blocks + rng.normal(size=n)
    if data == "integer":
        v = np.round(v)
    elif data == "tied":
        v = np.round(v / 3) * 3
    v = amp * v
    sizes = {"n": (n,), "1xn": (1, n), "nx1": (n, 1)}[layout]
    y = Signal(LatticeShape(sizes), v)
    sol1, sol2, report = adaptive_tv(y, sigma=amp if known_sigma else None)
    assert report.lambda2 <= report.lambda1
    tol = 1e-10 * (1.0 + np.abs(v).max())
    for sol, lam in ((sol1, report.lambda1), (sol2, report.lambda2)):
        direct = tv_oracle_direct_1d(v, lam)
        assert sol.lam == lam and sol.estimate.shape.sizes == sizes
        assert np.abs(sol.estimate.values - direct).max() <= tol
        assert np.abs(sol.dual).max(initial=0.0) <= lam
        assert np.abs(v - adjoint_flat(sol.dual, sizes)
                      - sol.estimate.values).max() <= 1e-8 * np.abs(v).max()
        assert 0.0 <= sol.gap <= 1e-9 * (1.0 + sol.objective(y))
    direct1 = S(tv_oracle_direct_1d(v, report.lambda1))
    assert report.count1 == count_jumps(direct1, report.sigma_used) + 1


def test_adaptive_tv_rejects_high_dims():
    # the coefficient lookup is the one dimension rule: no law is shipped
    # for d = 4, and one supplied for it serves both steps
    rng = np.random.default_rng(12)
    f = np.zeros((6, 6, 6, 6))
    f[:3] = 4.0
    y = S(f + rng.normal(size=f.shape))
    with pytest.raises(ValueError,
                       match="no shipped calibration for dimension 4"):
        adaptive_tv(y, sigma=1.0)
    d3 = default_coefficients(3)
    coeffs = GumbelFitCoefficients(d3.a_mu, d3.b_mu, d3.a_beta, d3.b_beta,
                                   dim=4)
    sol1, sol2, report = adaptive_tv(y, sigma=1.0, coeffs=coeffs)
    assert report.lambda1 == universal_threshold(y.shape, 1.0, coeffs)
    for sol in (sol1, sol2):
        assert sol.gap >= 0.0
        assert np.abs(sol.dual).max() <= sol.lam
        resid = y.values - adjoint_flat(sol.dual, y.shape.sizes) \
            - sol.estimate.values
        assert np.abs(resid).max() <= 1e-9 * np.abs(y.values).max()


def test_property1_constant_fit_frequency():
    # at the universal threshold a pure-noise signal should collapse to its
    # mean at least at the guaranteed rate (the bound is loose; the observed
    # frequency is recorded by the assertion threshold)
    rng = np.random.default_rng(8)
    n, reps = 100, 200
    lam = _path_threshold(n, 1.0)
    hits = 0
    for _ in range(reps):
        fh = tv_denoise_1d(S(rng.normal(size=n)), lam).estimate.values
        hits += float(np.ptp(fh)) == 0.0
    floor = 1.0 - 2.0 / math.sqrt(math.log(n))
    assert hits / reps >= floor
    assert hits / reps >= 0.2
