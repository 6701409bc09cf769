import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdn.coeffs import default_coefficients
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.lambda_stat import GumbelFitCoefficients
from tvdn.selection import (ThresholdReport, adaptive_threshold_1d, adaptive_tv,
                            count_jumps, edge_count_alpha, estimate_sigma,
                            exact_seg_prob_bound, exact_seg_threshold,
                            jump_threshold, min_jump_height,
                            universal_threshold, universal_threshold_1d,
                            universal_threshold_lattice)
from tvdn.signals import gen_piecewise, gen_test_function
from tvdn.tvsolve import tv_denoise, tv_denoise_1d

S = Signal.from_array


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
    assert universal_threshold_1d(100, 0.0) == 0.0
    assert universal_threshold_1d(100, 1.0) == pytest.approx(6.179, abs=5e-4)
    assert universal_threshold_1d(10000, 1.0) == pytest.approx(74.51, abs=1e-2)
    with pytest.raises(ValueError):
        universal_threshold_1d(2, 1.0)


def test_adaptive_threshold_1d_values():
    assert adaptive_threshold_1d(500, 1, 1.3) == universal_threshold_1d(500, 1.3)
    assert adaptive_threshold_1d(1000, 12, 1.0) == pytest.approx(5.566, abs=1e-3)
    assert adaptive_threshold_1d(1000, 12, 2.0) \
        == 2.0 * adaptive_threshold_1d(1000, 12, 1.0)
    with pytest.raises(ValueError):
        adaptive_threshold_1d(10, 4, 1.0)


def test_thresholds_homogeneous_and_increasing():
    for n in (16, 100, 4096):
        assert universal_threshold_1d(n, 3.0) \
            == pytest.approx(3.0 * universal_threshold_1d(n, 1.0), rel=1e-15)
    vals = [universal_threshold_1d(n, 1.0) for n in (16, 32, 128, 1024, 65536)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_count_jumps_constant_and_errors():
    c = S(np.zeros(50))
    for variant in ("raw", "nonzero", "calibrated"):
        assert count_jumps(c, 1.0, variant) == 0
    with pytest.raises(ValueError):
        count_jumps(S(np.zeros((3, 3))), 1.0, "raw")
    with pytest.raises(ValueError):
        count_jumps(c, 1.0, "weird")


def test_count_jumps_battlements_calibrated():
    f = gen_piecewise("battlements", 100, 5, 5.0).realize()
    assert count_jumps(f, 1.0, "calibrated") == 4


def test_jump_threshold_ordering():
    # raw cutoff targets single observations, calibrated targets means
    assert jump_threshold(100, 1.0, "raw") \
        == pytest.approx(10.0 * jump_threshold(100, 1.0, "calibrated"), rel=1e-12)
    assert jump_threshold(100, 1.0, "nonzero") == pytest.approx(1e-3, rel=1e-9)


def test_nonzero_cutoff_ignores_solver_defaults(monkeypatch):
    import tvdn.tvsolve
    from tvdn.tvsolve import SolverConfig
    monkeypatch.setattr(tvdn.tvsolve, "SolverConfig",
                        lambda: SolverConfig(gap_tol=1e-4))
    assert jump_threshold(100, 1.0, "nonzero") == 1e-3


def test_count_jumps_ordering_frequency():
    # raw on data <= true <= calibrated on fit <= nonzero on fit, typically
    rng = np.random.default_rng(5)
    n, reps = 1000, 40
    f = gen_test_function("blocks", n, 7.0)
    true_jumps = int(np.count_nonzero(np.diff(f.values)))
    lam = universal_threshold_1d(n, 1.0)
    ok = 0
    for _ in range(reps):
        y = Signal(f.shape, f.values + rng.normal(size=n))
        fh = tv_denoise_1d(y, lam).estimate
        ok += (count_jumps(y, 1.0, "raw") <= true_jumps
               <= count_jumps(fh, 1.0, "calibrated")
               <= count_jumps(fh, 1.0, "nonzero"))
    assert ok / reps >= 0.9


def test_edge_count_alpha():
    assert edge_count_alpha(8064) == pytest.approx(2.0 / math.sqrt(math.log(8064)),
                                                   rel=1e-15)
    with pytest.raises(ValueError):
        edge_count_alpha(1)


def test_universal_threshold_lattice_pipeline_value():
    shape = LatticeShape((64, 64))
    assert shape.n_edges == 8064
    co = default_coefficients(2)
    p = co.params_at(64.0)
    assert p.mu == pytest.approx(1.4796, abs=5e-4)
    assert p.beta == pytest.approx(0.1551, abs=5e-4)
    alpha = edge_count_alpha(8064)
    assert alpha == pytest.approx(0.6669, abs=5e-4)
    thr = universal_threshold_lattice(shape, 1.0)
    assert thr == pytest.approx(1.465, abs=2e-3)
    assert universal_threshold_lattice(shape, 2.0) == pytest.approx(2 * thr,
                                                                    rel=1e-12)


def test_universal_threshold_lattice_geometric_mean_sides():
    co = default_coefficients(2)
    thr_rect = universal_threshold_lattice(LatticeShape((32, 128)), 1.0, co)
    n_geo = (32 * 128) ** 0.5
    p = co.params_at(n_geo)
    alpha = edge_count_alpha(LatticeShape((32, 128)).n_edges)
    assert thr_rect == pytest.approx(max(0.0, p.quantile(1 - alpha)), rel=1e-12)


def test_universal_threshold_dispatch():
    co2 = default_coefficients(2)
    # path lattices: the closed form, coefficients are not read
    for sizes in [(500,), (1, 500), (500, 1), (1, 1, 500)]:
        shape = LatticeShape(sizes)
        assert universal_threshold(shape, 1.3) == universal_threshold_1d(500, 1.3)
        assert universal_threshold(shape, 1.3, co2) \
            == universal_threshold_1d(500, 1.3)
    with pytest.raises(ValueError):
        universal_threshold(LatticeShape((2,)), 1.0)
    # any other lattice, a 1 x N x M one included: the Gumbel quantile of
    # its dimension
    for sizes in [(32, 128), (1, 8, 64), (8, 8, 8)]:
        shape = LatticeShape(sizes)
        assert universal_threshold(shape, 2.0) \
            == universal_threshold_lattice(shape, 2.0)
    custom = GumbelFitCoefficients(-0.3, 0.5, -1.4, -0.2, dim=2)
    shape = LatticeShape((64, 64))
    thr = universal_threshold(shape, 1.0, custom)
    assert thr == universal_threshold_lattice(shape, 1.0, custom)
    assert thr != universal_threshold_lattice(shape, 1.0)


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
        == universal_threshold(flat.shape, 1.0) \
        == universal_threshold_lattice(flat.shape, 1.0)
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
            universal_threshold_lattice(LatticeShape(shape), 1.0, wrong)
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
        min_jump_height(1.0, 0.0)
    with pytest.raises(ValueError):
        exact_seg_prob_bound(1, 0.05)


def test_threshold_report_validation():
    with pytest.raises(ValueError):
        ThresholdReport(1.0, 1.0, 2, 0.5, "bogus")
    with pytest.raises(ValueError):
        ThresholdReport(-1.0, 1.0, 2, 0.5, "adaptive")


def test_adaptive_tv_constant_1d():
    y = S(np.full(64, 2.0))
    sol1, sol2, report = adaptive_tv(y, sigma=1.0)
    assert report.count1 == 1
    assert report.lambda2 == report.lambda1
    assert np.array_equal(sol2.estimate.values, np.full(64, 2.0))
    assert np.array_equal(sol1.estimate.values, sol2.estimate.values)
    assert report.method == "adaptive"


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
    assert count_jumps(Signal(LatticeShape((1, 300)), v), 1.0, "raw") \
        == count_jumps(S(v), 1.0, "raw")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 300), layout=st.sampled_from(["n", "1xn", "nx1"]),
       seed=st.integers(0, 2 ** 32 - 2), log_amp=st.floats(-6.0, 6.0),
       data=st.sampled_from(["normal", "integer", "tied"]),
       known_sigma=st.booleans())
def test_adaptive_path_pass_matches_direct_pass(n, layout, seed, log_amp,
                                                data, known_sigma):
    # both fits of the adaptive rule on a path lattice come from one fusion
    # pass up to lambda1; they must be the direct pass's at the reported
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
        direct = tv_denoise_1d(S(v), lam)
        assert sol.lam == lam and sol.estimate.shape.sizes == sizes
        assert np.abs(sol.estimate.values - direct.estimate.values).max() <= tol
        assert np.abs(sol.dual).max(initial=0.0) <= lam
        assert np.abs(v - adjoint_flat(sol.dual, sizes)
                      - sol.estimate.values).max() <= 1e-8 * np.abs(v).max()
        assert 0.0 <= sol.gap <= 1e-9 * (1.0 + sol.objective(y))
    direct1 = tv_denoise_1d(S(v), report.lambda1).estimate
    assert report.count1 == count_jumps(direct1, report.sigma_used,
                                        "calibrated") + 1


def test_adaptive_tv_rejects_high_dims():
    with pytest.raises(ValueError):
        adaptive_tv(S(np.zeros((2, 2, 2, 2))), sigma=1.0)


def test_property1_constant_fit_frequency():
    # at the universal threshold a pure-noise signal should collapse to its
    # mean at least at the guaranteed rate (the bound is loose; the observed
    # frequency is recorded by the assertion threshold)
    rng = np.random.default_rng(8)
    n, reps = 100, 200
    lam = universal_threshold_1d(n, 1.0)
    hits = 0
    for _ in range(reps):
        fh = tv_denoise_1d(S(rng.normal(size=n)), lam).estimate.values
        hits += float(np.ptp(fh)) == 0.0
    floor = 1.0 - 2.0 / math.sqrt(math.log(n))
    assert hits / reps >= floor
    assert hits / reps >= 0.2
