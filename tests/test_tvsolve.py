import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tv_objective, tv_oracle_boxqp
from tvdn.grid import LatticeShape, Signal, adjoint_flat
from tvdn.lambda_stat import sample_lambda, sample_lambda_1d
from tvdn.signals import gen_test_function
import tvdn.tvsolve
from tvdn.tvsolve import (FusionPath, SolverConfig, TvSolution, _cut_solve,
                          lambda_max, tv_denoise, tv_denoise_1d, tv_path_1d)

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
    # direct pass is slowest and the path has the most merges
    f = gen_test_function("doppler", 10000, 7.0)
    y = Signal(f.shape, f.values + np.random.default_rng(7).normal(size=10000))
    lam_max = sample_lambda_1d(y)
    _assert_path_matches_direct_pass(
        y, np.array([0.0, 0.01, 0.1, 0.5, 1.0]) * lam_max)


def _assert_path_matches_direct_pass(y, grid):
    n = y.shape.n_sites
    lam_max = sample_lambda_1d(y)
    amp = float(np.abs(y.values).max())
    sols = tv_path_1d(y, grid)
    assert [s.lam for s in sols] == grid.tolist()
    for lam, sol in zip(grid, sols):
        f = sol.estimate.values
        direct = tv_denoise_1d(y, lam).estimate.values
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
    for lam, sol in zip(grid, tv_path_1d(y, grid)):
        ref = tv_oracle_boxqp(y.values, lam, (n,))
        assert np.abs(sol.estimate.values - ref).max() <= 1e-8


def test_fusion_path_times_and_bounds():
    # runs of equal data fuse at 0, an edge still apart at lam_stop at inf,
    # and fits are written only up to lam_stop
    y = S([1.0, 1.0, 4.0, 0.0, 0.0])
    path = FusionPath(y, 1.0)
    assert path.times[0] == 0.0 and path.times[3] == 0.0
    assert np.all(path.times[1:3] == np.inf)
    full = FusionPath(y, 10.0)
    assert np.all(np.isfinite(full.times))
    for lam in (0.0, 0.5, 1.0):
        a, b = path.solve(lam), full.solve(lam)
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert np.abs(a.estimate.values
                      - tv_denoise_1d(y, lam).estimate.values).max() <= 1e-15
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            path.solve(bad)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            FusionPath(y, bad)
    with pytest.raises(ValueError):
        FusionPath(S(np.zeros((2, 3))), 1.0)


def test_path_edge_cases_and_bad_grids():
    assert tv_path_1d(S([1.0, 2.0]), []) == []
    sols = tv_path_1d(S([2.5]), [0.0, 1.0])
    assert [s.estimate.values.tolist() for s in sols] == [[2.5], [2.5]]
    const = S(np.full(7, 0.1))
    for sol in tv_path_1d(const, [0.0, 0.3, 9.0]):
        assert np.array_equal(sol.estimate.values, const.values)
        assert sol.gap == 0.0
    y = S([0.0, 3.0, 1.0])
    for bad in ([1.0, 0.5], [-0.1, 1.0], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError):
            tv_path_1d(y, bad)
    with pytest.raises(ValueError):
        tv_path_1d(S(np.zeros((2, 3))), [1.0])


def test_nd_constant_input():
    y = S(np.full((4, 5), 2.5))
    sol = tv_denoise(y, 1.0)
    assert np.array_equal(sol.estimate.values, y.values)
    assert sol.objective(y) == 0.0
    assert sol.gap == 0.0


def test_tv_denoise_1d_is_the_direct_pass():
    # a path lattice never enters the cut solver, whatever the config:
    # every layout of n values on one chain gives the 1D pass on the flat
    # values bit for bit, in the input's shape
    rng = np.random.default_rng(13)
    cfg = SolverConfig(max_iter=1)
    for n in (1, 2, 50, 300):
        v = rng.normal(size=n)
        y = S(v)
        lams = [0.0, 0.3, 2.0, 1.5 * sample_lambda_1d(y)]
        path = tv_path_1d(y, sorted(lams))
        for sizes in [(n,), (1, n), (n, 1), (1, 1, n)]:
            ys = Signal(LatticeShape(sizes), v)
            for lam in lams:
                a = tv_denoise(ys, lam, cfg)
                b = tv_denoise_1d(y, lam)
                assert a.estimate.shape.sizes == sizes
                assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
                assert a.dual.tobytes() == b.dual.tobytes()
                assert (a.gap, a.iterations, a.converged) == (b.gap, 0, True)
            for a, b in zip(tv_path_1d(ys, sorted(lams)), path):
                assert a.estimate.shape.sizes == sizes
                assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
                assert a.dual.tobytes() == b.dual.tobytes()
    with pytest.raises(ValueError):
        tv_denoise(S([1.0, 2.0]), -0.1, cfg)
    with pytest.raises(ValueError):
        tv_denoise(S(np.zeros((1, 3))), -0.1, cfg)
    with pytest.raises(ValueError):
        tv_denoise_1d(S(np.zeros((2, 3))), 0.1)


def test_nd_matches_1d_direct():
    # the cut solver on lattices with one nontrivial axis, against the exact
    # 1D pass on the same values; tv_denoise sends these lattices to the 1D
    # pass, so the cut solver is called directly
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(8, 65))
        v = rng.normal(size=n)
        lam = float(rng.uniform(0.2, 3.0))
        b = tv_denoise_1d(S(v), lam).estimate.values
        for sizes in [(1, n), (n, 1)]:
            a = _cut_solve(Signal(LatticeShape(sizes), v), lam)
            assert a.iterations > 0
            assert np.abs(a.estimate.values - b).max() <= 1e-6


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
    for lam in (value, value * (1 + 1e-6), np.inf):
        sol = tv_denoise(y, lam)
        assert sol.converged and sol.iterations > 0
        assert np.ptp(sol.estimate.values) == 0.0
        assert sol.estimate.values[0] == pytest.approx(y.values.mean(), rel=1e-15)
        assert np.abs(sol.dual).max() <= lam
        assert np.abs(y.values - adjoint_flat(sol.dual, (4, 4))
                      - sol.estimate.values).max() <= 1e-12
        assert sol.gap == 0.0


def test_1d_infinite_lambda_gives_mean():
    # a path lattice at lambda = inf gets the constant mean fit with gap 0,
    # as the 4x4 lattice above does, with no inf - inf or inf * 0 on the way
    v = np.random.default_rng(2).normal(size=8)
    for sizes in [(8,), (1, 8)]:
        y = Signal(LatticeShape(sizes), v)
        for sol in (tv_denoise_1d(y, np.inf), tv_denoise(y, np.inf)):
            assert sol.estimate.shape.sizes == sizes
            assert np.ptp(sol.estimate.values) == 0.0
            assert sol.estimate.values[0] == pytest.approx(v.mean(), rel=1e-15)
            assert np.all(np.isfinite(sol.dual))
            assert np.abs(v - adjoint_flat(sol.dual, sizes)
                          - sol.estimate.values).max() <= 1e-12
            assert sol.gap == 0.0


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


def _phantom_256():
    # perfbench's noisy_phantom(2, 0, 256): three rectangles and two discs
    # at levels +-[2, 4], plus unit noise
    n = 256
    rng = np.random.default_rng([160501438, 2, 0])
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
    v, f = _phantom_256()
    y = S(v)
    lam = universal_threshold(y.shape, estimate_sigma(y))
    sol = tv_denoise(y, lam)
    _cut_certificate(y, lam, sol)
    assert sol.gap <= 1e-8 * (1.0 + sol.objective(y))
    assert np.mean((sol.estimate.values - f.ravel()) ** 2) < 0.1


def test_tvsolution_objective():
    y = S([1.0, 3.0])
    sol = tv_denoise_1d(y, 0.5)
    expect = 0.5 * np.sum((y.values - sol.estimate.values) ** 2) \
        + 0.5 * np.abs(np.diff(sol.estimate.values)).sum()
    assert sol.objective(y) == pytest.approx(expect, abs=1e-12)


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
