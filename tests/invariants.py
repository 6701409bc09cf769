"""Invariant suites shared by the unit tests and the acceptance gate.

Each check runs a self-contained randomized sweep and raises AssertionError
on the first violation. Seeds are fixed so failures reproduce. An
``assert_*`` helper checks one given solution.
"""
import numpy as np

from oracles import ncc_floodfill
from tvdn.grid import LatticeShape, Signal, adjoint_flat, diff_flat
from tvdn.lambda_stat import fit_gumbel, sample_lambda, sample_lambda_1d
from tvdn.risk import ncc
from tvdn.segmentation import kkt_check
from tvdn.signals import PiecewiseConstantSpec
from tvdn.tvsolve import tv_denoise_1d

ALL_SHAPES = (
    [(n,) for n in (2, 3, 4, 5, 6)]
    + [(a, b) for a in (2, 3, 4) for b in (2, 3, 5)]
    + [(2, 3, 4), (3, 3, 3), (2, 2, 2)]
)


def check_adjointness():
    """<Bu, w> == <u, B^T w> on every small shape, random pairs, 1e-12."""
    rng = np.random.default_rng(101)
    for sizes in ALL_SHAPES:
        shape = LatticeShape(sizes)
        for _ in range(5):
            u = rng.normal(size=shape.n_sites)
            w = rng.normal(size=shape.n_edges)
            lhs = float(diff_flat(u, sizes) @ w)
            rhs = float(u @ adjoint_flat(w, sizes))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs)), (sizes, lhs, rhs)


def check_lambda_equivariance():
    """Lambda scales with |c| and ignores additive constants."""
    rng = np.random.default_rng(102)
    for sizes in [(17,), (64,), (5, 6), (4, 4, 3)]:
        y = rng.normal(size=sizes)
        base, _ = sample_lambda(Signal.from_array(y), tol=1e-9)
        for c in (2.5, -3.0, 0.125):
            scaled, _ = sample_lambda(Signal.from_array(c * y), tol=1e-9)
            assert abs(scaled - abs(c) * base) <= 1e-6 * (1 + abs(c) * base), \
                (sizes, c, scaled, abs(c) * base)
        for c in (4.0, -10.0):
            shifted, _ = sample_lambda(Signal.from_array(y + c), tol=1e-9)
            assert abs(shifted - base) <= 1e-6 * (1 + base), (sizes, c)
    # 1D closed form obeys the same identities exactly
    y = rng.normal(size=40)
    base = sample_lambda_1d(Signal.from_array(y))
    assert np.isclose(sample_lambda_1d(Signal.from_array(-2 * y)), 2 * base,
                      rtol=1e-12)
    assert np.isclose(sample_lambda_1d(Signal.from_array(y + 7.0)), base,
                      rtol=1e-9)


def check_ncc_floodfill():
    """Component count equals an independent BFS count joining exactly
    the neighbours whose difference is 0."""
    rng = np.random.default_rng(103)
    for sizes in [(1,), (2,), (30,), (7, 9), (4, 5, 4)]:
        for levels in (2, 3, 5):
            for step in (1.0, 0.25, 1e-7):
                v = step * rng.integers(0, levels, size=sizes)
                a = ncc(Signal.from_array(v))
                b = ncc_floodfill(v.ravel(), sizes, 0.0)
                assert a == b, (sizes, levels, step, a, b)


def check_kkt_solver_agreement():
    """kkt_check(holds) iff the candidate set is the 1D solver's jump set."""
    rng = np.random.default_rng(104)
    for _ in range(40):
        n = int(rng.integers(20, 201))
        n_seg = int(rng.integers(1, 7))
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_seg - 1,
                                  replace=False)) if n_seg > 1 else np.array([], int)
        bounds = np.concatenate([[0], cuts, [n]])
        levels = rng.normal(scale=4.0, size=n_seg)
        f = np.repeat(levels, np.diff(bounds))
        y = Signal.from_array(f + rng.normal(size=n))
        lam = float(rng.uniform(0.5, 6.0))
        sol = tv_denoise_1d(y, lam)
        jumps = np.flatnonzero(np.diff(sol.estimate.values) != 0.0) + 1

        holds, h_hat, w, max_w = kkt_check(y, jumps, lam)
        assert holds, (n, lam, jumps)
        seg_vals = sol.estimate.values[np.concatenate([[0], jumps])]
        assert np.allclose(h_hat, seg_vals, atol=1e-9), (n, lam)
        assert max_w <= lam * (1 + 1e-10) + 1e-12

        # a perturbed candidate set must be rejected unless it is the true one
        cand = set(jumps.tolist())
        flip = int(rng.integers(1, n))
        cand.symmetric_difference_update({flip})
        cand = np.array(sorted(cand), dtype=int)
        holds2, *_ = kkt_check(y, cand, lam)
        if holds2:
            assert np.array_equal(cand, jumps), (n, lam, flip)


def check_mle_equivariance():
    """Gumbel MLE commutes with shifts and positive scalings."""
    rng = np.random.default_rng(105)
    x = rng.gumbel(loc=1.0, scale=2.0, size=400)
    base = fit_gumbel(x)
    for c in (5.0, -2.25):
        shifted = fit_gumbel(x + c)
        assert abs(shifted.mu - (base.mu + c)) <= 1e-9 * (1 + abs(base.mu + c))
        assert abs(shifted.beta - base.beta) <= 1e-9 * (1 + base.beta)
    for c in (3.0, 0.5, 1e-9, 1e9):
        scaled = fit_gumbel(c * x)
        assert abs(scaled.mu - c * base.mu) <= 1e-8 * (1 + abs(c * base.mu))
        assert abs(scaled.beta - c * base.beta) <= 1e-8 * (1 + c * base.beta)


ALL_CHECKS = (
    check_adjointness,
    check_lambda_equivariance,
    check_ncc_floodfill,
    check_kkt_solver_agreement,
    check_mle_equivariance,
)


def assert_mean_fit(y, sol, lam):
    """sol is y's fit at lam and that fit is the mean, certified: one
    constant, gap 0 and a finite dual within +-lam that reconstructs it."""
    f = sol.estimate.values
    assert sol.lam == lam and sol.estimate.shape == y.shape
    assert np.ptp(f) == 0.0 and sol.gap == 0.0
    assert abs(f[0] - y.values.mean()) <= 1e-15 * np.abs(y.values).max()
    assert np.all(np.isfinite(sol.dual)) and np.abs(sol.dual).max() <= lam
    assert np.abs(y.values - adjoint_flat(sol.dual, y.shape.sizes)
                  - f).max() <= 1e-12 * np.abs(y.values).max()
