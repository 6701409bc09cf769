"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single summary line ([acceptance] <n> <name> PASS/FAIL)
with its elapsed time; run `pytest tests/test_acceptance.py -v -s` to watch
them stream. Criteria 1-8 are hard gates with fixed seeds and stated
tolerances; criterion 9 records that full-scale runs (1024^2 lattice
sampling, full image sweeps) stay out of the default suite and remain
reachable through the CLI as long-running jobs.
"""
import time
from itertools import product

import numpy as np

from invariants import ALL_CHECKS
from oracles import lambda_oracle_gridsearch, tv_oracle_boxqp, tv_oracle_patterns
from tvdn.bench import EXPERIMENTS, ExperimentConfig, bench_mse, bench_seg
from tvdn.cli import build_parser
from tvdn.coeffs import default_coefficients
from tvdn.grid import (LatticeShape, Signal, SpectralLaplacian, adjoint_flat,
                       diff_flat)
from tvdn.lambda_stat import (fit_gev_and_lr_test, fit_gumbel,
                              monte_carlo_lambda, sample_lambda,
                              sample_lambda_1d)
from tvdn.risk import sure
from tvdn.selection import exact_seg_prob_bound
from tvdn.tvsolve import _cut_solve, tv_denoise, tv_denoise_1d


def _finish(num, name, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print("[acceptance] %d %-32s %s (%5.1fs) %s" %
          (num, name, status, elapsed, detail))
    assert ok, "%s: %s" % (name, detail)
    assert elapsed < budget, "%s took %.1fs, budget %.0fs" % (name, elapsed,
                                                              budget)


def test_criterion_1_solver_matches_bruteforce():
    # every 2-, 3-, 4-point path instance with entries in {-1,0,1,2} against
    # a bounded-dual least-squares oracle, and every 2x2 instance against
    # exhaustive sign-pattern enumeration; within 1e-8, gap 1e-8. Paths are
    # solved by tv_denoise (the exact 1D pass) and, laid out as a 1xn or nx1
    # lattice (in turn), by the cut solver called directly, since
    # tv_denoise sends every path lattice to the 1D pass
    t0 = time.time()
    lams = np.arange(0, 2.01, 0.25)
    entries = (-1.0, 0.0, 1.0, 2.0)
    worst_err = worst_gap = 0.0
    count = 0
    for npts in (2, 3, 4):
        for i, vals in enumerate(product(entries, repeat=npts)):
            y = np.array(vals)
            sizes = [(1, npts), (npts, 1)][i % 2]
            solves = [(tv_denoise, Signal.from_array(y)),
                      (_cut_solve, Signal(LatticeShape(sizes), y))]
            for lam in lams:
                ref = tv_oracle_boxqp(y, float(lam), (npts,))
                for solve, ys in solves:
                    sol = solve(ys, float(lam))
                    worst_err = max(
                        worst_err, float(np.abs(sol.estimate.values - ref).max()))
                    worst_gap = max(worst_gap, sol.gap)
                    count += 1
    for vals in product(entries, repeat=4):
        y = np.array(vals)
        ys = Signal.from_array(y.reshape(2, 2))
        for lam in lams:
            sol = tv_denoise(ys, float(lam))
            ref = y if lam == 0.0 else tv_oracle_patterns(y, float(lam), (2, 2))
            worst_err = max(worst_err,
                            float(np.abs(sol.estimate.values - ref).max()))
            worst_gap = max(worst_gap, sol.gap)
            count += 1
    ok = worst_err <= 1e-8 and worst_gap <= 1e-8
    _finish(1, "solver vs brute force", ok,
            "%d solves, worst err %.2e, worst gap %.2e" %
            (count, worst_err, worst_gap), t0, 60.0)


def test_criterion_2_statistic_matches_oracles():
    # on paths (n, 1xn, nx1) the partial-sum dual against the unique dual
    # B L^+ c computed through the cosine transform (1e-6), with B^T w = c;
    # the min-cut statistic against a refined grid-search oracle on 2x2/2x3
    # lattices (1e-4)
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_1d = 0.0
    for k in range(100):
        n = int(rng.integers(2, 1025))
        sizes = [(n,), (1, n), (n, 1)][k % 3]
        y = Signal(LatticeShape(sizes), rng.normal(size=n))
        c = y.values - y.values.mean()
        ub, w = sample_lambda(y, tol=1e-8)
        ref = np.abs(diff_flat(SpectralLaplacian(y.shape).solve(c), sizes)).max()
        residual = np.abs(adjoint_flat(w, sizes) - c).max() / np.abs(c).max()
        worst_1d = max(worst_1d, abs(ub - ref), abs(ub - np.abs(w).max()),
                       residual)
    worst_2d = 0.0
    for sizes in [(2, 2), (2, 3)]:
        for _ in range(20):
            y = rng.normal(size=sizes)
            ub, _ = sample_lambda(Signal.from_array(y), tol=1e-7)
            ref = lambda_oracle_gridsearch(y.ravel(), sizes)
            worst_2d = max(worst_2d, abs(ub - ref))
    ok = worst_1d <= 1e-6 and worst_2d <= 1e-4
    _finish(2, "dual statistic vs oracles", ok,
            "1D dev %.2e, lattice dev %.2e" % (worst_1d, worst_2d), t0, 120.0)


def test_criterion_3_statistic_is_constancy_boundary():
    # just above the statistic the fit collapses to the mean; a relative
    # notch below it does not
    t0 = time.time()
    rng = np.random.default_rng(31)
    bad = []
    for k in range(100):
        if k % 2 == 0:
            # a path, solved by the exact 1D pass and, laid out as a 1xn or
            # nx1 lattice, by the cut solver called directly
            n = int(rng.integers(8, 257))
            v = rng.normal(size=n)
            solves = [(tv_denoise, Signal.from_array(v)),
                      (_cut_solve,
                       Signal(LatticeShape([(1, n), (n, 1)][k % 4 // 2]), v))]
            lam = sample_lambda_1d(solves[0][1])
        else:
            n1 = int(rng.integers(3, 13))
            n2 = int(rng.integers(3, 13))
            solves = [(tv_denoise, Signal.from_array(rng.normal(size=(n1, n2))))]
            lam, _ = sample_lambda(solves[0][1], tol=1e-9)
        for solve, y in solves:
            hi = solve(y, lam * (1 + 1e-6))
            dev_hi = np.abs(hi.estimate.values - y.values.mean()).max()
            lo = solve(y, lam * (1 - 1e-3))
            dev_lo = np.abs(lo.estimate.values - lo.estimate.values.mean()).max()
            if not (dev_hi <= 1e-6 and dev_lo > 1e-6):
                bad.append((k, y.shape.sizes, dev_hi, dev_lo))
    _finish(3, "constancy boundary", not bad,
            "100 instances, failures %r" % (bad,), t0, 300.0)


def test_criterion_4_risk_bands():
    # mean discrete risk (x100) of the three selectors on seeded replicates;
    # bands are wide enough to absorb Monte Carlo error at these replicate
    # counts while still pinning the right performance regime
    t0 = time.time()
    blocks = bench_mse(ExperimentConfig(
        "mse_1d", functions=("blocks",), sizes=(1000,), reps=(50,), seed=0))
    zero = bench_mse(ExperimentConfig(
        "mse_1d", functions=("zero",), sizes=(100,), reps=(500,), seed=0))
    vals = {
        "adaptive": blocks.get("blocks", 1000, "adaptive", "risk_x100")["value"],
        "oracle": blocks.get("blocks", 1000, "oracle", "risk_x100")["value"],
        "sure": blocks.get("blocks", 1000, "sure", "risk_x100")["value"],
        "zero_adaptive": zero.get("zero", 100, "adaptive", "risk_x100")["value"],
    }
    bands = {"adaptive": (5.0, 8.5), "oracle": (5.0, 8.0), "sure": (5.2, 8.5),
             "zero_adaptive": (1.0, 2.2)}
    bad = {k: (v, bands[k]) for k, v in vals.items()
           if not bands[k][0] <= v <= bands[k][1]}
    _finish(4, "risk bands", not bad,
            "blocks adaptive %.2f oracle %.2f sure %.2f | zero adaptive %.2f%s"
            % (vals["adaptive"], vals["oracle"], vals["sure"],
               vals["zero_adaptive"],
               "" if not bad else " out of band: %r" % bad), t0, 600.0)


def test_criterion_5_segmentation_events():
    # event frequencies at the exact-recovery threshold scale: alternating
    # jumps of size 2h* recover exactly (above the analytic bound and near
    # the nominal rate), monotone staircases never do but still screen, and
    # tiny jumps are never recovered exactly
    t0 = time.time()
    table = bench_seg(ExperimentConfig(
        "seg_1d", functions=("battlements", "staircase"), sizes=(100,),
        reps=(200,), alphas=(0.05,), seed=0))
    p_ex = table.get("battlements@2h*", 100, "exact_seg", "pi_exact")["value"]
    p_sc = table.get("battlements@2h*", 100, "exact_seg", "pi_screen")["value"]
    st_ex = table.get("staircase@2h*", 100, "exact_seg", "pi_exact")["value"]
    st_sc = table.get("staircase@2h*", 100, "exact_seg", "pi_screen")["value"]
    low_ex = table.get("battlements@h*/10", 100, "exact_seg",
                       "pi_exact")["value"]
    bound = exact_seg_prob_bound(5, 0.05)
    ok = (p_ex >= bound and abs(p_ex - 0.95) <= 0.05 and p_sc == 1.0
          and st_ex == 0.0 and st_sc == 1.0 and low_ex == 0.0)
    _finish(5, "segmentation events", ok,
            "alternating exact %.3f (bound %.3f) screen %.2f | "
            "staircase exact %.2f screen %.2f | tiny-jump exact %.2f"
            % (p_ex, bound, p_sc, st_ex, st_sc, low_ex), t0, 600.0)


def test_criterion_6_extreme_value_calibration():
    # 200 draws of the statistic per side length; Gumbel location within 15%
    # and scale within 30% of the shipped log-log law, and the generalized
    # fit never rejects the Gumbel restriction at the 1% level
    t0 = time.time()
    co = default_coefficients(2)
    rows = []
    ok = True
    for n in (8, 16, 32):
        draws = monte_carlo_lambda(LatticeShape((n, n)), 200, seed=1234)
        g = fit_gumbel(draws)
        _, p = fit_gev_and_lr_test(draws)
        ref = co.params_at(n)
        mu_dev = abs(g.mu / ref.mu - 1.0)
        beta_dev = abs(g.beta / ref.beta - 1.0)
        ok = ok and mu_dev <= 0.15 and beta_dev <= 0.30 and p > 0.01
        rows.append("N=%d mu dev %.3f beta dev %.3f p %.3f"
                    % (n, mu_dev, beta_dev, p))
    _finish(6, "extreme-value calibration", ok, "; ".join(rows), t0, 1800.0)


def test_criterion_7_risk_estimate_unbiased():
    # paired SURE-minus-loss differences on pure noise around zero must stay
    # within 3 standard errors of zero at every grid point
    t0 = time.time()
    rng = np.random.default_rng(77)
    n, reps = 100, 500
    grid = np.geomspace(0.5, 12.0, 10)
    diffs = np.zeros((reps, grid.size))
    for r in range(reps):
        y = Signal.from_array(rng.normal(size=n))
        for j, lam in enumerate(grid):
            sol = tv_denoise_1d(y, float(lam))
            loss = float(np.mean(sol.estimate.values ** 2))
            diffs[r, j] = sure(y, sol.estimate, 1.0) - loss
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
    ok = bool(np.all(np.abs(mean) <= 3.0 * se))
    _finish(7, "risk estimate unbiasedness", ok,
            "max |mean|/se = %.2f over %d grid points"
            % (float(np.max(np.abs(mean) / se)), grid.size), t0, 300.0)


def test_criterion_8_invariant_battery():
    # the standalone cross-module checks: adjointness, statistic
    # equivariances, component-count agreement, certificate/solver
    # agreement, and location-scale equivariance of the fitters
    t0 = time.time()
    for check in ALL_CHECKS:
        check()
    _finish(8, "invariant battery", True,
            "%d checks" % len(ALL_CHECKS), t0, 300.0)


def test_criterion_9_full_scale_runs_deferred():
    # the full-size calibration grid and the image sweeps take hours, so
    # the default suite only records that their entry points exist; run them
    # with the lambda-sample / lambda-fit / denoise subcommands when needed
    t0 = time.time()
    assert "lambda_fit" in EXPERIMENTS and "image" in EXPERIMENTS
    shape = LatticeShape((1024, 1024))  # the target size is representable
    assert shape.n_sites == 1024 * 1024
    parser = build_parser()
    args = parser.parse_args(["lambda-sample", "--dim", "2", "--sizes",
                              "1024", "--reps", "200", "--out", "draws"])
    assert args.reps == 200 and args.sizes == (1024,)
    args = parser.parse_args(["denoise", "--in", "img.pgm", "--method",
                              "adaptive"])
    assert args.infile == "img.pgm"
    _finish(9, "full-scale runs deferred", True,
            "long-running CLI entry points wired; default gate is 1-8",
            t0, 60.0)
