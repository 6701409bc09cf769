"""Seeded Monte Carlo benchmarks: denoising risk, segmentation events, and
the lambda calibration pipeline.

Each replicate draws its generator from entropy (base_seed, tags..., rep),
so results do not depend on how replicates are spread over workers, and the
same configuration always reproduces the same table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pool import parallel_map
from .grid import LatticeShape, Signal
from .lambda_stat import (GumbelParams, _mc_one, _mc_tasks, fit_gev_and_lr_test,
                          fit_gumbel, fit_loglog_regression, sample_lambda)
from .risk import default_lambda_grid, loss, sure
from .segmentation import evaluate_outcome
from .selection import (adaptive_tv, exact_seg_threshold, min_jump_height,
                        universal_threshold)
from .signals import TEST_FUNCTIONS, check_sigma, gen_piecewise, gen_test_function
from .tvsolve import tv_solver

EXPERIMENTS = ("mse_1d", "seg_1d", "lambda_fit", "image")

DEFAULT_MSE_SIZES = (100, 1000, 10000)


@dataclass
class ExperimentConfig:
    experiment: str
    functions: tuple = ()
    sizes: tuple = ()
    reps: tuple = ()
    alphas: tuple = (0.05,)
    seed: int = 0
    snr: float = 7.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment %r" % (self.experiment,))
        self.functions = tuple(self.functions)
        self.sizes = tuple(int(s) for s in self.sizes)
        self.reps = tuple(int(r) for r in self.reps)
        if len(self.alphas) != 1:
            raise ValueError("alphas must hold exactly one level")
        if any(r < 1 for r in self.reps):
            raise ValueError("replicate counts must be at least 1")
        if self.sizes and len(self.reps) not in (0, 1, len(self.sizes)):
            raise ValueError("reps must be scalar or one count per size")
        check_sigma(self.sigma)

    def reps_for(self, idx: int) -> int:
        if len(self.reps) == 1:
            return self.reps[0]
        return self.reps[idx]


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def add(self, function, size, method, metric, value, se, reps):
        if se < 0:
            raise ValueError("standard error cannot be negative")
        self.rows.append({
            "function": function, "size": int(size), "method": method,
            "metric": metric, "value": float(value), "se": float(se),
            "reps": int(reps),
        })

    def get(self, function, size, method, metric):
        for row in self.rows:
            if (row["function"], row["size"], row["method"],
                    row["metric"]) == (function, int(size), method, metric):
                return row
        raise KeyError((function, size, method, metric))

    def missing(self, functions, sizes, methods, metrics):
        have = {(r["function"], r["size"], r["method"], r["metric"])
                for r in self.rows}
        want = {(f, int(s), m, k) for f in functions for s in sizes
                for m in methods for k in metrics}
        return sorted(want - have)

    def payload(self) -> dict:
        return {"rows": self.rows}


def _mean_se(values):
    v = np.asarray(values, dtype=float)
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return float(v.mean()), se


def _map_cells(fn, cells):
    """fn over the arguments of every (key, args) cell in one
    ``parallel_map`` call; returns each cell's key with its results."""
    out = iter(parallel_map(fn, [a for _, args in cells for a in args]))
    return [(key, [next(out) for _ in args]) for key, args in cells]


def _mse_rep(args):
    """One Table-style risk replicate of the clean signal f: oracle, SURE
    and adaptive losses, every fit from one solver object for the noisy
    signal."""
    f, sigma, entropy = args
    rng = np.random.default_rng(entropy)
    y = Signal(f.shape, f.values + sigma * rng.standard_normal(f.shape.n_sites))
    grid = default_lambda_grid(sample_lambda(y)[0])
    losses = np.empty(grid.size)
    sures = np.empty(grid.size)
    solver = tv_solver(y)
    for i, sol in enumerate(map(solver.solve, grid.tolist())):
        losses[i] = loss(sol.estimate, f)
        sures[i] = sure(y, sol.estimate, sigma)
    _, sol2, _ = adaptive_tv(solver, sigma=sigma)
    return (float(losses.min()),
            float(losses[int(np.argmin(sures))]),
            loss(sol2.estimate, f))


def bench_mse(config: ExperimentConfig) -> ResultTable:
    """Risk (x100) of oracle, SURE and adaptive selection on 1D test signals.

    Each cell's clean signal is built once, before any replicate runs, and
    the replicates of every (function, size) cell go through one
    ``parallel_map`` call. A size n takes 50000 // n replicates by default
    (at least 1): more where solves are cheap, 500/50/5 at the default
    sizes.
    """
    if config.experiment != "mse_1d":
        raise ValueError("config is not an mse_1d experiment")
    functions = config.functions or TEST_FUNCTIONS
    sizes = config.sizes or DEFAULT_MSE_SIZES
    cells = []
    for fi, function in enumerate(functions):
        for si, n in enumerate(sizes):
            f = gen_test_function(function, n, snr=config.snr)
            reps = config.reps_for(si) if config.reps else max(1, 50_000 // n)
            cells.append(((function, n, reps),
                          [(f, config.sigma, (config.seed, fi, n, r))
                           for r in range(reps)]))
    table = ResultTable()
    for (function, n, reps), out in _map_cells(_mse_rep, cells):
        for mi, method in enumerate(("oracle", "sure", "adaptive")):
            mean, se = _mean_se([100.0 * o[mi] for o in out])
            table.add(function, n, method, "risk_x100", mean, se, reps)
    return table


def _seg_rep(args):
    """One segmentation replicate of the piecewise signal spec:
    exact/screening events and level count, every threshold's fit from one
    solver object for the noisy signal."""
    spec, sigma, lambdas, entropy = args
    rng = np.random.default_rng(entropy)
    f = spec.realize()
    y = Signal(f.shape, f.values + sigma * rng.standard_normal(spec.n))
    solver = tv_solver(y)
    res = {}
    for method, lam in lambdas.items():
        est = solver.solve(lam).estimate
        outcome = evaluate_outcome(est, spec)
        res[method] = (outcome.exact, outcome.screening,
                       len(outcome.jumps_estimated) + 1)
    return res


def bench_seg(config: ExperimentConfig) -> ResultTable:
    """Exact-segmentation and screening frequencies on piecewise signals.

    Jump heights sweep {2h*, h*, h*/10} around the recovery boundary h*;
    thresholds compared are the exact-recovery scale at alpha (the config's
    one level) and the universal threshold. Each cell's signal is built
    once, before any replicate runs, and the replicates of every (size,
    function, height) cell go through one ``parallel_map`` call.
    """
    if config.experiment != "seg_1d":
        raise ValueError("config is not a seg_1d experiment")
    functions = config.functions or ("battlements", "staircase")
    sizes = config.sizes or (100,)
    n_levels = 5
    alpha = config.alphas[0]
    sigma = config.sigma
    hstar = min_jump_height(sigma, alpha)
    heights = (("2h*", 2.0 * hstar), ("h*", hstar), ("h*/10", hstar / 10.0))
    cells = []
    for si, n in enumerate(sizes):
        reps = config.reps_for(si) if config.reps else 200
        n_max = n - (n // n_levels) * (n_levels - 1)
        lambdas = {
            "exact_seg": exact_seg_threshold(n_max, sigma, alpha),
            "universal": universal_threshold(LatticeShape((n,)), sigma),
        }
        for fi, kind in enumerate(functions):
            for hi, (tag, height) in enumerate(heights):
                spec = gen_piecewise(kind, n, n_levels, height)
                cells.append((("%s@%s" % (kind, tag), n, reps, lambdas), [
                    (spec, sigma, lambdas, (config.seed, fi, si, hi, r))
                    for r in range(reps)]))
    table = ResultTable()
    for (fn, n, reps, lambdas), out in _map_cells(_seg_rep, cells):
        for method in lambdas:
            ex, sc, lv = zip(*(o[method] for o in out))
            p_ex = float(np.mean(ex))
            p_sc = float(np.mean(sc))
            table.add(fn, n, method, "pi_exact", p_ex,
                      math.sqrt(p_ex * (1 - p_ex) / reps), reps)
            table.add(fn, n, method, "pi_screen", p_sc,
                      math.sqrt(p_sc * (1 - p_sc) / reps), reps)
            mean_lv, se_lv = _mean_se(lv)
            table.add(fn, n, method, "mean_levels", mean_lv, se_lv, reps)
    return table


def run_lambda_samples(dim: int, sizes, reps: int, seed: int,
                       tol: float = 1e-6) -> dict:
    """Draw Lambda samples for each side length of an N^dim lattice.

    The draws at the i-th size are those of ``monte_carlo_lambda`` with seed
    + i; the draws of every size go through one ``parallel_map`` call.
    """
    cells = [(int(n), _mc_tasks(LatticeShape((int(n),) * dim), reps, seed + i, tol))
             for i, n in enumerate(sizes)]
    return {n: np.array(draws) for n, draws in _map_cells(_mc_one, cells)}


def lambda_fit_report(samples_by_n: dict, dim: int, reps=None, seed=None) -> dict:
    """Per-size Gumbel and GEV fits plus the log-log regression, as one payload."""
    ns = sorted(samples_by_n)
    fits = []
    gev_rows = []
    for n in ns:
        g = fit_gumbel(samples_by_n[n])
        fits.append((n, g))
        if len(samples_by_n[n]) >= 30:
            gev, p = fit_gev_and_lr_test(samples_by_n[n])
            gev_rows.append({"n": n, "mu": gev.mu, "scale": gev.scale,
                             "xi": gev.xi, "p_value": p})
    coeffs = fit_loglog_regression(fits, dim)
    return {
        "dim": dim,
        "n_values": [int(n) for n in ns],
        "mu": [g.mu for _, g in fits],
        "beta": [g.beta for _, g in fits],
        "a_mu": coeffs.a_mu, "b_mu": coeffs.b_mu,
        "a_beta": coeffs.a_beta, "b_beta": coeffs.b_beta,
        "gev": gev_rows,
        "reps": reps,
        "seed": seed,
    }


def qq_pairs(samples, params: GumbelParams) -> np.ndarray:
    """Empirical order statistics against fitted quantiles, as (n, 2) array."""
    x = np.sort(np.asarray(samples, dtype=float))
    p = (np.arange(1, x.size + 1) - 0.5) / x.size
    fitted = np.array([params.quantile(pi) for pi in p])
    return np.column_stack([x, fitted])
