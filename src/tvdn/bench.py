"""Seeded Monte Carlo benchmarks: denoising risk, segmentation events, and
the lambda calibration pipeline.

A risk or segmentation replicate draws its generator from the entropy
(seed, tags..., rep); the draws of Lambda at the i-th size are the children
of SeedSequence(seed + i).spawn(reps). So results do not depend on how
replicates are spread over workers, and the same configuration always
reproduces the same table. Risk and segmentation replicates run as chunks
of consecutive replicates of one cell, one task and one fusion pass per
chunk (``FusionPath.block``); the chunks depend only on the config. Each
draw of Lambda is a task of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._pool import parallel_map
from .grid import LatticeShape, Signal, positive_ints
from .lambda_stat import (DEFAULT_TOL, MIN_GEV_SAMPLES, GumbelParams,
                          check_tol, fit_gev_and_lr_test, fit_gumbel,
                          fit_loglog_regression, sample_lambda)
from .risk import default_lambda_grid, loss, loss_rows, sure_rows
from .selection import (DEFAULT_ALPHA, adaptive_tv, exact_seg_threshold,
                        min_jump_height, universal_threshold)
from .signals import (DEFAULT_SIGMA, DEFAULT_SNR, TEST_FUNCTIONS, check_sigma,
                      gen_piecewise, gen_test_function, noisy)
from .tvsolve import FusionPath

# the seed of an experiment, and of ``tvdn gen``, unless a caller sets it
DEFAULT_SEED = 0

# sites per chunk of replicates (at least one replicate): the tasks of a
# map and the bound on a task's memory; no result depends on it, as a
# replicate's fusion times are the same bits in any chunk
_CHUNK = 1 << 15

# the functions, sizes and replicate count at size n of each experiment,
# for whatever a config leaves empty; its reps then hold one count per size
_DEFAULTS = {
    "mse_1d": (TEST_FUNCTIONS, (100, 1000, 10000),
               lambda n: max(1, 50_000 // n)),
    "seg_1d": (("battlements", "staircase"), (100,), lambda n: 200),
}
# the fields only one experiment reads, with that experiment and the
# default the other must leave them at
_READ_BY = (("alpha", "seg_1d", DEFAULT_ALPHA), ("snr", "mse_1d", DEFAULT_SNR))


@dataclass
class ExperimentConfig:
    experiment: str
    functions: tuple = ()
    sizes: tuple = ()
    reps: tuple = ()
    alpha: float = DEFAULT_ALPHA
    seed: int = DEFAULT_SEED
    snr: float = DEFAULT_SNR
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ValueError("unknown experiment %r" % (self.experiment,))
        functions, sizes, reps_at = _DEFAULTS[self.experiment]
        self.functions = tuple(self.functions) or functions
        self.sizes = positive_ints(self.sizes, "sizes") or sizes
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("functions must be distinct")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("sizes must be distinct")
        reps = (positive_ints(self.reps, "replicate counts")
                or tuple(reps_at(n) for n in self.sizes))
        self.reps = reps * len(self.sizes) if len(reps) == 1 else reps
        if len(self.reps) != len(self.sizes):
            raise ValueError("reps must be one count or one count per size; "
                             "got %d for sizes %s" % (len(reps), self.sizes))
        for name, reader, default in _READ_BY:
            if self.experiment != reader and getattr(self, name) != default:
                raise ValueError("%s is read only by the %s experiment"
                                 % (name, reader))
        check_sigma(self.sigma)


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


def _chunks(cell, n: int, reps: int) -> list:
    """The entropies (*cell, r) of reps replicates at size n, in chunks of
    consecutive replicates of at most _CHUNK sites, at least one each."""
    per = max(1, _CHUNK // n)
    return [[(*cell, r) for r in range(i, min(i + per, reps))]
            for i in range(0, reps, per)]


def _mse_reps(args):
    """Table-style risk replicates of the clean signal f, one per entropy:
    oracle, SURE and adaptive losses. One ``FusionPath.block`` pass gives
    every replicate's noisy signal its path, and every fit of a replicate
    comes from its path, the grid's scored as the rows of its blocks."""
    f, sigma, entropies = args
    out = []
    for path in FusionPath.block([noisy(f, sigma, e) for e in entropies]):
        losses, sures = [], []
        for _, fits, _, _ in path.blocks(default_lambda_grid(path.lam_max)):
            losses.append(loss_rows(fits, f))
            sures.append(sure_rows(path.y, fits, sigma))
        losses, sures = np.concatenate(losses), np.concatenate(sures)
        _, sol2, _ = adaptive_tv(path, sigma=sigma)
        out.append((float(losses.min()),
                    float(losses[int(np.argmin(sures))]),
                    loss(sol2.estimate, f)))
    return out


def bench_mse(config: ExperimentConfig) -> ResultTable:
    """Risk (x100) of oracle, SURE and adaptive selection on 1D test signals.

    Each cell's clean signal is built once, before any replicate runs, and
    the chunks of replicates (``_chunks``) of every (function, size) cell go
    through one ``parallel_map`` call. A size n takes 50000 // n replicates
    by default (at least 1): more where solves are cheap, 500/50/5 at the
    default sizes.
    """
    if config.experiment != "mse_1d":
        raise ValueError("config is not an mse_1d experiment")
    cells = []
    for fi, function in enumerate(config.functions):
        for n, reps in zip(config.sizes, config.reps):
            f = gen_test_function(function, n, snr=config.snr)
            cells.append(((function, n, reps), [
                (f, config.sigma, chunk)
                for chunk in _chunks((config.seed, fi, n), n, reps)]))
    table = ResultTable()
    for (function, n, reps), chunks in _map_cells(_mse_reps, cells):
        out = [o for chunk in chunks for o in chunk]
        for mi, method in enumerate(("oracle", "sure", "adaptive")):
            mean, se = _mean_se([100.0 * o[mi] for o in out])
            table.add(function, n, method, "risk_x100", mean, se, reps)
    return table


def _seg_reps(args):
    """Segmentation replicates of the clean piecewise signal f with its
    true jumps on the edges true_edges, one per entropy, each read off its
    path of one ``FusionPath.block`` pass: the fit at lambda jumps exactly
    at the edges fusing after lambda, so it segments exactly iff
    lo <= lambda < hi (hi the first fusion time of a true edge, lo the last
    of any other) and screens iff lambda < hi."""
    f, true_edges, sigma, lambdas, entropies = args
    out = []
    for path in FusionPath.block([noisy(f, sigma, e) for e in entropies]):
        times = path.times
        hi = times[true_edges].min(initial=np.inf)
        lo = np.delete(times, true_edges).max(initial=0.0)
        out.append({method: (bool(lo <= lam < hi), bool(lam < hi),
                             1 + int(np.count_nonzero(times > lam)))
                    for method, lam in lambdas.items()})
    return out


def bench_seg(config: ExperimentConfig) -> ResultTable:
    """Exact-segmentation and screening frequencies on piecewise signals.

    Jump heights sweep {2h*, h*, h*/10} around the recovery boundary h*;
    thresholds compared are the exact-recovery scale at the config's alpha
    and the universal threshold. Each cell's signal is built once, before
    any replicate runs, and the chunks of replicates (``_chunks``) of every
    (size, function, height) cell go through one ``parallel_map`` call.
    """
    if config.experiment != "seg_1d":
        raise ValueError("config is not a seg_1d experiment")
    n_levels = 5
    alpha = config.alpha
    sigma = config.sigma
    hstar = min_jump_height(sigma, alpha)
    heights = (("2h*", 2.0 * hstar), ("h*", hstar), ("h*/10", hstar / 10.0))
    cells = []
    for si, (n, reps) in enumerate(zip(config.sizes, config.reps)):
        # the longest piece of the layout every cell of size n draws
        n_max = int(gen_piecewise("staircase", n, n_levels, 1.0).lengths.max())
        lambdas = {
            "exact_seg": exact_seg_threshold(n_max, sigma, alpha),
            "universal": universal_threshold(LatticeShape((n,)), sigma),
        }
        for fi, kind in enumerate(config.functions):
            for hi, (tag, height) in enumerate(heights):
                spec = gen_piecewise(kind, n, n_levels, height)
                f, edges = spec.realize(), spec.jump_locations - 1
                cells.append((("%s@%s" % (kind, tag), n, reps, lambdas), [
                    (f, edges, sigma, lambdas, chunk)
                    for chunk in _chunks((config.seed, fi, si, hi), n, reps)]))
    table = ResultTable()
    for (fn, n, reps, lambdas), chunks in _map_cells(_seg_reps, cells):
        out = [o for chunk in chunks for o in chunk]
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


def _mc_one(args):
    shape, seed_entropy, tol = args
    rng = np.random.default_rng(seed_entropy)
    y = Signal(shape, rng.standard_normal(shape.n_sites))
    lam, _ = sample_lambda(y, tol=tol)
    return lam


def run_lambda_samples(dim: int, sizes, reps: int, seed: int,
                       tol: float = DEFAULT_TOL) -> dict:
    """Draws of Lambda under standard normal noise (sigma = 1) for each
    side length of an N^dim lattice; the sizes must be distinct.

    The i-th size draws from the children of SeedSequence(seed + i); the
    draws of every size go through one ``parallel_map`` call.
    """
    sizes = positive_ints(sizes, "sizes")
    (reps,) = positive_ints((reps,), "reps")
    if len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be distinct")
    check_tol(tol)
    cells = []
    for i, n in enumerate(sizes):
        shape = LatticeShape((n,) * dim)
        # one child of SeedSequence(seed + i) per draw, so a draw does not
        # depend on the worker or the call that runs it
        children = np.random.SeedSequence(seed + i).spawn(reps)
        cells.append((n, [(shape, ss, tol) for ss in children]))
    if dim > 1:
        # a lattice draw needs the cut network (scipy.sparse) and scipy.fft:
        # loaded before the workers fork, or each imports them again
        import scipy.fft

        from . import cuts
    return {n: np.array(draws) for n, draws in _map_cells(_mc_one, cells)}


def lambda_fit_report(samples_by_n: dict, dim: int, reps=None, seed=None) -> dict:
    """Per-size Gumbel and GEV fits plus the log-log regression, as one payload."""
    ns = sorted(samples_by_n)
    fits = []
    gev_rows = []
    for n in ns:
        g = fit_gumbel(samples_by_n[n])
        fits.append((n, g))
        if len(samples_by_n[n]) >= MIN_GEV_SAMPLES:
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
