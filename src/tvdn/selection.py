"""Threshold selection: noise scale, universal and adaptive rules, jump counts.

The universal threshold is meant as the (1-alpha)-quantile of the dual
sup-norm statistic Lambda under pure noise, with alpha = 2/sqrt(log P) for
a lattice with P edges. On every lattice that is not a path it comes from
the Gumbel law fitted for its dimension. On a path lattice (at most one
axis longer than 1) it is the closed form (sigma/2)*sqrt(N log log N),
which solves 2 exp(-2 x^2) = 2/sqrt(log N) at x = lambda/(sigma sqrt(N)).
2 exp(-2 x^2) is the leading term of the tail of sup|Brownian bridge|, the
limit law of Lambda/(sigma sqrt(N)), so the closed form is a
(1-alpha)-quantile only as N grows: unit noise exceeds it with
probability 0.75 at N = 100, against a nominal alpha of 0.93, and 0.69 at
N = 1000, against 0.76. Below N = e^4 (about 55), alpha >= 1 and no
quantile exists, yet the closed form still returns a threshold.

``_threshold`` holds both forms and is the only place the rule is written:
``universal_threshold`` applies it at the lattice's size, and
``adaptive_tv`` applies it a second time at the average piece size N_bar
of its first fit, with P_bar = d * N_bar^(d-1) * (N_bar - 1) edges. On a path lattice step 1 counts the pieces of its fit by
``count_jumps``, the differences above the calibrated cutoff; the exact
jumps of a fit are ``segmentation.extract_jumps``.

The normal quantiles come from the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS241), within 8 ulp of
scipy.special.ndtri. So importing this module loads no scipy, and neither
does any rule on a path lattice; off a path, ``adaptive_tv``'s cut solves
and component count load scipy.sparse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .coeffs import default_coefficients
from .grid import LatticeShape, Signal, check_path, diff_flat
from .lambda_stat import GumbelFitCoefficients
from .risk import ncc
from .signals import check_sigma
from .tvsolve import CutSolver, FusionPath, check_lambda, tv_solver

# MAD-to-sigma factor for Gaussian data; the extra 1/sqrt(2) accounts for
# differencing doubling the variance
_MAD_SCALE = 1.4826 / math.sqrt(2.0)
# the segmentation experiment's alpha unless a caller sets it
DEFAULT_ALPHA = 0.05
# z_p, the p-quantile of the standard normal law, for 0 < p < 1
_normal_quantile = NormalDist().inv_cdf


@dataclass(frozen=True)
class ThresholdReport:
    sigma_used: float
    lambda1: float
    count1: int
    lambda2: float

    def __post_init__(self):
        check_sigma(self.sigma_used)
        check_lambda(self.lambda1)
        check_lambda(self.lambda2)


def estimate_sigma(y: Signal) -> float:
    """Noise scale from the median absolute deviation of finite differences."""
    if y.shape.n_edges < 2:
        raise ValueError("need at least 2 lattice edges to estimate sigma")
    d = diff_flat(y.values, y.shape.sizes)
    return _MAD_SCALE * float(np.median(np.abs(d - np.median(d))))


def jump_threshold(n: int, sigma: float) -> float:
    """Cutoff sigma*sqrt(2/N)*z_{1-0.025/(N-1)} on a fit's |difference|:
    Bonferroni level 0.05 over the N-1 differences, at the variance of a
    within-piece average rather than that of a single observation. From
    N - 1 = 0.025 * 2**54 on the level rounds to 1, and NormalDist refuses
    it with a ValueError."""
    if n < 2:
        raise ValueError("N must be at least 2")
    check_sigma(sigma)
    return sigma * math.sqrt(2.0 / n) \
        * _normal_quantile(1.0 - 0.025 / (n - 1))


def count_jumps(f: Signal, sigma: float) -> int:
    """Differences of a fit on a path lattice above ``jump_threshold``."""
    check_path(f.shape, "count_jumps")
    thr = jump_threshold(f.shape.n_sites, sigma)
    return int((np.abs(diff_flat(f.values, f.shape.sizes)) > thr).sum())


def _threshold(d: int, n_side: float, n_edges: float, sigma: float,
               coeffs: GumbelFitCoefficients | None) -> float | None:
    """The universal rule on a d-lattice with side n_side and n_edges edges.

    d = 1: the closed form (sigma/2)*sqrt(N log log N) at N = n_side,
    which the module docstring relates to alpha.
    d >= 2: sigma times the (1 - alpha)-quantile of the Gumbel law at side
    n_side, alpha = 2/sqrt(log n_edges); coeffs (the shipped fit for d when
    None) must have been fitted in dimension d. None when alpha >= 1.
    """
    if d == 1:
        return 0.5 * sigma * math.sqrt(n_side * math.log(math.log(n_side)))
    alpha = 2.0 / math.sqrt(math.log(n_edges))
    if alpha >= 1.0:
        return None
    if coeffs is None:
        coeffs = default_coefficients(d)
    elif coeffs.dim != d:
        raise ValueError("calibration coefficients fitted for dimension %d "
                         "cannot serve a %d-dimensional lattice"
                         % (coeffs.dim, d))
    return max(0.0, sigma * coeffs.params_at(n_side).quantile(1.0 - alpha))


def universal_threshold(shape: LatticeShape, sigma: float,
                        coeffs: GumbelFitCoefficients | None = None) -> float:
    """Universal threshold on any lattice of N sites and dimension d, the
    number of axes longer than 1.

    A path lattice (d = 1, N >= 3) takes the closed form, coeffs not read;
    any other takes the Gumbel quantile at the geometric-mean side N^(1/d).
    """
    d, m = shape.squeezed.ndim, shape.n_sites
    if d == 1 and m < 3:
        raise ValueError("N must be at least 3")
    check_sigma(sigma)
    lam = _threshold(d, m ** (1.0 / d), shape.n_edges, sigma, coeffs)
    if lam is None:
        raise ValueError("lattice too small: 2/sqrt(log P) is not below 1")
    return lam


def _check_alpha(alpha: float) -> None:
    # at or below 2**-53, 1 - alpha/2 rounds to 1, where NormalDist's
    # inv_cdf has no quantile
    if not 2.0 ** -53 < alpha < 0.5:
        raise ValueError("alpha must lie in (2**-53, 1/2)")


def exact_seg_threshold(n_max: int, sigma: float, alpha: float) -> float:
    """sigma * N_max * z_{1-alpha/2}, the exact-recovery threshold scale."""
    _check_alpha(alpha)
    if n_max < 1:
        raise ValueError("N_max must be at least 1")
    check_sigma(sigma)
    return sigma * n_max * _normal_quantile(1.0 - alpha / 2.0)


def min_jump_height(sigma: float, alpha: float) -> float:
    """Smallest jump size 4*sigma*z_{1-alpha/2} the guarantee asks for."""
    _check_alpha(alpha)
    check_sigma(sigma)
    return 4.0 * sigma * _normal_quantile(1.0 - alpha / 2.0)


def exact_seg_prob_bound(n_levels: int, alpha: float) -> float:
    """Lower bound (1-2a)^(L-2) * (1-a)^2 on exact segmentation probability."""
    if n_levels < 2:
        raise ValueError("need at least 2 levels")
    _check_alpha(alpha)
    return (1.0 - 2.0 * alpha) ** (n_levels - 2) * (1.0 - alpha) ** 2


def adaptive_tv(y: Signal | FusionPath | CutSolver, sigma: float | None = None,
                coeffs: GumbelFitCoefficients | None = None):
    """Two-step denoising with the adaptive universal threshold.

    Step 1 denoises at the universal threshold for the full lattice. The
    piece count of that fit (level count on a path lattice, connected
    components on other lattices) sets the average piece size N_bar, and
    step 2 re-solves once at the same rule evaluated at side N_bar. The
    dimension d is the number of axes longer than 1. Both fits
    come from one solver object, ``tv_solver(y)``; y may be that solver,
    built for its signal and perhaps already used for other lambda values,
    so its work is not repeated. Returns both solutions and a report.
    """
    solver, y = (None, y) if isinstance(y, Signal) else (y, y.y)
    d = y.shape.squeezed.ndim
    sigma_used = estimate_sigma(y) if sigma is None else float(sigma)
    lam1 = universal_threshold(y.shape, sigma_used, coeffs)
    solve = (solver or tv_solver(y)).solve
    sol1 = solve(lam1)
    if d == 1:
        count1 = count_jumps(sol1.estimate, sigma_used) + 1
    else:
        count1 = ncc(sol1.estimate)
    n_bar = max((y.shape.n_sites / count1) ** (1.0 / d),
                3.0 if d == 1 else 2.0)
    lam2 = _threshold(d, n_bar, d * n_bar ** (d - 1) * (n_bar - 1.0),
                      sigma_used, coeffs)
    if lam2 is None:
        # over-segmented to the point where the step-2 level is
        # meaningless; keep the step-1 threshold
        lam2 = lam1
    sol2 = solve(lam2)
    report = ThresholdReport(sigma_used=sigma_used, lambda1=lam1,
                             count1=int(count1), lambda2=lam2)
    return sol1, sol2, report
