"""Threshold selection: noise scale, universal and adaptive rules, jump counts.

The universal threshold is the (1-alpha)-quantile of the dual sup-norm
statistic under pure noise, with alpha = 2/sqrt(log P) for a lattice with P
edges. On a path lattice (at most one axis longer than 1) it has the closed
form (sigma/2)*sqrt(N log log N); on every other lattice it comes from the
Gumbel law fitted for its dimension; ``universal_threshold`` picks the form
from the lattice. The adaptive rule reruns the same formula with the
average piece size found in a first pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coeffs import default_coefficients
from .grid import LatticeShape, Signal, diff_flat
from .lambda_stat import GumbelFitCoefficients
from .risk import default_quantization, ncc
from .tvsolve import FusionPath, tv_denoise

METHODS = ("universal", "adaptive", "sure", "exact_seg", "fixed")

# cutoff of jump_threshold("nonzero"): the solvers' fits are exactly
# constant within pieces, so for them any cutoff below their smallest jump
# counts the same jumps; the fixed absolute cutoff also ignores near-zero
# differences in fits supplied from elsewhere, and follows no solver setting
_NONZERO_JUMP_CUTOFF = 1e-3

# MAD-to-sigma factor for Gaussian data; the extra 1/sqrt(2) accounts for
# differencing doubling the variance
_MAD_SCALE = 1.4826 / math.sqrt(2.0)


@dataclass(frozen=True)
class ThresholdReport:
    sigma_used: float
    lambda1: float
    count1: int
    lambda2: float
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if self.lambda1 < 0 or self.lambda2 < 0 or self.sigma_used < 0:
            raise ValueError("thresholds and sigma must be nonnegative")


def estimate_sigma(y: Signal) -> float:
    """Noise scale from the median absolute deviation of finite differences."""
    if y.shape.n_edges < 2:
        raise ValueError("need at least 2 lattice edges to estimate sigma")
    d = diff_flat(y.values, y.shape.sizes)
    return _MAD_SCALE * float(np.median(np.abs(d - np.median(d))))


def _threshold_1d(n_bar: float, sigma: float) -> float:
    return 0.5 * sigma * math.sqrt(n_bar * math.log(math.log(n_bar)))


def universal_threshold_1d(n: int, sigma: float) -> float:
    """(sigma/2) * sqrt(N log log N); keeps the constant fit with
    probability at least 1 - 2/sqrt(log N) under pure noise."""
    if n < 3:
        raise ValueError("N must be at least 3")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return _threshold_1d(float(n), sigma)


def adaptive_threshold_1d(n: int, n_levels: int, sigma: float) -> float:
    """Universal rule with the average observations per level, N/L."""
    if n_levels < 1:
        raise ValueError("L must be at least 1")
    if n / n_levels < 3:
        raise ValueError("N/L must be at least 3")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return _threshold_1d(n / n_levels, sigma)


def _bonferroni_z(n: int) -> float:
    return float(ndtri(1.0 - 0.025 / (n - 1)))


def jump_threshold(n: int, sigma: float, variant: str) -> float:
    """Per-variant cutoff on |difference| for declaring a jump."""
    if variant == "raw":
        return sigma * math.sqrt(2.0) * _bonferroni_z(n)
    if variant == "calibrated":
        return sigma * math.sqrt(2.0 / n) * _bonferroni_z(n)
    if variant == "nonzero":
        return _NONZERO_JUMP_CUTOFF
    raise ValueError("variant must be raw, nonzero or calibrated")


def count_jumps(y_or_f: Signal, sigma: float, variant: str = "calibrated") -> int:
    """Number of significant differences of a signal on a path lattice.

    raw: on the data, cutoff sigma*sqrt(2)*z (Bonferroni level 0.05);
    nonzero: on a fit, any nonvanishing difference;
    calibrated: on a fit, cutoff sigma*sqrt(2/N)*z, matching the variance
    of a within-piece average rather than that of a single observation.
    """
    if not y_or_f.shape.is_path:
        raise ValueError("count_jumps is defined on path lattices")
    n = y_or_f.shape.n_sites
    if n < 2:
        return 0
    thr = jump_threshold(n, sigma, variant)
    d = np.abs(diff_flat(y_or_f.values, y_or_f.shape.sizes))
    return int((d > thr).sum())


def edge_count_alpha(n_edges: int) -> float:
    """Coverage level alpha = 2/sqrt(log P) for a lattice with P edges."""
    if n_edges < 2:
        raise ValueError("need at least 2 edges")
    return 2.0 / math.sqrt(math.log(n_edges))


def _gumbel_threshold(d: int, n_side: float, alpha: float, sigma: float,
                      coeffs: GumbelFitCoefficients | None) -> float:
    """sigma times the (1 - alpha)-quantile of the Gumbel law of a d-lattice
    with side n_side; coeffs (the shipped fit for d when None) must have
    been fitted in dimension d."""
    if coeffs is None:
        coeffs = default_coefficients(d)
    elif coeffs.dim != d:
        raise ValueError("calibration coefficients fitted for dimension %d "
                         "cannot serve a %d-dimensional lattice"
                         % (coeffs.dim, d))
    return max(0.0, sigma * coeffs.params_at(n_side).quantile(1.0 - alpha))


def universal_threshold_lattice(shape: LatticeShape, sigma: float,
                                coeffs: GumbelFitCoefficients | None = None) -> float:
    """Gumbel-calibrated universal threshold for lattices of dimension
    d >= 2, the number of axes longer than 1.

    Location and scale are extrapolated to the geometric-mean side length,
    then the (1 - 2/sqrt(log P))-quantile is scaled by sigma.
    """
    d = shape.squeezed.ndim
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    alpha = edge_count_alpha(shape.n_edges)
    if alpha >= 1.0:
        raise ValueError("lattice too small: 2/sqrt(log P) is not below 1")
    return _gumbel_threshold(d, shape.n_sites ** (1.0 / d), alpha, sigma,
                             coeffs)


def universal_threshold(shape: LatticeShape, sigma: float,
                        coeffs: GumbelFitCoefficients | None = None) -> float:
    """Universal threshold on any lattice: the closed form on a path lattice
    (coeffs not read) or, on every other lattice, the Gumbel quantile."""
    if shape.is_path:
        return universal_threshold_1d(shape.n_sites, sigma)
    return universal_threshold_lattice(shape, sigma, coeffs)


def exact_seg_threshold(n_max: int, sigma: float, alpha: float) -> float:
    """sigma * N_max * z_{1-alpha/2}, the exact-recovery threshold scale."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if n_max < 1:
        raise ValueError("N_max must be at least 1")
    return sigma * n_max * float(ndtri(1.0 - alpha / 2.0))


def min_jump_height(sigma: float, alpha: float) -> float:
    """Smallest jump size 4*sigma*z_{1-alpha/2} the guarantee asks for."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    return 4.0 * sigma * float(ndtri(1.0 - alpha / 2.0))


def exact_seg_prob_bound(n_levels: int, alpha: float) -> float:
    """Lower bound (1-2a)^(L-2) * (1-a)^2 on exact segmentation probability."""
    if n_levels < 2:
        raise ValueError("need at least 2 levels")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    return (1.0 - 2.0 * alpha) ** (n_levels - 2) * (1.0 - alpha) ** 2


def _lattice_alpha_at(n_bar: float, d: int) -> float:
    p_bar = d * n_bar ** (d - 1) * (n_bar - 1.0)
    if p_bar < 2.0:
        return 1.0
    return 2.0 / math.sqrt(math.log(p_bar))


def adaptive_tv(y: Signal, sigma: float | None = None,
                coeffs: GumbelFitCoefficients | None = None):
    """Two-step denoising with the adaptive universal threshold.

    Step 1 denoises at the universal threshold for the full lattice. The
    piece count of that fit (level count on a path lattice, connected
    components on lattices of dimension 2 or 3) sets the average piece size
    N_bar, and step 2 re-solves once at the threshold recomputed for N_bar.
    The dimension d is the number of axes longer than 1. On a path lattice
    N_bar <= N, so lambda2 <= lambda1 and one ``FusionPath`` pass up to
    lambda1 gives both fits. Returns both solutions and a report.
    """
    d = y.shape.squeezed.ndim
    if not (y.shape.is_path or d in (2, 3)):
        raise ValueError("adaptive rule covers path lattices and d in {2, 3}")
    sigma_used = estimate_sigma(y) if sigma is None else float(sigma)
    lam1 = universal_threshold(y.shape, sigma_used, coeffs)
    if y.shape.is_path:
        path = FusionPath(y, lam1)
        sol1 = path.solve(lam1)
        count1 = count_jumps(sol1.estimate, sigma_used, "calibrated") + 1
        n_bar = max(y.shape.n_sites / count1, 3.0)
        lam2 = _threshold_1d(n_bar, sigma_used)
        sol2 = path.solve(lam2)
    else:
        sol1 = tv_denoise(y, lam1)
        count1 = ncc(sol1.estimate, default_quantization(sol1.estimate))
        n_bar = max((y.shape.n_sites / count1) ** (1.0 / d), 2.0)
        alpha2 = _lattice_alpha_at(n_bar, d)
        if alpha2 >= 1.0:
            # over-segmented to the point where the step-2 level is
            # meaningless; keep the step-1 threshold
            lam2 = lam1
        else:
            lam2 = _gumbel_threshold(d, n_bar, alpha2, sigma_used, coeffs)
        sol2 = tv_denoise(y, lam2)
    report = ThresholdReport(sigma_used=sigma_used, lambda1=lam1,
                             count1=int(count1), lambda2=lam2,
                             method="adaptive")
    return sol1, sol2, report
