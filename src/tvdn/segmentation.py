"""Jump recovery on path lattices: extraction, the optimality checker, and
event scoring.

A candidate segmentation (set of jump locations) is certified by building
the explicit dual vector from partial sums: the fitted level on each piece
is the piece mean shifted by lambda times the difference of boundary jump
signs over the piece length, and the dual must stay inside [-lambda, lambda]
while touching +-lambda with the right sign at each jump. When the check
holds the TV estimate at that lambda has exactly the candidate jump set.

Jump locations are expressed as cumulative lengths: location k means the
difference between flat sites k-1 and k (0-based), so valid locations lie in
1..N-1, matching PiecewiseConstantSpec.jump_locations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Signal, diff_flat
from .selection import jump_threshold
from .signals import PiecewiseConstantSpec


@dataclass(frozen=True)
class SegmentationOutcome:
    jumps_estimated: tuple
    jumps_true: tuple
    exact: bool
    screening: bool
    kkt_max_dual: float

    def __post_init__(self):
        if self.exact and not self.screening:
            raise ValueError("exact recovery implies screening")


def extract_jumps(f_hat: Signal, sigma: float = 0.0, rule: str = "nonzero",
                  tolerance: float | None = None) -> np.ndarray:
    """Sorted jump locations of a fit on a path lattice.

    rule 'nonzero' keeps any difference above an absolute tolerance (default
    1e-3, see ``jump_threshold``); rule 'calibrated' keeps differences
    above sigma*sqrt(2/N)*z_{1-0.025/(N-1)}.
    """
    if not f_hat.shape.is_path:
        raise ValueError("extract_jumps is defined on path lattices")
    n = f_hat.shape.n_sites
    if n < 2:
        return np.empty(0, dtype=int)
    if rule == "nonzero":
        thr = jump_threshold(n, sigma, "nonzero") if tolerance is None else tolerance
    elif rule == "calibrated":
        thr = jump_threshold(n, sigma, "calibrated")
    else:
        raise ValueError("rule must be 'nonzero' or 'calibrated'")
    d = diff_flat(f_hat.values, f_hat.shape.sizes)
    return np.flatnonzero(np.abs(d) > thr) + 1


def kkt_check(y: Signal, jump_locations, lam: float):
    """Certify a candidate segmentation of a path lattice at a given lambda.

    Returns (holds, h_hat, w, max_abs_w). h_hat holds the fitted level per
    piece; w is the dual over the N-1 interior edges. holds is True when
    the jump signs reproduce themselves from the fitted levels and the dual
    never leaves [-lambda, lambda].
    """
    if not y.shape.is_path:
        raise ValueError("kkt_check is defined on path lattices")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n = y.shape.n_sites
    locs = np.asarray(sorted(int(j) for j in jump_locations), dtype=int)
    if locs.size and (locs[0] < 1 or locs[-1] > n - 1
                      or np.any(np.diff(locs) < 1)):
        raise ValueError("jump locations must be distinct integers in 1..N-1")
    bounds = np.concatenate(([0], locs, [n]))
    sizes = np.diff(bounds).astype(float)
    yv = y.values
    cums = np.concatenate(([0.0], np.cumsum(yv)))
    seg_means = (cums[bounds[1:]] - cums[bounds[:-1]]) / sizes
    # candidate signs from the piece-mean ordering; they must reproduce
    # themselves from the fitted levels or the certificate fails
    s = np.zeros(len(sizes) + 1)
    s[1:-1] = np.sign(np.diff(seg_means))
    h_hat = seg_means + (s[1:] - s[:-1]) * lam / sizes
    signs_ok = bool(np.all(np.sign(np.diff(h_hat)) == s[1:-1])
                    and np.all(s[1:-1] != 0.0))
    # dual by partial sums: w_t = sum_{j<=t} (h(j) - y_j); the boundary
    # values lam*s_l fall out by telescoping N_l*(h_l - mean_l) = lam*(s_l - s_{l-1})
    w_full = np.cumsum(np.repeat(h_hat, sizes.astype(int)) - yv)
    w = w_full[:-1]
    max_abs_w = float(np.abs(w_full).max()) if n > 1 else 0.0
    holds = signs_ok and max_abs_w <= lam * (1.0 + 1e-10) + 1e-12
    return holds, h_hat, w, max_abs_w


def evaluate_outcome(f_hat: Signal, true_spec: PiecewiseConstantSpec,
                     sigma: float = 0.0, rule: str = "nonzero",
                     kkt_max_dual: float = math.nan) -> SegmentationOutcome:
    """Score a fit against the true segmentation.

    exact means the estimated and true jump sets coincide as index sets;
    screening means every true jump is detected (possibly among extras).
    """
    if not f_hat.shape.is_path:
        raise ValueError("evaluate_outcome is defined on path lattices")
    if f_hat.shape.n_sites != true_spec.n:
        raise ValueError("fit length does not match the true segmentation")
    est = set(int(j) for j in extract_jumps(f_hat, sigma, rule))
    true = set(int(j) for j in true_spec.jump_locations)
    return SegmentationOutcome(
        jumps_estimated=tuple(sorted(est)),
        jumps_true=tuple(sorted(true)),
        exact=est == true,
        screening=true.issubset(est),
        kkt_max_dual=kkt_max_dual,
    )
