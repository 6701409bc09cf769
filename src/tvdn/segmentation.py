"""Jump recovery on path lattices: extraction, the optimality checker, and
event scoring.

A fit's jumps are exactly its nonzero differences, as the solvers write each
piece as one constant; they bound the pieces SURE counts, at any scale.

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

from dataclasses import dataclass

import numpy as np

from .grid import Signal, check_path
from .signals import PiecewiseConstantSpec
from .tvsolve import check_lambda


@dataclass(frozen=True)
class SegmentationOutcome:
    jumps_estimated: tuple
    jumps_true: tuple

    @property
    def exact(self) -> bool:
        """The estimated and true jump sets coincide."""
        return set(self.jumps_estimated) == set(self.jumps_true)

    @property
    def screening(self) -> bool:
        """Every true jump is estimated, possibly among extras."""
        return set(self.jumps_true) <= set(self.jumps_estimated)


def extract_jumps(f_hat: Signal) -> np.ndarray:
    """Sorted jump locations of a fit on a path lattice: its nonzero
    differences."""
    check_path(f_hat.shape, "extract_jumps")
    return np.flatnonzero(np.diff(f_hat.values)) + 1


def kkt_check(y: Signal, jump_locations, lam: float):
    """Certify a candidate segmentation of a path lattice at a given lambda.

    Returns (holds, h_hat, w, max_abs_w). h_hat holds the fitted level per
    piece; w is the dual over the N-1 interior edges. holds is True when
    the jump signs reproduce themselves from the fitted levels and the dual
    never leaves [-lambda, lambda].
    """
    check_path(y.shape, "kkt_check")
    check_lambda(lam)
    n = y.shape.n_sites
    locs = np.asarray(sorted(jump_locations), dtype=float)
    if locs.size and (np.any(locs != np.round(locs)) or locs[0] < 1
                      or locs[-1] > n - 1 or np.any(np.diff(locs) < 1)):
        raise ValueError("jump locations must be distinct integers in 1..N-1")
    locs = locs.astype(int)
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
    # the partial sums round in proportion to the data's scale
    slack = 1e-12 * float(np.abs(yv).max())
    holds = signs_ok and max_abs_w <= lam * (1.0 + 1e-10) + slack
    return holds, h_hat, w, max_abs_w


def evaluate_outcome(f_hat: Signal,
                     true_spec: PiecewiseConstantSpec) -> SegmentationOutcome:
    """Score a fit against the true segmentation: its sorted estimated and
    true jump locations, from which the outcome reads its verdicts."""
    if f_hat.shape.n_sites != true_spec.n:
        raise ValueError("fit length does not match the true segmentation")
    return SegmentationOutcome(
        jumps_estimated=tuple(extract_jumps(f_hat).tolist()),
        jumps_true=tuple(true_spec.jump_locations.tolist()))
