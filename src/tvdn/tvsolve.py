"""Exact TV solvers with dual certificates, on lattices of any dimension.

``tv_denoise`` solves on any lattice: a path lattice (at most one axis
longer than 1, so its sites form one chain in flat order) by the direct
pass ``tv_denoise_1d``, every other lattice by divide-and-conquer minimum
cuts over the level sets of the fit. On a path lattice groups only merge as
lambda grows, so ``FusionPath`` makes one heap pass over the fusion path
that records the lambda at which each edge fuses, and writes the fit at any
set of lambda values from those times; ``tv_path_1d`` (a lambda grid) and
the adaptive rule (both of its thresholds) use it. No solver iterates to
a tolerance: every one writes each piece of the fit as one constant and
returns a dual edge vector w with ||w||_inf <= lambda whose reconstruction
y - B^T w equals the estimate up to rounding, so the gap

    gap = lambda * ||B f||_1 - <B f, w>

is nonnegative by construction and zero at the optimum.
"""
from __future__ import annotations

import heapq
from itertools import repeat
from dataclasses import dataclass

import numpy as np

from .cuts import CutNetwork
from .grid import Signal, adjoint_flat, diff_flat
from .lambda_stat import sample_lambda

# a region's rounds stop once its leftover demand is below this times max|y|
_RESIDUAL_TOL = 1e-12
# a lattice fit is returned only if ||y - B^T w - f||_inf <= this * max|y|
_CERTIFIED_TOL = 1e-8


@dataclass
class SolverConfig:
    """Accepted by ``tv_denoise`` and ``risk_curve`` and not read: both
    solvers are exact. The fields are validated but have no effect."""

    gap_tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class TvSolution:
    estimate: Signal
    lam: float
    dual: np.ndarray
    gap: float
    iterations: int
    converged: bool = True

    def objective(self, y: Signal) -> float:
        z = diff_flat(self.estimate.values, y.shape.sizes)
        return 0.5 * float(np.sum((y.values - self.estimate.values) ** 2)) \
            + self.lam * float(np.abs(z).sum())


def _condat_1d(y, lam):
    # Direct non-iterative pass; each flat segment is written as one constant,
    # so within-segment differences of the output are exactly zero.
    n = len(y)
    x = np.empty(n)
    k = k0 = km = kp = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0.0:
                x[k0:km + 1] = vmin
                k = k0 = km = km + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
            elif umax > 0.0:
                x[k0:kp + 1] = vmax
                k = k0 = kp = kp + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x
            if k == n - 1:
                x[k] = vmin + umin
                return x
        if y[k + 1] + umin < vmin - lam:
            x[k0:km + 1] = vmin
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:
            x[k0:kp + 1] = vmax
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                km = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kp = k


def _certified_1d(y: Signal, lam: float, f: np.ndarray) -> TvSolution:
    """Wrap the exact 1D fit f at lam with its dual and duality gap.

    The dual entry at edge i is the clipped running sum -sum_{k<=i}(y_k - f_k);
    at edges carrying a jump it is snapped to +-lambda, which the running sum
    already equals up to rounding.
    """
    w = -np.cumsum(y.values - f)[:-1]
    z = np.diff(f)
    scale = max(float(np.abs(y.values).max()), 1e-300)
    active = np.abs(z) > 1e-12 * scale
    snap = lam * np.sign(z[active])
    close = np.abs(w[active] - snap) <= 1e-8 * (1.0 + lam)
    w[active] = np.where(close, snap, w[active])
    w = np.clip(w, -lam, lam)
    tv = float(np.abs(z).sum())
    # a constant fit has gap 0 at any lambda, lambda = inf included
    gap = lam * tv - float(z @ w) if tv else 0.0
    return TvSolution(Signal(y.shape, f), lam, w, abs(gap), 0)


def tv_denoise_1d(y: Signal, lam: float) -> TvSolution:
    """Exact TV minimizer on a path lattice at one lambda by a direct pass
    over the flat values (at lambda = inf, the mean); the estimate keeps the
    input's shape."""
    if not y.shape.is_path:
        raise ValueError("tv_denoise_1d requires a path lattice")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0 or y.shape.n_sites == 1 or np.ptp(y.values) == 0.0:
        return _certified_1d(y, lam, y.values.copy())
    if lam == np.inf:
        return _certified_1d(y, lam, np.full(y.shape.n_sites, y.values.mean()))
    return _certified_1d(y, lam, _condat_1d(y.values, lam))


def _fusion_times(y, lam_stop):
    """The lambda at which each edge of the 1D signal y fuses, by one pass
    over the fusion path up to lam_stop: 0 inside runs of equal data, inf
    for an edge still unfused at lam_stop.

    A group g of neighbouring sites sharing one fitted value has, between
    merges, the value (S_g - lambda (s_L + s_R)) / |g|: S_g is its data sum
    and s_L, s_R are the signs of its value minus its neighbours' (0 at an
    end). In 1D groups only merge as lambda grows (Friedman et al. 2007;
    Hoefling 2010), so the path is a sequence of merges of neighbouring
    groups. A heap holds the lambda at which each neighbouring pair meets;
    an entry is skipped once either of its groups has changed.
    """
    n = y.size
    # a group is indexed by its first site; runs of equal data start fused
    first = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    times = np.where(y[1:] == y[:-1], 0.0, np.inf).tolist()
    lo, hi = first[:-1], first[1:]      # the initial neighbouring pairs
    count = np.diff(np.append(first, n))
    side = np.sign(y[lo] - y[hi])
    size = [0] * n
    level = [0.0] * n       # S_g / |g|
    left = [0] * n          # s_L
    right = [0] * n         # s_R
    prev = [0] * n          # first site of the left neighbour
    version = [0] * n
    for g, k in zip(first.tolist(), count.tolist()):
        size[g] = k
        level[g] = float(y[g])
    for g, h, s in zip(lo.tolist(), hi.tolist(), side.astype(int).tolist()):
        right[g] = s
        left[h] = -s
        prev[h] = g
    # the initial meeting times, computed as push does, all at once
    slope = (np.append(side, 0.0) - np.append(0.0, side)) / count
    d = slope[:-1] - slope[1:]
    meets = d != 0.0
    heap = list(zip(((y[lo] - y[hi])[meets] / d[meets]).tolist(),
                    lo[meets].tolist(), hi[meets].tolist(),
                    repeat(0), repeat(0)))
    heapq.heapify(heap)

    def push(g, h):
        # neighbouring slopes have opposite signs or are both 0, so d is 0
        # exactly when the pair moves in parallel and never meets
        d = (left[g] + right[g]) / size[g] - (left[h] + right[h]) / size[h]
        if d != 0.0:
            heapq.heappush(heap, ((level[g] - level[h]) / d, g, h,
                                  version[g], version[h]))

    # a meeting time computed after a merge can undercut the merge's own by
    # rounding; recording the running maximum keeps the edges fused at any
    # lambda exactly the merges the pass had made by then
    top = 0.0
    pop = heapq.heappop
    while heap and heap[0][0] <= lam_stop:
        t, g, h, vg, vh = pop(heap)
        if t > top:
            top = t
        if version[g] != vg or version[h] != vh:
            continue
        times[h - 1] = top
        k = size[g] + size[h]
        level[g] = (level[g] * size[g] + level[h] * size[h]) / k
        size[g] = k
        right[g] = right[h]
        version[g] += 1
        version[h] = -1
        if left[g]:
            push(prev[g], g)
        if g + k < n:
            prev[g + k] = g
            push(g, g + k)
    return np.array(times)


class FusionPath:
    """Every exact TV fit on a path lattice for lambda up to lam_stop, from
    one pass over the fusion path.

    The pass records each edge's fusion time; ``solve`` then writes the fit
    at any lambda <= lam_stop from those times alone. The edges fusing
    after lambda split the sites into groups, and a group g takes the value
    b + (sum_g (y - b) - lambda (s_L + s_R)) / |g|, b its first datum: across
    an unfused edge the sign of the fit's difference is that of the data's,
    fixed at lambda = 0. Within a group the fit's differences are exactly 0.
    """

    def __init__(self, y: Signal, lam_stop: float):
        if not y.shape.is_path:
            raise ValueError("FusionPath requires a path lattice")
        if not 0.0 <= lam_stop < np.inf:
            raise ValueError("lam_stop must be finite and nonnegative")
        self.y = y
        self.lam_stop = float(lam_stop)
        self.times = _fusion_times(y.values, self.lam_stop)

    def solve(self, lam: float) -> TvSolution:
        """The certified exact fit at 0 <= lam <= lam_stop."""
        if not 0.0 <= lam <= self.lam_stop:
            raise ValueError("lambda must lie in [0, lam_stop]")
        v = self.y.values
        cut = np.flatnonzero(self.times > lam)
        start = np.concatenate(([0], cut + 1))
        size = np.diff(np.append(start, v.size))
        base = v[start]
        excess = np.add.reduceat(v - np.repeat(base, size), start)
        side = np.sign(v[cut] - v[cut + 1])
        pull = np.zeros(start.size)     # s_L + s_R per group
        pull[:-1] += side
        pull[1:] -= side
        f = np.repeat(base + (excess - lam * pull) / size, size)
        return _certified_1d(self.y, lam, f)


def tv_path_1d(y: Signal, lambdas) -> list[TvSolution]:
    """Exact TV minimizers on a path lattice over an ascending lambda grid,
    from one pass.

    One ``FusionPath`` pass up to the largest grid value records the fusion
    time of every edge; each grid value's fit is written from those times
    with the same dual and gap certificate as ``tv_denoise_1d``. Within a
    fused group the fit's differences are exactly 0.
    """
    if not y.shape.is_path:
        raise ValueError("tv_path_1d requires a path lattice")
    lams = np.asarray(lambdas, dtype=float).ravel()
    if not np.all(np.isfinite(lams)) or np.any(lams < 0):
        raise ValueError("lambda values must be finite and nonnegative")
    if np.any(np.diff(lams) < 0):
        raise ValueError("lambda grid must be ascending")
    if lams.size == 0:
        return []
    path = FusionPath(y, lams[-1])
    return [path.solve(lam) for lam in lams.tolist()]


def tv_denoise(y: Signal, lam: float, cfg: SolverConfig | None = None) -> TvSolution:
    """Exact TV minimizer on a lattice of any dimension.

    A path lattice is solved by the direct pass ``tv_denoise_1d``, every
    other lattice by divide-and-conquer minimum cuts (``iterations`` counts
    their batched rounds). cfg is accepted for compatibility and not read.
    Raises RuntimeError rather than return a fit it cannot certify.
    """
    if y.shape.is_path:
        return tv_denoise_1d(y, lam)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _cut_solve(y, lam)


def _cut_solve(y: Signal, lam: float) -> TvSolution:
    """The exact TV fit at lam >= 0 on any lattice, by minimum cuts.

    The level set {f > t} of the fit is the minimal minimizer of
    lam |dS| + sum_{i in S} (t - y_i) (Hochbaum 2001; Chambolle & Darbon
    2009). The sites are kept in regions; every edge between two regions
    has a known orientation (which side ends higher), so across it the dual
    is +-lam and each region is a TV problem of its own on the shifted data
    y' = y - B^T w_jump. A region is constant at v, the mean of y' over it,
    exactly when y' - v can be routed through its internal edges at
    capacity lam. Each round routes the leftover demand of every unfinished
    region on the leftover capacity, all regions in one maximum_flow call.
    A region that cannot route all of it splits at the sink side T of the
    minimum cut, which is the level set {f >= v} of its fit, into T (higher)
    and the rest (lower), once the excess of T over its cut capacity is
    positive in floating point; rounding can then never split a region
    whose data do not ask for it. The flow of a region stays in place for
    its parts. A region is final once its leftover demand is below
    _RESIDUAL_TOL or stops halving; the flows inside the regions are the
    dual there, so every piece is written as one constant and certified by
    w with ||w||_inf <= lam and y - B^T w = f up to _CERTIFIED_TOL.
    """
    shape = y.shape
    sizes = shape.sizes
    yv = y.values
    p = shape.n_edges
    if lam == 0.0 or np.ptp(yv) == 0.0:
        return TvSolution(Signal(shape, yv.copy()), lam, np.zeros(p), 0.0, 0)
    net = CutNetwork(shape)
    near, far = net.near, net.far
    scale = float(np.abs(yv).max())
    label = np.zeros(shape.n_sites, dtype=np.intp)
    jump = np.zeros(p, dtype=bool)   # edges between regions
    w = np.zeros(p)                  # +-lam across regions, flow inside
    last = np.array([np.inf])        # leftover demand when last routed
    done = np.array([False])
    rounds = 0
    while True:
        n = last.size
        count = np.bincount(label, minlength=n)
        shifted = yv - adjoint_flat(np.where(jump, w, 0.0), sizes)
        f = (np.bincount(label, shifted, n) / count)[label]
        rest = yv - f - adjoint_flat(w, sizes)
        left = np.zeros(n)
        np.maximum.at(left, label, np.abs(rest))
        done |= (left <= _RESIDUAL_TOL * scale) | (left > 0.5 * last)
        if done.all():
            break
        last = np.where(done, last, left)
        groups = np.where(done[label], -1, label)
        dw, sink_side = net.route(rest, lam - w, lam + w, groups)
        w += dw
        rounds += 1
        if sink_side is None:
            continue
        blocked = np.zeros(n, dtype=bool)
        blocked[label[(groups >= 0) & ~sink_side]] = True
        high = sink_side & blocked[label]
        cut = ~jump & blocked[label[near]] & (high[near] != high[far])
        excess = np.bincount(label[high], (shifted - f)[high], n) \
            - lam * np.bincount(label[near[cut]], minlength=n)
        n_high = np.bincount(label[high], minlength=n)
        split = blocked & (excess > 0) & (n_high < count)
        k = np.count_nonzero(split)
        if k == 0:
            continue
        cut &= split[label[near]]
        move = high & split[label]
        fresh = np.full(n, -1)
        fresh[split] = n + np.arange(k)
        label[move] = fresh[label[move]]
        jump |= cut
        w[cut] = np.where(high[far[cut]], lam, -lam)
        last[split] = np.inf
        last = np.concatenate([last, np.full(k, np.inf)])
        done = np.concatenate([done, np.zeros(k, dtype=bool)])
    w = np.clip(w, -lam, lam)
    if np.abs(yv - f - adjoint_flat(w, sizes)).max() > _CERTIFIED_TOL * scale:
        raise RuntimeError("minimum cuts did not certify the TV fit")
    z = diff_flat(f, sizes)
    jumps = z != 0.0
    # each term is >= 0 in floating point since |w| <= lam
    gap = float(np.sum(lam * np.abs(z[jumps]) - z[jumps] * w[jumps]))
    return TvSolution(Signal(shape, f), lam, w, gap, rounds)


def lambda_max(y: Signal) -> float:
    """Smallest lambda at which the TV estimate collapses to the mean."""
    lam, _ = sample_lambda(y)
    return lam
