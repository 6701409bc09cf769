"""Exact TV solvers with dual certificates, on lattices of any dimension.

Every fit is decided here. One solver object serves every lambda asked of
one signal, such as a grid and both adaptive thresholds; ``tv_solver(y)``
picks it. On a path lattice (at most one axis longer than 1, so its sites
form one chain in flat order) groups only merge as lambda grows, so
``FusionPath`` makes one heap pass over the whole fusion path, recording
the lambda at which each edge fuses, and writes the fit at any lambda >= 0
from those times. On every other lattice ``CutSolver`` builds one
``CutNetwork`` and solves each lambda by divide-and-conquer minimum cuts
over the level sets of the fit. ``tv_denoise`` solves one lambda and
``tv_denoise_grid`` an ascending grid, on other lattices in warm-started
chains. No solver iterates to a tolerance: every one writes each piece of
the fit as one constant and returns through ``_certified``, which keeps a
dual edge vector w with ||w||_inf <= lambda whose reconstruction y - B^T w
equals the estimate up to rounding, so the gap

    gap = lambda * ||B f||_1 - <B f, w>

is nonnegative by construction and zero at the optimum.
"""
from __future__ import annotations

import heapq
from itertools import repeat
from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .cuts import CutNetwork
from .grid import LatticeShape, Signal, adjoint_flat, diff_flat
from .lambda_stat import sample_lambda

# a region's rounds stop once its leftover demand is below this times max|y|
_RESIDUAL_TOL = 1e-12
# a fit is returned only if ||y - B^T w - f||_inf <= this * max|y|
_CERTIFIED_TOL = 1e-8
# grid values per warm-started chain of lattice solves; a constant, so the
# chains, and with them every fit and dual, depend only on the grid
_CHAIN = 5


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


def check_lambda(lam: float) -> None:
    """Refuse a threshold that is negative or NaN; inf, whose fit is the
    mean, is allowed."""
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")


@dataclass
class TvSolution:
    estimate: Signal
    lam: float
    dual: np.ndarray
    gap: float
    iterations: int
    # every fit is certified before it is returned
    converged = True

    def objective(self, y: Signal) -> float:
        z = diff_flat(self.estimate.values, y.shape.sizes)
        return 0.5 * float(np.sum((y.values - self.estimate.values) ** 2)) \
            + self.lam * float(np.abs(z).sum())


def _certified(y: Signal, lam: float, f: np.ndarray, w: np.ndarray,
               rounds: int = 0) -> TvSolution:
    """The fit f of y at lam with its dual w clipped to +-lam, after
    checking that y - B^T w reconstructs f; raises RuntimeError if not."""
    sizes = y.shape.sizes
    w = np.clip(w, -lam, lam)
    scale = float(np.abs(y.values).max())
    if np.abs(y.values - f - adjoint_flat(w, sizes)).max() > _CERTIFIED_TOL * scale:
        raise RuntimeError("the TV fit could not be certified")
    z = diff_flat(f, sizes)
    jumps = z != 0.0
    # each term is >= 0 in floating point since |w| <= lam
    gap = float(np.sum(lam * np.abs(z[jumps]) - z[jumps] * w[jumps]))
    return TvSolution(Signal(y.shape, f), lam, w, gap, rounds)


def _fusion_times(y):
    """The lambda at which each edge of the 1D signal y fuses, by one pass
    over the whole fusion path: 0 inside runs of equal data, finite for
    every edge, since the pass ends with one group.

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
    while heap:
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
    """Every exact TV fit on a path lattice, from one pass over the fusion
    path.

    The pass runs until every edge has fused and records each edge's fusion
    time, clipped at Lambda, the closed form of ``sample_lambda``: the last
    merge is at Lambda exactly, but the pass's running maximum can pass it
    by a few ulps, and the fit at Lambda is the mean. ``solve`` then writes
    the fit at any lambda >= 0 from those times alone. The edges fusing
    after lambda split the sites into groups, and a group g takes the value
    b + (sum_g (y - b) - lambda (s_L + s_R)) / |g|,
    b its first datum: across an unfused edge the sign of the fit's
    difference is that of the data's, fixed at lambda = 0. Within a group
    the fit's differences are exactly 0, and the dual at an edge is the
    running sum of f - y up to it.
    """

    def __init__(self, y: Signal):
        if not y.shape.is_path:
            raise ValueError("FusionPath requires a path lattice")
        self.y = y
        self.times = np.minimum(_fusion_times(y.values), sample_lambda(y)[0])

    def solve(self, lam: float) -> TvSolution:
        """The certified exact fit at lam >= 0 (at lam = inf, the mean)."""
        check_lambda(lam)
        v = self.y.values
        cut = np.flatnonzero(self.times > lam)
        start = np.concatenate(([0], cut + 1))
        size = np.diff(np.append(start, v.size))
        base = v[start]
        excess = np.add.reduceat(v - np.repeat(base, size), start)
        if cut.size:
            # with no cut every s_L + s_R is 0, and inf * 0 would be NaN
            side = np.sign(v[cut] - v[cut + 1])
            pull = np.zeros(start.size)     # s_L + s_R per group
            pull[:-1] += side
            pull[1:] -= side
            excess -= lam * pull
        f = np.repeat(base + excess / size, size)
        return _certified(self.y, lam, f, np.cumsum(f - v)[:-1])


def tv_denoise_1d(y: Signal, lam: float) -> TvSolution:
    """Exact TV minimizer on a path lattice at one lambda >= 0 (at lambda =
    inf, the mean), written from one ``FusionPath`` pass; the estimate keeps
    the input's shape."""
    if not y.shape.is_path:
        raise ValueError("tv_denoise_1d requires a path lattice")
    return tv_denoise(y, lam)


def tv_denoise_grid(y: Signal, lambdas) -> list[TvSolution]:
    """Exact TV minimizers on any lattice over an ascending grid of
    lambda >= 0 (at inf, the mean), in grid order.

    A path lattice takes every fit from one ``FusionPath``, exactly as
    ``tv_denoise`` writes it at that value. On other lattices pieces can
    split as lambda grows, so there is no path to follow: the grid is cut
    into contiguous chains of _CHAIN values; each chain is solved by one
    ``CutSolver`` from its largest value down, every solve started from the
    dual of the one before: that saves routing, and the fits are those of
    cold solves up to the rounding of the flows. The chains are distributed
    across workers (TVDN_THREADS), highest values first, as solves grow
    costlier with lambda over most of a default grid; their layout depends
    only on the grid, so the fits and their duals do not depend on the
    worker count.
    """
    lams = np.asarray(lambdas, dtype=float).ravel()
    if not np.all(lams >= 0):
        raise ValueError("lambda values must be nonnegative")
    # np.diff would compute inf - inf on a grid ending in repeated infs
    if np.any(lams[1:] < lams[:-1]):
        raise ValueError("lambda grid must be ascending")
    if y.shape.is_path:
        return list(map(FusionPath(y).solve, lams.tolist()))
    # the chains from the top, each descending, so the results read the
    # whole grid backwards
    args = [(y.shape.sizes, y.values, lams[i:i + _CHAIN][::-1].tolist())
            for i in range(0, lams.size, _CHAIN)][::-1]
    return [sol for chain in parallel_map(_solve_chain, args)
            for sol in chain][::-1]


def _solve_chain(args):
    """The fits at each lambda of a descending chain from one
    ``CutSolver``, every solve started from the dual of the one before."""
    sizes, yv, lams = args
    solve = CutSolver(Signal(LatticeShape(sizes), yv)).solve
    out, dual = [], None
    for lam in lams:
        out.append(solve(lam, dual))
        dual = out[-1].dual
    return out


def tv_solver(y: Signal) -> FusionPath | CutSolver:
    """``FusionPath(y)`` on a path lattice, ``CutSolver(y)`` on any other."""
    return FusionPath(y) if y.shape.is_path else CutSolver(y)


def tv_denoise(y: Signal, lam: float, cfg: SolverConfig | None = None) -> TvSolution:
    """Exact TV minimizer on a lattice of any dimension at one lambda >= 0
    (inf gives the mean; NaN is refused), from ``tv_solver(y)``;
    ``tv_denoise_grid`` solves a whole grid. ``iterations`` counts a cut
    solve's batched rounds. cfg is accepted for compatibility and not read.
    Every fit returns through ``_certified``, which raises RuntimeError
    rather than return a fit it cannot certify.
    """
    check_lambda(lam)
    return tv_solver(y).solve(lam)


class CutSolver:
    """Every exact TV fit on any lattice, path lattices included, by minimum
    cuts over one ``CutNetwork``: ``FusionPath``'s counterpart for lattices
    where pieces can split as lambda grows.

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

    ``solve`` may start from an edge dual, such as another lambda's dual
    for y: clipped to +-lam, it is the first flow of the starting region,
    and all else is a cold start's. The fit does not depend on the start up
    to the rounding of the integer capacities; the dual, the rounds and the
    rounding-level gap can. The network is built once; ``solve`` keeps no
    state between calls.
    """

    def __init__(self, y: Signal):
        self.y = y
        self.net = CutNetwork(y.shape)

    def solve(self, lam: float, start=None) -> TvSolution:
        """The certified exact fit at lam >= 0 (at lam = inf, the mean)."""
        check_lambda(lam)
        y, net = self.y, self.net
        shape = y.shape
        sizes = shape.sizes
        yv = y.values
        p = shape.n_edges
        if lam == 0.0 or np.ptp(yv) == 0.0:
            return _certified(y, lam, yv.copy(), np.zeros(p))
        near, far = net.near, net.far
        scale = float(np.abs(yv).max())
        label = np.zeros(shape.n_sites, dtype=np.intp)
        jump = np.zeros(p, dtype=bool)   # edges between regions
        # +-lam across regions, flow inside
        w = np.zeros(p) if start is None else np.clip(start, -lam, lam)
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
        return _certified(y, lam, f, w, rounds)


def lambda_max(y: Signal) -> float:
    """Smallest lambda at which the TV estimate collapses to the mean."""
    lam, _ = sample_lambda(y)
    return lam
