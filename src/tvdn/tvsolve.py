"""TV solvers: exact fits on paths, splitting with a gap certificate in any d.

``tv_denoise`` solves on any lattice: a path lattice (at most one axis
longer than 1, so its sites form one chain in flat order) by the exact
direct pass ``tv_denoise_1d``, others by operator splitting. ``tv_path_1d``
solves a path lattice over an ascending lambda grid in one pass over the
fusion path, on which groups only merge. Every solver returns a dual edge
vector w with ||w||_inf <= lambda whose reconstruction y - B^T w equals the
reported estimate, so the gap

    gap = lambda * ||B f||_1 - <B f, w>

is nonnegative by construction and zero exactly at the optimum.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .grid import (LatticeShape, Signal, SpectralLaplacian, adjoint_flat,
                   diff_flat, edge_components, laplacian_solve)
from .lambda_stat import sample_lambda

_OVER_RELAX = 1.8  # relaxation factor of the splitting iteration, in (0, 2)
_CHECK_EVERY = 25  # iterations between certificate checks


@dataclass
class SolverConfig:
    gap_tol: float = 1e-8          # relative duality-gap target
    max_iter: int = 5000
    rho: float | None = None       # splitting penalty, default scales with lambda
    polish: bool = True            # exact re-solve on the identified pattern
    rebalance: bool = True
    track_residuals: bool = False

    def __post_init__(self):
        if self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be positive")


@dataclass
class TvSolution:
    estimate: Signal
    lam: float
    dual: np.ndarray
    gap: float
    iterations: int
    converged: bool = True
    residuals: list = field(default_factory=list)

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
    gap = lam * float(np.abs(z).sum()) - float(z @ w)
    return TvSolution(Signal(y.shape, f), lam, w, abs(gap), 0)


def tv_denoise_1d(y: Signal, lam: float) -> TvSolution:
    """Exact TV minimizer on a path lattice at one lambda by a direct pass
    over the flat values; the estimate keeps the input's shape."""
    if not y.shape.is_path:
        raise ValueError("tv_denoise_1d requires a path lattice")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0 or y.shape.n_sites == 1 or np.ptp(y.values) == 0.0:
        return _certified_1d(y, lam, y.values.copy())
    return _certified_1d(y, lam, _condat_1d(y.values, lam))


def _fusion_path(y, lams):
    """Yield the exact 1D fit at each of the ascending lams.

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
    size = [0] * n
    level = [0.0] * n       # S_g / |g|
    left = [0] * n          # s_L
    right = [0] * n         # s_R
    prev = [0] * n          # first site of the left neighbour
    version = [0] * n
    for g, k in zip(first.tolist(), np.diff(np.append(first, n)).tolist()):
        size[g] = k
        level[g] = float(y[g])
    side = np.sign(y[first[:-1]] - y[first[1:]]).astype(int)
    for g, h, s in zip(first[:-1].tolist(), first[1:].tolist(), side.tolist()):
        right[g] = s
        left[h] = -s
        prev[h] = g
    alive = np.zeros(n, dtype=bool)
    alive[first] = True

    heap = []

    def push(g, h):
        # neighbouring slopes have opposite signs or are both 0, so d is 0
        # exactly when the pair moves in parallel and never meets
        d = (left[g] + right[g]) / size[g] - (left[h] + right[h]) / size[h]
        if d != 0.0:
            heapq.heappush(heap, ((level[g] - level[h]) / d, g, h,
                                  version[g], version[h]))

    for g, h in zip(first[:-1].tolist(), first[1:].tolist()):
        push(g, h)
    for lam in lams:
        while heap and heap[0][0] <= lam:
            _, g, h, vg, vh = heapq.heappop(heap)
            if version[g] != vg or version[h] != vh:
                continue
            k = size[g] + size[h]
            level[g] = (level[g] * size[g] + level[h] * size[h]) / k
            size[g] = k
            right[g] = right[h]
            version[g] += 1
            version[h] = -1
            alive[h] = False
            if left[g]:
                push(prev[g], g)
            if g + k < n:
                prev[g + k] = g
                push(g, g + k)
        g = np.flatnonzero(alive)
        k = np.array(size)[g]
        slope = (np.array(left)[g] + np.array(right)[g]) / k
        yield np.repeat(np.array(level)[g] - lam * slope, k)


def tv_path_1d(y: Signal, lambdas) -> list[TvSolution]:
    """Exact TV minimizers on a path lattice over an ascending lambda grid,
    in one pass.

    Follows the fusion path from lambda = 0 upward and writes out the fit at
    each grid value with the same dual and gap certificate as
    ``tv_denoise_1d``. Within a fused group the fit's differences are
    exactly 0.
    """
    if not y.shape.is_path:
        raise ValueError("tv_path_1d requires a path lattice")
    lams = np.asarray(lambdas, dtype=float).ravel()
    if not np.all(np.isfinite(lams)) or np.any(lams < 0):
        raise ValueError("lambda values must be finite and nonnegative")
    if np.any(np.diff(lams) < 0):
        raise ValueError("lambda grid must be ascending")
    lams = lams.tolist()
    return [_certified_1d(y, lam, f)
            for lam, f in zip(lams, _fusion_path(y.values, lams))]


def _polish(y, lam, shape, z_tilde, scale):
    """Re-solve exactly on the zero/sign pattern of z_tilde, or reject.

    Merges sites across edges with (near-)zero differences, fixes the dual at
    +-lambda on the remaining edges, and completes the dual inside components
    by a masked Laplacian solve. Accepted only if the completed dual is
    feasible and sign-consistent, in which case the result is the exact
    minimizer with a certificate.
    """
    sizes = shape.sizes
    ztol = max(1e-9 * scale, 1e-5 * float(np.abs(z_tilde).max(initial=0.0)))
    zero = np.abs(z_tilde) <= ztol
    sign = np.where(zero, 0.0, np.sign(z_tilde))
    comp = edge_components(shape, zero)
    csize = np.bincount(comp).astype(float)
    w_act = lam * sign
    corr = adjoint_flat(w_act, sizes)
    cmean = np.bincount(comp, weights=y - corr) / csize
    f = cmean[comp]
    z = diff_flat(f, sizes)
    if np.any(sign * z < -1e-12 * scale):
        return None
    r = y - f - corr
    r -= (np.bincount(comp, weights=r) / csize)[comp]
    try:
        nu = laplacian_solve(Signal(shape, r), tol=1e-11, edge_mask=zero)
    except (RuntimeError, ValueError):
        return None
    wz = diff_flat(nu.values, sizes)
    wz[~zero] = 0.0
    if np.abs(wz).max(initial=0.0) > lam * (1 + 1e-9):
        return None
    w = np.clip(w_act + wz, -lam, lam)
    if np.abs(y - f - adjoint_flat(w, sizes)).max() > 1e-8 * scale:
        return None
    gap = lam * float(np.abs(z).sum()) - float(z @ w)
    return Signal(shape, f), w, abs(gap)


def tv_denoise(y: Signal, lam: float, cfg: SolverConfig | None = None) -> TvSolution:
    """TV minimizer on a lattice of any dimension.

    A path lattice is solved exactly by ``tv_denoise_1d`` (0 iterations; cfg
    is not read). Every other lattice goes through alternating-direction
    iterations on the edge variables; the coupling solve
    (I + rho B^T B) f = rhs is carried out in closed form through the
    lattice cosine transform. Every convergence check builds a feasible dual
    from the running multipliers, so the reported gap is a true certificate.
    Stops when gap <= gap_tol * (1 + primal objective). If the iteration cap
    is reached the best certified iterate is returned with converged=False.
    """
    if y.shape.is_path:
        return tv_denoise_1d(y, lam)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _split_solve(y, lam, cfg or SolverConfig())


def _split_solve(y: Signal, lam: float, cfg: SolverConfig) -> TvSolution:
    """The splitting iterations of ``tv_denoise`` at lam >= 0, on a lattice
    with at least one edge."""
    shape = y.shape
    m = shape.n_sites
    p = shape.n_edges
    if lam == 0.0 or np.ptp(y.values) == 0.0:
        return TvSolution(Signal(shape, y.values.copy()), lam, np.zeros(p), 0.0, 0)
    yv = y.values
    ybar = yv.mean()
    c = yv - ybar
    scale = max(float(np.abs(yv).max()), 1e-300)
    spectral = SpectralLaplacian(shape)
    residuals = []

    def constant_fit(w, it, exact=False):
        """The constant fit, proven optimal by sample_lambda's minimum
        sup-norm dual when exact, else by the projection of w onto the duals
        with B^T w = c (at w = 0 the minimum-norm dual); None if that dual
        does not fit the box."""
        if exact:
            try:
                value, wc = sample_lambda(y, tol=1e-8)
            except RuntimeError:
                return None
            if value > lam:
                return None
        else:
            wc = w - diff_flat(spectral.solve(adjoint_flat(w, shape.sizes) - c),
                               shape.sizes)
            if np.abs(wc).max() > lam * (1 + 1e-12):
                return None
        return TvSolution(Signal(shape, np.full(m, ybar)), lam,
                          np.clip(wc, -lam, lam), 0.0, it, True, residuals)

    const = constant_fit(np.zeros(p), 0)
    if const is not None:
        return const

    rho = cfg.rho if cfg.rho is not None else lam
    # start on the proximal manifold z = shrink(z + u): the iteration is then
    # a relaxed Douglas-Rachford pass from the first step, so the tracked
    # displacement norms are monotone under a fixed rho
    s0 = diff_flat(yv, shape.sizes)
    z = np.sign(s0) * np.maximum(np.abs(s0) - lam / rho, 0.0)
    u = s0 - z
    it = 0
    best = None
    dr_prev = z + u
    rebalance_left = 20
    while it < cfg.max_iter:
        for _ in range(min(_CHECK_EVERY, cfg.max_iter - it)):
            rhs = yv + rho * adjoint_flat(z - u, shape.sizes)
            f = spectral.solve(rhs / rho, shift=1.0 / rho)
            bf = diff_flat(f, shape.sizes)
            bfr = _OVER_RELAX * bf + (1 - _OVER_RELAX) * z
            z_prev = z
            z = bfr + u
            z = np.sign(z) * np.maximum(np.abs(z) - lam / rho, 0.0)
            u += bfr - z
            it += 1
            if cfg.track_residuals:
                dr_cur = z + u
                residuals.append(float(np.linalg.norm(dr_cur - dr_prev)))
                dr_prev = dr_cur
        w = np.clip(rho * u, -lam, lam)
        ft = yv - adjoint_flat(w, shape.sizes)
        zt = diff_flat(ft, shape.sizes)
        gap = abs(lam * float(np.abs(zt).sum()) - float(zt @ w))
        primal = 0.5 * float(np.sum((yv - ft) ** 2)) + lam * float(np.abs(zt).sum())
        if best is None or gap < best[2]:
            best = (ft, w, gap)
        near_const = float(np.ptp(ft)) <= 1e-3 * (1.0 + scale)
        if gap <= cfg.gap_tol * (1.0 + primal):
            if cfg.polish:
                polished = _polish(yv, lam, shape, zt, scale)
                if polished is not None:
                    est, wp, gp = polished
                    return TvSolution(est, lam, wp, gp, it, True, residuals)
            if near_const:
                const = constant_fit(w, it, exact=True)
                if const is not None:
                    return const
            return TvSolution(Signal(shape, ft), lam, w, gap, it, True, residuals)
        if near_const:
            # nearly constant: a projected dual may prove the constant fit
            # optimal without finishing the iteration
            const = constant_fit(w, it)
            if const is not None:
                return const
        if cfg.rebalance and rebalance_left > 0:
            rp = float(np.linalg.norm(bf - z))
            rd = rho * float(np.linalg.norm(adjoint_flat(z - z_prev, shape.sizes)))
            if max(rp, rd) > 1e-8 * (1.0 + scale):
                if rp > 10 * rd and rho < 1e3 * lam:
                    rho *= 2.0
                    u /= 2.0
                    rebalance_left -= 1
                elif rd > 10 * rp and rho > 1e-3 * lam:
                    rho /= 2.0
                    u *= 2.0
                    rebalance_left -= 1
    ft, w, gap = best
    return TvSolution(Signal(shape, ft), lam, w, gap, cfg.max_iter, False, residuals)


def lambda_max(y: Signal) -> float:
    """Smallest lambda at which the TV estimate collapses to the mean."""
    lam, _ = sample_lambda(y)
    return lam
