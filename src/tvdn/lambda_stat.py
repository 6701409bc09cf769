"""The dual sup-norm statistic and its extreme-value calibration.

Lambda(y) is the smallest box bound lambda for which a dual edge vector w
with B^T w = y - mean(y) fits inside [-lambda, lambda]^P. It is the exact
breakpoint of the TV path: denoising with lambda >= Lambda(y) returns the
constant fit, anything smaller does not. On a path lattice (at most one
axis longer than 1) the dual is unique, minus the centered partial sums in
flat order, and Lambda is their sup. On other lattices it is the largest
ratio c(S) / |dS| over site sets S (coarea formula), found by Dinkelbach
iterations of s-t minimum cuts; the cut set and the maximum flow bracket
the value from below and above. The iterations start from the minimum-norm
dual B L^+ c, whose potential L^+ c has level sets that come close to the
maximizing set: the best of them is the first lower bound, and the dual
clipped to it the first flow.

Monte Carlo draws of Lambda under white noise feed a Gumbel fit, and the
fitted location/scale follow a log-log-linear law in the side length, which
is what the regression here captures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import chdtrc

from ._pool import parallel_map
from .cuts import CutNetwork
from .grid import LatticeShape, Signal, SpectralLaplacian, adjoint_flat, diff_flat

# sample_lambda gives up after this many flows; noise draws certify in 4-6
_MAX_FLOWS = 50000


@dataclass(frozen=True)
class GumbelParams:
    mu: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("Gumbel parameters need finite mu and beta > 0")

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        return self.mu - self.beta * math.log(-math.log(p))


@dataclass(frozen=True)
class GevParams:
    mu: float
    scale: float
    xi: float

    def __post_init__(self):
        ok = np.isfinite(self.mu) and np.isfinite(self.scale) \
            and np.isfinite(self.xi) and self.scale > 0
        if not ok:
            raise ValueError("GEV parameters need finite values and scale > 0")


@dataclass(frozen=True)
class GumbelFitCoefficients:
    a_mu: float
    b_mu: float
    a_beta: float
    b_beta: float
    dim: int

    def __post_init__(self):
        vals = (self.a_mu, self.b_mu, self.a_beta, self.b_beta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("fit coefficients must be finite")

    def params_at(self, n: float) -> GumbelParams:
        """Gumbel location/scale extrapolated to side length n (may be fractional)."""
        if n <= 1.0:
            raise ValueError("side length must exceed 1")
        ll = math.log(math.log(n))
        return GumbelParams(math.exp(self.a_mu + self.b_mu * ll),
                            math.exp(self.a_beta + self.b_beta * ll))


def sample_lambda_1d(y: Signal) -> float:
    """Closed form on a path lattice: the sup of centered cumulative sums."""
    if not y.shape.is_path:
        raise ValueError("sample_lambda_1d requires a path lattice")
    return sample_lambda(y)[0]


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def sample_lambda(y: Signal, tol: float = 1e-6):
    """Minimum sup-norm dual vector for y, with the optimal value.

    By the coarea formula Lambda(y) = max over site sets S of c(S) / |dS|,
    with c = y - mean(y) and |dS| the number of lattice edges leaving S.
    Dinkelbach iterations find the maximizing set: at the best ratio lb so
    far, a maximum flow routes c through edges of capacity mu, slightly
    above lb. If it cannot, the sink side of the minimum cut is a set with
    a larger ratio, which becomes the new lb. If it can, the flow is a dual
    vector with B^T w = c and ||w||_inf <= mu.

    The search starts from the potential u = L^+ c of the lattice
    Laplacian L = B^T B. The first lb is the larger of c(S)/|dS| at
    S = {c > 0} and the best |c(S)|/|dS| over the level sets S = {u >= t}
    (|c(S)| because the complement of S has the opposite sum and the same
    boundary); on noise that is 0.8-0.9 of Lambda. The first flow is the
    minimum-norm dual B u clipped to [-lb, lb], which stays inside the
    capacities of every later round, so the rounds route only what the
    clipping left over.

    Flows are computed in integer units (scipy's maximum_flow). The flow of
    each round stays in place and the next round routes only what is left
    over, on the capacity that is left over, at a finer unit; a final
    minimum-norm correction through the lattice Laplacian removes the last
    rounding. The cut set gives the exact lower bound c(S)/|dS| and the
    returned value is ||w||_inf, an upper bound; it is returned once
    value - lb <= tol * value, a relative bracket at every scale (lb > 0
    whenever c is not 0). Raises RuntimeError if ``_MAX_FLOWS`` flow
    computations do not close that bracket.

    On a path lattice no flow is computed: the only dual is minus the
    partial sums of c in flat order.
    """
    _check_tol(tol)
    shape = y.shape
    p = shape.n_edges
    c = y.values - y.values.mean()
    if p == 0 or np.abs(c).max(initial=0.0) == 0.0:
        return 0.0, np.zeros(p)
    if shape.is_path:
        # site i ends edges i-1 and i, so B^T w = c is solved by
        # w_i = -(c_0 + ... + c_i) alone
        w = -np.cumsum(c)[:-1]
        return float(np.abs(w).max()), w
    spectral = SpectralLaplacian(shape)
    net = CutNetwork(shape)

    def ratio(inside):
        return float(c[inside].sum()) / net.boundary(inside)

    u = spectral.solve(c)
    lb = max(ratio(c > 0), _best_level_ratio(u, c, net.near, net.far))
    w = np.clip(diff_flat(u, shape.sizes), -lb, lb)
    flows = 0
    while flows < _MAX_FLOWS:
        flows += 1
        mu = lb * (1.0 + 0.5 * tol)
        dw, blocked = net.route(c - adjoint_flat(w, shape.sizes), mu - w, mu + w)
        w += dw
        if blocked is not None:
            better = ratio(blocked)
            if better > lb:
                lb = better
            elif not dw.any():
                break
            continue
        rest = c - adjoint_flat(w, shape.sizes)
        wc = w + diff_flat(spectral.solve(rest), shape.sizes)
        value = float(np.abs(wc).max())
        if value - lb <= tol * value:
            return value, wc
        if not dw.any():
            break
    raise RuntimeError(
        "minimum cuts did not certify tol=%g after %d flow computations"
        % (tol, flows))


def _best_level_ratio(u, c, near, far) -> float:
    """The largest |c(S)| / |dS| over the level sets S = {u >= t} other
    than the empty set and all sites, in O(m log m).

    With the sites sorted by descending u, edge (i, j) leaves the set of the
    first k sites exactly when min(rank) < k <= max(rank), so the boundary
    sizes of all those sets are one cumulative sum; a set is a level set
    when the k-th and (k+1)-th values of u differ.
    """
    m = u.size
    order = np.argsort(-u)
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    lo = np.minimum(rank[near], rank[far])
    hi = np.maximum(rank[near], rank[far])
    cut = np.cumsum(np.bincount(lo + 1, minlength=m + 1)
                    - np.bincount(hi + 1, minlength=m + 1))[1:m]
    inside = np.cumsum(c[order])[:-1]
    us = u[order]
    level = us[:-1] > us[1:]
    if not level.any():
        return 0.0
    return float((np.abs(inside[level]) / cut[level]).max())


def _mc_one(args):
    sizes, seed_entropy, tol = args
    rng = np.random.default_rng(seed_entropy)
    shape = LatticeShape(sizes)
    y = Signal(shape, rng.standard_normal(shape.n_sites))
    lam, _ = sample_lambda(y, tol=tol)
    return lam


def monte_carlo_lambda(shape: LatticeShape, reps: int, seed: int,
                       tol: float = 1e-6) -> np.ndarray:
    """Independent draws of Lambda under standard normal noise (sigma = 1)."""
    return np.array(parallel_map(_mc_one, _mc_tasks(shape, reps, seed, tol)))


def _mc_tasks(shape: LatticeShape, reps: int, seed: int, tol: float) -> list:
    """The ``_mc_one`` arguments of reps draws: one child of
    SeedSequence(seed) per draw, so a draw does not depend on the worker
    or the call that runs it."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    _check_tol(tol)
    children = np.random.SeedSequence(seed).spawn(reps)
    return [(shape.sizes, ss, tol) for ss in children]


def gumbel_loglik(params: GumbelParams, x) -> float:
    x = np.asarray(x, dtype=float)
    t = (x - params.mu) / params.beta
    return float(-x.size * math.log(params.beta) - t.sum() - np.exp(-t).sum())


def fit_gumbel(samples) -> GumbelParams:
    """Gumbel maximum likelihood via the profile equation for the scale.

    The stationarity condition in beta reduces to a scalar root-finding
    problem; the location then has a closed form. Exponentials are shifted
    by the sample minimum so every term stays in [0, 1].
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 10:
        raise ValueError("need at least 10 samples to fit")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    s = float(x.std(ddof=1))
    if s == 0.0:
        raise ValueError("degenerate sample: all values equal")
    xmin = float(x.min())
    xbar = float(x.mean())

    def g(beta):
        e = np.exp(-(x - xmin) / beta)
        return beta - xbar + float((x * e).sum() / e.sum())

    b0 = s * math.sqrt(6.0) / math.pi
    lo = hi = b0
    while g(lo) > 0.0 and lo > 1e-12 * s:
        lo *= 0.5
    while g(hi) < 0.0 and hi < 1e6 * s:
        hi *= 2.0
    beta = float(brentq(g, lo, hi, rtol=1e-14))
    mu = xmin - beta * math.log(float(np.exp(-(x - xmin) / beta).mean()))
    return GumbelParams(mu, beta)


def gev_loglik(params: GevParams, x) -> float:
    x = np.asarray(x, dtype=float)
    return -_gev_nll(params.mu, math.log(params.scale), params.xi, x)


def _gev_nll(mu, log_scale, xi, x):
    s = math.exp(log_scale)
    if abs(xi) < 1e-8:
        t = (x - mu) / s
        return x.size * log_scale + float(t.sum() + np.exp(-t).sum())
    t = 1.0 + xi * (x - mu) / s
    if t.min() <= 0.0:
        return 1e50 * (1.0 - float(t.min()))
    log_t = np.log(t)
    return x.size * log_scale + float((1.0 + 1.0 / xi) * log_t.sum()
                                      + np.exp(-log_t / xi).sum())


def fit_gev_and_lr_test(samples):
    """GEV fit plus the p-value of the likelihood ratio test against Gumbel.

    The shape parameter is constrained to (-0.5, 0.5); optimization runs
    from several starts including the Gumbel fit itself, so the nested
    likelihood ordering holds by construction. The statistic
    2*(loglik_gev - loglik_gumbel) is referred to chi-square(1).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 30:
        raise ValueError("need at least 30 samples for the ratio test")
    g0 = fit_gumbel(x)
    theta0 = [g0.mu, math.log(g0.beta)]
    results = []
    for xi0 in (-0.1, 0.0, 0.1):
        res = minimize(lambda th: _gev_nll(th[0], th[1], th[2], x),
                       np.array(theta0 + [xi0]), method="L-BFGS-B",
                       bounds=[(None, None), (None, None), (-0.5, 0.5)])
        if np.isfinite(res.fun):
            results.append(res)
    if not results:
        raise RuntimeError("GEV likelihood optimization failed from all starts")
    best = min(results, key=lambda r: r.fun)
    mu, log_s, xi = best.x
    fit = GevParams(float(mu), math.exp(log_s), float(xi))
    lr = max(0.0, 2.0 * (-best.fun - gumbel_loglik(g0, x)))
    p_value = float(chdtrc(1, lr))
    return fit, p_value


def fit_loglog_regression(fits, dim: int) -> GumbelFitCoefficients:
    """Least squares of log(mu) and log(beta) on log(log(N))."""
    pairs = [(float(n), p) for n, p in fits]
    ns = np.array([n for n, _ in pairs])
    if len(set(ns.tolist())) < 2:
        raise ValueError("need at least 2 distinct side lengths")
    if ns.min() <= 1.0:
        raise ValueError("side lengths must exceed 1")
    mus = np.array([p.mu for _, p in pairs])
    betas = np.array([p.beta for _, p in pairs])
    if mus.min() <= 0 or betas.min() <= 0:
        raise ValueError("log-log fit needs positive mu and beta")
    ll = np.log(np.log(ns))
    b_mu, a_mu = np.polyfit(ll, np.log(mus), 1)
    b_beta, a_beta = np.polyfit(ll, np.log(betas), 1)
    return GumbelFitCoefficients(float(a_mu), float(b_mu),
                                 float(a_beta), float(b_beta), dim=int(dim))
