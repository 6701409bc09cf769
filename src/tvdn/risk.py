"""Risk functionals for threshold selection: SURE and oracle loss curves.

The unbiased risk estimate charges one degree of freedom per connected
component of the fit, so component counting (with a quantization tolerance,
since iterative solutions are never exactly piecewise constant) is the
workhorse here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .grid import LatticeShape, Signal, edge_endpoints
from .tvsolve import SolverConfig, tv_denoise, tv_denoise_1d


def default_quantization(f: Signal) -> float:
    v = f.values
    return max(1e-8, 1e-5 * float(v.max() - v.min()))


def component_labels(f: Signal, quantization: float) -> np.ndarray:
    """Union-find component labels, numbered by smallest member site."""
    if quantization < 0:
        raise ValueError("quantization must be nonnegative")
    near, far = edge_endpoints(f.shape)
    v = f.values
    joined = np.abs(v[far] - v[near]) <= quantization
    parent = np.arange(f.shape.n_sites)

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for i, j in zip(near[joined], far[joined]):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    labels = np.empty(f.shape.n_sites, dtype=int)
    seen = {}
    for site in range(f.shape.n_sites):
        root = find(site)
        if root not in seen:
            seen[root] = len(seen)
        labels[site] = seen[root]
    return labels


def ncc(f: Signal, quantization: float) -> int:
    """Connected components of the fit, adjacency = difference within tolerance."""
    labels = component_labels(f, quantization)
    return int(labels.max()) + 1


def sure(y: Signal, f_hat: Signal, sigma: float, quantization: float | None = None) -> float:
    if y.shape.sizes != f_hat.shape.sizes:
        raise ValueError("signal shapes do not match")
    if quantization is None:
        quantization = default_quantization(f_hat)
    m = y.shape.n_sites
    rss = float(np.sum((y.values - f_hat.values) ** 2))
    return rss / m + 2.0 * sigma ** 2 * ncc(f_hat, quantization) / m - sigma ** 2


def default_lambda_grid(lam_max: float, n_points: int = 30) -> np.ndarray:
    """Geometric grid from lam_max/1000 up to lam_max."""
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    return np.geomspace(lam_max / 1e3, lam_max, n_points)


@dataclass
class RiskCurve:
    """Risk values over a lambda grid; converged[k] is False where the solve
    at lambdas[k] stopped at the iteration cap (its value is then that of
    the best certified iterate)."""

    lambdas: np.ndarray
    values: np.ndarray
    argmin_lambda: float
    converged: np.ndarray | None = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.lambdas.shape != self.values.shape:
            raise ValueError("lambdas and values must have equal length")
        if self.converged is None:
            self.converged = np.ones(self.lambdas.shape, dtype=bool)
        self.converged = np.asarray(self.converged, dtype=bool)
        if self.converged.shape != self.lambdas.shape:
            raise ValueError("converged must have one flag per lambda")
        if self.lambdas.size and np.any(np.diff(self.lambdas) < 0):
            raise ValueError("lambdas must be sorted ascending")


def _risk_one(args):
    sizes, yv, lam, criterion, sigma, ftv, cfg = args
    shape = LatticeShape(sizes)
    y = Signal(shape, yv)
    if shape.ndim == 1:
        sol = tv_denoise_1d(y, lam)
    else:
        sol = tv_denoise(y, lam, cfg)
    if criterion == "sure":
        return sure(y, sol.estimate, sigma), sol.converged
    diff = sol.estimate.values - ftv
    return float(diff @ diff) / shape.n_sites, sol.converged


def risk_curve(y: Signal, lambdas, criterion: str = "sure",
               sigma: float | None = None, f_true: Signal | None = None,
               cfg: SolverConfig | None = None) -> RiskCurve:
    """Evaluate SURE or oracle loss over a lambda grid, one solve per value.

    Solves are distributed across workers (TVDN_THREADS) and gathered back
    in grid order, so the curve does not depend on the worker count.
    """
    lams = np.sort(np.asarray(lambdas, dtype=float))
    if lams.size == 0:
        raise ValueError("lambda grid is empty")
    if lams[0] < 0:
        raise ValueError("lambda values must be nonnegative")
    if criterion == "sure":
        if sigma is None:
            raise ValueError("sure criterion needs sigma")
        ftv = None
    elif criterion == "oracle":
        if f_true is None:
            raise ValueError("oracle criterion needs f_true")
        if f_true.shape.sizes != y.shape.sizes:
            raise ValueError("f_true shape does not match y")
        ftv = f_true.values
    else:
        raise ValueError("criterion must be 'sure' or 'oracle'")
    cfg = cfg or SolverConfig()
    args = [(y.shape.sizes, y.values, float(l), criterion, sigma, ftv, cfg)
            for l in lams]
    values, converged = zip(*parallel_map(_risk_one, args))
    values = np.array(values)
    return RiskCurve(lams, values, float(lams[int(np.argmin(values))]),
                     np.array(converged, dtype=bool))
