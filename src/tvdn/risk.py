"""Risk functionals for threshold selection: SURE and oracle loss curves.

The oracle risk is ``loss``, the per-site squared error. The unbiased risk
estimate charges one degree of freedom per connected component of the fit,
its fused groups (Tibshirani & Taylor 2011), so component counting, written
once here, is the workhorse. The solvers write every piece of a fit as one
constant, so two neighbouring sites lie in one piece exactly when their
difference is 0; the count takes no tolerance. The default lambda grid
tops out at Lambda, or at 1 on flat data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .grid import Signal, diff_flat, edge_endpoints
from .signals import check_sigma
from .tvsolve import SolverConfig, TvSolution, tv_denoise_grid


def component_labels(f: Signal) -> np.ndarray:
    """Component labels, numbered by smallest member site; neighbours are
    joined exactly when their difference is 0."""
    joined = diff_flat(f.values, f.shape.sizes) == 0.0
    near, far = edge_endpoints(f.shape)
    m = f.shape.n_sites
    links = sp.csr_matrix((np.ones(int(np.count_nonzero(joined))),
                           (near[joined], far[joined])), shape=(m, m))
    # the traversal starts a new label at the first unlabeled site in index
    # order, which is the smallest member of its component
    return connected_components(links, directed=False)[1]


def ncc(f: Signal) -> int:
    """Connected components of the fit: neighbours are joined exactly when
    their difference is 0."""
    if f.shape.is_path:
        # on a path every nonzero difference starts a component
        return 1 + int(np.count_nonzero(np.diff(f.values)))
    return int(component_labels(f).max()) + 1


def sure(y: Signal, f_hat: Signal, sigma: float) -> float:
    """Stein's unbiased estimate of the per-site risk of f_hat: RSS/m +
    2 sigma^2 df/m - sigma^2, df = ncc(f_hat), its number of pieces."""
    if y.shape.sizes != f_hat.shape.sizes:
        raise ValueError("signal shapes do not match")
    m = y.shape.n_sites
    rss = float(np.sum((y.values - f_hat.values) ** 2))
    return rss / m + 2.0 * sigma ** 2 * ncc(f_hat) / m - sigma ** 2


def loss(f_hat: Signal, f_true: Signal) -> float:
    """The oracle risk of f_hat: its per-site squared error against f_true."""
    d = f_hat.values - f_true.values
    return float(d @ d) / d.size


def default_lambda_grid(lam_max: float, n_points: int = 30) -> np.ndarray:
    """Geometric grid of n_points from top/1000 up to top, where top is
    lam_max, or 1 when lam_max = 0 (flat data, whose every fit is the
    mean)."""
    if not 0.0 <= lam_max < np.inf:
        raise ValueError("lam_max must be finite and nonnegative")
    top = lam_max or 1.0
    return np.geomspace(top / 1e3, top, n_points)


@dataclass
class RiskCurve:
    """Risk values over a lambda grid, one exact fit per value; argmin_fit
    is the fit at argmin_lambda."""

    lambdas: np.ndarray
    values: np.ndarray
    argmin_lambda: float
    argmin_fit: TvSolution | None = field(default=None, repr=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.lambdas.shape != self.values.shape:
            raise ValueError("lambdas and values must have equal length")
        if self.lambdas.size and np.any(np.diff(self.lambdas) < 0):
            raise ValueError("lambdas must be sorted ascending")


def risk_curve(y: Signal, lambdas, criterion: str = "sure",
               sigma: float | None = None, f_true: Signal | None = None,
               cfg: SolverConfig | None = None) -> RiskCurve:
    """Evaluate SURE or oracle loss over a lambda grid.

    The grid may include inf, whose fit is the mean. ``tv_denoise_grid``
    solves the sorted grid, on any lattice (workers: TVDN_THREADS), and each
    fit is scored here; the curve does not depend on the worker count. The
    fit at the argmin is kept on the curve. cfg is accepted for
    compatibility and not read.
    """
    lams = np.sort(np.asarray(lambdas, dtype=float))
    if lams.size == 0:
        raise ValueError("lambda grid is empty")
    if criterion == "sure":
        if sigma is None:
            raise ValueError("sure criterion needs sigma")
        check_sigma(sigma)
    elif criterion == "oracle":
        if f_true is None:
            raise ValueError("oracle criterion needs f_true")
        if f_true.shape.sizes != y.shape.sizes:
            raise ValueError("f_true shape does not match y")
    else:
        raise ValueError("criterion must be 'sure' or 'oracle'")
    sols = tv_denoise_grid(y, lams)
    values = np.array([sure(y, sol.estimate, sigma) if criterion == "sure"
                       else loss(sol.estimate, f_true) for sol in sols])
    best = int(np.argmin(values))
    return RiskCurve(lams, values, float(lams[best]), sols[best])
