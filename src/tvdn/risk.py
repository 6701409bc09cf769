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
from .tvsolve import (SolverConfig, TvSolution, check_grid, check_lambda,
                      tv_denoise_grid)


def ncc(f: Signal) -> int:
    """Connected components of the fit: neighbours are joined exactly when
    their difference is 0."""
    if f.shape.is_path:
        # on a path every nonzero difference starts a component
        return 1 + int(np.count_nonzero(np.diff(f.values)))
    joined = diff_flat(f.values, f.shape.sizes) == 0.0
    near, far = edge_endpoints(f.shape)
    m = f.shape.n_sites
    links = sp.csr_matrix((np.ones(int(np.count_nonzero(joined))),
                           (near[joined], far[joined])), shape=(m, m))
    return int(connected_components(links, directed=False)[0])


def _check_shapes(a: Signal, b: Signal) -> None:
    if a.shape.sizes != b.shape.sizes:
        raise ValueError("signal shapes do not match")


def _check_rows(fits: np.ndarray, f: Signal) -> None:
    if fits.ndim != 2 or fits.shape[1] != f.shape.n_sites:
        raise ValueError("signal shapes do not match")


def sure_rows(y: Signal, fits: np.ndarray, sigma: float) -> np.ndarray:
    """``sure`` of each row of fits, one fit of y per row."""
    _check_rows(fits, y)
    m = y.shape.n_sites
    rss = np.sum((y.values - fits) ** 2, axis=1)
    pieces = np.array([ncc(Signal(y.shape, f)) for f in fits])
    return rss / m + 2.0 * sigma ** 2 * pieces / m - sigma ** 2


def sure(y: Signal, f_hat: Signal, sigma: float) -> float:
    """Stein's unbiased estimate of the per-site risk of f_hat: RSS/m +
    2 sigma^2 df/m - sigma^2, df = ncc(f_hat), its number of pieces."""
    _check_shapes(y, f_hat)
    return float(sure_rows(y, f_hat.values[None], sigma)[0])


def loss_rows(fits: np.ndarray, f_true: Signal) -> np.ndarray:
    """``loss`` of each row of fits against f_true, one fit per row."""
    _check_rows(fits, f_true)
    d = fits - f_true.values
    return np.array([row @ row for row in d]) / f_true.shape.n_sites


def loss(f_hat: Signal, f_true: Signal) -> float:
    """The oracle risk of f_hat: its per-site squared error against f_true."""
    _check_shapes(f_hat, f_true)
    return float(loss_rows(f_hat.values[None], f_true)[0])


def default_lambda_grid(lam_max: float, n_points: int = 30) -> np.ndarray:
    """Geometric grid of n_points from top/1000 up to top, where top is
    lam_max, or 1 when lam_max = 0 (flat data, whose every fit is the
    mean)."""
    check_lambda(lam_max)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    top = lam_max or 1.0
    return np.geomspace(top / 1e3, top, n_points)


@dataclass
class RiskCurve:
    """Risk values over a lambda grid, one exact fit per value; argmin_fit
    is the fit at argmin_lambda."""

    lambdas: np.ndarray
    values: np.ndarray
    argmin_fit: TvSolution | None = field(default=None, repr=False)

    def __post_init__(self):
        self.lambdas = check_grid(self.lambdas)
        self.values = np.asarray(self.values, dtype=float)
        if self.lambdas.shape != self.values.shape:
            raise ValueError("lambdas and values must have equal length")
        if self.lambdas.size == 0:
            raise ValueError("lambda grid is empty")

    @property
    def argmin_lambda(self) -> float:
        """The first lambda of the grid at which the values are least."""
        return float(self.lambdas[int(np.argmin(self.values))])


def risk_curve(y: Signal, lambdas, criterion: str = "sure",
               sigma: float | None = None, f_true: Signal | None = None,
               cfg: SolverConfig | None = None) -> RiskCurve:
    """Evaluate SURE or oracle loss over a lambda grid.

    ``tv_denoise_grid`` solves the grid, which must ascend, on any lattice
    (on TVDN_THREADS processes, the caller included), and each fit is scored
    here; the curve does not depend on the process count. The fit at the
    argmin is kept on the curve.
    cfg is accepted for compatibility and not read.
    """
    if np.size(lambdas) == 0:
        raise ValueError("lambda grid is empty")
    if criterion == "sure":
        if sigma is None:
            raise ValueError("sure criterion needs sigma")
        check_sigma(sigma)
    elif criterion == "oracle":
        if f_true is None:
            raise ValueError("oracle criterion needs f_true")
        _check_shapes(f_true, y)
    else:
        raise ValueError("criterion must be 'sure' or 'oracle'")
    sols = tv_denoise_grid(y, lambdas)
    values = np.array([sure(y, sol.estimate, sigma) if criterion == "sure"
                       else loss(sol.estimate, f_true) for sol in sols])
    return RiskCurve(lambdas, values, sols[int(np.argmin(values))])
