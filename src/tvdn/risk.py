"""Risk functionals for threshold selection: SURE and oracle loss curves.

The unbiased risk estimate charges one degree of freedom per connected
component of the fit, so component counting is the workhorse here. The
solvers write every piece of a fit as one constant, so its within-piece
differences are exactly 0; the quantization tolerance of the count serves
fits supplied from elsewhere and keeps rounding-level steps between
neighbouring pieces from counting as separate components.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tvsolve
from ._pool import parallel_map
from .grid import LatticeShape, Signal, edge_components, edge_endpoints
from .tvsolve import FusionPath, SolverConfig, TvSolution

# grid values per warm-started chain of lattice solves; a constant, so the
# chains, and with them every fit and dual, depend only on the grid
_CHAIN = 5


def default_quantization(f: Signal) -> float:
    v = f.values
    return max(1e-8, 1e-5 * float(v.max() - v.min()))


def component_labels(f: Signal, quantization: float) -> np.ndarray:
    """Component labels, numbered by smallest member site."""
    if quantization < 0:
        raise ValueError("quantization must be nonnegative")
    near, far = edge_endpoints(f.shape)
    v = f.values
    return edge_components(f.shape, np.abs(v[far] - v[near]) <= quantization)


def ncc(f: Signal, quantization: float) -> int:
    """Connected components of the fit, adjacency = difference within tolerance."""
    if quantization < 0:
        raise ValueError("quantization must be nonnegative")
    if f.shape.is_path:
        # on a path every difference beyond the tolerance starts a component
        return 1 + int(np.count_nonzero(~(np.abs(np.diff(f.values)) <= quantization)))
    return int(component_labels(f, quantization).max()) + 1


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


def _risk_of(y, f_hat, criterion, sigma, ftv):
    if criterion == "sure":
        return sure(y, f_hat, sigma)
    diff = f_hat.values - ftv
    return float(diff @ diff) / y.shape.n_sites


def _risk_chain(args):
    """(risk, fit) at each lambda of a descending chain, every cut solve
    started from the dual of the one before."""
    sizes, yv, lams, criterion, sigma, ftv = args
    y = Signal(LatticeShape(sizes), yv)
    out, dual = [], None
    for lam in lams:
        sol = tvsolve._cut_solve(y, lam, dual)
        dual = sol.dual
        out.append((_risk_of(y, sol.estimate, criterion, sigma, ftv), sol))
    return out


def _lattice_grid(y, lams, criterion, sigma, ftv):
    """(risk, fit) at each value of the ascending grid lams on a lattice
    that is not a path, from warm-started chains of _CHAIN values."""
    # the chains from the top, each descending, so the results read the
    # whole grid backwards
    args = [(y.shape.sizes, y.values, lams[i:i + _CHAIN][::-1].tolist(),
             criterion, sigma, ftv)
            for i in range(0, lams.size, _CHAIN)][::-1]
    out = [pair for chain in parallel_map(_risk_chain, args) for pair in chain]
    return out[::-1]


def risk_curve(y: Signal, lambdas, criterion: str = "sure",
               sigma: float | None = None, f_true: Signal | None = None,
               cfg: SolverConfig | None = None) -> RiskCurve:
    """Evaluate SURE or oracle loss over a lambda grid.

    The grid may include inf, whose fit is the mean. On a path lattice one
    pass over the exact fusion path gives every fit, in process. On other
    lattices there is one exact minimum-cut solve per value (pieces can
    split as lambda grows, so there is no path to follow). The sorted grid
    is cut into contiguous chains of _CHAIN values; each chain is solved
    from its largest value down, every solve started from the dual of the
    one before (see ``tvsolve._cut_solve``): that saves routing, and the
    fits are those of cold solves up to the rounding of the flows. The
    chains are distributed across workers (TVDN_THREADS), highest values
    first, as solves grow costlier with lambda over most of a default
    grid, and gathered back in grid order; their layout depends only on
    the grid, so the curve, its fits and their duals do not depend on the
    worker count. The fit at the argmin is kept
    on the curve. cfg is accepted for compatibility and not read.
    """
    lams = np.sort(np.asarray(lambdas, dtype=float))
    if lams.size == 0:
        raise ValueError("lambda grid is empty")
    # sorting puts NaN last, so the smallest value alone would not show it
    if not np.all(lams >= 0):
        raise ValueError("lambda values must be nonnegative")
    if criterion == "sure":
        if sigma is None:
            raise ValueError("sure criterion needs sigma")
        if not 0.0 <= sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")
        ftv = None
    elif criterion == "oracle":
        if f_true is None:
            raise ValueError("oracle criterion needs f_true")
        if f_true.shape.sizes != y.shape.sizes:
            raise ValueError("f_true shape does not match y")
        ftv = f_true.values
    else:
        raise ValueError("criterion must be 'sure' or 'oracle'")
    if y.shape.is_path:
        sols = list(map(FusionPath(y).solve, lams.tolist()))
        values = [_risk_of(y, sol.estimate, criterion, sigma, ftv) for sol in sols]
    else:
        values, sols = zip(*_lattice_grid(y, lams, criterion, sigma, ftv))
    values = np.array(values)
    best = int(np.argmin(values))
    return RiskCurve(lams, values, float(lams[best]), sols[best])
