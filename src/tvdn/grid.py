"""Lattice geometry, the finite-difference operator B, connected components and
graph-Laplacian solves.

The difference operator stacks one block per direction (direction-major). A
direction is a lattice axis, enumerated from the fastest-varying axis of the
row-major layout outward, so that for an image the horizontal differences come
first. Within a direction, edges are listed in row-major order of their base
site. Each edge value is (far neighbor - near neighbor).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class LatticeShape:
    """Rectangular lattice with sizes (N_1, ..., N_d)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("lattice sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def n_edges(self) -> int:
        m = self.n_sites
        return sum((n - 1) * (m // n) for n in self.sizes)

    @property
    def is_path(self) -> bool:
        """At most one axis longer than 1: the sites form one chain in flat
        order, and edge i joins sites i and i + 1."""
        return sum(n > 1 for n in self.sizes) <= 1


@dataclass
class Signal:
    """Real values on a lattice, stored flat in row-major order."""

    shape: LatticeShape
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.shape.n_sites:
            raise ValueError("value count does not match lattice size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")
        self.values = vals

    @classmethod
    def from_array(cls, arr) -> "Signal":
        arr = np.asarray(arr, dtype=float)
        return cls(LatticeShape(arr.shape), arr.ravel())

    def as_array(self) -> np.ndarray:
        return self.values.reshape(self.shape.sizes)

    def mean(self) -> float:
        return float(self.values.mean())


def _axes_in_direction_order(ndim):
    # direction 1 runs along the fastest-varying (last) axis
    return tuple(reversed(range(ndim)))


def diff_flat(values: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    arr = values.reshape(sizes)
    parts = [np.diff(arr, axis=ax).ravel() for ax in _axes_in_direction_order(len(sizes))]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def adjoint_flat(w: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    ndim = len(sizes)
    out = np.zeros(sizes, dtype=float)
    m = int(np.prod(sizes))
    pos = 0
    for ax in _axes_in_direction_order(ndim):
        n = sizes[ax]
        cnt = (n - 1) * (m // n)
        blk_shape = list(sizes)
        blk_shape[ax] = n - 1
        blk = w[pos:pos + cnt].reshape(blk_shape)
        pos += cnt
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[ax] = slice(0, n - 1)
        hi[ax] = slice(1, n)
        out[tuple(lo)] -= blk
        out[tuple(hi)] += blk
    return out.ravel()


def apply_diff(signal: Signal) -> np.ndarray:
    """Apply B: one finite difference per lattice edge.

    Returns
    -------
    ndarray of length ``signal.shape.n_edges`` in the fixed edge ordering.
    """
    return diff_flat(signal.values, signal.shape.sizes)


def apply_diff_adjoint(w: np.ndarray, shape: LatticeShape) -> Signal:
    """Apply B^T to a vector of edge values."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != shape.n_edges:
        raise ValueError("edge vector length does not match lattice")
    return Signal(shape, adjoint_flat(w, shape.sizes))


def edge_endpoints(shape: LatticeShape) -> tuple[np.ndarray, np.ndarray]:
    """(near, far) site indices for every edge, in the fixed edge ordering."""
    sizes = shape.sizes
    ndim = len(sizes)
    idx = np.arange(shape.n_sites).reshape(sizes)
    near = []
    far = []
    for ax in _axes_in_direction_order(ndim):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[ax] = slice(0, sizes[ax] - 1)
        hi[ax] = slice(1, sizes[ax])
        near.append(idx[tuple(lo)].ravel())
        far.append(idx[tuple(hi)].ravel())
    if not near:
        z = np.zeros(0, dtype=int)
        return z, z
    return np.concatenate(near), np.concatenate(far)


def edge_components(shape: LatticeShape, joined: np.ndarray) -> np.ndarray:
    """Connected-component label of every site, joining sites across the
    edges where ``joined`` is True; components are numbered in the order of
    their smallest member site."""
    near, far = edge_endpoints(shape)
    m = shape.n_sites
    links = sp.csr_matrix((np.ones(int(np.count_nonzero(joined))),
                           (near[joined], far[joined])), shape=(m, m))
    # the traversal starts a new label at the first unlabeled site in index
    # order, which is the smallest member of its component
    _, labels = connected_components(links, directed=False)
    return labels


def laplacian_apply(x: np.ndarray, shape: LatticeShape,
                    edge_mask: np.ndarray | None = None) -> np.ndarray:
    """Apply B^T B (optionally restricted to a subset of edges)."""
    d = diff_flat(np.asarray(x, dtype=float), shape.sizes)
    if edge_mask is not None:
        d = np.where(edge_mask, d, 0.0)
    return adjoint_flat(d, shape.sizes)


def _site_degrees(shape, edge_mask):
    deg = np.zeros(shape.n_sites)
    near, far = edge_endpoints(shape)
    if edge_mask is not None:
        near = near[edge_mask]
        far = far[edge_mask]
    np.add.at(deg, near, 1.0)
    np.add.at(deg, far, 1.0)
    return deg


_CG_ITER_PER_SITE = 10


def laplacian_solve(rhs: Signal, tol: float = 1e-10,
                    edge_mask: np.ndarray | None = None) -> Signal:
    """Solve B^T B x = rhs by preconditioned conjugate gradients.

    The system is singular with the constants as kernel, so the right-hand
    side must be mean-zero and the mean-zero (pseudo-inverse) solution is
    returned. Jacobi scaling by the site degrees preconditions the
    iteration; the operator itself is applied matrix-free. It serves
    edge-masked systems, which ``SpectralLaplacian`` cannot solve.

    Parameters
    ----------
    rhs : Signal
    tol : relative residual target.
    edge_mask : optional boolean mask restricting B to a subset of edges.

    Raises
    ------
    ValueError if rhs is not mean-zero within tolerance.
    RuntimeError after 10 * n_sites iterations without reaching tol.
    """
    shape = rhs.shape
    b = rhs.values.copy()
    m = shape.n_sites
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    if abs(b.mean()) > max(tol, 1e-8) * scale:
        raise ValueError("rhs must be mean-zero for the singular solve")
    b -= b.mean()
    diag = _site_degrees(shape, edge_mask)
    dinv = np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 1.0)
    x = np.zeros(m)
    r = b.copy()
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return Signal(shape, x)
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(_CG_ITER_PER_SITE * m):
        if np.linalg.norm(r) <= tol * nb:
            break
        ap = laplacian_apply(p, shape, edge_mask)
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        a = rz / pap
        x += a * p
        r -= a * ap
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise RuntimeError("laplacian_solve did not converge within the iteration cap")
    x -= x.mean()
    return Signal(shape, x)


class SpectralLaplacian:
    """Exact lattice-Laplacian solves through the cosine transform.

    B^T B on a full rectangular lattice is the Kronecker sum of 1D path
    Laplacians, which the orthonormal DCT-II diagonalizes. Solvers use this
    for their inner linear systems, shifted or singular, in closed form;
    its singular solve agrees with ``laplacian_solve`` without an edge mask.
    """

    def __init__(self, shape: LatticeShape):
        self.shape = shape
        sizes = shape.sizes
        eig = np.zeros(sizes)
        for ax, n in enumerate(sizes):
            mode = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
            dims = [1] * len(sizes)
            dims[ax] = n
            eig = eig + mode.reshape(dims)
        self._eig = eig

    def solve(self, rhs: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Solve (shift*I + B^T B) x = rhs; shift=0 gives the pseudo-inverse."""
        arr = np.asarray(rhs, dtype=float).reshape(self.shape.sizes)
        coef = scipy.fft.dctn(arr, type=2, norm="ortho")
        den = self._eig + shift
        if shift == 0.0:
            den = den.copy()
            den.reshape(-1)[0] = 1.0
            coef = coef / den
            coef.reshape(-1)[0] = 0.0
        else:
            coef = coef / den
        return scipy.fft.idctn(coef, type=2, norm="ortho").ravel()
