"""Lattice geometry, the finite-difference operator B and the exact
lattice-Laplacian solve (one cosine-transform solve, no iteration).

The difference operator stacks one block per direction (direction-major). A
direction is a lattice axis, enumerated from the fastest-varying axis of the
row-major layout outward, so that for an image the horizontal differences come
first. Within a direction, edges are listed in row-major order of their base
site. Each edge value is (far neighbor - near neighbor).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft


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
    def squeezed(self) -> "LatticeShape":
        """The same lattice without its axes of size 1. Sites and edges keep
        their flat order, so this is the same graph in the same order; its
        ndim is the lattice's dimension."""
        return LatticeShape(tuple(n for n in self.sizes if n > 1) or (1,))

    @property
    def is_path(self) -> bool:
        """Dimension at most 1: the sites form one chain in flat order, and
        edge i joins sites i and i + 1."""
        return self.squeezed.ndim <= 1


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


def laplacian_solve(rhs: Signal) -> Signal:
    """The mean-zero solution of B^T B x = rhs, solved exactly by
    ``SpectralLaplacian``.

    The system is singular with the constants as kernel, so the right-hand
    side must be mean-zero; the pseudo-inverse solution is returned.

    Raises
    ------
    ValueError if |mean(rhs)| exceeds 1e-8 * max|rhs|.
    """
    b = rhs.values
    if abs(b.mean()) > 1e-8 * float(np.abs(b).max(initial=0.0)):
        raise ValueError("rhs must be mean-zero for the singular solve")
    return Signal(rhs.shape, SpectralLaplacian(rhs.shape).solve(b))


class SpectralLaplacian:
    """Exact lattice-Laplacian solves through the cosine transform.

    B^T B on a full rectangular lattice is the Kronecker sum of 1D path
    Laplacians, which the orthonormal DCT-II diagonalizes, so the singular
    system is solved in closed form (Strang, SIAM Review 1999). It is the
    package's only Laplacian solve; ``laplacian_solve`` wraps it for a
    ``Signal``.
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The mean-zero solution of B^T B x = rhs (pseudo-inverse)."""
        arr = np.asarray(rhs, dtype=float).reshape(self.shape.sizes)
        coef = scipy.fft.dctn(arr, type=2, norm="ortho")
        den = self._eig.copy()
        den.reshape(-1)[0] = 1.0
        coef = coef / den
        coef.reshape(-1)[0] = 0.0
        return scipy.fft.idctn(coef, type=2, norm="ortho").ravel()
