"""Lattice geometry, the finite-difference operator B, connected components
of the lattice graph and the exact lattice-Laplacian solve (one
cosine-transform solve, no iteration).

Only numpy loads with this module. ``components`` imports scipy.sparse and
its csgraph, and ``SpectralLaplacian.solve`` scipy.fft, where they are
first needed, so a path-lattice run never loads them.

The difference operator stacks one block per direction (direction-major). A
direction is a lattice axis, enumerated from the fastest-varying axis of the
row-major layout outward, so that for an image the horizontal differences come
first. Within a direction, edges are listed in row-major order of their base
site. Each edge value is (far neighbor - near neighbor).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def positive_ints(values, what: str) -> tuple[int, ...]:
    """values as ints, refused unless each is a positive integer: 8.0
    passes as 8, and 8.6 is refused rather than truncated, as are an
    infinity, a NaN and a boolean."""
    values = tuple(values)
    refusal = ValueError("%s must be positive integers" % what)
    try:
        ints = tuple(int(n) for n in values)
    except (OverflowError, ValueError):
        raise refusal from None
    if any(isinstance(m, (bool, np.bool_)) or n < 1 or n != m
           for n, m in zip(ints, values)):
        raise refusal
    return ints


@dataclass(frozen=True)
class LatticeShape:
    """Rectangular lattice with sizes (N_1, ..., N_d)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = positive_ints(self.sizes, "lattice sizes")
        if not sizes:
            raise ValueError("a lattice needs at least one axis")
        object.__setattr__(self, "sizes", sizes)

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def n_sites(self) -> int:
        return math.prod(self.sizes)

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
        return sum(n > 1 for n in self.sizes) <= 1


def check_path(shape: LatticeShape, name: str) -> None:
    """Refuse a lattice that is not a path, for ``name``, which needs one."""
    if not shape.is_path:
        raise ValueError("%s requires a path lattice" % name)


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


def _edge_slices(sizes):
    """The (near, far) slice pair of each direction's edges, in the fixed
    edge order: direction 1 runs along the fastest-varying (last) axis."""
    for ax in reversed(range(len(sizes))):
        near = [slice(None)] * len(sizes)
        far = list(near)
        near[ax] = slice(0, sizes[ax] - 1)
        far[ax] = slice(1, sizes[ax])
        yield tuple(near), tuple(far)


def diff_flat(values: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """B values: the edge differences of a signal stored flat, in the fixed
    edge order. Leading axes of values hold one signal per row and are
    kept: a (k, sites) block gives (k, edges)."""
    lead = values.shape[:-1]
    arr = values.reshape(lead + tuple(sizes))
    return np.concatenate([(arr[(...,) + far] - arr[(...,) + near])
                           .reshape(lead + (-1,))
                           for near, far in _edge_slices(sizes)], axis=-1)


def adjoint_flat(w: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """B^T w, flat; leading axes of w hold one edge vector per row and are
    kept, as in ``diff_flat``."""
    lead = w.shape[:-1]
    out = np.zeros(lead + tuple(sizes), dtype=float)
    pos = 0
    for near, far in _edge_slices(sizes):
        low = out[(...,) + near]
        size = math.prod(low.shape[len(lead):])
        blk = w[..., pos:pos + size].reshape(low.shape)
        pos += size
        low -= blk
        out[(...,) + far] += blk
    return out.reshape(lead + (-1,))


def edge_endpoints(shape: LatticeShape) -> tuple[np.ndarray, np.ndarray]:
    """(near, far) site indices for every edge, in the fixed edge ordering."""
    idx = np.arange(shape.n_sites).reshape(shape.sizes)
    near, far = zip(*((idx[n].ravel(), idx[f].ravel())
                      for n, f in _edge_slices(shape.sizes)))
    return np.concatenate(near), np.concatenate(far)


def components(shape: LatticeShape,
               joined: np.ndarray) -> tuple[int, np.ndarray]:
    """The connected components of the lattice graph that keeps exactly the
    edges where the boolean edge vector joined is True, in the fixed edge
    order: (count, labels), labels[i] in 0..count-1 the component of site
    i. The package's one connected-components routine."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    near, far = edge_endpoints(shape)
    m = shape.n_sites
    links = sp.csr_matrix((np.ones(int(np.count_nonzero(joined))),
                           (near[joined], far[joined])), shape=(m, m))
    count, labels = connected_components(links, directed=False)
    return int(count), labels


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
        from scipy.fft import dctn, idctn

        arr = np.asarray(rhs, dtype=float).reshape(self.shape.sizes)
        coef = dctn(arr, type=2, norm="ortho")
        den = self._eig.copy()
        den.reshape(-1)[0] = 1.0
        coef = coef / den
        coef.reshape(-1)[0] = 0.0
        return idctn(coef, type=2, norm="ortho").ravel()
