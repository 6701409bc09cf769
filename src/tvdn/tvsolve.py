"""Exact TV solvers with dual certificates, on lattices of any dimension.

Every fit is decided here. One solver object serves every lambda asked of
one signal, such as a grid and both adaptive thresholds; ``tv_solver(y)``
picks it. On a path lattice (at most one axis longer than 1, so its sites
form one chain in flat order) groups only merge as lambda grows, so read
from the top they only split, each group independently of every other.
``FusionPath`` records the lambda at which each edge fuses by one pass
over a block of signals (``_fusion_times``): levels of top-down splits,
each over every open group of every signal at once, with the groups that
rounding could split wrongly, the rows that run out of their budget of
evaluations and blocks too small for the levels to pay left to one heap
tail, which merges upwards. It then writes the fits at any lambda >= 0
from those times, many at once as the rows of a block. On every other
lattice ``CutSolver`` builds one ``CutNetwork`` and solves each lambda by
divide-and-conquer minimum cuts over the level sets of the fit.
``tv_denoise`` solves one lambda and ``tv_denoise_grid`` an ascending grid,
on other lattices in warm-started chains. No solver iterates to a
tolerance: every one writes each piece of the fit as one constant and
returns through ``_certified``, which takes one fit per row and keeps for
each a dual edge vector w with ||w||_inf <= lambda whose reconstruction
y - B^T w equals the estimate up to rounding, so the gap a ``TvSolution``
derives from its estimate and dual,

    gap = lambda * ||B f||_1 - <B f, w>,

is nonnegative by construction and zero at the optimum.
"""
from __future__ import annotations

import heapq
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
# values per block of path fits written at once (grid values times sites,
# at least one row); a constant, and no fit depends on it
_BLOCK = 1 << 15
# sites below which a block of fusion passes skips the split levels
_SPLIT_MIN = 1 << 13
# site evaluations per site a row's split levels may spend
_SPLIT_BUDGET = 64
# edges per chunk of a level of splits
_SPLIT_CHUNK = 1 << 13


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
    """The one statement of the threshold domain: lambda is finite and
    nonnegative. Every lambda >= Lambda(y) already gives the mean fit."""
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda must be finite and nonnegative")


def check_grid(lams) -> np.ndarray:
    """The grid lams as a float vector, after ``check_lambda`` on every
    value; the grid must ascend."""
    lams = np.asarray(lams, dtype=float).ravel()
    for lam in lams.tolist():
        check_lambda(lam)
    if np.any(lams[1:] < lams[:-1]):
        raise ValueError("lambda grid must be ascending")
    return lams


@dataclass
class TvSolution:
    estimate: Signal
    lam: float
    dual: np.ndarray
    iterations: int
    # every fit is certified before it is returned
    converged = True

    @property
    def gap(self) -> float:
        """lam ||B f||_1 - <B f, w> of the estimate f and the dual w."""
        z = diff_flat(self.estimate.values, self.estimate.shape.sizes)
        # lam |z| - z w, in place: each term is >= 0 in floating point
        # since |w| <= lam
        terms = np.abs(z)
        terms *= self.lam
        z *= self.dual
        terms -= z
        return float(terms.sum())

    def objective(self, y: Signal) -> float:
        z = diff_flat(self.estimate.values, y.shape.sizes)
        return 0.5 * float(np.sum((y.values - self.estimate.values) ** 2)) \
            + self.lam * float(np.abs(z).sum())


def _certified(y: Signal, lams: np.ndarray, f: np.ndarray, w: np.ndarray):
    """The duals w of fits f of y clipped to +-lambda, one row of f and w
    per value of lams, after checking that y - B^T w reconstructs every row
    of f; raises RuntimeError if one does not. This is the one certificate
    check: ``FusionPath`` calls it on each block of rows and ``CutSolver``
    on one row."""
    lam = lams[:, None]
    w = np.clip(w, -lam, lam)
    scale = float(np.abs(y.values).max())
    # the residual is formed in place: a large block's every temporary is
    # fresh memory, whose page faults cost more than the arithmetic
    rest = y.values - f
    rest -= adjoint_flat(w, y.shape.sizes)
    if np.abs(rest, out=rest).max() > _CERTIFIED_TOL * scale:
        raise RuntimeError("the TV fit could not be certified")
    return w


def _fusion_times(y):
    """The lambda at which each edge of each row of the (k, n) block y
    fuses, as a (k, n - 1) block: 0 inside runs of equal data and finite
    for every edge.

    In 1D the fusion path only merges groups as lambda grows (Friedman et
    al. 2007; Hoefling 2010), so read from the top it only splits them,
    each group independently of every other, in its row and in every
    other row (Tibshirani & Taylor 2011). ``_split_levels`` walks the
    paths down a level at a time, splitting every open group of every row
    at once. It leaves three cases to ``_heap_tail``, which merges
    upwards: a group whose split rounding could decide (capped at its
    parent's split time), every open group of a row that has spent its
    budget of _SPLIT_BUDGET evaluations per site, and a whole block of
    fewer than _SPLIT_MIN sites, whose levels would cost more than they
    save. On a whole row the tail is the merge pass over that row, so a
    small block's times are, bit for bit, those of one merge pass per row.
    In a larger block each row's times are the same bits whatever the
    other rows are, and agree with the merge pass's up to rounding (within
    1e-12 Lambda on the tests' corpus).
    """
    k, n = y.shape
    # edge c of row r, between sites c and c + 1, is entry r * (n + 1) + c:
    # the layout of the running sums, which have one more column than y
    times = np.zeros((k, n + 1))
    if y.size < _SPLIT_MIN:
        rest = (np.arange(k) * (n + 1), np.full(k, n), np.zeros(k),
                np.zeros(k), np.full(k, np.inf))
    else:
        rest = _split_levels(y, times)
    v = np.zeros((k, n + 1))
    v[:, :n] = y
    _heap_tail(v.ravel(), times.ravel(), *rest)
    return times[:, :n - 1]


def _split_levels(y, times):
    """Top-down splits of every row of the (k, n) block y, one level at a
    time over all open groups of all rows. Writes each split edge's time
    into times, laid out as ``_fusion_times`` lays it out, and returns the
    groups it leaves to ``_heap_tail`` as (first site, size, s_L, s_R,
    cap) arrays.

    A group's split is read off ``_split_edges``. It records at its split
    edge the smaller of its largest t and its parent's split time, which
    caps both its parts; edges inside runs of equal data keep 0. A group
    goes to the tail instead, capped at its parent's split time, when
    rounding could decide where it splits. That is when an edge has
    B = +-1 and an A of B's sign, so t = inf: at its parent's split time a
    group's duals are its parent's, within +-lambda, so there an exact A
    is 0 or of the other sign, and only an A within rounding of 0 gets
    B's sign (one of the other sign has t = |A| / 2, within rounding of
    its exact 0, and splits nothing). It is also when a second edge comes
    within rounding of the largest t, as only one of two tied edges may
    unfuse there, and when the split edge's data disagree with the sign
    of its A.

    A row whose levels would pass _SPLIT_BUDGET evaluations per site sends
    all its open groups to the tail: a noiseless ramp splits one site off
    each end per level. A level's groups are read in chunks of about
    _SPLIT_CHUNK edges: above about 128 KB a fresh temporary costs more in
    page faults than in arithmetic.
    """
    k, n = y.shape
    eps, wide = np.finfo(float).eps, float(np.finfo(np.longdouble).eps)
    # running sums of y less its row mean, one leading 0 per row, summed in
    # extended precision where the platform has it and kept as the sum of
    # two doubles, so that a sum over any sites is good to its own last
    # bits; the mean is read off a first running sum, so a row's sums do
    # not depend on the block
    x = np.cumsum(y, axis=1, dtype=np.longdouble)
    np.subtract(y, (x[:, -1] / n)[:, None], out=x)
    run = np.zeros((k, n + 1), dtype=np.longdouble)
    np.cumsum(x, axis=1, out=run[:, 1:])
    hi = run.astype(float)
    lo = (run - hi).astype(float)
    # sign(y_c - y_(c-1)) at each site c, so of the edge on its left: 0 at
    # a row's first site, after its last and inside runs
    step = np.zeros((k, n + 1))
    np.sign(y[:, 1:] - y[:, :-1], out=step[:, 1:n])
    # a bound on the rounding of a row's A: a few ulps of its largest
    # running sum, and what summing n terms in extended precision leaves
    scale = np.abs(hi).max(axis=1)
    tol = 16.0 * eps * scale + 4.0 * n * wide * (scale + np.abs(y).max(axis=1))
    hi, lo, step, times = hi.ravel(), lo.ravel(), step.ravel(), times.ravel()
    budget = np.full(k, _SPLIT_BUDGET * n, dtype=float)
    # the open groups: first site, size, s_L, s_R, cap and row
    rows = np.arange(k if n > 1 else 0)
    groups = (rows * (n + 1), np.full(rows.size, n), np.zeros(rows.size),
              np.zeros(rows.size), np.full(rows.size, np.inf), rows)
    rest = [[g[:0] for g in groups[:5]]]
    while groups[0].size:
        budget -= np.bincount(groups[5], groups[1] - 1, minlength=k)
        late = budget[groups[5]] < 0
        if late.any():
            rest.append([g[late] for g in groups[:5]])
            groups = tuple(g[~late] for g in groups)
            if not groups[0].size:
                break
        first, size, left, right, cap, rows = groups
        # consecutive groups in chunks of about _SPLIT_CHUNK edges
        begin = np.cumsum(size - 1) - (size - 1)
        cut = np.flatnonzero(np.diff(begin // _SPLIT_CHUNK)) + 1
        top, split, mid, sign, ties = (np.concatenate(r) for r in zip(*(
            _split_edges((hi, lo, step),
                         *(g[i:j] for g in (first, size, left, right)),
                         tol[rows[i:j]])
            for i, j in zip(np.append(0, cut), np.append(cut, first.size)))))
        done = top <= 0.0
        rounded = (ties | (top == np.inf) | (step[split] != sign)) & ~done
        if rounded.any():
            rest.append([g[rounded] for g in (first, size, left, right, cap)])
        go = ~(rounded | done)
        when = np.minimum(top[go], cap[go])
        split, mid = split[go], mid[go]
        times[split - 1] = when
        sign = step[split]
        groups = (np.concatenate((first[go], split)),
                  np.concatenate((mid, size[go] - mid)),
                  np.concatenate((left[go], sign)),
                  np.concatenate((sign, right[go])),
                  np.concatenate((when, when)),
                  np.concatenate((rows[go], rows[go])))
        keep = groups[1] > 1
        groups = tuple(g[keep] for g in groups)
    return [np.concatenate(g) for g in zip(*rest)]


def _split_edges(data, first, size, left, right, bound):
    """Where each group splits: its largest t, the site right of its first
    edge of largest t, that edge's m and sign(A), and whether a second
    edge comes within rounding of that t, given bound, the bound on the
    rounding of the group's A.

    A group of sites a..b has across its boundary edges the duals
    lambda s_L and lambda s_R, s_L = sign(y_a - y_(a-1)) and
    s_R = sign(y_(b+1) - y_b) (0 at a row's end): an unfused edge keeps the
    sign of its data. While the group is fused, its m-th internal edge has
    the dual A + lambda B, with A = m S / |g| - P_m and
    B = s_L (1 - m / |g|) + s_R m / |g|, S the group's sum and P_m that of
    its first m sites, both from the running sums data holds with the
    step signs. As |B| <= 1 the edge keeps |A + lambda B| <= lambda exactly
    for lambda >= t = |A| / d, d = 1 - sign(A) B.
    """
    hi, lo, step = data
    count = size - 1
    start = np.cumsum(count) - count
    # every internal edge m = 1..|g|-1 of every group, group by group,
    # named by the site on its right
    m = np.arange(start[-1] + count[-1]) - np.repeat(start - 1, count)
    width = np.repeat(size, count)
    base = np.repeat(first, count)
    site = base + m
    # u = m / |g| and v = 1 - u, each good to its last bit
    u = m / width
    v = 1.0 - u
    # A = u S - P_m on a group's left half and, with terms as small,
    # (S - P_m) - v S on its right half, where u - 1 = -v exactly
    far = u > 0.5
    base += far * width
    end = first + size
    a = (u - far) * np.repeat((hi[end] - hi[first]) + (lo[end] - lo[first]),
                              count)
    a -= (hi[site] - hi[base]) + (lo[site] - lo[base])
    # an edge inside a run gets A = 0, so t = 0: it never splits
    a *= np.abs(step[site])
    s = np.sign(a)
    a = np.abs(a)
    d = (1.0 - s * np.repeat(left, count)) * v
    d += (1.0 - s * np.repeat(right, count)) * u
    # t, and t plus the bound on its rounding, (bound + 4 eps |A|) / d
    with np.errstate(divide="ignore", invalid="ignore"):
        t = a / d
        a *= 1.0 + 4.0 * np.finfo(float).eps
        a += np.repeat(bound, count)
        a /= d
        top = np.maximum.reduceat(t, start)
        hit = np.flatnonzero(t == np.repeat(top, count))
        edge = hit[np.concatenate(([True], np.diff(site[hit] - m[hit]) != 0))]
        ties = np.add.reduceat(a >= np.repeat(2.0 * top - a[edge], count),
                               start) > 1
    return top, site[edge], m[edge], s[edge], ties


def _heap_tail(v, times, starts, sizes, s_left, s_right, caps):
    """The merge pass over each segment of the flat data v, sites
    starts[j]..starts[j] + sizes[j] - 1, whose outer edges keep the duals
    lambda s_left[j] and lambda s_right[j] of ``_split_levels``: writes the
    fusion time of each of a segment's edges, at most caps[j], into times
    at the edge's left site.

    A group g of neighbouring sites sharing one fitted value has, between
    merges, the value (S_g - lambda (s_L + s_R)) / |g|: S_g is its data sum
    and s_L, s_R are the signs of its value minus its neighbours' (0 at a
    row's end; a segment's first group has the left given, its last the
    opposite of the right given). So the pass is a sequence of merges of
    neighbouring groups. Each segment's heap holds the lambda at which each
    of its neighbouring pairs meets, stamped with both groups' sizes, which
    change exactly when a group absorbs its right neighbour (an absorbed
    group's becomes 0). A meeting time computed after a merge can undercut
    the merge's own by rounding; recording the running maximum keeps the
    edges fused at any lambda exactly the merges the pass had made by then.
    """
    if not starts.size:
        return
    # the segments' sites, one segment after another
    head = np.cumsum(sizes) - sizes
    site = np.arange(sizes.sum()) + np.repeat(starts - head, sizes)
    y = v[site]
    n = y.size
    # a group is indexed by its first site; runs of equal data start fused
    new = np.zeros(n, dtype=bool)
    new[head] = True
    fresh = np.concatenate(([True], y[1:] != y[:-1])) | new
    group = np.flatnonzero(fresh)
    count = np.diff(np.append(group, n))
    pair = np.flatnonzero(~new[group[1:]])    # groups pair, pair + 1
    lo, hi = group[pair], group[pair + 1]
    side = np.sign(y[lo] - y[hi])
    gl, gr = np.zeros(group.size), np.zeros(group.size)
    gr[pair] = side
    gl[pair + 1] = -side
    ends = np.searchsorted(group, head)
    gl[ends] = s_left
    gr[np.append(ends[1:], group.size) - 1] = -s_right
    # the initial meeting times, computed as push does, all at once
    slope = (gr + gl) / count
    d = slope[pair] - slope[pair + 1]
    meets = d != 0.0
    heaps = list(zip(((y[lo] - y[hi])[meets] / d[meets]).tolist(),
                     lo[meets].tolist(), hi[meets].tolist(),
                     count[pair][meets].tolist(),
                     count[pair + 1][meets].tolist()))
    cut = np.searchsorted(lo[meets], head).tolist() + [len(heaps)]
    size, left, right, prev = (np.zeros(n, dtype=int) for _ in range(4))
    level = np.zeros(n)
    size[group] = count
    level[group] = y[group]
    left[group] = gl
    right[group] = gr
    prev[hi] = lo
    size, level, left, right, prev = (a.tolist() for a in (
        size, level, left, right, prev))
    out = np.where(y[1:] == y[:-1], 0.0, np.inf).tolist()
    heap = []

    def push(g, h):
        # neighbouring slopes have opposite signs or are both 0, so d is 0
        # exactly when the pair moves in parallel and never meets
        d = (left[g] + right[g]) / size[g] - (left[h] + right[h]) / size[h]
        if d != 0.0:
            heapq.heappush(heap, ((level[g] - level[h]) / d, g, h,
                                  size[g], size[h]))

    pop = heapq.heappop
    for j, start in enumerate(head.tolist()):
        heap = heaps[cut[j]:cut[j + 1]]
        heapq.heapify(heap)
        stop = start + int(sizes[j])
        top = 0.0
        while heap:
            t, g, h, sg, sh = pop(heap)
            if t > top:
                top = t
            if size[g] != sg or size[h] != sh:
                continue
            out[h - 1] = top
            k = size[g] + size[h]
            level[g] = (level[g] * size[g] + level[h] * size[h]) / k
            size[g] = k
            right[g] = right[h]
            size[h] = 0
            if g != start:
                push(prev[g], g)
            if g + k < stop:
                prev[g + k] = g
                push(g, g + k)
    inner = np.flatnonzero(~new[1:])
    times[site[inner]] = np.minimum(np.array(out)[inner],
                                    np.repeat(caps, sizes)[inner])


def _certified_fit(y: Signal, lam: float, f: np.ndarray, w: np.ndarray,
                   rounds: int = 0) -> TvSolution:
    """``_certified`` on the one fit f of y at lam, with its dual w."""
    w = _certified(y, np.array([lam], dtype=float), f[None], w[None])
    return TvSolution(Signal(y.shape, f), lam, w[0], rounds)


class FusionPath:
    """Every exact TV fit on a path lattice, from one pass over the fusion
    path.

    The pass (``_fusion_times``) records each edge's fusion time by levels
    of vectorized top-down splits, every open group of every signal at
    once, and leaves to one heap tail, which merges upwards, the groups
    whose split rounding could decide, the rows past their budget of
    evaluations and the blocks too small for the levels to pay. Each time
    is clipped at Lambda (kept as ``lam_max``), the closed form of
    ``sample_lambda``: the last merge is at Lambda exactly, but the pass
    can pass it by a few ulps, and the fit at Lambda is the mean. ``block``
    runs one pass over many signals of one lattice, one path per signal,
    and ``FusionPath(y)`` is its one-row case. The fit at any lambda >= 0
    is then written from the times alone. The edges fusing after lambda
    split the sites into groups, and a group g takes the value
    b + (sum_g (y - b) - lambda (s_L + s_R)) / |g|, b its first datum:
    across an unfused edge the sign of the fit's difference is that of the
    data's, fixed at lambda = 0. Within a group the fit's differences are
    exactly 0, and the dual at an edge is the running sum of f - y up to
    it.

    One kernel writes the fits at many lambda at once, as the rows of a
    block: ``blocks`` splits a grid into blocks of at most _BLOCK values,
    and ``solve`` is the one-row case. Each row is written and certified
    bit for bit as it would be alone, so the fits do not depend on _BLOCK.
    """

    def __init__(self, y: Signal):
        _check_path(y)
        self._adopt(y, _fusion_times(y.values[None])[0])

    @classmethod
    def block(cls, ys) -> list[FusionPath]:
        """One path per signal of ys, all on one path lattice, from one
        pass over their values as the rows of a block. A row's times are
        the same bits in every block of at least _SPLIT_MIN sites, and
        within 1e-12 Lambda of those of smaller blocks."""
        ys = list(ys)
        for y in ys:
            _check_path(y)
        if len({y.shape for y in ys}) > 1:
            raise ValueError("a block's signals must share one lattice")
        if not ys:
            return []
        times = _fusion_times(np.stack([y.values for y in ys]))
        paths = [cls.__new__(cls) for _ in ys]
        for path, y, row in zip(paths, ys, times):
            path._adopt(y, row)
        return paths

    def _adopt(self, y: Signal, times: np.ndarray):
        self.y = y
        self.lam_max = sample_lambda(y)[0]
        self.times = np.minimum(times, self.lam_max)
        # sign(y[i-1] - y[i]) at each site i, 0 at the first: s_L of a
        # group that starts at i, gathered by every write
        v = y.values
        self._step = np.append(0.0, np.sign(v[:-1] - v[1:]))

    def solve(self, lam: float) -> TvSolution:
        """The certified exact fit at lam >= 0."""
        check_lambda(lam)
        _, f, w = self._write(np.array([lam], dtype=float))
        return TvSolution(Signal(self.y.shape, f[0]), lam, w[0], 0)

    def blocks(self, lams):
        """The certified exact fits over a grid as ``check_grid`` takes it,
        in grid order: an iterator of (lams, fits, duals), one per block of
        consecutive values, row i of the fits and duals at lams[i]. The
        grid is checked at once, each block written when it is drawn."""
        lams = check_grid(lams)
        rows = max(1, _BLOCK // self.y.shape.n_sites)
        return map(self._write, [lams[i:i + rows]
                                 for i in range(0, lams.size, rows)])

    def _write(self, lams: np.ndarray):
        """(lams, fits, duals): the fits at lams as the rows of one block,
        their groups numbered across the rows in flat order (every row
        starts one), with their duals from ``_certified``."""
        v = self.y.values
        k, n = lams.size, v.size
        # a group starts at each row's first site and after each edge
        # fusing after that row's lambda
        first = np.ones((k, n), dtype=bool)
        np.greater(self.times, lams[:, None], out=first[:, 1:])
        start = np.flatnonzero(first)
        # each group's row and column; one row needs no division
        row = start // n if k > 1 else 0
        col = start - n * row
        size = np.diff(np.append(start, k * n))
        base = v[col]
        x = np.repeat(base, size).reshape(k, n)
        excess = np.add.reduceat(np.subtract(v, x, out=x).ravel(), start)
        # s_R is the next group's s_L, and 0 at a row's end
        left = self._step[col]
        excess -= lams[row] * (np.append(left[1:], 0.0) - left)
        f = np.repeat(base + excess / size, size).reshape(k, n)
        # x's memory, fresh at large n, is reused for the running sums
        w = np.cumsum(np.subtract(f, v, out=x), axis=1, out=x)
        return lams, f, _certified(self.y, lams, f, w[:, :-1])


def _check_path(y: Signal) -> None:
    if not y.shape.is_path:
        raise ValueError("FusionPath requires a path lattice")


def tv_denoise_1d(y: Signal, lam: float) -> TvSolution:
    """Exact TV minimizer on a path lattice at one lambda >= 0, written from
    one ``FusionPath`` pass; the estimate keeps the input's shape."""
    if not y.shape.is_path:
        raise ValueError("tv_denoise_1d requires a path lattice")
    return tv_denoise(y, lam)


def tv_denoise_grid(y: Signal, lambdas) -> list[TvSolution]:
    """Exact TV minimizers on any lattice over an ascending grid of
    lambda >= 0, in grid order.

    A path lattice takes every fit from one ``FusionPath``, written in row
    blocks of at most _BLOCK values, each row the bytes ``tv_denoise``
    writes at that value. On other lattices pieces can split as lambda
    grows, so there is no path to follow: the grid is cut into contiguous
    chains of _CHAIN values; each chain is solved by one
    ``CutSolver`` from its largest value down, every solve started from the
    dual of the one before: that saves routing, and the fits are those of
    cold solves up to the rounding of the flows. The chains are the tasks of
    one ``parallel_map``, run by the caller and forked workers (TVDN_THREADS
    processes in all), highest values first, as solves grow costlier with
    lambda over most of a default grid; their layout depends only on the
    grid, so the fits and their duals do not depend on the process count.
    """
    lams = check_grid(lambdas)
    if y.shape.is_path:
        return [TvSolution(Signal(y.shape, fi), lam, wi, 0)
                for part, f, w in FusionPath(y).blocks(lams)
                for fi, lam, wi in zip(f, part.tolist(), w)]
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
    """Exact TV minimizer on a lattice of any dimension at one lambda >= 0,
    from ``tv_solver(y)``; ``tv_denoise_grid`` solves a whole grid.
    ``iterations`` counts a cut solve's batched rounds. cfg is accepted for
    compatibility and not read. Every fit returns through ``_certified``,
    which raises RuntimeError rather than return a fit it cannot certify.
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
        """The certified exact fit at lam >= 0."""
        check_lambda(lam)
        y, net = self.y, self.net
        shape = y.shape
        sizes = shape.sizes
        yv = y.values
        p = shape.n_edges
        if lam == 0.0 or np.ptp(yv) == 0.0:
            return _certified_fit(y, lam, yv.copy(), np.zeros(p))
        near, far = net.near, net.far
        scale = float(np.abs(yv).max())
        label = np.zeros(shape.n_sites, dtype=np.intp)
        # +-lam across regions, flow inside
        w = np.zeros(p) if start is None else np.clip(start, -lam, lam)
        last = np.array([np.inf])        # leftover demand when last routed
        rounds = 0
        while True:
            n = last.size
            jump = label[near] != label[far]     # edges between regions
            count = np.bincount(label, minlength=n)
            shifted = yv - adjoint_flat(np.where(jump, w, 0.0), sizes)
            f = (np.bincount(label, shifted, n) / count)[label]
            rest = yv - f - adjoint_flat(w, sizes)
            left = np.zeros(n)
            np.maximum.at(left, label, np.abs(rest))
            # a final region is never routed or split again, so it stays final
            done = (left <= _RESIDUAL_TOL * scale) | (left > 0.5 * last)
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
            w[cut] = np.where(high[far[cut]], lam, -lam)
            last[split] = np.inf
            last = np.concatenate([last, np.full(k, np.inf)])
        return _certified_fit(y, lam, f, w, rounds)


def lambda_max(y: Signal) -> float:
    """Smallest lambda at which the TV estimate collapses to the mean."""
    lam, _ = sample_lambda(y)
    return lam
