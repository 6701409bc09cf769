"""Exact TV solvers with dual certificates, on lattices of any dimension.

Every fit is decided here. One solver object serves every lambda asked of
one signal, such as a grid and both adaptive thresholds; ``tv_solver(y)``
picks it. On a path lattice (at most one axis longer than 1, so its sites
form one chain in flat order) groups only merge as lambda grows, so read
from the top they only split, each group independently of every other.
``FusionPath`` records the lambda at which each edge fuses by one pass
over a block of signals (``_fusion_times``): levels of top-down splits,
each over every open group of every signal at once, with the groups that
rounding could split wrongly and the rows that run out of their budget of
evaluations left to one heap tail, which merges upwards. A row's times
are the same bits in whatever block it sits. It then writes the fits at
any lambda >= 0 from those times, many at once as the rows of a block.
On every other lattice ``CutSolver`` builds one ``CutNetwork`` and solves
each lambda by rounds of minimum cuts over the level sets of the fit,
each round over every unfinished region at once; a region its cut splits
falls into the connected components the cut leaves.
Each solver has one row kernel, ``_rows``, which writes the fits, duals
and rounds at a vector of lambda as the rows of one block: a block of a
grid on a path, one warm-started chain on a lattice. Both write an
ascending grid as ``blocks`` of those rows, which a risk curve scores as
it is drawn, and ``solve`` (shared, on ``_Solver``) is the one-value
block's row. ``tv_denoise`` solves one lambda and ``tv_denoise_grid`` a
grid, one ``TvSolution`` per row of the blocks of ``tv_solver(y)``. No
solver iterates to a tolerance: every one writes each piece of the fit as
one constant, and each ``_rows`` returns its block through ``_certified``,
which takes one fit per row and keeps for each a dual edge vector w with
||w||_inf <= lambda whose reconstruction y - B^T w equals the estimate up
to rounding, so the gap a ``TvSolution`` derives from its estimate and
dual,

    gap = lambda * ||B f||_1 - <B f, w>,

is nonnegative by construction and zero at the optimum.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .grid import Signal, adjoint_flat, check_path, components, diff_flat
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
    check, and each solver calls it once per block, from its ``_rows``: on
    a block of grid values on a path, on one chain on a lattice."""
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
    at once. It leaves two cases to ``_heap_tail``, which merges upwards:
    a group whose split rounding could decide (capped at its parent's
    split time), and every open group of a row that has spent its budget
    of _SPLIT_BUDGET evaluations per site. So each row's times are the
    same bits in whatever block it sits, whatever the other rows are, and
    agree with the merge pass's up to rounding (within 1e-12 Lambda on the
    tests' corpus).
    """
    k, n = y.shape
    # edge c of row r, between sites c and c + 1, is entry r * (n + 1) + c:
    # the layout of the running sums, which have one more column than y
    times = np.zeros((k, n + 1))
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
    size, left, right, prev = (np.zeros(n, dtype=int) for _ in range(4))
    level = np.zeros(n)
    size[group] = count
    level[group] = y[group]
    right[lo] = side
    left[hi] = -side
    # segment j's groups are group[cut[j]:cut[j + 1]]
    cut = np.append(np.searchsorted(group, head), group.size)
    left[head] = s_left
    right[group[cut[1:] - 1]] = -s_right
    prev[hi] = lo
    size, level, left, right, prev = (a.tolist() for a in (
        size, level, left, right, prev))
    out = np.where(y[1:] == y[:-1], 0.0, np.inf).tolist()

    def push(g, h):
        # neighbouring slopes have opposite signs or are both 0, so d is 0
        # exactly when the pair moves in parallel and never meets
        d = (left[g] + right[g]) / size[g] - (left[h] + right[h]) / size[h]
        if d != 0.0:
            heapq.heappush(heap, ((level[g] - level[h]) / d, g, h,
                                  size[g], size[h]))

    pop = heapq.heappop
    group, cut = group.tolist(), cut.tolist()
    for start, width, a, b in zip(head.tolist(), sizes.tolist(), cut,
                                  cut[1:]):
        heap = []
        for g, h in itertools.pairwise(group[a:b]):
            push(g, h)
        stop = start + width
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


class _Solver:
    """What both solvers share: ``solve``, the one-value case of the
    solver's own row kernel ``_rows``, which writes the certified fits at
    a vector of lambda as the rows of one block."""

    def solve(self, lam: float) -> TvSolution:
        """The certified exact fit at lam >= 0: row 0 of the one-value
        block ``_rows`` writes."""
        check_lambda(lam)
        _, f, w, r = self._rows(np.array([lam], dtype=float))
        return TvSolution(Signal(self.y.shape, f[0]), lam, w[0], int(r[0]))


class FusionPath(_Solver):
    """Every exact TV fit on a path lattice, from one pass over the fusion
    path.

    The pass (``_fusion_times``) records each edge's fusion time by levels
    of vectorized top-down splits, every open group of every signal at
    once, and leaves to one heap tail, which merges upwards, the groups
    whose split rounding could decide and the rows past their budget of
    evaluations. A signal's times are the same bits in whatever block it
    sits, and within rounding of the merge pass's. Each time is clipped at
    Lambda (kept as ``lam_max``), the closed form of ``sample_lambda``:
    the last merge is at Lambda exactly, but the pass can pass it by a few
    ulps, and the fit at Lambda is the mean. ``block`` runs one pass over
    many signals of one lattice, one path per signal, and ``FusionPath(y)``
    is its one-row case. The fit at any lambda >= 0 is then written from
    the times alone. The edges fusing after lambda split the sites into
    groups, and a group g takes the value
    b + (sum_g (y - b) - lambda (s_L + s_R)) / |g|, b its first datum:
    across an unfused edge the sign of the fit's difference is that of the
    data's, fixed at lambda = 0. Within a group the fit's differences are
    exactly 0, and the dual at an edge is the running sum of f - y up to
    it.

    One kernel, ``_rows``, writes the fits at many lambda at once, as the
    rows of a block: ``blocks`` splits a grid into blocks of at most _BLOCK
    values, and ``solve`` is the one-row case. Each row is written and certified
    bit for bit as it would be alone, so the fits do not depend on _BLOCK.
    """

    def __init__(self, y: Signal):
        check_path(y.shape, "FusionPath")
        self._adopt(y, _fusion_times(y.values[None])[0])

    @classmethod
    def block(cls, ys) -> list[FusionPath]:
        """One path per signal of ys, all on one path lattice, from one
        pass over their values as the rows of a block. A row's times are
        the same bits in any block, so each path is ``FusionPath(y)``'s."""
        ys = list(ys)
        for y in ys:
            check_path(y.shape, "FusionPath")
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

    def blocks(self, lams):
        """The certified exact fits over a grid as ``check_grid`` takes it,
        in grid order: an iterator of (lams, fits, duals, rounds), one
        ``_rows`` block of consecutive values each, row i of each at
        lams[i]; a path write takes no rounds, so they are 0. The grid is checked at once, each block
        written when it is drawn."""
        lams = check_grid(lams)
        rows = max(1, _BLOCK // self.y.shape.n_sites)
        return map(self._rows, [lams[i:i + rows]
                                for i in range(0, lams.size, rows)])

    def _rows(self, lams: np.ndarray):
        """(lams, fits, duals, rounds): the fits at lams as the rows of one
        block, their groups numbered across the rows in flat order (every
        row starts one), with their duals from ``_certified`` and no
        rounds."""
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
        return (lams, f, _certified(self.y, lams, f, w[:, :-1]),
                np.zeros(k, dtype=int))


def tv_denoise_1d(y: Signal, lam: float) -> TvSolution:
    """Exact TV minimizer on a path lattice at one lambda >= 0, written from
    one ``FusionPath`` pass; the estimate keeps the input's shape."""
    check_path(y.shape, "tv_denoise_1d")
    return tv_denoise(y, lam)


def tv_denoise_grid(y: Signal, lambdas) -> list[TvSolution]:
    """Exact TV minimizers on any lattice over an ascending grid of
    lambda >= 0, in grid order: one ``TvSolution`` per row of the blocks
    of ``tv_solver(y).blocks``, each the bytes those blocks hold. The grid
    is checked before the solver is built."""
    lambdas = check_grid(lambdas)
    return [TvSolution(Signal(y.shape, f), lam, w, r)
            for lams, fits, duals, rounds in tv_solver(y).blocks(lambdas)
            for lam, f, w, r in zip(lams.tolist(), fits, duals,
                                    rounds.tolist())]


def tv_solver(y: Signal) -> FusionPath | CutSolver:
    """``FusionPath(y)`` on a path lattice, ``CutSolver(y)`` on any other."""
    return FusionPath(y) if y.shape.is_path else CutSolver(y)


def tv_denoise(y: Signal, lam: float, cfg: SolverConfig | None = None) -> TvSolution:
    """Exact TV minimizer on a lattice of any dimension at one lambda >= 0,
    from ``tv_solver(y)``; ``tv_denoise_grid`` solves a whole grid.
    ``iterations`` counts a cut solve's batched rounds. cfg is accepted for
    compatibility and not read. Every fit returns through ``_certified``,
    which raises RuntimeError rather than return a fit it cannot certify.
    lam is checked before the solver is built.
    """
    check_lambda(lam)
    return tv_solver(y).solve(lam)


class CutSolver(_Solver):
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
    A region that cannot route all of it is split at the sink side T of the
    minimum cut, which is the level set {f >= v} of its fit, once the
    excess of T over its cut capacity is positive in floating point;
    rounding can then never split a region whose data do not ask for it.
    The cut edges take +-lam, T the higher side, and the regions become the
    connected components of the lattice without the edges between regions,
    so every region is connected. T and the rest are in general many
    components; parts that share no edge are independent TV problems, each
    with its own mean, so one round settles them all where a split into
    two parts would take a round per level. The flow of a region stays in
    place for its parts, and each part starts afresh. A region is final
    once its leftover demand is below _RESIDUAL_TOL or stops halving; the
    flows inside the regions are the dual there, so every piece is written
    as one constant and certified by w with ||w||_inf <= lam and
    y - B^T w = f up to _CERTIFIED_TOL.

    The warm start belongs to the chain. ``_rows`` solves a chain of values
    from its largest down, each by ``_fit`` from the dual of the one above:
    clipped to +-lam, it is the first flow of the starting region, and all
    else is a cold start's. That saves flow work per round, and the fits
    are those of cold solves up to the rounding of the integer capacities;
    the dual, the rounds and the rounding-level gap can differ. The chain's
    rows are certified as one block. ``solve`` is a chain of one value, so
    a cold start. The network is built once, for every lambda ``solve`` and
    ``blocks`` are asked; neither keeps state between calls.

    ``blocks`` solves a grid in such chains: there is no path to follow, as
    pieces can split as lambda grows. The grid is cut into contiguous
    chains of _CHAIN values. The chains are the tasks of one
    ``parallel_map``, run by the caller and forked workers (TVDN_THREADS
    processes in all) on this solver's network, highest values first, as
    solves grow costlier with lambda over most of a default grid; their
    layout depends only on the grid, so the fits and their duals do not
    depend on the process count.
    """

    def __init__(self, y: Signal):
        from .cuts import CutNetwork

        self.y = y
        self.net = CutNetwork(y.shape)

    def blocks(self, lams):
        """The certified exact fits over a grid as ``check_grid`` takes it,
        in grid order: an iterator of (lams, fits, duals, rounds), one
        ``_rows`` block per chain, row i of each at lams[i]. The grid is
        checked, and every chain solved, at the call."""
        lams = check_grid(lams)
        chains = [lams[i:i + _CHAIN] for i in range(0, lams.size, _CHAIN)]
        return reversed(parallel_map(self._rows, chains[::-1]))

    def _rows(self, lams: np.ndarray):
        """(lams, fits, duals, rounds) of one chain: ``_fit`` from its
        largest value down, each value started from the dual of the one
        above, and the rows certified as one block."""
        rows, w = [], None
        for lam in lams[::-1].tolist():
            f, w, r = self._fit(lam, w)
            rows.append((f, w, r))
        f, w, r = (np.array(a[::-1]) for a in zip(*rows))
        return lams, f, _certified(self.y, lams, f, w), r

    def _fit(self, lam: float, start):
        """(fit, dual, rounds) at lam >= 0, uncertified, from the edge dual
        start (None for a cold start), clipped to +-lam."""
        y, net = self.y, self.net
        shape = y.shape
        sizes = shape.sizes
        yv = y.values
        p = shape.n_edges
        if lam == 0.0 or np.ptp(yv) == 0.0:
            return yv.copy(), np.zeros(p), 0
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
            if not split.any():
                continue
            cut &= split[label[near]]
            w[cut] = np.where(high[far[cut]], lam, -lam)
            # the regions are the components left once the jumps and the cuts
            # are taken out: every part of a split region is fresh
            n, part = components(shape, ~jump & ~cut)
            old = np.empty(n, dtype=np.intp)
            old[part] = label
            last = np.where(split[old], np.inf, last[old])
            label = part
        return f, w, rounds


def lambda_max(y: Signal) -> float:
    """Smallest lambda at which the TV estimate collapses to the mean."""
    lam, _ = sample_lambda(y)
    return lam
