"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch against the problem
definitions (dense matrices, exhaustive enumeration, generic LP/QP solvers,
breadth-first search, a published direct 1D algorithm) rather than reusing
package internals, so agreement between package and oracle is meaningful
evidence. The exceptions are the references kept from earlier package
passes (``fusion_times_heap`` and ``cut_solve_two_way``), against which a
faster rule that must give the same results is checked.
"""
import heapq

import numpy as np
import scipy.sparse as sp
from functools import lru_cache
from itertools import product
from scipy.linalg import null_space
from scipy.optimize import linprog, lsq_linear

from tvdn.cuts import CutNetwork
from tvdn.grid import Signal, adjoint_flat
from tvdn.tvsolve import _RESIDUAL_TOL, TvSolution, _certified, check_lambda


def oracle_diff(x, sizes):
    arr = np.asarray(x, dtype=float).reshape(sizes)
    parts = [np.diff(arr, axis=ax).ravel() for ax in reversed(range(len(sizes)))]
    return np.concatenate(parts) if parts else np.zeros(0)


def oracle_edge_count(sizes):
    m = int(np.prod(sizes))
    return sum((n - 1) * (m // n) for n in sizes)


def oracle_dense_b(sizes):
    m = int(np.prod(sizes))
    eye = np.eye(m)
    return np.array([oracle_diff(eye[:, j], sizes) for j in range(m)]).T


def oracle_laplacian_pinv(rhs, sizes):
    """The minimum-norm solution of B^T B x = rhs: the dense pseudo-inverse
    of the lattice Laplacian applied to rhs."""
    b = oracle_dense_b(sizes)
    return np.linalg.pinv(b.T @ b) @ np.asarray(rhs, dtype=float)


def oracle_edge_list(sizes):
    d = len(sizes)
    idx = np.arange(int(np.prod(sizes))).reshape(sizes)
    pairs = []
    for ax in reversed(range(d)):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax] = slice(0, sizes[ax] - 1)
        hi[ax] = slice(1, sizes[ax])
        pairs.append(np.stack([idx[tuple(lo)].ravel(),
                               idx[tuple(hi)].ravel()], axis=1))
    return np.concatenate(pairs, axis=0)


def tv_objective(y, f, lam, sizes):
    return 0.5 * np.sum((np.asarray(y) - f) ** 2) \
        + lam * np.abs(oracle_diff(f, sizes)).sum()


def tv_oracle_boxqp(y, lam, sizes, tol=1e-8):
    """TV minimizer through the dual box-constrained least squares problem.

    The fit f = y - B^T x is returned only with its own certificate: the
    dual x, clipped to the box |x| <= lam, has the duality gap
    lam ||B f||_1 - <B f, x> (which bounds ||f - f*||^2 / 2) of at most
    tol * (1 + objective). A solve that stops short of it raises instead;
    bvls at its default iteration cap left fits up to a few percent above
    the minimum objective.
    """
    y = np.asarray(y, dtype=float)
    if oracle_edge_count(sizes) == 0 or lam == 0:
        return y.copy()
    bt = oracle_dense_b(sizes).T
    res = lsq_linear(bt, y, bounds=(-lam, lam), method="bvls", tol=1e-14,
                     max_iter=50 * bt.shape[1])
    # bvls can step past a bound by an ulp
    x = np.clip(res.x, -lam, lam)
    f = y - bt @ x
    z = oracle_diff(f, sizes)
    gap = lam * np.abs(z).sum() - z @ x
    if not (res.success
            and gap <= tol * (1.0 + tv_objective(y, f, lam, sizes))):
        raise RuntimeError("box QP oracle did not certify its fit (status %d, "
                           "gap %.3g)" % (res.status, gap))
    return f


def tv_oracle_direct_1d(y, lam):
    """1D TV minimizer by the direct taut-string pass of Condat, "A direct
    algorithm for 1-D total variation denoising", IEEE SPL 20(11), 2013.

    One left-to-right sweep keeps the lower and upper bounds a segment's
    value can take and the running dual at both bounds, and writes a
    segment as one constant once the next datum leaves its tube, so
    within-segment differences are exactly zero. It shares no code or
    idea with the fusion path (a heap of merge times), which makes it an
    independent reference at any n.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if lam == 0.0 or n == 1 or np.ptp(y) == 0.0:
        return y.copy()
    x = np.empty(n)
    k = k0 = km = kp = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0.0:
                x[k0:km + 1] = vmin
                k = k0 = km = km + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
            elif umax > 0.0:
                x[k0:kp + 1] = vmax
                k = k0 = kp = kp + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x
            if k == n - 1:
                x[k] = vmin + umin
                return x
        if y[k + 1] + umin < vmin - lam:
            x[k0:km + 1] = vmin
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:
            x[k0:kp + 1] = vmax
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                km = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kp = k


@lru_cache(maxsize=None)
def _sign_patterns(sizes):
    """Every active-edge sign pattern of a lattice with its components,
    which depend on neither y nor lambda: the patterns (P, edges), the
    membership (P, m, m), 1 where site i lies in component c, and the jump
    flow per unit lambda into each component (P, m)."""
    m = int(np.prod(sizes))
    edges = oracle_edge_list(sizes)
    pats = np.array(list(product((-1, 0, 1), repeat=len(edges))))
    member = np.zeros((len(pats), m, m))
    flow = np.zeros((len(pats), m))
    for p, pat in enumerate(pats):
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e, (i, j) in enumerate(edges):
            if pat[e] == 0:
                parent[find(i)] = find(j)
        roots = [find(i) for i in range(m)]
        labels = {c: k for k, c in enumerate(dict.fromkeys(roots))}
        comp = np.array([labels[c] for c in roots])
        member[p, np.arange(m), comp] = 1.0
        for e, (i, j) in enumerate(edges):
            flow[p, comp[i]] -= pat[e]
            flow[p, comp[j]] += pat[e]
    return pats, member, flow


def tv_oracle_patterns(y, lam, sizes):
    """Exhaustive minimizer over all active-edge sign patterns (tiny inputs).

    Each pattern fuses the sites across its inactive edges and fixes the
    dual at lam times its sign on the active ones, which gives one
    candidate fit; a candidate whose differences contradict its signs is
    dropped, and the first candidate of least objective (ties within 1e-15
    keep the earlier pattern) is returned. All patterns are evaluated at
    once.
    """
    y = np.asarray(y, dtype=float)
    pats, member, flow = _sign_patterns(tuple(sizes))
    size = np.maximum(member.sum(axis=1), 1.0)
    level = np.einsum("i,pic->pc", y, member) / size - lam * flow / size
    f = np.einsum("pic,pc->pi", member, level)
    z = f @ oracle_dense_b(sizes).T
    feasible = ~np.any((pats != 0) & (z * pats < -1e-12), axis=1)
    obj = 0.5 * np.sum((y - f) ** 2, axis=1) + lam * np.abs(z).sum(axis=1)
    best = None
    best_obj = np.inf
    for p in np.flatnonzero(feasible):
        if obj[p] < best_obj - 1e-15:
            best_obj = obj[p]
            best = f[p]
    return best


def lambda_oracle_gridsearch(y, sizes, refine=8):
    """Minimum dual sup-norm by refined grid search over the null space."""
    y = np.asarray(y, dtype=float)
    c = y - y.mean()
    b = oracle_dense_b(sizes)
    kern = null_space(b.T)
    w0 = np.linalg.lstsq(b.T, c, rcond=None)[0]
    k = kern.shape[1]
    lo = -3 * np.abs(w0).max() * np.ones(k)
    hi = 3 * np.abs(w0).max() * np.ones(k)
    best = None
    for _ in range(refine):
        grids = [np.linspace(lo[i], hi[i], 21) for i in range(k)]
        mesh = np.meshgrid(*grids, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        vals = np.abs(w0[None, :] + pts @ kern.T).max(axis=1)
        j = np.argmin(vals)
        best = vals[j]
        width = (hi - lo) / 10.0
        lo = pts[j] - width
        hi = pts[j] + width
    return float(best)


def lambda_oracle_lp(y, sizes):
    """Minimum dual sup-norm as a linear program."""
    y = np.asarray(y, dtype=float)
    c = y - y.mean()
    m = len(y)
    p = oracle_edge_count(sizes)
    b = sp.csr_matrix(oracle_dense_b(sizes))
    a_eq = sp.hstack([b.T, sp.csr_matrix((m, 1))])
    a_ub = sp.vstack([
        sp.hstack([sp.eye(p), -sp.csr_matrix(np.ones((p, 1)))]),
        sp.hstack([-sp.eye(p), -sp.csr_matrix(np.ones((p, 1)))]),
    ])
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * p), A_eq=a_eq, b_eq=c,
                  bounds=[(None, None)] * p + [(0, None)], method="highs")
    return float(res.fun)


def ncc_floodfill(values, sizes, quantization):
    """Connected components by breadth-first search on the lattice."""
    values = np.asarray(values, dtype=float)
    m = values.size
    neighbors = [[] for _ in range(m)]
    for i, j in oracle_edge_list(sizes):
        if abs(values[i] - values[j]) <= quantization:
            neighbors[i].append(j)
            neighbors[j].append(i)
    seen = np.zeros(m, dtype=bool)
    count = 0
    for start in range(m):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    return count


def fusion_times_heap(y):
    """The reference heap pass, as the package wrote it before fusion times
    were computed by top-down splits: the lambda at which each edge of the
    1D signal y fuses, by one pass over the whole fusion path: 0 inside
    runs of equal data, finite for every edge, since the pass ends with one
    group.

    A group g of neighbouring sites sharing one fitted value has, between
    merges, the value (S_g - lambda (s_L + s_R)) / |g|: S_g is its data sum
    and s_L, s_R are the signs of its value minus its neighbours' (0 at an
    end). In 1D groups only merge as lambda grows (Friedman et al. 2007;
    Hoefling 2010), so the path is a sequence of merges of neighbouring
    groups. A heap holds the lambda at which each neighbouring pair meets,
    stamped with both groups' sizes, which change exactly when a group
    absorbs its right neighbour (an absorbed group's becomes 0).
    """
    n = y.size
    # a group is indexed by its first site; runs of equal data start fused
    first = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    times = np.where(y[1:] == y[:-1], 0.0, np.inf).tolist()
    lo, hi = first[:-1], first[1:]      # the initial neighbouring pairs
    count = np.diff(np.append(first, n))
    side = np.sign(y[lo] - y[hi])
    size = [0] * n
    level = [0.0] * n       # S_g / |g|
    left = [0] * n          # s_L
    right = [0] * n         # s_R
    prev = [0] * n          # first site of the left neighbour
    for g, k in zip(first.tolist(), count.tolist()):
        size[g] = k
        level[g] = float(y[g])
    for g, h, s in zip(lo.tolist(), hi.tolist(), side.astype(int).tolist()):
        right[g] = s
        left[h] = -s
        prev[h] = g
    # the initial meeting times, computed as push does, all at once
    slope = (np.append(side, 0.0) - np.append(0.0, side)) / count
    d = slope[:-1] - slope[1:]
    meets = d != 0.0
    heap = list(zip(((y[lo] - y[hi])[meets] / d[meets]).tolist(),
                    lo[meets].tolist(), hi[meets].tolist(),
                    count[:-1][meets].tolist(), count[1:][meets].tolist()))
    heapq.heapify(heap)

    def push(g, h):
        # neighbouring slopes have opposite signs or are both 0, so d is 0
        # exactly when the pair moves in parallel and never meets
        d = (left[g] + right[g]) / size[g] - (left[h] + right[h]) / size[h]
        if d != 0.0:
            heapq.heappush(heap, ((level[g] - level[h]) / d, g, h,
                                  size[g], size[h]))

    # a meeting time computed after a merge can undercut the merge's own by
    # rounding; recording the running maximum keeps the edges fused at any
    # lambda exactly the merges the pass had made by then
    top = 0.0
    pop = heapq.heappop
    while heap:
        t, g, h, sg, sh = pop(heap)
        if t > top:
            top = t
        if size[g] != sg or size[h] != sh:
            continue
        times[h - 1] = top
        k = size[g] + size[h]
        level[g] = (level[g] * size[g] + level[h] * size[h]) / k
        size[g] = k
        right[g] = right[h]
        size[h] = 0
        if left[g]:
            push(prev[g], g)
        if g + k < n:
            prev[g + k] = g
            push(g, g + k)
    return np.array(times)


def _certified_fit(y, lam, f, w, rounds=0):
    """The ``TvSolution`` of the one fit f of y at lam with its dual w,
    through the package's certificate check ``_certified``."""
    w = _certified(y, np.array([lam], dtype=float), f[None], w[None])
    return TvSolution(Signal(y.shape, f), lam, w[0], rounds)


def cut_solve_two_way(y, lam, start=None):
    """The reference cut solve, as the package wrote it before a split
    region was relabelled by its connected components: ``CutSolver._fit``,
    certified, on the signal y at lam from the edge dual start (clipped to
    +-lam; None for a cold start), where a blocked region splits into
    exactly two parts, the sink side T of its minimum cut (higher) and the
    rest (lower), connected or not. It routes on the
    package's ``CutNetwork`` and returns through its certificate check, as
    the solver it is compared with does; only the splitting rule differs.
    """
    check_lambda(lam)
    net = CutNetwork(y.shape)
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
