"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch against the problem
definitions (dense matrices, exhaustive enumeration, generic LP/QP solvers,
breadth-first search) rather than reusing package internals, so agreement
between package and oracle is meaningful evidence.
"""
import numpy as np
import scipy.sparse as sp
from itertools import product
from scipy.linalg import null_space
from scipy.optimize import linprog, lsq_linear


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


def tv_oracle_patterns(y, lam, sizes):
    """Exhaustive minimizer over all active-edge sign patterns (tiny inputs)."""
    y = np.asarray(y, dtype=float)
    m = len(y)
    edges = oracle_edge_list(sizes)
    n_edges = len(edges)
    best = None
    best_obj = np.inf
    for pat in product((-1, 0, 1), repeat=n_edges):
        pat = np.array(pat)
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e, (i, j) in enumerate(edges):
            if pat[e] == 0:
                parent[find(i)] = find(j)
        comp = np.array([find(i) for i in range(m)])
        labels = {c: k for k, c in enumerate(dict.fromkeys(comp))}
        comp = np.array([labels[c] for c in comp])
        k = comp.max() + 1
        csize = np.bincount(comp, minlength=k).astype(float)
        means = np.bincount(comp, weights=y, minlength=k) / csize
        flow = np.zeros(k)
        for e, (i, j) in enumerate(edges):
            if pat[e] != 0:
                flow[comp[i]] += -lam * pat[e]
                flow[comp[j]] += lam * pat[e]
        f = (means - flow / csize)[comp]
        z = oracle_diff(f, sizes)
        if any(pat[e] != 0 and z[e] * pat[e] < -1e-12 for e in range(n_edges)):
            continue
        obj = tv_objective(y, f, lam, sizes)
        if obj < best_obj - 1e-15:
            best_obj = obj
            best = f
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
