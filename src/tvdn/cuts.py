"""Flow routing and minimum cuts on lattice graphs.

One s-t network layout serves both exact lattice computations: the
Dinkelbach rounds of the statistic Lambda and the minimum-cut rounds of
the TV solve with its dual certificate. Both ask the same question: can site
demands be routed through edge capacities, and if not, which site set
blocks them? Flows come from scipy's ``maximum_flow`` (Dinic) in integer
units.

This is the one module that loads scipy.sparse and its csgraph when it is
imported. Nothing imports it at package import: ``tvsolve.CutSolver`` and
the lattice branch of ``lambda_stat.sample_lambda`` import it when they
first run, so a path-lattice run never loads it.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .grid import LatticeShape, edge_endpoints

# maximum_flow works in int32 and its residual arcs reach twice a capacity,
# so every integer capacity stays at or below 2^_CAP_BITS
_CAP_BITS = 29


class CutNetwork:
    """The lattice as an s-t network for scipy's maximum_flow.

    Sites are nodes 0..m-1, the source is m and the sink m+1. Every lattice
    edge is an arc in both directions, the source feeds every site and every
    site drains into the sink. The reverses of the terminal arcs are present
    with capacity 0, so the arc set is closed under reversal: maximum_flow
    adds no arcs of its own, and the flow matrix it returns has the same
    CSR layout as the capacities. Sites and edges a route does not use get
    capacity 0.
    """

    def __init__(self, shape: LatticeShape):
        m = shape.n_sites
        near, far = edge_endpoints(shape)
        sites = np.arange(m)
        src = np.full(m, m)
        snk = np.full(m, m + 1)
        rows = np.concatenate([near, far, src, sites, sites, snk])
        cols = np.concatenate([far, near, sites, src, snk, sites])
        tagged = sp.csr_matrix((np.arange(1, rows.size + 1), (rows, cols)),
                               shape=(m + 2, m + 2))
        self.m = m
        self.p = near.size
        self.near = near
        self.far = far
        self._arc_of_slot = tagged.data - 1
        self._edge_slots = np.argsort(self._arc_of_slot)[:near.size]
        self._indices = tagged.indices
        self._indptr = tagged.indptr

    def boundary(self, inside: np.ndarray) -> int:
        """Number of lattice edges leaving a site set."""
        return int(np.count_nonzero(inside[self.near] != inside[self.far]))

    def route(self, demand, up, down, groups=None):
        """Route site demands through edge capacities, in integer units.

        demand[i] > 0 is absorbed at site i, demand[i] < 0 is supplied there;
        up and down cap the flow along and against each edge's direction.
        ``groups`` labels the sites (default: one group); a site labelled
        -1 takes no part, and only edges inside one group carry flow, so the
        groups are independent networks that share one maximum_flow call.
        Each group's demands must sum to zero.

        Every group is scaled by its own power of two so that its largest
        capacity fits under 2^_CAP_BITS; demands are rounded, the rounding
        surplus of a group is taken off its last site so the group stays
        balanced, and edge capacities are rounded down. No edge needs more
        than its group's total demand, so edge capacities are clipped to it
        first, which keeps a small remainder at a fine unit.

        Returns the edge flow (exact multiples of each group's unit) and,
        when some group cannot route all of its rounded demand, the sites on
        the sink side of a minimum cut (every routed group lies wholly on
        it); otherwise None.
        """
        m, p = self.m, self.p
        if groups is None:
            groups = np.zeros(m, dtype=np.intp)
        sites = groups >= 0
        g_near = groups[self.near]
        edges = (g_near >= 0) & (g_near == groups[self.far])
        n_groups = int(groups.max(initial=-1)) + 1
        gs = groups[sites]
        ds = demand[sites]
        total = np.bincount(gs, np.maximum(ds, 0.0), n_groups)
        total = np.maximum(total, np.bincount(gs, np.maximum(-ds, 0.0), n_groups))
        g_edge = g_near[edges]
        up = np.clip(up[edges], 0.0, total[g_edge])
        down = np.clip(down[edges], 0.0, total[g_edge])
        top = np.zeros(n_groups)
        np.maximum.at(top, gs, np.abs(ds))
        np.maximum.at(top, g_edge, np.maximum(up, down))
        # scale each group by 2^k, the largest with top 2^k <= 2^_CAP_BITS:
        # top = mant 2^e, mant in [0.5, 1), exact even where 2^k overflows
        mant, e = np.frexp(np.where(top > 0, top, 1.0))
        k = _CAP_BITS - e + (mant == 0.5)
        k_edge = k[g_edge]
        net = np.rint(np.ldexp(ds, k[gs])).astype(np.int64)
        surplus = np.bincount(gs, net, n_groups).astype(np.int64)
        last = np.full(n_groups, -1)
        np.maximum.at(last, gs, np.arange(gs.size))
        net[last[last >= 0]] -= surplus[last >= 0]

        zero = np.zeros(m, dtype=np.int64)
        up_int = np.zeros(p, dtype=np.int64)
        down_int = np.zeros(p, dtype=np.int64)
        up_int[edges] = np.floor(np.ldexp(up, k_edge)).astype(np.int64)
        down_int[edges] = np.floor(np.ldexp(down, k_edge)).astype(np.int64)
        supply = zero.copy()
        absorb = zero.copy()
        supply[sites] = np.maximum(-net, 0)
        absorb[sites] = np.maximum(net, 0)
        caps = np.concatenate([up_int, down_int, supply, zero, absorb,
                               zero])[self._arc_of_slot]
        graph = sp.csr_matrix((caps.astype(np.int32), self._indices, self._indptr),
                              shape=(m + 2, m + 2))
        result = maximum_flow(graph, m, m + 1, method="dinic")
        if result.flow.nnz != caps.size:
            raise RuntimeError("maximum_flow returned a different arc layout")
        fdata = result.flow.data.astype(np.int64)
        w = np.zeros(p)
        w[edges] = np.ldexp(fdata[self._edge_slots[edges]], -k_edge)
        if result.flow_value >= int(supply.sum()):
            return w, None
        # the residual arcs on the network's own layout; copy=True because
        # eliminate_zeros rewrites indices and indptr in place, and the
        # zeros must go because breadth_first_order follows explicit zeros
        residual = sp.csr_matrix(((caps > fdata).astype(np.int8), self._indices,
                                  self._indptr), shape=(m + 2, m + 2), copy=True)
        residual.eliminate_zeros()
        reached = breadth_first_order(residual, m, directed=True,
                                      return_predecessors=False)
        sink_side = sites.copy()
        sink_side[reached[reached < m]] = False
        return w, sink_side
