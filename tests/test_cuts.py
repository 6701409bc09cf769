import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from tvdn.cuts import CutNetwork
from tvdn.grid import LatticeShape, adjoint_flat


def _two_groups(seed, amps):
    # the left and right halves of a 6x8 lattice, with centred demands of
    # very different sizes
    shape = LatticeShape((6, 8))
    groups = np.tile(np.repeat([0, 1], 4), 6)
    rng = np.random.default_rng(seed)
    demand = np.zeros(shape.n_sites)
    for g, amp in enumerate(amps):
        d = amp * rng.normal(size=np.count_nonzero(groups == g))
        demand[groups == g] = d - d.mean()
    return shape, groups, demand


def test_route_groups_are_independent_networks():
    # one maximum_flow call routes both halves, each at its own unit: the
    # tiny demands come out as exact as the large ones, and no flow crosses
    # from one group to the other
    shape, groups, demand = _two_groups(3, (1e3, 1e-9))
    net = CutNetwork(shape)
    cap = np.full(shape.n_edges, 1e9)
    w, blocked = net.route(demand, cap, cap, groups)
    assert blocked is None
    crossing = groups[net.near] != groups[net.far]
    assert crossing.any() and not w[crossing].any()
    rest = demand - adjoint_flat(w, shape.sizes)
    for g in (0, 1):
        inside = groups == g
        assert np.abs(rest[inside]).max() <= 1e-6 * np.abs(demand[inside]).max()
    # a site labelled -1 takes no part
    out = groups.copy()
    out[out == 1] = -1
    w, blocked = net.route(np.where(out >= 0, demand, 0.0), cap, cap, out)
    assert blocked is None and not w[groups[net.near] + groups[net.far] > 0].any()


def test_route_of_zero_demand_on_zero_capacity_is_zero(monkeypatch):
    # nothing to route: each call makes one maximum_flow call on the
    # network's whole arc layout, routes 0 and reports no cut, with or
    # without sites in a group
    import tvdn.cuts
    flows = []

    def recorded(graph, s, t, method):
        result = maximum_flow(graph, s, t, method=method)
        flows.append((graph.nnz, result.flow.nnz, int(result.flow_value)))
        return result

    monkeypatch.setattr(tvdn.cuts, "maximum_flow", recorded)
    shape = LatticeShape((4, 5))
    net = CutNetwork(shape)
    zero = np.zeros(shape.n_edges)
    for groups in (None, np.full(shape.n_sites, -1)):
        w, blocked = net.route(np.zeros(shape.n_sites), zero, zero, groups)
        assert w.tolist() == [0.0] * shape.n_edges and blocked is None
    assert flows == [(142, 142, 0)] * 2


def test_route_reports_the_blocking_cut_of_each_group():
    # the right half cannot route through capacity 1e-12: its sink side is a
    # proper part of it, while the left half is routed and lies wholly on
    # the sink side
    shape, groups, demand = _two_groups(4, (1.0, 1.0))
    net = CutNetwork(shape)
    cap = np.where(groups[net.near] == 1, 1e-12, 1e3)
    w, sink_side = net.route(demand, cap, cap, groups)
    assert sink_side is not None
    assert sink_side[groups == 0].all()
    right = sink_side[groups == 1]
    assert right.any() and not right.all()
    # the sink side is where the unroutable demand is absorbed
    assert demand[(groups == 1) & sink_side].sum() > 0
    assert np.abs(w).max() <= 1e3


def test_route_leaves_its_network_intact(monkeypatch):
    # blocked and routed calls, with and without groups, leave the arc
    # layout bitwise unchanged, and a blocked call's sink side is the set of
    # sites a breadth-first search from the source cannot reach over the
    # open arcs, with the residual graph built from its arc list
    import tvdn.cuts
    flows = []

    def recorded(graph, s, t, method):
        result = maximum_flow(graph, s, t, method=method)
        flows.append((graph.data.copy(), result.flow.data.copy()))
        return result

    monkeypatch.setattr(tvdn.cuts, "maximum_flow", recorded)
    shape, groups, demand = _two_groups(5, (1.0, 1.0))
    net = CutNetwork(shape)
    indices, indptr = net._indices.copy(), net._indptr.copy()
    n = net.m + 2
    tails = np.repeat(np.arange(n), np.diff(indptr))
    wide = np.full(shape.n_edges, 1e3)
    narrow = np.where(groups[net.near] == 1, 1e-12, 1e3)
    seen = set()
    for _ in range(3):
        for cap, g in ((narrow, groups), (wide, groups), (narrow, None),
                       (wide, None)):
            _, sink_side = net.route(demand, cap, cap, g)
            caps, flow = flows[-1]
            assert net._indices.tobytes() == indices.tobytes()
            assert net._indptr.tobytes() == indptr.tobytes()
            seen.add(sink_side is None)
            if sink_side is None:
                continue
            open_ = caps > flow
            residual = sp.coo_matrix((np.ones(np.count_nonzero(open_)),
                                      (tails[open_], indices[open_])),
                                     shape=(n, n)).tocsr()
            reached = breadth_first_order(residual, net.m, directed=True,
                                          return_predecessors=False)
            want = np.ones(net.m, dtype=bool)
            want[reached[reached < net.m]] = False
            assert np.array_equal(sink_side, want)
    assert seen == {True, False}
