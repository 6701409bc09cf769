import numpy as np

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
