import numpy as np
import pytest

from invariants import ALL_SHAPES, check_adjointness
from oracles import oracle_edge_count, oracle_edge_list, oracle_laplacian_pinv
from tvdn.grid import (LatticeShape, Signal, SpectralLaplacian, adjoint_flat,
                       components, diff_flat, edge_endpoints, laplacian_solve)


def test_lattice_shape_counts():
    s = LatticeShape((4, 6))
    assert s.ndim == 2
    assert s.n_sites == 24
    assert s.n_edges == 3 * 6 + 5 * 4


def test_lattice_shape_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LatticeShape((0, 3))
    with pytest.raises(ValueError):
        LatticeShape(())
    # a size that is not integral is refused, not truncated, and so is an
    # infinity, a NaN or a boolean
    for sizes in ((2.9, 3), (3, 0.5), (4, 1.0 + 2.0 ** -40), (np.inf, 3),
                  (3, np.nan), (True, 3), (3, np.True_)):
        with pytest.raises(ValueError, match="positive integers"):
            LatticeShape(sizes)
    assert LatticeShape((64.0, np.int64(3))).sizes == (64, 3)


def test_edge_count_formula_all_small_shapes():
    # enumerated edges match M*(d - sum 1/N_i) on every small shape
    for sizes in ALL_SHAPES:
        shape = LatticeShape(sizes)
        m = shape.n_sites
        d = len(sizes)
        formula = m * (d - sum(1.0 / n for n in sizes))
        assert shape.n_edges == round(formula)
        assert shape.n_edges == oracle_edge_count(sizes)
        assert len(oracle_edge_list(sizes)) == shape.n_edges


def test_is_path_is_the_chain_in_flat_order():
    # a path lattice is a tree whose edge i joins flat sites i and i + 1;
    # every other lattice has a cycle
    shapes = ALL_SHAPES + [(1,), (1, 1), (1, 7), (7, 1), (1, 1, 6), (1, 6, 1),
                           (1, 3, 4), (3, 1, 4)]
    for sizes in shapes:
        shape = LatticeShape(sizes)
        assert shape.is_path == (shape.n_edges == shape.n_sites - 1)
        if shape.is_path:
            m = shape.n_sites
            chain = np.stack([np.arange(m - 1), np.arange(1, m)], axis=1)
            assert np.array_equal(oracle_edge_list(sizes).reshape(-1, 2), chain)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(LatticeShape((3,)), np.zeros(4))
    with pytest.raises(ValueError):
        Signal(LatticeShape((2,)), np.array([1.0, np.nan]))


def test_apply_diff_1d_example():
    assert np.array_equal(diff_flat(np.array([0.0, 2.0, 2.0]), (3,)), [2.0, 0.0])


def test_apply_diff_constant_is_bitwise_zero():
    for sizes in [(5,), (3, 4), (2, 3, 2)]:
        d = diff_flat(np.full(int(np.prod(sizes)), 3.7), sizes)
        assert np.all(d == 0.0)


def test_apply_diff_2x2_direction_major():
    # horizontal differences first, then vertical, each row-major
    assert np.array_equal(diff_flat(np.arange(4.0), (2, 2)), [1.0, 1.0, 2.0, 2.0])


def test_adjoint_zero_and_single_edge():
    assert np.array_equal(adjoint_flat(np.zeros(1), (2,)), [0.0, 0.0])
    assert np.array_equal(adjoint_flat(np.array([1.0]), (2,)), [-1.0, 1.0])


def test_adjointness_suite():
    check_adjointness()


def test_operators_follow_the_edge_endpoints():
    # diff_flat, adjoint_flat and edge_endpoints list the edges in one
    # order: edge e is v[far[e]] - v[near[e]], and B^T w gathers +w at far
    # ends and -w at near ends
    rng = np.random.default_rng(7)
    for sizes in ALL_SHAPES + [(1, 64, 64), (3, 1, 4)]:
        shape = LatticeShape(sizes)
        near, far = edge_endpoints(shape)
        v = rng.normal(size=shape.n_sites)
        w = rng.normal(size=shape.n_edges)
        assert diff_flat(v, sizes).tobytes() == (v[far] - v[near]).tobytes()
        m = shape.n_sites
        want = (np.bincount(far, w, minlength=m)
                - np.bincount(near, w, minlength=m))
        np.testing.assert_allclose(adjoint_flat(w, sizes), want,
                                   rtol=0, atol=1e-12)


def test_operators_keep_leading_row_axes():
    # a block with one signal (or edge vector) per row gives each row's
    # result bit for bit, with the leading axes kept, one row included
    rng = np.random.default_rng(28)
    for sizes in ALL_SHAPES + [(1, 64), (64, 1), (3, 1, 4), (1,)]:
        shape = LatticeShape(sizes)
        for lead in ((1,), (5,), (2, 3)):
            v = rng.normal(size=lead + (shape.n_sites,))
            w = rng.normal(size=lead + (shape.n_edges,))
            z, u = diff_flat(v, sizes), adjoint_flat(w, sizes)
            assert z.shape == lead + (shape.n_edges,)
            assert u.shape == lead + (shape.n_sites,)
            for i in np.ndindex(lead):
                assert z[i].tobytes() == diff_flat(v[i], sizes).tobytes()
                assert u[i].tobytes() == adjoint_flat(w[i], sizes).tobytes()


def test_components_partition_the_joined_graph():
    # the labels against a label propagation over the oracle's edge list:
    # both partitions of the sites are the same
    rng = np.random.default_rng(32)
    for sizes in ALL_SHAPES + [(1,), (1, 7), (9, 8)]:
        shape = LatticeShape(sizes)
        edges = oracle_edge_list(sizes)
        for keep in (0.0, 0.3, 0.7, 1.0):
            joined = rng.random(len(edges)) < keep
            count, labels = components(shape, joined)
            ref = np.arange(shape.n_sites)
            while True:
                low = np.minimum(ref[edges[joined, 0]], ref[edges[joined, 1]])
                new = ref.copy()
                np.minimum.at(new, edges[joined, 0], low)
                np.minimum.at(new, edges[joined, 1], low)
                if np.array_equal(new, ref):
                    break
                ref = new
            assert labels.shape == (shape.n_sites,)
            assert set(labels.tolist()) == set(range(count))
            assert count == len(set(ref.tolist()))
            assert len(set(zip(labels.tolist(), ref.tolist()))) == count


def test_laplacian_solve_zero():
    shape = LatticeShape((4, 4))
    out = laplacian_solve(Signal(shape, np.zeros(16)))
    assert np.array_equal(out.values, np.zeros(16))


def test_laplacian_solve_roundtrip_1d():
    sizes = (3,)
    x = np.array([1.0, -2.0, 1.0])
    rhs = adjoint_flat(diff_flat(x, sizes), sizes)
    sol = laplacian_solve(Signal(LatticeShape(sizes), rhs))
    assert np.allclose(sol.values, x, atol=1e-12)


def test_laplacian_solve_residual_and_mean():
    rng = np.random.default_rng(1)
    sizes = (4, 4)
    rhs = rng.normal(size=16)
    rhs -= rhs.mean()
    sol = laplacian_solve(Signal(LatticeShape(sizes), rhs))
    resid = adjoint_flat(diff_flat(sol.values, sizes), sizes) - rhs
    assert np.linalg.norm(resid) <= 1e-12 * (1 + np.linalg.norm(rhs))
    assert abs(sol.values.mean()) <= 1e-12


def test_laplacian_solve_rejects_nonzero_mean():
    shape = LatticeShape((4,))
    with pytest.raises(ValueError):
        laplacian_solve(Signal(shape, np.ones(4)))


def test_spectral_laplacian_matches_dense_pinv():
    # the cosine-transform solve against the dense pseudo-inverse of B^T B
    rng = np.random.default_rng(2)
    for sizes in [(7,), (1, 6), (5, 6), (3, 4, 5), (2, 1, 3)]:
        shape = LatticeShape(sizes)
        rhs = rng.normal(size=shape.n_sites)
        rhs -= rhs.mean()
        ref = oracle_laplacian_pinv(rhs, sizes)
        assert np.abs(SpectralLaplacian(shape).solve(rhs) - ref).max() <= 1e-10
        assert np.abs(laplacian_solve(Signal(shape, rhs)).values - ref).max() \
            <= 1e-10
