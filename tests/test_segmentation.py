"""Tests for jump extraction on path lattices, the dual certificate check, and outcome scoring."""
import dataclasses

import numpy as np
import pytest

from tvdn.grid import LatticeShape, Signal
from tvdn.lambda_stat import sample_lambda_1d
from tvdn.risk import default_lambda_grid
from tvdn.segmentation import (SegmentationOutcome, evaluate_outcome,
                               extract_jumps, kkt_check)
from tvdn.selection import (count_jumps, exact_seg_threshold,
                            min_jump_height, universal_threshold)
from tvdn.signals import PiecewiseConstantSpec, gen_piecewise, gen_test_function
from tvdn.tvsolve import FusionPath, tv_denoise_1d


def test_extract_jumps_constant_empty():
    f = Signal.from_array(np.full(50, 3.25))
    assert extract_jumps(f).size == 0
    assert extract_jumps(Signal.from_array([3.25])).size == 0


def test_extract_jumps_battlements_locations():
    spec = gen_piecewise("battlements", 100, 5, 2.0)
    f = spec.realize()
    np.testing.assert_array_equal(extract_jumps(f), [20, 40, 60, 80])
    np.testing.assert_array_equal(spec.jump_locations, [20, 40, 60, 80])


def test_extract_jumps_calibrated_removes_small_steps():
    # one step of height 0.1: an exact jump of the fit, but below the
    # calibrated cutoff of adaptive step 1 at sigma=1 (~0.49 for N=100)
    v = np.zeros(100)
    v[50:] = 0.1
    f = Signal.from_array(v)
    np.testing.assert_array_equal(extract_jumps(f), [50])
    assert count_jumps(f, 1.0) == 0


def test_extract_jumps_keeps_every_nonzero_difference():
    # there is no cutoff: a step is a jump at any scale, and
    # only an exactly 0 difference is not
    for c in (1e-8, 1.0, 1e8):
        v = c * np.repeat([0.0, 1e-12, 1e-12, 5.0], [5, 2, 3, 4])
        f = Signal.from_array(v)
        np.testing.assert_array_equal(extract_jumps(f), [5, 10])


def test_extract_jumps_errors():
    f2 = Signal.from_array(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        extract_jumps(f2)


def test_kkt_no_jump_iff_lambda_stat():
    # the empty segmentation is optimal exactly when lambda is at least the
    # dual sup-norm statistic of the data
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = Signal.from_array(rng.normal(size=int(rng.integers(5, 60))))
        lam0 = sample_lambda_1d(y)
        holds_hi, h_hi, _, _ = kkt_check(y, [], lam0 * 1.0000001)
        holds_lo, _, _, _ = kkt_check(y, [], lam0 * 0.999999)
        assert holds_hi and not holds_lo
        assert h_hi.shape == (1,)
        assert h_hi[0] == pytest.approx(float(np.mean(y.values)))


def test_kkt_check_is_scale_equivariant():
    # scaling y and lambda by a power of two scales the levels and the dual
    # exactly, so the verdict cannot move, far below or above unit scale;
    # just under Lambda the constant fit fails and the solver's fit jumps
    y = np.random.default_rng(0).standard_normal(50)
    lam0 = sample_lambda_1d(Signal.from_array(y))
    for k in (-60, -40, 0, 40):
        c = 2.0 ** k
        ys = Signal.from_array(c * y)
        assert not kkt_check(ys, [], c * 0.999 * lam0)[0], k
        assert kkt_check(ys, [], c * 1.001 * lam0)[0], k
        assert extract_jumps(tv_denoise_1d(ys, c * 0.999 * lam0)
                             .estimate).size == 1


def test_kkt_noiseless_battlements_holds():
    sigma = 1.0
    hstar = min_jump_height(sigma, 0.05)
    spec = gen_piecewise("battlements", 100, 5, 2.0 * hstar)
    y0 = spec.realize()
    lam = exact_seg_threshold(20, sigma, 0.05)
    holds, h_hat, w, max_w = kkt_check(y0, spec.jump_locations, lam)
    assert holds
    assert max_w == pytest.approx(lam, rel=1e-10)
    assert h_hat.shape == (5,)
    assert w.shape == (99,)
    # fitted levels keep the alternating order of the true pieces
    # (jump_signs pads a zero at each boundary)
    assert np.all(np.sign(np.diff(h_hat)) == spec.jump_signs[1:-1])


def test_kkt_dual_boundary_values():
    # telescoping makes the dual hit lambda times the mean-order sign at
    # every candidate jump, for any candidate partition
    rng = np.random.default_rng(3)
    y = Signal.from_array(rng.normal(size=40))
    locs = [7, 19, 26]
    lam = 1.3
    _, _, w, _ = kkt_check(y, locs, lam)
    bounds = np.concatenate(([0], locs, [40]))
    cums = np.concatenate(([0.0], np.cumsum(y.values)))
    means = (cums[bounds[1:]] - cums[bounds[:-1]]) / np.diff(bounds)
    s = np.sign(np.diff(means))
    np.testing.assert_allclose(w[np.asarray(locs) - 1], lam * s, atol=1e-10)


def test_kkt_staircase_rarely_certified():
    # monotone staircases violate the sign-alternation needed by the dual
    # certificate at this threshold, so the hold frequency collapses
    sigma = 1.0
    hstar = min_jump_height(sigma, 0.05)
    spec = gen_piecewise("staircase", 100, 5, 2.0 * hstar)
    f0 = spec.realize()
    lam = exact_seg_threshold(20, sigma, 0.05)
    reps = 50
    count = 0
    for child in np.random.SeedSequence(9).spawn(reps):
        rng = np.random.default_rng(child)
        y = Signal(f0.shape, f0.values + sigma * rng.standard_normal(100))
        holds, _, _, _ = kkt_check(y, spec.jump_locations, lam)
        count += holds
    assert count / reps <= 0.02


def test_kkt_invalid_inputs():
    y = Signal.from_array(np.arange(10.0))
    with pytest.raises(ValueError):
        kkt_check(y, [0], 1.0)
    with pytest.raises(ValueError):
        kkt_check(y, [10], 1.0)
    with pytest.raises(ValueError):
        kkt_check(y, [3, 3], 1.0)
    # a location that is not an integer is refused, not truncated
    for locs in ([4.7], [2, 5.5], [np.nan]):
        with pytest.raises(ValueError, match="distinct integers"):
            kkt_check(y, locs, 1.0)
    assert kkt_check(y, [4.0], 1.0)[1].tolist() \
        == kkt_check(y, np.array([4]), 1.0)[1].tolist()
    with pytest.raises(ValueError):
        kkt_check(y, [3], -1.0)
    with pytest.raises(ValueError):
        kkt_check(Signal.from_array(np.zeros((2, 5))), [1], 1.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            kkt_check(y, [5], lam)


def test_evaluate_outcome_noiseless_exact():
    spec = gen_piecewise("battlements", 100, 5, 2.0)
    out = evaluate_outcome(spec.realize(), spec)
    assert out.exact and out.screening
    assert out.jumps_estimated == out.jumps_true == (20, 40, 60, 80)


def test_evaluate_outcome_constant_fit_misses():
    spec = gen_piecewise("staircase", 60, 3, 1.0)
    flat = Signal.from_array(np.zeros(60))
    out = evaluate_outcome(flat, spec)
    assert not out.exact and not out.screening
    assert out.jumps_estimated == ()
    assert out.jumps_true == (20, 40)


def test_evaluate_outcome_extra_jumps_screen_only():
    spec = gen_piecewise("battlements", 60, 3, 5.0)
    v = spec.realize().values.copy()
    v[5:] += 1.0  # spurious extra step at location 5
    out = evaluate_outcome(Signal.from_array(v), spec)
    assert out.screening and not out.exact
    assert 5 in out.jumps_estimated


def test_path_lattices_match_1d():
    spec = gen_piecewise("battlements", 60, 3, 5.0)
    v = spec.realize().values + np.random.default_rng(15).normal(size=60)
    lam = 4.0
    fit = tv_denoise_1d(Signal.from_array(v), lam).estimate.values
    ref_kkt = kkt_check(Signal.from_array(v), [20, 40], lam)
    for sizes in [(1, 60), (60, 1), (1, 1, 60)]:
        shape = LatticeShape(sizes)
        f = Signal(shape, fit)
        np.testing.assert_array_equal(extract_jumps(f),
                                      extract_jumps(Signal.from_array(fit)))
        assert evaluate_outcome(f, spec) \
            == evaluate_outcome(Signal.from_array(fit), spec)
        holds, h_hat, w, top = kkt_check(Signal(shape, v), [20, 40], lam)
        assert holds == ref_kkt[0] and top == ref_kkt[3]
        assert h_hat.tobytes() == ref_kkt[1].tobytes()
        assert w.tobytes() == ref_kkt[2].tobytes()


def test_verdicts_follow_the_set_relations():
    # exact and screening are read off the two jump tuples, so an
    # inconsistent verdict cannot be built
    assert [f.name for f in dataclasses.fields(SegmentationOutcome)] \
        == ["jumps_estimated", "jumps_true"]
    for est, true, exact, screening in [
            ((), (), True, True), ((1,), (1,), True, True),
            ((1, 5), (5, 1), True, True), ((1, 2), (1,), False, True),
            ((1,), (1, 2), False, False), ((3,), (2,), False, False),
            ((4,), (), False, True), ((), (4,), False, False)]:
        out = SegmentationOutcome(est, true)
        assert (out.exact, out.screening) == (exact, screening)
    # over a whole grid of fits every verdict occurs and follows the sets
    spec = gen_piecewise("battlements", 80, 4, 5.0)
    y = spec.realize().values + np.random.default_rng(29).normal(size=80)
    path = FusionPath(Signal.from_array(y))
    seen = set()
    for lam in default_lambda_grid(path.lam_max, 40).tolist():
        out = evaluate_outcome(path.solve(lam).estimate, spec)
        est, true = set(out.jumps_estimated), set(out.jumps_true)
        assert out.exact == (est == true)
        assert out.screening == true.issubset(est)
        seen.add((out.exact, out.screening))
    assert seen == {(False, False), (False, True), (True, True)}


def test_outcome_validation():
    spec = gen_piecewise("battlements", 60, 3, 5.0)
    with pytest.raises(ValueError):
        evaluate_outcome(Signal.from_array(np.zeros(59)), spec)
    with pytest.raises(ValueError):
        evaluate_outcome(Signal.from_array(np.zeros((6, 10))), spec)


def test_screening_at_universal_threshold():
    # with mild noise the universal threshold keeps every true jump of the
    # blocks signal among the fit's jumps
    yb = gen_test_function("blocks", 1000)
    spec = PiecewiseConstantSpec.from_values(yb.values)
    sigma = 0.1
    lam = universal_threshold(LatticeShape((1000,)), sigma)
    reps = 30
    count = 0
    for child in np.random.SeedSequence(14).spawn(reps):
        rng = np.random.default_rng(child)
        y = Signal(yb.shape, yb.values + sigma * rng.standard_normal(1000))
        sol = tv_denoise_1d(y, lam)
        out = evaluate_outcome(sol.estimate, spec)
        count += out.screening
    assert count == reps
