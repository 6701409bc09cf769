import numpy as np
import pytest

from tvdn.grid import Signal
from tvdn.risk import ncc
from tvdn.signals import PiecewiseConstantSpec, gen_piecewise, gen_test_function


def test_spec_merges_equal_adjacent_levels():
    spec = PiecewiseConstantSpec([1.0, 1.0, 2.0], [3, 2, 4])
    assert np.array_equal(spec.levels, [1.0, 2.0])
    assert np.array_equal(spec.lengths, [5, 4])
    assert spec.n == 9
    assert spec.n_levels == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantSpec([1.0], [0])
    with pytest.raises(ValueError):
        PiecewiseConstantSpec([1.0, 2.0], [3])


def test_spec_jump_locations_and_signs():
    spec = PiecewiseConstantSpec([0.0, 2.0, 1.0], [4, 3, 3])
    assert np.array_equal(spec.jump_locations, [4, 7])
    assert np.array_equal(spec.jump_signs, [0.0, 1.0, -1.0, 0.0])


def test_spec_realize_roundtrip_and_ncc():
    spec = PiecewiseConstantSpec([0.0, 3.0, -1.0, 3.0], [5, 2, 6, 7])
    f = spec.realize()
    assert f.shape.n_sites == 20
    assert ncc(f) == 4
    back = PiecewiseConstantSpec.from_values(f.values)
    assert np.array_equal(back.levels, spec.levels)
    assert np.array_equal(back.lengths, spec.lengths)


def test_gen_zero():
    f = gen_test_function("zero", 100)
    assert np.array_equal(f.values, np.zeros(100))


def test_gen_blocks_is_twelve_pieces():
    for n in (100, 1000):
        f = gen_test_function("blocks", n, 7.0)
        assert ncc(f) == 12


def test_gen_blocks_sd_scaling():
    f = gen_test_function("blocks", 1024, 7.0)
    assert abs(f.values.std(ddof=1) - 7.0) <= 1e-9


def test_gen_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_test_function("ramp", 100)
    with pytest.raises(ValueError):
        gen_test_function("blocks", 4)
    with pytest.raises(ValueError):
        gen_test_function("blocks", 100, snr=0.0)


def test_gen_is_pure():
    a = gen_test_function("doppler", 256, 5.0)
    b = gen_test_function("doppler", 256, 5.0)
    assert np.array_equal(a.values, b.values)


def test_blocks_jump_signs_not_alternating_once():
    f = gen_test_function("blocks", 1000, 7.0)
    spec = PiecewiseConstantSpec.from_values(f.values)
    s = spec.jump_signs[1:-1]
    same = [i for i in range(len(s) - 1) if s[i] == s[i + 1]]
    assert len(same) >= 1


def test_battlements_levels_and_lengths():
    spec = gen_piecewise("battlements", 100, 5, 1.0)
    assert np.array_equal(spec.levels, [0.0, 1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(spec.lengths, [20] * 5)
    s = spec.jump_signs[1:-1]
    assert np.all(s[:-1] == -s[1:])


def test_staircase_levels():
    spec = gen_piecewise("staircase", 100, 5, 1.0)
    assert np.array_equal(spec.levels, [0.0, 1.0, 2.0, 3.0, 4.0])
    s = spec.jump_signs[1:-1]
    assert np.all(s == 1.0)


def test_gen_piecewise_remainder_to_leftmost():
    spec = gen_piecewise("staircase", 103, 5, 1.0)
    assert np.array_equal(spec.lengths, [21, 21, 21, 20, 20])
    assert spec.n == 103


def test_gen_piecewise_errors():
    with pytest.raises(ValueError):
        gen_piecewise("battlements", 3, 5, 1.0)
    with pytest.raises(ValueError):
        gen_piecewise("battlements", 100, 1, 1.0)
    with pytest.raises(ValueError):
        gen_piecewise("towers", 100, 5, 1.0)
