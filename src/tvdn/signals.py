"""Test-signal generators, piecewise-constant constructions and the noise
level rule: y = f + sigma * eps needs sigma finite and nonnegative
(``check_sigma``). The benchmarks and ``tvdn gen`` draw eps inline."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import LatticeShape, Signal

# Donoho-Johnstone knot positions and heights for blocks/bumps.
_DJ_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])

TEST_FUNCTIONS = ("blocks", "bumps", "heavisine", "doppler", "zero")


@dataclass
class PiecewiseConstantSpec:
    """Piecewise constant vector given by per-segment levels and lengths.

    Adjacent segments with equal levels are merged on construction, so the
    number of stored segments always equals the component count of the
    realized vector.
    """

    levels: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float).ravel()
        lengths = np.asarray(self.lengths, dtype=int).ravel()
        if levels.size != lengths.size or levels.size == 0:
            raise ValueError("levels and lengths must be equal-length and non-empty")
        if np.any(lengths < 1):
            raise ValueError("segment lengths must be positive")
        merged_levels = [levels[0]]
        merged_lengths = [int(lengths[0])]
        for lev, ln in zip(levels[1:], lengths[1:]):
            if lev == merged_levels[-1]:
                merged_lengths[-1] += int(ln)
            else:
                merged_levels.append(lev)
                merged_lengths.append(int(ln))
        self.levels = np.array(merged_levels)
        self.lengths = np.array(merged_lengths, dtype=int)

    @property
    def n(self) -> int:
        return int(self.lengths.sum())

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def jump_locations(self) -> np.ndarray:
        """Cumulative lengths before each jump, values in 1..n-1."""
        return np.cumsum(self.lengths)[:-1]

    @property
    def jump_signs(self) -> np.ndarray:
        """Signs s_0..s_L with the boundary convention s_0 = s_L = 0."""
        s = np.zeros(self.n_levels + 1)
        s[1:-1] = np.sign(np.diff(self.levels))
        return s

    def realize(self) -> Signal:
        values = np.repeat(self.levels, self.lengths)
        return Signal(LatticeShape((self.n,)), values)

    @classmethod
    def from_values(cls, values) -> "PiecewiseConstantSpec":
        values = np.asarray(values, dtype=float).ravel()
        cuts = np.flatnonzero(np.diff(values) != 0.0) + 1
        bounds = np.concatenate([[0], cuts, [len(values)]])
        return cls(values[bounds[:-1]], np.diff(bounds))


def check_sigma(sigma: float) -> None:
    """Refuse a noise level that is NaN, negative or infinite."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")


def _dj_values(name, t):
    if name == "blocks":
        # strict step keeps the vector exactly 12-piece even when a grid
        # point lands on a knot (sign(0) would insert half-height samples)
        return np.sum(_BLOCKS_H[:, None] * (t[None, :] > _DJ_T[:, None]), axis=0)
    if name == "bumps":
        z = (t[None, :] - _DJ_T[:, None]) / _BUMPS_W[:, None]
        return np.sum(_BUMPS_H[:, None] * (1 + np.abs(z)) ** -4, axis=0)
    if name == "heavisine":
        return 4 * np.sin(4 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)
    if name == "doppler":
        return np.sqrt(t * (1 - t)) * np.sin(2 * np.pi * 1.05 / (t + 0.05))
    raise ValueError(f"unknown test function {name!r}")


def gen_test_function(name: str, n: int, snr: float = 7.0) -> Signal:
    """Sample a named test function on n equispaced points.

    The clean signal is rescaled so its sample standard deviation equals
    ``snr``, which must be positive and finite; benchmark noise is then
    added at sigma = 1. The zero function returns all zeros.
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    if name == "zero":
        return Signal(LatticeShape((n,)), np.zeros(n))
    t = np.arange(1, n + 1) / n
    f = _dj_values(name, t)
    sd = f.std(ddof=1)
    return Signal(LatticeShape((n,)), f * (snr / sd))


def gen_piecewise(kind: str, n: int, n_levels: int, h: float) -> PiecewiseConstantSpec:
    """Battlements alternate 0,h,0,h,...; staircase ascends 0,h,2h,...

    When n is not divisible by the level count, the remainder is spread one
    sample at a time over the leftmost segments.
    """
    if n_levels < 2:
        raise ValueError("need at least two levels")
    if n_levels > n:
        raise ValueError("more levels than samples")
    lengths = np.full(n_levels, n // n_levels, dtype=int)
    lengths[: n - lengths.sum()] += 1
    if kind == "battlements":
        levels = h * (np.arange(n_levels) % 2)
    elif kind == "staircase":
        levels = h * np.arange(n_levels)
    else:
        raise ValueError(f"unknown piecewise kind {kind!r}")
    return PiecewiseConstantSpec(levels.astype(float), lengths)
