"""Total-variation denoising on d-dimensional lattices with data-driven
threshold selection.

The estimator minimizes (1/2)||y - f||^2 + lambda * ||Bf||_1 where B takes
differences between neighboring lattice sites. A path lattice (at most one
axis longer than 1, so its sites form one chain in flat order) is treated
everywhere as the 1D signal of its flat values, and axes of size 1 never
count towards a lattice's dimension. The package provides one exact,
certified solver for every lattice (the fusion path on path lattices,
divide-and-conquer s-t minimum cuts otherwise), exact solving of any
lattice along a whole threshold grid, universal and adaptive
threshold rules, SURE risk search, exact-segmentation analysis, and the
Monte Carlo machinery calibrating the threshold on lattices. The
calibrating statistic is computed exactly on lattices by s-t minimum cuts,
with a certified lower/upper bracket.
"""

from .grid import LatticeShape, Signal, laplacian_solve
from .signals import (PiecewiseConstantSpec, TEST_FUNCTIONS, gen_piecewise,
                      gen_test_function)
from .tvsolve import (SolverConfig, TvSolution, lambda_max, tv_denoise,
                      tv_denoise_1d, tv_denoise_grid)
from .lambda_stat import (GevParams, GumbelFitCoefficients, GumbelParams,
                          fit_gev_and_lr_test, fit_gumbel, fit_loglog_regression,
                          sample_lambda, sample_lambda_1d)
from .coeffs import DEFAULT_COEFFICIENTS, default_coefficients, load_coefficients
from .selection import (ThresholdReport, adaptive_tv, count_jumps,
                        estimate_sigma, exact_seg_prob_bound,
                        exact_seg_threshold, min_jump_height,
                        universal_threshold)
from .risk import RiskCurve, default_lambda_grid, ncc, risk_curve, sure
from .segmentation import (SegmentationOutcome, evaluate_outcome, extract_jumps,
                           kkt_check)
from .bench import ExperimentConfig, ResultTable, bench_mse, bench_seg

__version__ = "0.1.0"

__all__ = [
    "LatticeShape", "Signal", "laplacian_solve", "PiecewiseConstantSpec",
    "TEST_FUNCTIONS", "gen_piecewise", "gen_test_function", "SolverConfig",
    "TvSolution", "lambda_max", "tv_denoise", "tv_denoise_1d",
    "tv_denoise_grid", "GevParams",
    "GumbelFitCoefficients", "GumbelParams", "fit_gev_and_lr_test",
    "fit_gumbel", "fit_loglog_regression", "sample_lambda",
    "sample_lambda_1d", "DEFAULT_COEFFICIENTS",
    "default_coefficients", "load_coefficients", "ThresholdReport",
    "adaptive_tv", "count_jumps", "estimate_sigma", "exact_seg_prob_bound",
    "exact_seg_threshold", "min_jump_height", "universal_threshold",
    "RiskCurve",
    "default_lambda_grid", "ncc", "risk_curve", "sure",
    "SegmentationOutcome", "evaluate_outcome", "extract_jumps", "kkt_check",
    "ExperimentConfig", "ResultTable", "bench_mse", "bench_seg",
]
