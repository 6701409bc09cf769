"""Shipped Gumbel calibration coefficients for lattice dimensions 2 and 3.

The dual sup-norm statistic on an N^d lattice under white noise is well
approximated by a Gumbel law whose location mu(N) and scale beta(N) obey

    log mu(N)   = a_mu   + b_mu   * log(log N)
    log beta(N) = a_beta + b_beta * log(log N)

The constants below are stated to come from a Monte Carlo calibration
(200 draws per side length, side lengths 8..1024 for d=2 and 8..64 for
d=3, Gumbel maximum likelihood per side, then least squares on the log-log
scale), but no file in the repository records those draws or that fit;
ROADMAP item 8 plans to record them. A calibration can be made with the
lambda-sample / lambda-fit command line tools, and its fit file used in
place of these constants through --coeffs.
"""
from __future__ import annotations

import sys

from .io import read_json_report
from .lambda_stat import GumbelFitCoefficients

DEFAULT_COEFFICIENTS = {
    2: GumbelFitCoefficients(a_mu=-0.395, b_mu=0.552,
                             a_beta=-1.512, b_beta=-0.247, dim=2),
    3: GumbelFitCoefficients(a_mu=-0.523, b_mu=0.267,
                             a_beta=-2.008, b_beta=-0.598, dim=3),
}
# the fields of a fit file that hold JSON numbers; dim holds an integer
_NUMBERS = ("a_mu", "b_mu", "a_beta", "b_beta")


def default_coefficients(dim: int) -> GumbelFitCoefficients:
    try:
        return DEFAULT_COEFFICIENTS[dim]
    except KeyError:
        raise ValueError(
            "no shipped calibration for dimension %d; supply a fit file" % dim
        ) from None


def load_coefficients(path) -> GumbelFitCoefficients:
    """Read coefficients from a fit JSON (as written by the lambda-fit
    tool). The four coefficients must be finite JSON numbers and dim a JSON
    integer, as in meta.json: a boolean, a string, NaN, an integer beyond
    float range or a dim such as 2.0 is refused, naming the file and the
    field."""
    name = "fit file %s" % path
    obj = read_json_report(path, _NUMBERS + ("dim",), name)
    for field in _NUMBERS:
        # ints compare exactly, so one too large for a float fails too
        if type(obj[field]) not in (int, float) \
                or not abs(obj[field]) <= sys.float_info.max:
            raise ValueError("%s: field %r must be a finite number"
                             % (name, field))
    if type(obj["dim"]) is not int:
        raise ValueError("%s: field 'dim' must be an integer" % name)
    return GumbelFitCoefficients(*(float(obj[f]) for f in _NUMBERS),
                                 dim=obj["dim"])
