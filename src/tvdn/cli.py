"""Command line front end.

Subcommands: denoise, gen, bench-mse, bench-seg, lambda-sample, lambda-fit,
risk-curve. 1D signals travel as single-column CSV (header `value`), images
as PGM (P2/P5), results as JSON with a schema_version field. Exit codes:
0 success, 2 bad input, 3 a solver could not certify its result.
Bad option values are refused, by the library's own checks, before any
input is read.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as tvio
from .bench import (ExperimentConfig, bench_mse, bench_seg, lambda_fit_report,
                    qq_pairs, run_lambda_samples)
from .coeffs import load_coefficients
from .lambda_stat import GumbelParams, sample_lambda
from .risk import default_lambda_grid, loss, ncc, risk_curve
from .selection import adaptive_tv, estimate_sigma, universal_threshold
from .signals import check_sigma, gen_test_function
from .tvsolve import check_lambda, tv_denoise


def _parse_sizes(text):
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValueError("--sizes expects comma-separated integers")


def _read_input(path):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        y, maxval, binary = tvio.read_pgm(path)
        return y, {"format": "pgm", "maxval": maxval, "binary": binary}
    y = tvio.read_signal_csv(path)
    return y, {"format": "csv"}


def _write_output(path, est, meta):
    if meta["format"] == "pgm":
        tvio.write_pgm(path, est, maxval=meta["maxval"], binary=meta["binary"])
    else:
        tvio.write_signal_csv(path, est)


def _sigma(args, y):
    """--sigma-known, or else the MAD estimate of y, with a warning when
    that estimate is 0."""
    if args.sigma_known is not None:
        return args.sigma_known
    sigma = estimate_sigma(y)
    if sigma == 0.0:
        print("warning: the estimated noise level is 0 (flat or quantized "
              "input): thresholds scaled by it are 0 and SURE favours the "
              "smallest lambda, so the fit stays at or near the input; set "
              "--sigma-known", file=sys.stderr)
    return sigma


def cmd_denoise(args):
    if args.sigma_known is not None:
        check_sigma(args.sigma_known)
    method = args.method or ("adaptive" if args.lam is None else "fixed")
    if method == "fixed" and args.lam is None:
        raise ValueError("--method fixed needs --lambda")
    if method != "fixed" and args.lam is not None:
        raise ValueError("--lambda is read only by --method fixed")
    if method == "fixed":
        check_lambda(args.lam)
    if args.grid is not None and method not in ("sure", "oracle"):
        raise ValueError("--grid is read only by --method sure and oracle")
    grid = _parse_grid(args.grid)
    if args.coeffs and method not in ("universal", "adaptive"):
        raise ValueError("--coeffs is read only by --method universal and "
                         "adaptive")
    if method == "oracle" and not args.truth:
        raise ValueError("--method oracle needs --truth")
    if method in ("fixed", "oracle") and args.sigma_known is not None:
        raise ValueError("--sigma-known is read only by --method universal, "
                         "adaptive and sure")
    y, meta = _read_input(args.infile)
    coeffs = load_coefficients(args.coeffs) if args.coeffs else None
    # fixed and oracle read no sigma and only echo the estimate
    sigma = estimate_sigma(y) if method in ("fixed", "oracle") \
        else _sigma(args, y)

    truth = None
    if args.truth:
        truth, _ = _read_input(args.truth)
        if truth.shape.sizes != y.shape.sizes:
            raise ValueError("truth shape does not match input")

    count1 = None
    if method == "fixed":
        sol = tv_denoise(y, args.lam)
        lam1 = lam2 = args.lam
    elif method == "universal":
        lam1 = lam2 = universal_threshold(y.shape, sigma, coeffs)
        sol = tv_denoise(y, lam1)
    elif method == "adaptive":
        _, sol, report = adaptive_tv(y, sigma=sigma, coeffs=coeffs)
        lam1, lam2, count1 = report.lambda1, report.lambda2, report.count1
    else:  # sure or oracle; risk_curve refuses any other criterion
        curve = _grid_risk_curve(y, grid, method, sigma, truth)
        sol = curve.argmin_fit
        lam1, lam2 = float(curve.lambdas[-1]), curve.argmin_lambda

    final_pieces = ncc(sol.estimate)
    payload = {
        "method": method,
        "sigma_used": sigma,
        "lambda1": lam1,
        "lambda2": lam2,
        "count1": final_pieces if count1 is None else count1,
        "ncc": final_pieces,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "sizes": list(y.shape.sizes),
    }
    if truth is not None:
        payload["loss"] = loss(sol.estimate, truth)
    if args.out:
        _write_output(args.out, sol.estimate, meta)
        tvio.write_json_report(args.out + ".json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_gen(args):
    if not args.out:
        raise ValueError("gen needs --out")
    if len(args.sizes) != 1:
        raise ValueError("gen expects a single size")
    check_sigma(args.sigma)
    n = args.sizes[0]
    f = gen_test_function(args.function, n, snr=args.snr)
    rng = np.random.default_rng(args.seed)
    y = f.values + args.sigma * rng.standard_normal(n)
    tvio.write_csv_column(args.out, y, "value")
    if args.truth_out:
        tvio.write_csv_column(args.truth_out, f.values, "value")
    print(json.dumps({"function": args.function, "n": n, "sigma": args.sigma,
                      "snr": args.snr, "seed": args.seed, "out": args.out},
                     sort_keys=True))
    return 0


def _table_out(table, args, payload_extra):
    payload = table.payload()
    payload.update(payload_extra)
    if args.out:
        tvio.write_json_report(args.out, payload)
    for row in table.rows:
        print("%-22s %6d %-10s %-12s %10.4f +- %.4f" %
              (row["function"], row["size"], row["method"], row["metric"],
               row["value"], row["se"]))
    return 0


def _experiment(args, name, **extra):
    """The ExperimentConfig of a bench-* command; noise at sigma = 1 unless
    --sigma-known is given."""
    return ExperimentConfig(
        name,
        functions=tuple(args.functions.split(",")) if args.functions else (),
        sizes=args.sizes or (), reps=args.reps or (), seed=args.seed,
        sigma=args.sigma_known if args.sigma_known is not None else 1.0,
        **extra)


def cmd_bench_mse(args):
    table = bench_mse(_experiment(args, "mse_1d", snr=args.snr))
    return _table_out(table, args, {"experiment": "mse_1d", "seed": args.seed})


def cmd_bench_seg(args):
    table = bench_seg(_experiment(args, "seg_1d", alphas=(args.alpha,)))
    return _table_out(table, args, {"experiment": "seg_1d", "seed": args.seed,
                                    "alpha": args.alpha})


def cmd_lambda_sample(args):
    if args.dim not in (1, 2, 3):
        raise ValueError("--dim must be 1, 2 or 3")
    if not args.sizes:
        raise ValueError("--sizes is required")
    if not args.out:
        raise ValueError("lambda-sample needs --out (a directory)")
    samples = run_lambda_samples(args.dim, args.sizes, args.reps, args.seed,
                                 tol=args.tol)
    os.makedirs(args.out, exist_ok=True)
    for n, draws in samples.items():
        path = os.path.join(args.out, "lambda_d%d_n%d.csv" % (args.dim, n))
        tvio.write_csv_column(path, draws, "lambda")
    tvio.write_json_report(os.path.join(args.out, "meta.json"),
                           {"dim": args.dim, "sizes": list(args.sizes),
                            "reps": args.reps, "seed": args.seed,
                            "tol": args.tol})
    print(json.dumps({"dim": args.dim, "sizes": list(args.sizes),
                      "reps": args.reps, "out": args.out}, sort_keys=True))
    return 0


def cmd_lambda_fit(args):
    meta_path = os.path.join(args.indir, "meta.json")
    meta = tvio.read_json_report(meta_path) if os.path.exists(meta_path) else {}
    dim = args.dim if args.dim is not None else meta.get("dim")
    if dim is None:
        raise ValueError("--dim is required when no meta.json is present")
    samples = {}
    prefix = "lambda_d%d_n" % dim
    for name in sorted(os.listdir(args.indir)):
        if name.startswith(prefix) and name.endswith(".csv"):
            n = int(name[len(prefix):-4])
            samples[n] = tvio.read_csv_column(os.path.join(args.indir, name),
                                              header="lambda")
    if len(samples) < 2:
        raise ValueError("need sample files for at least 2 sizes in %s"
                         % args.indir)
    payload = lambda_fit_report(samples, dim, reps=meta.get("reps"),
                                seed=meta.get("seed"))
    tvio.write_json_report(args.out, payload)
    stem = os.path.splitext(args.out)[0]
    for n, mu, beta in zip(payload["n_values"], payload["mu"], payload["beta"]):
        pairs = qq_pairs(samples[n], GumbelParams(mu, beta))
        tvio.write_csv_rows(stem + "_qq_n%d.csv" % n,
                            ("empirical", "fitted"),
                            [tuple(float(x) for x in row) for row in pairs])
    print(json.dumps({k: payload[k] for k in
                      ("dim", "a_mu", "b_mu", "a_beta", "b_beta")},
                     sort_keys=True))
    return 0


def _parse_grid(spec):
    """The --grid spec as (bounds, count): ((LO, HI), COUNT), (None, COUNT)
    or, with no spec, (None, None)."""
    parts = spec.split(",") if spec else []
    if len(parts) not in (0, 1, 3):
        raise ValueError("--grid expects COUNT or LO,HI,COUNT")
    count = int(parts[-1]) if parts else None
    if count is not None and count < 1:
        raise ValueError("--grid COUNT must be at least 1")
    if len(parts) < 3:
        return None, count
    lo, hi = float(parts[0]), float(parts[1])
    if not 0 < lo <= hi:
        raise ValueError("--grid bounds must satisfy 0 < lo <= hi")
    if hi == math.inf:
        raise ValueError("--grid bounds must be finite")
    return (lo, hi), count


def _grid_risk_curve(y, grid, criterion, sigma, truth):
    """risk_curve of y over the grid from ``_parse_grid``; SURE reads sigma,
    the oracle truth. Lambda of y (a full solve on a lattice) is computed
    only when the grid has no bounds."""
    bounds, count = grid
    if bounds:
        lams = np.geomspace(*bounds, count)
    elif count is None:
        lams = default_lambda_grid(sample_lambda(y)[0])
    else:
        lams = default_lambda_grid(sample_lambda(y)[0], n_points=count)
    return risk_curve(y, lams, criterion, sigma=sigma, f_true=truth)


def cmd_risk_curve(args):
    if args.sigma_known is not None:
        check_sigma(args.sigma_known)
    if args.method == "sure" and args.truth:
        raise ValueError("--truth is read only by --method oracle")
    if args.method == "oracle" and args.sigma_known is not None:
        raise ValueError("--sigma-known is read only by --method sure")
    if args.method == "oracle" and not args.truth:
        raise ValueError("--method oracle needs --truth")
    grid = _parse_grid(args.grid)
    y, _ = _read_input(args.infile)
    sigma = truth = None
    if args.method == "oracle":
        truth, _ = _read_input(args.truth)
    else:
        sigma = _sigma(args, y)
    curve = _grid_risk_curve(y, grid, args.method, sigma, truth)
    if args.out:
        tvio.write_csv_rows(args.out, ("lambda", "value"),
                            list(zip(curve.lambdas.tolist(),
                                     curve.values.tolist())))
    print(json.dumps({"argmin_lambda": curve.argmin_lambda,
                      "n_grid": int(curve.lambdas.size)}, sort_keys=True))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tvdn",
                                description="TV denoising with data-driven "
                                            "threshold selection")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, infile=False, seed=False, sigma_known=False):
        if infile:
            sp.add_argument("--in", dest="infile", required=True,
                            help="input CSV (1D) or PGM (2D)")
        sp.add_argument("--out", help="output path")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if sigma_known:
            sp.add_argument("--sigma-known", dest="sigma_known", type=float,
                            help="known noise standard deviation")

    d = sub.add_parser("denoise", help="denoise a signal or image")
    common(d, infile=True, sigma_known=True)
    d.add_argument("--method",
                   choices=("fixed", "universal", "adaptive", "sure", "oracle"))
    d.add_argument("--lambda", dest="lam", type=float,
                   help="fixed threshold (implies --method fixed)")
    d.add_argument("--truth", help="noise-free reference (CSV/PGM)")
    d.add_argument("--coeffs", help="JSON fit file overriding the shipped "
                                    "Gumbel coefficients")
    d.add_argument("--grid", help="lambda grid of --method sure|oracle: "
                                  "COUNT or LO,HI,COUNT")
    d.set_defaults(func=cmd_denoise)

    g = sub.add_parser("gen", help="generate a noisy 1D test signal")
    common(g, seed=True)
    g.add_argument("--function", default="blocks")
    g.add_argument("--sizes", type=_parse_sizes, default=(1000,))
    g.add_argument("--snr", type=float, default=7.0)
    g.add_argument("--sigma", type=float, default=1.0,
                   help="noise standard deviation")
    g.add_argument("--truth-out", dest="truth_out",
                   help="also write the clean signal here")
    g.set_defaults(func=cmd_gen)

    bm = sub.add_parser("bench-mse", help="risk benchmark on 1D test signals")
    common(bm, seed=True, sigma_known=True)
    bm.add_argument("--functions", help="comma-separated test function names")
    bm.add_argument("--sizes", type=_parse_sizes)
    bm.add_argument("--reps", type=_parse_sizes,
                    help="replicates, scalar or one per size")
    bm.add_argument("--snr", type=float, default=7.0)
    bm.set_defaults(func=cmd_bench_mse)

    bs = sub.add_parser("bench-seg", help="segmentation event benchmark")
    common(bs, seed=True, sigma_known=True)
    bs.add_argument("--functions", help="battlements,staircase by default")
    bs.add_argument("--sizes", type=_parse_sizes)
    bs.add_argument("--reps", type=_parse_sizes)
    bs.add_argument("--alpha", type=float, default=0.05)
    bs.set_defaults(func=cmd_bench_seg)

    ls = sub.add_parser("lambda-sample", help="Monte Carlo draws of the dual "
                                              "sup-norm statistic")
    common(ls, seed=True)
    ls.add_argument("--dim", type=int, required=True)
    ls.add_argument("--sizes", type=_parse_sizes, required=True)
    ls.add_argument("--reps", type=int, default=200)
    ls.add_argument("--tol", type=float, default=1e-6,
                    help="relative certified bracket per draw: value minus "
                         "the best cut ratio is at most tol*value")
    ls.set_defaults(func=cmd_lambda_sample)

    lf = sub.add_parser("lambda-fit", help="fit Gumbel laws and the log-log "
                                           "regression to sampled draws")
    lf.add_argument("--in", dest="indir", required=True,
                    help="directory written by lambda-sample")
    lf.add_argument("--dim", type=int)
    lf.add_argument("--out", required=True, help="fit JSON path")
    lf.set_defaults(func=cmd_lambda_fit)

    rc = sub.add_parser("risk-curve", help="SURE or oracle loss over a grid")
    common(rc, infile=True, sigma_known=True)
    rc.add_argument("--method", choices=("sure", "oracle"), default="sure")
    rc.add_argument("--truth", help="noise-free reference (--method oracle)")
    rc.add_argument("--grid", help="COUNT or LO,HI,COUNT")
    rc.set_defaults(func=cmd_risk_curve)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
