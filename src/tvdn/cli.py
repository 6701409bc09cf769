"""Command line front end.

Subcommands: denoise, gen, bench-mse, bench-seg, lambda-sample, lambda-fit,
risk-curve. A signal file's name gives its format: a .pgm name is a PGM
image (P2/P5), any other a single-column CSV (header `value`); results are
JSON with a schema_version field. Exit codes:
0 success, 2 bad input, 3 a solver could not certify its result.
Bad option values are refused, by the library's own checks, before any
input is read.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as tvio
from .bench import (DEFAULT_SEED, ExperimentConfig, bench_mse, bench_seg,
                    lambda_fit_report, qq_pairs, run_lambda_samples)
from .coeffs import load_coefficients
from .lambda_stat import (DEFAULT_TOL, MIN_FIT_SAMPLES, GumbelParams,
                          sample_lambda)
from .risk import default_lambda_grid, loss, ncc, risk_curve
from .selection import (DEFAULT_ALPHA, adaptive_tv, estimate_sigma,
                        universal_threshold)
from .signals import (DEFAULT_SIGMA, DEFAULT_SNR, check_sigma,
                      gen_test_function, noisy)
from .tvsolve import check_lambda, tv_denoise


def _parse_sizes(text):
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("expects comma-separated integers")


def _is_pgm(path):
    """Whether a signal file, read or written, is PGM rather than CSV."""
    return os.path.splitext(path)[1].lower() == ".pgm"


def _read_input(path):
    """The signal in a file, and the header a fit written as PGM keeps."""
    if _is_pgm(path):
        y, maxval, binary = tvio.read_pgm(path)
        return y, {"maxval": maxval, "binary": binary}
    return tvio.read_signal_csv(path), {}


def _draws_path(indir, dim, n):
    return os.path.join(indir, "lambda_d%d_n%d.csv" % (dim, n))


# the options each threshold method reads besides --in and --out: a given
# option its method does not read is refused, and so is a method in _NEEDS
# without its option
_READS = {
    "denoise": {"fixed": ("--lambda", "--truth"),
                "universal": ("--sigma-known", "--coeffs", "--truth"),
                "adaptive": ("--sigma-known", "--coeffs", "--truth"),
                "sure": ("--sigma-known", "--grid", "--truth"),
                "oracle": ("--grid", "--truth")},
    "risk-curve": {"sure": ("--sigma-known", "--grid"),
                   "oracle": ("--grid", "--truth")},
}
_NEEDS = {"fixed": "--lambda", "oracle": "--truth"}


def _option(args, flag):
    """The value of a flag; None when it is not given or empty."""
    value = vars(args).get(flag[2:].replace("-", "_"))
    return None if value == "" else value


def _method_inputs(args, command, method):
    """Check every option of a threshold method before any input is read,
    then read the input and the truth. A method that reads --sigma-known
    takes its value or else the MAD estimate of the input, with a warning
    when that is 0, and one that reads --grid its lambda grid. Returns
    (y, its PGM header, sigma, truth, lambda grid, coeffs)."""
    if args.sigma_known is not None:
        check_sigma(args.sigma_known)
    reads = _READS[command]
    for flag in dict.fromkeys(f for fs in reads.values() for f in fs):
        users = [m for m in reads if flag in reads[m]]
        if _option(args, flag) is not None and method not in users:
            listed = filter(None, [", ".join(users[:-1]), users[-1]])
            raise ValueError("%s is read only by --method %s"
                             % (flag, " and ".join(listed)))
    if method in _NEEDS and _option(args, _NEEDS[method]) is None:
        raise ValueError("--method %s needs %s" % (method, _NEEDS[method]))
    if "--lambda" in reads[method]:
        check_lambda(_option(args, "--lambda"))
    grid = _parse_grid(args.grid)
    coeffs = _option(args, "--coeffs")
    coeffs = load_coefficients(coeffs) if coeffs else None
    if command == "denoise" and args.out and \
            _is_pgm(args.out) != _is_pgm(args.infile):
        raise ValueError("--out must be .pgm exactly when --in is")
    y, meta = _read_input(args.infile)
    truth = _read_input(args.truth)[0] if args.truth else None
    if truth is not None and truth.shape.sizes != y.shape.sizes:
        raise ValueError("truth shape does not match input")
    sigma = args.sigma_known
    if sigma is None and "--sigma-known" in reads[method]:
        sigma = estimate_sigma(y)
        if sigma == 0.0:
            print("warning: the estimated noise level is 0 (flat or "
                  "quantized input): thresholds scaled by it are 0 and SURE "
                  "favours the smallest lambda, so the fit stays at or near "
                  "the input; set --sigma-known", file=sys.stderr)
    lams = grid(y) if "--grid" in reads[method] else None
    return y, meta, sigma, truth, lams, coeffs


def cmd_denoise(args):
    lam = _option(args, "--lambda")
    method = args.method or ("adaptive" if lam is None else "fixed")
    y, meta, sigma, truth, lams, coeffs = _method_inputs(args, "denoise",
                                                         method)
    count1 = None
    if method == "fixed":
        sol = tv_denoise(y, lam)
        lam1 = lam2 = lam
    elif method == "universal":
        lam1 = lam2 = universal_threshold(y.shape, sigma, coeffs)
        sol = tv_denoise(y, lam1)
    elif method == "adaptive":
        _, sol, report = adaptive_tv(y, sigma=sigma, coeffs=coeffs)
        lam1, lam2, count1 = report.lambda1, report.lambda2, report.count1
    else:  # sure or oracle; risk_curve refuses any other criterion
        curve = risk_curve(y, lams, method, sigma=sigma, f_true=truth)
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
        write = tvio.write_pgm if _is_pgm(args.out) else tvio.write_signal_csv
        write(args.out, sol.estimate, **meta)
        tvio.write_json_report(args.out + ".json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_gen(args):
    if not args.out:
        raise ValueError("gen needs --out")
    if len(args.sizes) != 1:
        raise ValueError("gen expects a single size")
    if any(_is_pgm(path) for path in (args.out, args.truth_out) if path):
        raise ValueError("gen writes CSV, never to a .pgm name")
    check_sigma(args.sigma)
    n = args.sizes[0]
    f = gen_test_function(args.function, n, snr=args.snr)
    y = noisy(f, args.sigma, args.seed)
    tvio.write_csv_column(args.out, y.values, "value")
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
    """The ExperimentConfig of a bench-* command; noise at DEFAULT_SIGMA
    unless --sigma-known is given."""
    return ExperimentConfig(
        name,
        functions=tuple(args.functions.split(",")) if args.functions else (),
        sizes=args.sizes or (), reps=args.reps or (), seed=args.seed,
        sigma=DEFAULT_SIGMA if args.sigma_known is None else args.sigma_known,
        **extra)


def cmd_bench_mse(args):
    table = bench_mse(_experiment(args, "mse_1d", snr=args.snr))
    return _table_out(table, args, {"experiment": "mse_1d", "seed": args.seed})


def cmd_bench_seg(args):
    table = bench_seg(_experiment(args, "seg_1d", alpha=args.alpha))
    return _table_out(table, args, {"experiment": "seg_1d", "seed": args.seed,
                                    "alpha": args.alpha})


def cmd_lambda_sample(args):
    if args.dim not in (1, 2, 3):
        raise ValueError("--dim must be 1, 2 or 3")
    if not args.sizes:
        raise ValueError("--sizes is required")
    if not args.out:
        raise ValueError("lambda-sample needs --out (a directory)")
    if min(args.sizes) < 2:
        raise ValueError("every --sizes side must be at least 2: a 1-site "
                         "lattice always draws Lambda = 0")
    if args.reps < MIN_FIT_SAMPLES:
        raise ValueError("--reps must be at least %d, the fewest draws per "
                         "size lambda-fit accepts" % MIN_FIT_SAMPLES)
    samples = run_lambda_samples(args.dim, args.sizes, args.reps, args.seed,
                                 tol=args.tol)
    os.makedirs(args.out, exist_ok=True)
    for n, draws in samples.items():
        tvio.write_csv_column(_draws_path(args.out, args.dim, n), draws,
                              "lambda")
    tvio.write_json_report(os.path.join(args.out, "meta.json"),
                           {"dim": args.dim, "sizes": list(args.sizes),
                            "reps": args.reps, "seed": args.seed,
                            "tol": args.tol})
    print(json.dumps({"dim": args.dim, "sizes": list(args.sizes),
                      "reps": args.reps, "out": args.out}, sort_keys=True))
    return 0


def cmd_lambda_fit(args):
    meta_path = os.path.join(args.indir, "meta.json")
    meta = tvio.read_json_report(meta_path, ("dim", "sizes", "reps", "seed"))
    dim, sizes, reps = meta["dim"], meta["sizes"], meta["reps"]
    if not (isinstance(sizes, list) and all(
            type(v) is int for v in [dim, reps, meta["seed"], *sizes])):
        raise ValueError("%s: dim, reps and seed must be integers and sizes "
                         "a list of integers" % meta_path)
    samples = {}
    for n in sizes:
        path = _draws_path(args.indir, dim, n)
        samples[n] = tvio.read_csv_column(path, header="lambda")
        if samples[n].size != reps:
            raise ValueError("%s holds %d draws, not the %d of meta.json"
                             % (path, samples[n].size, reps))
    payload = lambda_fit_report(samples, dim, reps=reps, seed=meta["seed"])
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
    """Check a --grid spec and return the lambda grid as a function of y:
    LO,HI,COUNT a geometric grid, and COUNT or no spec the default grid
    below Lambda of y (a full solve on a lattice), computed only then."""
    parts = spec.split(",") if spec else []
    try:
        size = {"n_points": int(parts[-1])} if parts else {}
        # bounds other than none or LO,HI fail to unpack
        lo, hi = map(float, parts[:-1]) if parts[1:] else (None, None)
    except ValueError:
        raise ValueError("--grid expects COUNT or LO,HI,COUNT") from None
    if parts and size["n_points"] < 1:
        raise ValueError("--grid COUNT must be at least 1")
    if lo is None:
        return lambda y: default_lambda_grid(sample_lambda(y)[0], **size)
    if not 0 < lo <= hi:
        raise ValueError("--grid bounds must satisfy 0 < lo <= hi")
    try:
        check_lambda(hi)
    except ValueError:
        raise ValueError("--grid bounds must be finite") from None
    return lambda y: np.geomspace(lo, hi, size["n_points"])


def cmd_risk_curve(args):
    y, _, sigma, truth, lams, _ = _method_inputs(args, "risk-curve",
                                                 args.method)
    curve = risk_curve(y, lams, args.method, sigma=sigma, f_true=truth)
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
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if sigma_known:
            sp.add_argument("--sigma-known", dest="sigma_known", type=float,
                            help="known noise standard deviation")

    d = sub.add_parser("denoise", help="denoise a signal or image")
    common(d, infile=True, sigma_known=True)
    d.add_argument("--method", choices=tuple(_READS["denoise"]))
    d.add_argument("--lambda", type=float, metavar="LAM",
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
    g.add_argument("--snr", type=float, default=DEFAULT_SNR)
    g.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
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
    bm.add_argument("--snr", type=float, default=DEFAULT_SNR)
    bm.set_defaults(func=cmd_bench_mse)

    bs = sub.add_parser("bench-seg", help="segmentation event benchmark")
    common(bs, seed=True, sigma_known=True)
    bs.add_argument("--functions", help="battlements,staircase by default")
    bs.add_argument("--sizes", type=_parse_sizes)
    bs.add_argument("--reps", type=_parse_sizes)
    bs.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    bs.set_defaults(func=cmd_bench_seg)

    ls = sub.add_parser("lambda-sample", help="Monte Carlo draws of the dual "
                                              "sup-norm statistic")
    common(ls, seed=True)
    ls.add_argument("--dim", type=int, required=True)
    ls.add_argument("--sizes", type=_parse_sizes, required=True)
    ls.add_argument("--reps", type=int, default=200)
    ls.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help="relative certified bracket per draw: value minus "
                         "the best cut ratio is at most tol*value")
    ls.set_defaults(func=cmd_lambda_sample)

    lf = sub.add_parser("lambda-fit", help="fit Gumbel laws and the log-log "
                                           "regression to sampled draws")
    lf.add_argument("--in", dest="indir", required=True,
                    help="directory written by lambda-sample")
    lf.add_argument("--out", required=True, help="fit JSON path")
    lf.set_defaults(func=cmd_lambda_fit)

    rc = sub.add_parser("risk-curve", help="SURE or oracle loss over a grid")
    common(rc, infile=True, sigma_known=True)
    rc.add_argument("--method", choices=tuple(_READS["risk-curve"]),
                    default="sure")
    rc.add_argument("--truth", help="noise-free reference (--method oracle)")
    rc.add_argument("--grid", help="COUNT or LO,HI,COUNT")
    rc.set_defaults(func=cmd_risk_curve)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
