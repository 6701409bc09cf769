"""Workload inputs, the jobs that run on them, and the checks on their outputs.

Every workload draws its inputs from a fixed bank of instances. Each bank
instance has reference outputs recorded from the library in
``references.json`` (``record_references.py`` writes it), so every job is
checked against a reference whatever the run seed is. A round runs every
bank instance once, so each run measures the same work. The run seed picks
the order of the instances in a round and, for images, one of the 16 lattice
symmetries (rotations, transposition, negation) per job. TV denoising and
the statistic Lambda are equivariant under these symmetries, so the work and
the reference objectives carry over exactly while the input arrays differ.

Checks use the benchmark's own difference operator, never the library's, so
that a defect in the library's operator cannot hide in its own check.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from tvdn import bench, risk, tvsolve
from tvdn.grid import Signal
from tvdn.tvsolve import SolverConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")

# the command line's defaults: denoise --gap-tol, --max-iter, lambda-sample --tol
GAP_TOL = 1e-8
MAX_ITER = 5000
LAMBDA_TOL = 1e-6
SIGMA = 1.0
BANK_ENTROPY = 160501438
MC_FUNCTIONS = ("blocks", "bumps", "heavisine", "doppler")


@dataclass(frozen=True)
class Scale:
    """Problem sizes of the workloads."""

    sure_side: int = 64
    sure_bank: int = 3
    mc_sizes: tuple = (1000, 10000)
    mc_reps: tuple = (20, 2)  # the shipped 10:1 replicate ratio
    lambda_sizes: tuple = (16, 32, 64)
    lambda_reps: int = 10  # the fewest draws per size the Gumbel fit accepts
    lambda_bank: int = 4


FULL = Scale()
# toy sizes for the benchmark's own smoke test; they have no references
TOY = Scale(sure_side=12, sure_bank=1,
            mc_sizes=(40,), mc_reps=(3,),
            lambda_sizes=(6, 8), lambda_bank=1)


@dataclass
class Job:
    """One call into the library, with its input and what to check it against."""

    key: str  # bank instance
    variant: int = 0
    y: np.ndarray | None = None
    truth: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    ref: dict | None = None


@dataclass
class Outcome:
    failures: list
    risk_x100: float
    work: dict


# -- the benchmark's own lattice operator ---------------------------------

def diff(values, shape):
    """B f: differences along the last axis first, then outward."""
    arr = np.asarray(values, dtype=float).reshape(shape)
    return np.concatenate([np.diff(arr, axis=ax).ravel()
                           for ax in reversed(range(arr.ndim))])


def adjoint(w, shape):
    """B^T w for the edge ordering of ``diff``."""
    out = np.zeros(shape)
    pos = 0
    for ax in reversed(range(len(shape))):
        blk_shape = list(shape)
        blk_shape[ax] -= 1
        cnt = int(np.prod(blk_shape))
        blk = np.asarray(w[pos:pos + cnt]).reshape(blk_shape)
        pos += cnt
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[ax] = slice(0, shape[ax] - 1)
        hi[ax] = slice(1, shape[ax])
        out[tuple(lo)] -= blk
        out[tuple(hi)] += blk
    return out.ravel()


def certify(y, f, w, lam, shape):
    """Check a TV solution's certificate; returns (failures, objective, gap, tv).

    The dual must lie in the lambda box, reproduce the fit as y - B^T w, and
    give a duality gap in [0, GAP_TOL * (1 + objective)].
    """
    y = np.asarray(y, dtype=float).ravel()
    f = np.asarray(f, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    n_edges = sum((n - 1) * (y.size // n) for n in shape)
    if f.size != y.size or w.size != n_edges:
        return ["solution has the wrong size"], math.nan, math.nan, math.nan
    if not (np.isfinite(f).all() and np.isfinite(w).all()):
        return ["solution is not finite"], math.nan, math.nan, math.nan
    failures = []
    if np.abs(w).max(initial=0.0) > lam * (1.0 + 1e-12):
        failures.append("dual outside the lambda box")
    scale = max(float(np.abs(y).max()), 1e-300)
    if np.abs(y - adjoint(w, shape) - f).max() > 1e-8 * scale:
        failures.append("fit is not y - B^T w")
    z = diff(f, shape)
    tv = float(np.abs(z).sum())
    objective = 0.5 * float(((y - f) ** 2).sum()) + lam * tv
    gap = lam * tv - float(z @ w)
    if gap < -1e-12 * (1.0 + objective):
        failures.append("negative duality gap %.3g" % gap)
    if gap > GAP_TOL * (1.0 + objective) * (1.0 + 1e-6):
        failures.append("duality gap %.3g above tolerance" % gap)
    return failures, objective, gap, tv


def objective_bound(objective, gap, lam, ref):
    """Failures if the objective exceeds the reference by more than the gaps.

    The optimal value V(lambda) is concave in lambda with slope TV(f*), so
    V(lam) <= V(lam_ref) + (lam - lam_ref) * TV_ref also covers a lambda
    that moved slightly, as when Lambda is computed by another method.
    """
    if ref is None:
        return []
    dlam = lam - ref["lam"]
    allowed = (ref["objective"] + dlam * ref["tv"] + gap + ref["gap"]
               + 1e-9 * (1.0 + abs(ref["objective"]))
               + 1e-6 * abs(dlam) * ref["tv"])
    if objective > allowed:
        return ["objective %.12g exceeds reference bound %.12g"
                % (objective, allowed)]
    return []


def _solution_record(y, sol, lam, shape, ref):
    failures, objective, gap, tv = certify(y, sol.estimate.values, sol.dual,
                                           lam, shape)
    if not sol.converged:
        failures.append("solver reported converged=False")
    failures += objective_bound(objective, gap, lam, ref)
    return failures, {"lam": lam, "objective": objective, "gap": gap, "tv": tv}


def _risk_x100(f, truth):
    d = np.asarray(f, dtype=float).ravel() - np.asarray(truth).ravel()
    return 100.0 * float(d @ d) / d.size


# -- inputs ---------------------------------------------------------------

def phantom(n, rng):
    """Piecewise-constant image of three rectangles and two discs."""
    yy, xx = (np.mgrid[0:n, 0:n] + 0.5) / n
    f = np.zeros((n, n))
    for _ in range(3):
        y0, x0 = rng.uniform(0.0, 0.6, 2)
        h, w = rng.uniform(0.15, 0.4, 2)
        f[(yy >= y0) & (yy < y0 + h) & (xx >= x0) & (xx < x0 + w)] = \
            rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 4.0)
    for _ in range(2):
        cy, cx = rng.uniform(0.2, 0.8, 2)
        r = rng.uniform(0.08, 0.18)
        f[(yy - cy) ** 2 + (xx - cx) ** 2 < r * r] = \
            rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 4.0)
    return f


def noisy_phantom(tag, k, n):
    rng = np.random.default_rng([BANK_ENTROPY, tag, k])
    f = phantom(n, rng)
    return f + SIGMA * rng.standard_normal(f.shape), f


def symmetry(arr, variant):
    """One of the 16 lattice symmetries of a square image, with negation."""
    out = np.rot90(arr, variant % 4)
    if variant & 4:
        out = out.T
    if variant & 8:
        out = -out
    return np.ascontiguousarray(out)


def _cfg():
    return SolverConfig(gap_tol=GAP_TOL, max_iter=MAX_ITER)


# -- workloads --------------------------------------------------------------

class Workload:
    """A bank of instances; a round runs each of them once."""

    name = ""
    variants = 1  # input symmetries the seed may pick from

    def __init__(self, scale):
        self.scale = scale

    def bank(self):
        raise NotImplementedError

    def job(self, key, variant, ref):
        raise NotImplementedError

    def round(self, rng, refs):
        """The seed's job sequence: instance order and input variants."""
        bank = self.bank()
        return [self.job(bank[i], int(rng.integers(self.variants)),
                         refs.get(bank[i]))
                for i in rng.permutation(len(bank))]


class ImageSure(Workload):
    """denoise --method sure on noisy 64^2 phantoms: Lambda, a 30-point SURE
    curve through the pool, then the final solve."""

    name = "image_sure"
    variants = 16

    def bank(self):
        return ["phantom%d" % k for k in range(self.scale.sure_bank)]

    def job(self, key, variant, ref):
        y, f = noisy_phantom(2, int(key[7:]), self.scale.sure_side)
        return Job(key, variant, symmetry(y, variant), symmetry(f, variant),
                   ref=ref)

    def run(self, job):
        y = Signal.from_array(job.y)
        lam_max = tvsolve.lambda_max(y)
        grid = risk.default_lambda_grid(lam_max if lam_max > 0 else 1.0)
        curve = risk.risk_curve(y, grid, "sure", sigma=SIGMA, cfg=_cfg())
        sol = tvsolve.tv_denoise(y, curve.argmin_lambda, _cfg())
        return lam_max, curve, sol

    def check(self, job, out):
        lam_max, curve, sol = out
        ref = job.ref or {}
        failures = []
        if "lam_max" in ref and abs(lam_max - ref["lam_max"]) > \
                2 * LAMBDA_TOL * (1.0 + ref["lam_max"]):
            failures.append("Lambda %.12g differs from reference %.12g"
                            % (lam_max, ref["lam_max"]))
        grid = np.geomspace(lam_max / 1e3, lam_max, 30)
        values = np.asarray(curve.values)
        if curve.lambdas.shape != grid.shape or \
                not np.allclose(curve.lambdas, grid, rtol=1e-12):
            failures.append("risk curve is not on the default grid")
        elif not np.isfinite(values).all():
            failures.append("risk curve is not finite")
        elif curve.argmin_lambda != curve.lambdas[int(np.argmin(values))]:
            failures.append("argmin_lambda is not the curve's minimizer")
        fails, rec = _solution_record(job.y, sol, curve.argmin_lambda,
                                      job.y.shape, ref.get("final"))
        failures += fails
        record = {"lam_max": lam_max, "final": rec,
                  "curve": [float(v) for v in values]}
        work = {"iterations": sol.iterations,
                "unconverged": int(not sol.converged),
                "zero_iter": int(sol.iterations == 0)}
        return Outcome(failures, _risk_x100(sol.estimate.values, job.truth),
                       work), record


class MonteCarlo1d(Workload):
    """bench_mse on one test function per job, at the shipped sizes and ratio."""

    name = "mc_1d"

    def bank(self):
        return list(MC_FUNCTIONS)

    def job(self, key, variant, ref):
        return Job(key, variant, params={
            "function": key, "seed": 1000 * MC_FUNCTIONS.index(key)}, ref=ref)

    def run(self, job):
        cfg = bench.ExperimentConfig(
            "mse_1d", functions=(job.params["function"],),
            sizes=self.scale.mc_sizes, reps=self.scale.mc_reps,
            seed=job.params["seed"], snr=7.0, sigma=SIGMA)
        return bench.bench_mse(cfg)

    def check(self, job, table):
        function = job.params["function"]
        methods = ("oracle", "sure", "adaptive")
        failures = []
        missing = table.missing((function,), self.scale.mc_sizes, methods,
                                ("risk_x100",))
        if missing:
            return Outcome(["missing rows %s" % missing], math.nan, {}), {}
        record = {}
        for n in self.scale.mc_sizes:
            rows = {m: table.get(function, n, m, "risk_x100") for m in methods}
            for m, row in rows.items():
                record["%d|%s" % (n, m)] = row["value"]
                if not (math.isfinite(row["value"]) and row["se"] >= 0):
                    failures.append("bad row %s" % row)
            if rows["oracle"]["value"] > rows["sure"]["value"] + 1e-12:
                failures.append("oracle risk above SURE risk at n=%d" % n)
        for k, v in (job.ref or {}).items():
            if not math.isclose(record[k], v, rel_tol=1e-6, abs_tol=1e-9):
                failures.append("risk %s = %.12g, reference %.12g"
                                % (k, record[k], v))
        chosen = [v for k, v in record.items() if not k.endswith("oracle")]
        return Outcome(failures, float(np.mean(chosen)), {}), record


class LambdaCalib(Workload):
    """run_lambda_samples on pure noise at 16^2, 32^2 and 64^2, then the
    Gumbel/GEV fit report."""

    name = "lambda_calib"

    def bank(self):
        return ["seed%d" % b for b in range(self.scale.lambda_bank)]

    def job(self, key, variant, ref):
        seed = 7000 + 10 * int(key[4:])
        return Job(key, variant, params={"seed": seed,
                                         "noise_means": self._noise_means(seed)},
                   ref=ref)

    def _noise_means(self, seed):
        # the draws monte_carlo_lambda makes: one SeedSequence per side length
        # (seed + size index), spawned into one child per replicate
        means = []
        for i, n in enumerate(self.scale.lambda_sizes):
            for child in np.random.SeedSequence(seed + i).spawn(self.scale.lambda_reps):
                means.append(np.random.default_rng(child).standard_normal(n * n).mean())
        return np.array(means)

    def run(self, job):
        samples = bench.run_lambda_samples(2, self.scale.lambda_sizes,
                                           self.scale.lambda_reps,
                                           job.params["seed"], tol=LAMBDA_TOL)
        report = bench.lambda_fit_report(samples, 2, reps=self.scale.lambda_reps,
                                         seed=job.params["seed"])
        return samples, report

    def check(self, job, out):
        samples, report = out
        failures = []
        ref = job.ref or {}
        record = {"draws": {}, "mu": report["mu"], "beta": report["beta"]}
        for n in self.scale.lambda_sizes:
            draws = np.asarray(samples.get(n, []), dtype=float)
            record["draws"][str(n)] = draws.tolist()
            if draws.shape != (self.scale.lambda_reps,) or \
                    not (np.isfinite(draws).all() and (draws > 0).all()):
                failures.append("bad draws at n=%d" % n)
                continue
            if "draws" in ref:
                want = np.asarray(ref["draws"][str(n)])
                bad = np.abs(draws - want) > 2 * LAMBDA_TOL * (1.0 + want)
                if bad.any():
                    failures.append("%d draws at n=%d differ from reference"
                                    % (int(bad.sum()), n))
        for key in ("mu", "beta"):
            vals = np.asarray(report[key], dtype=float)
            if not (np.isfinite(vals).all() and (vals > 0).all()):
                failures.append("fit %s not finite and positive" % key)
            elif key in ref and not np.allclose(vals, ref[key], rtol=1e-4):
                failures.append("fit %s differs from reference" % key)
        for row in report["gev"]:
            if not 0.0 <= row["p_value"] <= 1.0:
                failures.append("GEV p-value outside [0, 1]")
        # the fit at lambda = Lambda(y) is the constant mean; the truth is zero
        risk_x100 = 100.0 * float(np.mean(job.params["noise_means"] ** 2))
        return Outcome(failures, risk_x100, {"draws": int(sum(
            len(v) for v in record["draws"].values()))}), record


WORKLOADS = {cls.name: cls for cls in (MonteCarlo1d, ImageSure, LambdaCalib)}


def make(name, scale=FULL):
    return WORKLOADS[name](scale)


def load_references(name, scale=FULL):
    """Recorded outputs per bank instance; none exist for other scales."""
    if scale != FULL:
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(name, {})
