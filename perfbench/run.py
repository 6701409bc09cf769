"""Closed-loop benchmark of the tvdn library.

Run from the repository root:

    python3 perfbench/run.py --workload image_sure --seed 1 --seconds 15 --trace 0

One client runs one job at a time; the next job starts when the previous one
returns. A job is one call sequence into the same library functions that the
command line subcommands call, on inputs the benchmark builds from the seed
(see workloads.py). Jobs run in rounds, one pass over the workload's instance
bank, and the run stops after the whole round that ends nearest to
--seconds, so every run measures the same job mix.

--trace 0 times whole jobs and prints the end-to-end metrics. --trace 1 wraps
the library's public functions in spans (tracer.py) and prints per-layer
metrics, averaged per job; it also reruns the first job untraced to measure
its own overhead. The last line of standard output is one JSON object;
a full result file with provenance goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("mc_1d", "image_sure", "lambda_calib")
SETUP_REPEATS = 3  # one in-process import plus two fresh-interpreter probes
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import tvdn; "
                "print(time.perf_counter() - t)")

END_TO_END = (
    ("jobs_per_s", "1/s"), ("job_s.p50", "s"), ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "1"), ("risk_x100", "1"),
    ("setup_s", "s"),
)

# spans whose call counts, self times and inclusive (wall) times are reported
CALLS = (
    "grid.diff_flat", "grid.adjoint_flat", "grid.spectral_solve",
    "grid.laplacian_solve", "tvsolve.tv_denoise", "tvsolve.tv_denoise_1d",
    "tvsolve.lambda_max", "lambda_stat.sample_lambda", "risk.ncc", "risk.sure",
    "pool.parallel_map",
)
SELF_S = (
    "grid.diff_flat", "grid.adjoint_flat", "grid.spectral_solve",
    "grid.laplacian_solve", "grid.edge_endpoints", "tvsolve.tv_denoise",
    "tvsolve.tv_denoise_1d", "tvsolve.lambda_max", "lambda_stat.sample_lambda",
    "lambda_stat.sample_lambda_1d", "lambda_stat.fit_gumbel",
    "lambda_stat.fit_gev_and_lr_test", "risk.ncc", "risk.sure",
    "selection.adaptive_tv", "selection.count_jumps", "selection.estimate_sigma",
    "bench.lambda_fit_report",
)
WALL_S = ("risk.risk_curve", "pool.parallel_map", "bench.bench_mse",
          "bench.run_lambda_samples")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def per_layer_metrics(tr, n_jobs):
    """Per-layer numbers from a tracer, counts and seconds averaged per job."""
    from perfbench.tracer import GRID_KERNELS
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for span in CALLS:
        put(span + ".calls", tr.calls[span] / n_jobs, "count/job")
    for span in SELF_S:
        put(span + ".self_s", tr.self_s[span] / n_jobs, "s/job")
    for span in WALL_S:
        put(span + ".wall_s", tr.incl[span] / n_jobs, "s/job")
    kernel_bytes = sum(tr.counts[k + ".bytes"] for k in GRID_KERNELS)
    kernel_s = sum(tr.incl[k] for k in GRID_KERNELS)
    put("grid.bytes_computed", kernel_bytes / n_jobs, "B/job")
    put("grid.gbps_computed", kernel_bytes / kernel_s / 1e9 if kernel_s else 0.0,
        "GB/s")
    iters = tr.counts["tvsolve.tv_denoise.iterations"]
    for key in ("iterations", "unconverged", "zero_iter"):
        put("tvsolve.tv_denoise." + key,
            tr.counts["tvsolve.tv_denoise." + key] / n_jobs, "count/job")
    put("tvsolve.tv_denoise.s_per_iter",
        tr.incl["tvsolve.tv_denoise"] / iters if iters else 0.0, "s/iter")
    put("lambda_stat.sample_lambda.spectral_calls",
        tr.counts["lambda_stat.sample_lambda.spectral_calls"] / n_jobs,
        "count/job")
    put("pool.tasks", len(tr.task_s) / n_jobs, "count/job")
    put("pool.workers", tr.workers, "count")
    put("pool.task_s.max", max(tr.task_s, default=0.0), "s")
    put("pool.busy_frac",
        sum(tr.task_s) / tr.map_capacity_s if tr.map_capacity_s else 0.0, "1")
    return m


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tvdn")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed):
    import multiprocessing

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": nproc(), "TVDN_THREADS": os.environ.get("TVDN_THREADS"),
        "blas": blas, "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "pool_start_method": multiprocessing.get_start_method(),
        "workload_seed": seed, "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def import_probe():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_job(wl, job):
    """Run one job; returns (wall seconds, outcome or None, record, error)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception:  # a failing job is counted, and the loop goes on
        return time.perf_counter() - t0, None, {}, traceback.format_exc()
    wall = time.perf_counter() - t0
    try:
        outcome, record = wl.check(job, out)
    except Exception:
        return wall, None, {}, traceback.format_exc()
    return wall, outcome, record, None


def measure(wl, round_jobs, seconds):
    """Whole rounds until the round ending nearest to ``seconds``."""
    jobs = []
    spent = 0.0
    while True:
        for job in round_jobs:
            wall, outcome, record, error = run_job(wl, job)
            spent += wall
            failures = [error] if error else outcome.failures
            jobs.append({"key": job.key, "variant": job.variant, "wall_s": wall,
                         "failures": failures,
                         "risk_x100": outcome.risk_x100 if outcome else None,
                         "work": outcome.work if outcome else {},
                         "output": record})
        rounds = len(jobs) // len(round_jobs)
        if spent + 0.5 * spent / rounds >= seconds:
            return jobs, spent


def run(workload, seed, seconds, trace, import_s, scale=None):
    """Set up, measure and check one run; returns (summary line, result file).

    ``import_s`` is the time the caller took to import tvdn; it is the first
    of the set-up samples.
    """
    import numpy as np

    from perfbench import tracer as tracing
    from perfbench import workloads

    scale = scale or workloads.FULL
    wl = workloads.make(workload, scale)
    refs = workloads.load_references(workload, scale)
    setup_s = []
    for i in range(SETUP_REPEATS):
        load_s = import_s if i == 0 else import_probe()
        t0 = time.perf_counter()
        round_jobs = wl.round(np.random.default_rng(seed), refs)
        setup_s.append(load_s + time.perf_counter() - t0)
    missing = [k for k in wl.bank() if scale == workloads.FULL and k not in refs]
    if missing:
        raise RuntimeError("no reference outputs for %s" % missing)

    usage0 = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    tr = None
    if trace:
        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        try:
            jobs, spent = measure(wl, round_jobs, seconds)
        finally:
            uninstall()
    else:
        jobs, spent = measure(wl, round_jobs, seconds)
    usage1 = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    if trace:
        untraced, _, _, _ = run_job(wl, round_jobs[0])
        overhead = jobs[0]["wall_s"] / untraced - 1.0
    cpu_s = sum(u1.ru_utime + u1.ru_stime - u0.ru_utime - u0.ru_stime
                for u0, u1 in zip(usage0, usage1))
    peak_mb = (usage1[0].ru_maxrss + usage1[1].ru_maxrss) / 1024.0

    n = len(jobs)
    failed = sum(1 for j in jobs if j["failures"])
    risks = [j["risk_x100"] for j in jobs
             if j["risk_x100"] is not None and np.isfinite(j["risk_x100"])]
    walls = [j["wall_s"] for j in jobs]
    work = {}
    for j in jobs:
        for k, v in j["work"].items():
            work[k] = work.get(k, 0) + v
    end_to_end = {
        "jobs_per_s": n / spent, "job_s.p50": statistics.median(walls),
        "cpu_s_per_job": cpu_s / n, "peak_rss_mb": peak_mb,
        "ok_frac": (n - failed) / n,
        "risk_x100": float(np.mean(risks)) if risks else 0.0,
        "setup_s": statistics.median(setup_s),
    }
    units = dict(END_TO_END)
    if trace:
        metrics = per_layer_metrics(tr, n)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "1"}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": units[k]} for k in units}
    summary = {"correct": failed == 0, "attempted": n, "failed": failed,
               "metrics": metrics}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale.__dict__ if scale != workloads.FULL else "full",
        "provenance": provenance(seed),
        "jobs": n, "rounds": n // len(round_jobs), "jobs_per_round": len(round_jobs),
        "job_wall_s": walls, "setup_samples_s": setup_s,
        "fail_frac": failed / n, "solver_work": work,
        "end_to_end": end_to_end, "summary": summary,
        "notes": {
            "cpu_s_per_job": "user+sys of the main process plus its reaped "
                             "children (pool workers) over the measured jobs",
            "peak_rss_mb": "main-process peak RSS plus the largest peak among "
                           "its reaped children (pool workers, import probes)",
            "grid.bytes_computed": "8 bytes x (input + output elements) per "
                                   "kernel call, computed from array sizes, "
                                   "not measured",
            "jobs_per_s": "jobs over the summed job wall time; checks excluded",
        },
        "job_records": jobs,
    }
    if trace:
        result["tracing"] = {
            "overhead_frac": overhead,
            "overhead_method": "first job of the round traced, then rerun "
                               "untraced after the traced rounds: "
                               "traced/untraced wall - 1",
            "untraced_wall_s": untraced,
            "pool_capture": tracing.POOL_CAPTURE,
            "spans": {k: {"calls": tr.calls[k], "incl_s": tr.incl[k],
                          "self_s": tr.self_s[k]} for k in sorted(tr.calls)},
            "counts": dict(tr.counts),
        }
    return summary, result


def main(argv, import_s):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    summary, result = run(args.workload, args.seed, args.seconds, args.trace,
                          import_s)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=float)
    print(json.dumps(summary, sort_keys=True))
    return 0


def pin_threads():
    """Fix the run's parallelism before numpy loads.

    The pool's TVDN_THREADS workers are the only parallelism: at most two,
    and never more than the CPUs. BLAS gets one thread, because idle OpenBLAS
    threads spin, which doubled the CPU time of in-process ADMM solves and,
    next to the pool workers, oversubscribed the CPUs and made runs noisy.
    """
    os.environ["TVDN_THREADS"] = str(min(2, nproc()))
    for key in BLAS_ENV:
        os.environ[key] = "1"


def _import_library():
    """Import tvdn from this checkout's src/ and return the import time."""
    if not os.path.isfile(os.path.join(SRC, "tvdn", "__init__.py")):
        sys.exit("perfbench: no tvdn sources under %s" % SRC)
    pin_threads()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import tvdn  # noqa: F401
    return time.perf_counter() - t0


if __name__ == "__main__":
    import_seconds = _import_library()
    sys.path.insert(0, ROOT)
    sys.exit(main(sys.argv[1:], import_seconds))
