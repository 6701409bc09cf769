"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

Runs ``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` as a
subprocess for every workload that BENCHMARK.json declares, over seeds 1-10
and the held-out seed 7919, on this checkout and on the parent's checkout
at DIR in turn (odd seeds DIR first, even seeds this checkout first), so
that every pair is measured under the same load, as a claimed speed-up
needs. Each run's summary is the last line of its standard output; a run
that fails, times out or leaves no summary is kept as a failed run, and
the session goes on. A session takes about 20 minutes (3 workloads x 11
seeds x 2 checkouts x about 17 s each).

The parent's PR number is the largest N among DIR's BENCH_<N>.json files;
DIR must hold one, and --pr must be above it. DIR's file is left as it is.
The file written at this repository's root holds, per workload, every
run's end-to-end metrics and correctness, the median and quartiles of each
metric, and whether every run was correct, with the provenance of the
measurement: perfbench's own record (commit, source digest, numpy/scipy
versions, CPU count), and whether the measured paths (src/, perfbench/,
BENCHMARK.json) differed from the commit before the checkout's first run.
Every run also keeps its source digest, so a tree edited while the runs
went on shows. The parent's runs, medians and provenance go into an
``against`` section, and each workload also holds, per end-to-end metric,
the pairs read as one comparison (``pairs``): the median of the per-seed
ratios this/DIR, how many pairs moved the way BENCHMARK.json's ``better``
marks as better, and how many moved the other way or tied; one line per
metric is printed as well. ``bench_doc`` builds the file's contents from
the runs; only ``main`` runs anything or writes the file. Usage, from the
repository root:

    python3 tools/bench_trajectory.py --pr 31 --against ../parent
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11)) + (7919,)
SECONDS = 15
# what a run measures: a change elsewhere does not make a checkout dirty
MEASURED = ("src", "perfbench", "BENCHMARK.json")


def spec(root):
    """The workload names and the end-to-end metrics, each with its unit
    and which way is better, that ``root``'s BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]})


def bench_run(root, workload, seed):
    """One perfbench run on the checkout at ``root``: its summary line, and
    the provenance from the result file the run wrote. A run that fails,
    times out, or leaves no summary or result file is a failed run, with
    its ``error`` lines, and no provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    failed, limit = {"seed": seed, "correct": False}, 30 * SECONDS
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return dict(failed, error=["timed out after %d s" % limit]), None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(failed, error=proc.stderr.strip().splitlines()[-5:]), None
    path = os.path.join(root, "perfbench", "results",
                        "%s-seed%d-trace0.json" % (workload, seed))
    try:
        summary = json.loads(lines[-1])
        with open(path) as fh:
            prov = json.load(fh)["provenance"]
    except (OSError, ValueError) as exc:
        return dict(failed, error=[repr(exc)]), None
    return {"seed": seed, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "source_sha256": prov["source_sha256"],
            "metrics": {k: m["value"] for k, m in summary["metrics"].items()}
            }, prov


def summarize(runs, metrics):
    """Median and quartiles of every metric over the runs that finished."""
    done = [r for r in runs if "metrics" in r]
    out = {}
    for name, (unit, _) in metrics.items():
        values = [r["metrics"][name] for r in done]
        if not values:
            continue
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                     "runs": len(values)}
    return out


def compare_pairs(runs, base, metrics):
    """The runs against the base runs, paired by seed (pairs where either
    run did not finish are left out): per metric, the median of the ratios
    run/base over the pairs whose base is not 0, the number of pairs that
    moved the way ``better`` marks as better ("won"), and the number that
    moved the other way or tied ("lost_or_tied")."""
    by_seed = {r["seed"]: r["metrics"] for r in base if "metrics" in r}
    pairs = [(r["metrics"], by_seed[r["seed"]]) for r in runs
             if "metrics" in r and r["seed"] in by_seed]
    out = {}
    for name, (_, better) in metrics.items():
        sign = 1.0 if better == "higher" else -1.0
        values = [(new[name], old[name]) for new, old in pairs]
        if not values:
            continue
        won = sum(sign * (new - old) > 0 for new, old in values)
        ratios = [new / old for new, old in values if old != 0]
        out[name] = {"better": better, "pairs": len(values), "won": won,
                     "lost_or_tied": len(values) - won,
                     "ratio_median": (statistics.median(ratios)
                                      if ratios else None)}
    return out


def pair_line(workload, name, cmp):
    """One comparison from ``compare_pairs`` as a line of text."""
    ratio = cmp["ratio_median"]
    return "%s %s: median ratio %s, better (%s) in %d of %d pairs" % (
        workload, name, "n/a" if ratio is None else "%.4f" % ratio,
        cmp["better"], cmp["won"], cmp["pairs"])


def dirty(root):
    """Whether the tracked files of ``root``'s measured paths differ from
    its commit; None where git cannot tell."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             *MEASURED], cwd=root, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):  # no git here
        return None
    return bool(status.stdout.strip()) if status.returncode == 0 else None


def provenance(prov, is_dirty):
    """perfbench's provenance of a checkout's last run, less its seed, with
    the CPU count and ``dirty`` as probed before its first run."""
    prov = dict(prov or {}, cpu_count=os.cpu_count(), seconds=SECONDS,
                seeds=list(SEEDS), dirty=is_dirty)
    prov.pop("workload_seed", None)
    return prov


def record(sides, workloads):
    """Run every (workload, seed) on both sides, (parent, this checkout):
    odd seeds the parent first. Each side's git probe runs before its
    first run. Returns, by side, the runs as {workload: runs} and the
    provenance."""
    probes = [dirty(root) for root, _ in sides]
    runs = [{w: [] for w in workloads} for _ in sides]
    provs = [None] * len(sides)
    for w in workloads:
        for seed in SEEDS:
            for i in ((0, 1) if seed % 2 else (1, 0)):
                root, pr = sides[i]
                r, prov = bench_run(root, w, seed)
                runs[i][w].append(r)
                provs[i] = prov or provs[i]
                print("BENCH_%d %s seed %d: %s" % (
                    pr, w, seed, r.get("metrics", r.get("error"))),
                    file=sys.stderr, flush=True)
    return runs, [provenance(p, d) for p, d in zip(provs, probes)]


def parent_pr(root):
    """The largest N among ``root``'s BENCH_<N>.json files, or None."""
    found = (re.fullmatch(r"BENCH_(\d+)\.json", name)
             for name in os.listdir(root))
    return max((int(m.group(1)) for m in found if m), default=None)


def side_doc(pr, prov, runs, metrics):
    """One checkout's runs as a document: its PR number and provenance,
    and per workload its runs, their medians and quartiles, and whether
    every run was correct."""
    return {"pr": pr, "provenance": prov, "workloads": {
        w: {"correct": all(r["correct"] for r in rs),
            "metrics": summarize(rs, metrics), "runs": rs}
        for w, rs in runs.items()}}


def bench_doc(pr, prov, runs, metrics, against):
    """The contents of this checkout's BENCH_<pr>.json, and the pair lines
    to print. ``runs`` maps each workload to this checkout's runs, and
    ``against`` is the parent's (pr, provenance, runs). Its runs, medians
    and provenance go into an ``against`` section, and each workload gains
    ``pairs``, this checkout's runs read against them by
    ``compare_pairs``."""
    doc = side_doc(pr, prov, runs, metrics)
    doc["against"] = side_doc(*against, metrics)
    lines = []
    for w, rs in runs.items():
        cmp = compare_pairs(rs, against[2][w], metrics)
        doc["workloads"][w]["pairs"] = cmp
        lines += [pair_line(w, name, c) for name, c in cmp.items()]
    return doc, lines


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="A session takes about 20 minutes.")
    p.add_argument("--pr", type=int, required=True,
                   help="number in the name of the file for this checkout")
    p.add_argument("--against", metavar="DIR", required=True,
                   help="the parent's checkout, run alternately with this "
                   "one; its newest BENCH_<N>.json gives its PR number")
    args = p.parse_args(argv)
    parent = os.path.abspath(args.against)
    if not os.path.isdir(parent):
        p.error("%s is not a directory" % parent)
    if os.path.samefile(parent, ROOT):
        p.error("%s is this checkout: it cannot be its own parent" % parent)
    against_pr = parent_pr(parent)
    if against_pr is None:
        p.error("%s holds no BENCH_<N>.json to read its PR number from"
                % parent)
    if args.pr <= against_pr:
        p.error("--pr %d is not above the parent's %d" % (args.pr, against_pr))
    workloads, metrics = spec(ROOT)
    if spec(parent) != (workloads, metrics):
        p.error("%s declares another benchmark than %s" % (parent, ROOT))
    (base, mine), (base_prov, prov) = record(
        [(parent, against_pr), (ROOT, args.pr)], workloads)
    doc, lines = bench_doc(args.pr, prov, mine, metrics,
                           (against_pr, base_prov, base))
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
