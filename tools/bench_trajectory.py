"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

Runs ``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` as a
subprocess for every workload that BENCHMARK.json declares, over seeds 1-10
and the held-out seed 7919. Each run's summary is the last line of its
standard output. The file written at the repository root holds, per
workload, every run's end-to-end metrics and correctness, the median and
quartiles of each metric, and whether every run was correct, with the
provenance of the measurement: perfbench's own record (commit, source
digest, numpy/scipy versions, CPU count), and whether the checkout had
uncommitted changes. Every run also keeps its source digest, so a tree
edited while the runs went on shows.

A run takes about 10 minutes (3 workloads x 11 seeds x about 17 s each).

With ``--against DIR --against-pr N`` every run alternates with the same run
on the checkout at DIR (odd seeds DIR first, even seeds this checkout
first), and BENCH_<N>.json is written for DIR as well. That takes about 20
minutes and gives pairs measured under the same load, as a claimed speed-up
needs. Usage, from the repository root:

    python3 tools/bench_trajectory.py --pr 31
    python3 tools/bench_trajectory.py --pr 31 --against ../parent --against-pr 30
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11)) + (7919,)
SECONDS = 15


def spec(root):
    """The workload names and end-to-end metric units that ``root``'s
    BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: m["unit"] for m in doc["end_to_end"]})


def bench_run(root, workload, seed):
    """One perfbench run on the checkout at ``root``: its summary line, and
    the provenance from the result file the run wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=30 * SECONDS)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "correct": False,
                "error": proc.stderr.strip().splitlines()[-5:]}, None
    summary = json.loads(lines[-1])
    path = os.path.join(root, "perfbench", "results",
                        "%s-seed%d-trace0.json" % (workload, seed))
    with open(path) as fh:
        prov = json.load(fh)["provenance"]
    return {"seed": seed, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "source_sha256": prov["source_sha256"],
            "metrics": {k: m["value"] for k, m in summary["metrics"].items()}
            }, prov


def summarize(runs, units):
    """Median and quartiles of every metric over the runs that finished."""
    done = [r for r in runs if "metrics" in r]
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in done]
        if not values:
            continue
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                     "runs": len(values)}
    return out


def provenance(root, prov):
    """perfbench's provenance of the last run on ``root``, less its seed,
    with the CPU count and whether tracked files differ from the commit."""
    prov = dict(prov or {}, cpu_count=os.cpu_count(), seconds=SECONDS,
                seeds=list(SEEDS))
    prov.pop("workload_seed", None)
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=60)
    except OSError:  # no git here
        status = None
    prov["dirty"] = (bool(status.stdout.strip())
                     if status and status.returncode == 0 else None)
    return prov


def record(sides, workloads):
    """Run every (workload, seed) on every side; returns {side: {w: runs}}
    and each side's last provenance."""
    runs = {root: {w: [] for w in workloads} for root, _ in sides}
    provs = {root: None for root, _ in sides}
    for w in workloads:
        for seed in SEEDS:
            order = sides if seed % 2 else sides[::-1]
            for root, pr in order:
                r, prov = bench_run(root, w, seed)
                runs[root][w].append(r)
                provs[root] = prov or provs[root]
                print("BENCH_%d %s seed %d: %s" % (
                    pr, w, seed, r.get("metrics", r.get("error"))),
                    file=sys.stderr, flush=True)
    return runs, provs


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="A run takes about 10 minutes; with --against, about 20.")
    p.add_argument("--pr", type=int, required=True,
                   help="number in the name of the file for this checkout")
    p.add_argument("--against", metavar="DIR",
                   help="another checkout, run alternately with this one")
    p.add_argument("--against-pr", type=int,
                   help="number in the name of the file for --against")
    args = p.parse_args(argv)
    if (args.against is None) != (args.against_pr is None):
        p.error("--against and --against-pr go together")
    sides = [(ROOT, args.pr)]
    if args.against:
        sides.insert(0, (os.path.abspath(args.against), args.against_pr))
    workloads, units = spec(ROOT)
    for root, _ in sides:
        if spec(root) != (workloads, units):
            p.error("%s declares another benchmark than %s" % (root, ROOT))
    runs, provs = record(sides, workloads)
    for root, pr in sides:
        doc = {"pr": pr, "provenance": provenance(root, provs[root]),
               "paired_with": [q for r, q in sides if r != root],
               "workloads": {}}
        for w in workloads:
            stats = summarize(runs[root][w], units)
            doc["workloads"][w] = {
                "correct": all(r["correct"] for r in runs[root][w]),
                "metrics": stats, "runs": runs[root][w]}
        path = os.path.join(ROOT, "BENCH_%d.json" % pr)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
