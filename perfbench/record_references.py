"""Record the reference outputs of every bank instance to references.json.

Run from the repository root, on the commit whose outputs become the
reference (a later change to the library must not re-record them):

    python3 perfbench/record_references.py [workload ...]

Each bank instance runs once, untransformed, and must pass the certificate
checks. The recorded numbers are what workloads.py compares later runs with.
"""
from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(names):
    from perfbench import workloads
    try:
        with open(workloads.REFERENCE_FILE) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names:
        wl = workloads.make(name)
        refs[name] = {}
        for key in wl.bank():
            job = wl.job(key, 0, None)
            t0 = time.perf_counter()
            outcome, record = wl.check(job, wl.run(job))
            wall = time.perf_counter() - t0
            if outcome.failures:
                raise RuntimeError("%s %s fails its checks: %s"
                                   % (name, key, outcome.failures))
            refs[name][key] = record
            print("%-15s %-12s %7.2f s  %s" % (name, key, wall, outcome.work),
                  flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.run import WORKLOAD_NAMES, pin_threads
    pin_threads()
    sys.exit(main(sys.argv[1:] or WORKLOAD_NAMES))
