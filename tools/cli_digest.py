"""Digest every output of a fixed list of tvdn CLI calls, to compare the
output bytes of two checkouts, or of two process counts.

Imports tvdn from DIR/src (this checkout by default) and runs each call of
``calls()`` in-process through ``tvdn.cli.main``, inside OUT and with
relative paths, since ``gen`` and ``lambda-sample`` echo --out to stdout.
Each call's stdout is saved as NAME.stdout beside the files the call
writes. Then one ``sha1  path`` line is printed per file under OUT, sorted
by path. The process count is the one TVDN_THREADS gives, as for any run.
The calls:

- ``gen`` of blocks, bumps, heavisine and doppler at n = 300 and
  n = 20,000 with --truth-out, and a 0.5-rounded copy of each input (tied
  data);
- on each input, ``denoise`` with fixed, universal, adaptive, sure and
  oracle, and ``risk-curve`` with sure and oracle;
- ``bench-mse`` and ``bench-seg`` at their defaults, and on small sizes
  whose chunks are blocks of a few hundred to a few thousand sites:
  ``bench-mse`` of doppler and blocks at n = 50 and 300 with 7 replicates,
  ``bench-seg`` at n = 60 with 20;
- ``lambda-sample`` with --dim 1 and --dim 2 at small sizes, and
  ``lambda-fit`` on each;
- ``denoise`` with universal, adaptive and sure on a seeded 32x32 PGM.

A run lists 420 files in about 10 s on 2 CPUs. Usage, from the repository
root:

    TVDN_THREADS=2 python3 tools/cli_digest.py OUT [--root DIR] > digests.txt
    python3 tools/cli_digest.py OUT --check tools/cli_digests.txt

Two listings are equal exactly when every output is byte-identical. A
listing opens with ``#`` lines that name the Python, numpy and scipy
versions and the machine it was made on: the bytes can depend on them,
since numpy's SIMD ``sin`` may differ in the last ulp across CPUs.
``tools/cli_digests.txt`` is the listing of this checkout; a change that
moves output bytes commits the new one, so the diff names each moved file.
``--check FILE`` reruns the calls and prints each path that is added,
removed or changed against FILE, and exits 1 if there is one.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import platform
import random
import sys

FUNCTIONS = ("blocks", "bumps", "heavisine", "doppler")
SIZES = (300, 20_000)


def _rounded_copy(src: str, dst: str) -> None:
    """The one-column CSV src with every value rounded to a multiple of
    0.5, so that the copy holds ties."""
    with open(src) as fh:
        header, *values = fh.read().split()
    with open(dst, "w") as fh:
        fh.write("\n".join([header] + [repr(round(2.0 * float(v)) / 2.0)
                                       for v in values]) + "\n")


def _write_pgm(path: str, side: int = 32, seed: int = 0) -> None:
    """A seeded side x side P2 image: a bright centre square on a dark
    ground plus rounded Gaussian noise, clipped to 0..255."""
    rng = random.Random(seed)
    inner = range(side // 4, 3 * side // 4)
    rows = [" ".join(str(min(255, max(0, round(
        (160 if i in inner and j in inner else 60) + rng.gauss(0.0, 20.0)))))
        for j in range(side)) for i in range(side)]
    with open(path, "w") as fh:
        fh.write("P2\n%d %d\n255\n%s\n" % (side, side, "\n".join(rows)))


def calls() -> list:
    """(name, step) of every call, in order: a step is the argv of a CLI
    call, or a function that writes an input the calls after it read."""
    out, inputs = [], []
    for fn in FUNCTIONS:
        for n in SIZES:
            stem = "%s_%d" % (fn, n)
            out.append(("gen_" + stem, [
                "gen", "--function", fn, "--sizes", str(n),
                "--out", stem + ".csv", "--truth-out", stem + ".truth.csv"]))
            out.append(("tie_" + stem, functools.partial(
                _rounded_copy, stem + ".csv", stem + "_tied.csv")))
            inputs += [(stem, stem), (stem + "_tied", stem)]
    for name, truth in inputs:
        src, ref = ["--in", name + ".csv"], ["--truth", truth + ".truth.csv"]
        for cmd, method, extra in (
                ("denoise", "fixed", ["--lambda", "2.5"]),
                ("denoise", "universal", []), ("denoise", "adaptive", []),
                ("denoise", "adaptive", ["--sigma-known", "1.0"]),
                ("denoise", "sure", []), ("denoise", "oracle", ref),
                ("risk-curve", "sure", []), ("risk-curve", "oracle", ref)):
            tag = "%s_%s%s_%s" % (cmd, method, "_sigma1" * bool(extra[:1] == [
                "--sigma-known"]), name)
            out.append((tag, [cmd, *src, "--method", method, *extra,
                              "--out", tag + ".csv"]))
    out.append(("bench_mse", ["bench-mse", "--out", "bench_mse.json"]))
    out.append(("bench_seg", ["bench-seg", "--out", "bench_seg.json"]))
    out.append(("bench_seg_a01", ["bench-seg", "--alpha", "0.01",
                                  "--out", "bench_seg_a01.json"]))
    out.append(("bench_mse_small", [
        "bench-mse", "--functions", "doppler,blocks", "--sizes", "50,300",
        "--reps", "7", "--out", "bench_mse_small.json"]))
    out.append(("bench_seg_small", [
        "bench-seg", "--sizes", "60", "--reps", "20",
        "--out", "bench_seg_small.json"]))
    for dim, sizes in ((1, "50,200"), (2, "6,10")):
        d = "lambda_d%d" % dim
        out.append(("sample_" + d, ["lambda-sample", "--dim", str(dim),
                                    "--sizes", sizes, "--reps", "40",
                                    "--out", d]))
        out.append(("fit_" + d, ["lambda-fit", "--in", d,
                                 "--out", "fit_%s.json" % d]))
    out.append(("image", functools.partial(_write_pgm, "image.pgm")))
    for method in ("universal", "adaptive", "sure"):
        tag = "denoise_%s_image" % method
        out.append((tag, ["denoise", "--in", "image.pgm", "--method", method,
                          "--out", tag + ".pgm"]))
    return out


def run_calls(out: str, todo) -> list:
    """Runs every (name, step) of todo inside out, which must not exist
    yet, a CLI call through the imported ``tvdn.cli.main``; a call that
    exits nonzero stops the run. Returns (sha1, path) of every file under
    out, path relative to out, sorted by path."""
    from tvdn.cli import main

    os.makedirs(out)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, step in todo:
            if callable(step):
                step()
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(step)
            if rc != 0:
                raise RuntimeError("tvdn %s exited with %d"
                                   % (" ".join(step), rc))
            with open(name + ".stdout", "w") as fh:
                fh.write(buf.getvalue())
    finally:
        os.chdir(cwd)
    listing = []
    for top, _, files in os.walk(out):
        for f in files:
            path = os.path.join(top, f)
            with open(path, "rb") as fh:
                listing.append((hashlib.sha1(fh.read()).hexdigest(),
                                os.path.relpath(path, out)))
    return sorted(listing, key=lambda row: row[1])


def header() -> list:
    """The ``#`` lines a listing opens with: the versions and machine that
    its bytes can depend on."""
    import numpy
    import scipy

    return ["# sha1  path of every output of tools/cli_digest.py's calls",
            "# python %s  numpy %s  scipy %s  machine %s" % (
                platform.python_version(), numpy.__version__,
                scipy.__version__, platform.machine())]


def read_listing(lines) -> dict:
    """{path: sha1} of a listing's ``sha1  path`` lines; ``#`` lines and
    blank lines are skipped."""
    listing = {}
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            digest, path = line.split("  ", 1)
            listing[path] = digest
    return listing


def compare(old: dict, new: dict) -> list:
    """One line per path that differs between the listings old and new,
    sorted by path: ``added``, ``removed`` or ``changed`` and the path."""
    rows = [("added", p) for p in new.keys() - old.keys()]
    rows += [("removed", p) for p in old.keys() - new.keys()]
    rows += [("changed", p) for p in old.keys() & new.keys()
             if old[p] != new[p]]
    return ["%-8s%s" % (kind, path)
            for kind, path in sorted(rows, key=lambda row: row[1])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="directory to create and run the calls in")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout whose src/ is imported")
    p.add_argument("--check", metavar="FILE",
                   help="print the paths added, removed or changed against "
                   "the listing FILE instead of the listing")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    rows = run_calls(os.path.abspath(args.out), calls())
    if args.check is None:
        print("\n".join(header()))
        for digest, path in rows:
            print("%s  %s" % (digest, path))
        return 0
    with open(args.check) as fh:
        lines = fh.read().splitlines()
    if header()[-1] not in lines:
        print("# %s names other versions or another machine; this run:\n%s"
              % (args.check, header()[-1]))
    diff = compare(read_listing(lines), {path: d for d, path in rows})
    print("\n".join(diff + ["%d files, %d differ from %s"
                             % (len(rows), len(diff), args.check)]))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
