"""Spans around calls into tvdn's public functions, recorded from outside.

Nothing in the library is edited. ``install`` replaces each traced function
with a wrapper wherever a tvdn module binds it (``from .grid import
diff_flat`` makes a binding in every importing module), so calls between
modules are caught as well as calls from the benchmark. Each span records
its inclusive time and its self time: the inclusive time minus the time of
spans opened inside it.

Work done in pool workers: the wrapper of ``_pool.parallel_map`` sends each
task through ``TracedTask``, which resets the worker's tracer, runs the task
under the same wrappers and ships the worker's span totals back with the
result. Under the ``fork`` start method a worker inherits the installed
wrappers; under ``spawn`` or ``forkserver`` the task installs them itself.
Self times therefore sum over the main process and its workers.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute names a method
SPANS = (
    ("grid.diff_flat", "tvdn.grid", "diff_flat"),
    ("grid.adjoint_flat", "tvdn.grid", "adjoint_flat"),
    ("grid.spectral_solve", "tvdn.grid", "SpectralLaplacian.solve"),
    ("grid.laplacian_solve", "tvdn.grid", "laplacian_solve"),
    ("grid.edge_endpoints", "tvdn.grid", "edge_endpoints"),
    ("tvsolve.tv_denoise", "tvdn.tvsolve", "tv_denoise"),
    ("tvsolve.tv_denoise_1d", "tvdn.tvsolve", "tv_denoise_1d"),
    ("tvsolve.lambda_max", "tvdn.tvsolve", "lambda_max"),
    ("lambda_stat.sample_lambda", "tvdn.lambda_stat", "sample_lambda"),
    ("lambda_stat.sample_lambda_1d", "tvdn.lambda_stat", "sample_lambda_1d"),
    ("lambda_stat.fit_gumbel", "tvdn.lambda_stat", "fit_gumbel"),
    ("lambda_stat.fit_gev_and_lr_test", "tvdn.lambda_stat", "fit_gev_and_lr_test"),
    ("risk.ncc", "tvdn.risk", "ncc"),
    ("risk.sure", "tvdn.risk", "sure"),
    ("risk.risk_curve", "tvdn.risk", "risk_curve"),
    ("selection.adaptive_tv", "tvdn.selection", "adaptive_tv"),
    ("selection.count_jumps", "tvdn.selection", "count_jumps"),
    ("selection.estimate_sigma", "tvdn.selection", "estimate_sigma"),
    ("pool.parallel_map", "tvdn._pool", "parallel_map"),
    ("bench.bench_mse", "tvdn.bench", "bench_mse"),
    ("bench.run_lambda_samples", "tvdn.bench", "run_lambda_samples"),
    ("bench.lambda_fit_report", "tvdn.bench", "lambda_fit_report"),
)

POOL_CAPTURE = (
    "parallel_map is wrapped so that each task runs through TracedTask, which "
    "resets the worker's tracer, runs the task under the same span wrappers "
    "and returns the worker's span totals with the result; the main process "
    "adds them to its own, so self times sum over it and its workers")

GRID_KERNELS = ("grid.diff_flat", "grid.adjoint_flat", "grid.spectral_solve")

# The wrappers are bound into the tvdn modules, which are process-wide, so
# the tracer they report to is process-wide too; a pool worker finds it here.
ACTIVE: "Tracer | None" = None


class Tracer:
    """Per-span totals: calls, inclusive seconds, self seconds, and counts."""

    def __init__(self):
        self.stack = []  # one [name, seconds spent in child spans] per open span
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.task_s = []  # wall time of every pool task
        self.map_capacity_s = 0.0  # sum over maps of workers x wall
        self.workers = 0

    def wrap(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.incl[name] += dt
                tracer.self_s[name] += dt - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "task_s": list(self.task_s)}

    def merge(self, snap: dict):
        self.calls.update(snap["calls"])
        self.incl.update(snap["incl"])
        self.self_s.update(snap["self_s"])
        self.counts.update(snap["counts"])
        self.task_s.extend(snap["task_s"])

    def reset(self):
        self.__init__()


class TracedTask:
    """Picklable stand-in for a pool task that returns the task's spans."""

    def __init__(self, fn, parent_pid):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, item):
        t0 = time.perf_counter()
        if os.getpid() == self.parent_pid:
            # parallel_map's serial fallback: spans land in this process directly
            return self.fn(item), None, time.perf_counter() - t0
        tracer = ACTIVE
        if tracer is None:
            tracer = Tracer()
            install(tracer)
        else:
            tracer.reset()
        out = self.fn(item)
        return out, tracer.snapshot(), time.perf_counter() - t0


def _nbytes(*arrays) -> int:
    return sum(8 * int(getattr(a, "size", 0)) for a in arrays)


def _hooks(tracer):
    """Counts taken from arguments and returned objects at span exit."""

    def kernel_bytes(name, arg_index):
        def hook(args, out):
            tracer.counts[name + ".bytes"] += _nbytes(args[arg_index], out)
        return hook

    def spectral(args, out):
        tracer.counts["grid.spectral_solve.bytes"] += _nbytes(args[1], out)
        if tracer.inside("lambda_stat.sample_lambda"):
            tracer.counts["lambda_stat.sample_lambda.spectral_calls"] += 1

    def tv_solution(args, out):
        tracer.counts["tvsolve.tv_denoise.iterations"] += out.iterations
        tracer.counts["tvsolve.tv_denoise.unconverged"] += int(not out.converged)
        tracer.counts["tvsolve.tv_denoise.zero_iter"] += int(out.iterations == 0)

    return {
        "grid.diff_flat": kernel_bytes("grid.diff_flat", 0),
        "grid.adjoint_flat": kernel_bytes("grid.adjoint_flat", 0),
        "grid.spectral_solve": spectral,
        "tvsolve.tv_denoise": tv_solution,
    }


def _traced_parallel_map(tracer, original, worker_count):
    def parallel_map(fn, items):
        items = list(items)
        workers = worker_count(len(items))
        t0 = time.perf_counter()
        outs = original(TracedTask(fn, os.getpid()), items)
        wall = time.perf_counter() - t0
        results = []
        for out, snap, task_s in outs:
            results.append(out)
            if snap is not None:
                tracer.merge(snap)
            tracer.task_s.append(task_s)
        tracer.map_capacity_s += workers * wall
        tracer.workers = max(tracer.workers, workers)
        return results

    return parallel_map


def install(tracer: Tracer):
    """Wrap every traced function in every loaded tvdn module.

    Returns a callable that restores the original functions.
    """
    global ACTIVE
    import tvdn  # noqa: F401  (loads every submodule)
    hooks = _hooks(tracer)
    pool = importlib.import_module("tvdn._pool")
    modules = [m for key, m in list(sys.modules.items())
               if key == "tvdn" or key.startswith("tvdn.")]
    undo = []
    for name, modname, attr in SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, hooks.get(name)))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attr)
        target = original
        if name == "pool.parallel_map":
            target = _traced_parallel_map(tracer, original, pool.worker_count)
        wrapped = tracer.wrap(name, target, hooks.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    ACTIVE = tracer

    def uninstall():
        global ACTIVE
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)
        ACTIVE = None

    return uninstall
