"""Small helper for distributing independent replicates across processes.

The worker count comes from the TVDN_THREADS environment variable when set,
otherwise from os.cpu_count(). Results are always gathered in submission
order, so parallel and serial runs produce identical output. Workers fork
from a frozen heap (``gc.freeze``): their collections then skip every
object they inherit, so they do not touch, and so copy, the pages that hold
them.
"""
from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(n_tasks: int) -> int:
    env = os.environ.get("TVDN_THREADS", "").strip()
    if env:
        try:
            k = max(1, int(env))
        except ValueError:
            raise ValueError("TVDN_THREADS must be an integer, got %r"
                             % env) from None
    else:
        k = os.cpu_count() or 1
    return max(1, min(k, n_tasks))


def parallel_map(fn, items):
    items = list(items)
    k = worker_count(len(items))
    if k <= 1 or len(items) <= 1:
        return [fn(a) for a in items]
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=k) as pool:
            return list(pool.map(fn, items))
    finally:
        gc.unfreeze()
