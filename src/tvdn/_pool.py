"""Small helper for distributing independent replicates across processes.

The process count comes from the TVDN_THREADS environment variable when set,
otherwise from os.cpu_count(); it counts every process that runs a map's
tasks, the caller included. A map with k processes forks k - 1 workers, and
the caller and the workers take task indices from one shared counter, so the
caller runs its share of the tasks in place. Each worker sends its
(index, result) pairs once, when the counter runs out, and the caller reaps
every worker before it returns or raises. Results are placed by index, so
parallel and serial runs produce identical output. Workers fork from a
frozen heap (``gc.freeze``): their collections then skip every object they
inherit, so they do not touch, and so copy, the pages that hold them. A
module the caller has not imported when a map forks is imported again by
every worker whose tasks need it. The package loads its scipy modules on
first use, so a caller imports what its tasks need before the map.
"""
from __future__ import annotations

import gc
import os


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
    ctx = _fork_context() if k > 1 else None
    if ctx is None:
        return [fn(a) for a in items]
    gc.freeze()
    try:
        return _forked_map(ctx, fn, items, k)
    finally:
        gc.unfreeze()


def _fork_context():
    """The fork start method, or None where the platform has none. Imported
    here so that ``import tvdn`` does not load multiprocessing."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _forked_map(ctx, fn, items, k):
    n = len(items)
    counter = ctx.Value("q", 0)
    workers = []
    try:
        for _ in range(k - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(fn, items, counter, send))
            proc.start()
            # the worker holds the only write end, so its death reads as EOF
            send.close()
            workers.append((proc, recv))
        done, error = _take(fn, items, counter)
    finally:
        # whatever happened here, the workers stop after their current task,
        # send what they have, and are reaped
        counter.value = n
        sent = [_receive(recv) for _, recv in workers]
        for proc, _ in workers:
            proc.join()
    errors = [error]
    for pairs, exc in filter(None, sent):
        done.extend(pairs)
        errors.append(exc)
    for exc in errors:
        if exc is not None:
            raise exc
    lost = [proc.exitcode for (proc, _), got in zip(workers, sent)
            if got is None]
    if lost:
        raise RuntimeError("%d pool worker(s) exited with codes %s before "
                           "sending their results" % (len(lost), lost))
    results = [None] * n
    for i, out in done:
        results[i] = out
    return results


def _work(fn, items, counter, send):
    """A worker's whole life: take tasks, then send every result at once."""
    send.send(_take(fn, items, counter))
    send.close()


def _take(fn, items, counter):
    """Run the tasks whose indices come off the counter, until it runs out or
    a task raises; returns the (index, result) pairs and the exception."""
    n = len(items)
    done = []
    while (i := _claim(counter)) < n:
        try:
            done.append((i, fn(items[i])))
        except Exception as exc:
            counter.value = n  # the others stop after their current task
            return done, exc
    return done, None


def _claim(counter) -> int:
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _receive(recv):
    """A worker's one message, or None if it exited without sending."""
    try:
        return recv.recv()
    except EOFError:
        return None
    finally:
        recv.close()
