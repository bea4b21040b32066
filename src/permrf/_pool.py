"""Ordered fan-out to worker processes, shared by every parallel caller.

A ProcessPoolExecutor forks all of its workers at the first submit, so
the count is checked and clamped here, once, to what can run: never more
processes than CPUs or than jobs.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import UsageError


def _check_workers(workers):
    """Refuse a worker count that is not an int of at least 1."""
    if type(workers) is not int or workers < 1:
        raise UsageError(f"workers must be an int of at least 1, "
                         f"not {workers!r}")


def worker_count(requested, jobs):
    """min(requested, CPU count, jobs), and at least 1."""
    if requested <= 1 or jobs <= 1:
        return 1
    return min(requested, os.cpu_count() or 1, jobs)


def map_ordered(fn, items, workers=1):
    """fn over items, preserving order; workers > 1 fans out to processes."""
    _check_workers(workers)
    items = list(items)
    workers = worker_count(workers, len(items))
    if workers == 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
