"""Deterministic fan-out for embarrassingly parallel sweeps.

Work is split into contiguous chunks in input order, and per-chunk results
are concatenated strictly in that same order.  The output is therefore a
pure function of the input list: changing the worker count changes wall
time, never a single emitted byte.

Chunks go to separate processes, so the chunk function must be a
module-level callable (or a functools.partial of one) with picklable
arguments and results.
"""

from concurrent.futures import ProcessPoolExecutor

__all__ = ["chunked", "map_reduce"]


def chunked(items, parts: int):
    """Split a list into at most `parts` contiguous runs of near-equal size.

    Always returns at least one (possibly empty) run, never an empty list,
    so callers can treat the result uniformly."""
    items = list(items)
    n = len(items)
    parts = max(1, min(int(parts), n) if n else 1)
    base, extra = divmod(n, parts)
    runs = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        runs.append(items[start:start + size])
        start += size
    return runs


def map_reduce(fn, items, workers: int = 1):
    """Apply `fn` to contiguous chunks of `items`; concatenate the results.

    `fn` takes a list slice and returns a list.  With workers <= 1 every
    chunk runs in-process; otherwise a process pool computes them, still
    combined in submission order.
    """
    workers = max(1, int(workers))
    runs = chunked(items, workers)
    if workers == 1 or len(runs) == 1:
        outs = [fn(run) for run in runs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(fn, runs))
    combined = []
    for out in outs:
        combined.extend(out)
    return combined
