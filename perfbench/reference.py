"""A fixed reference kernel that measures how fast the host runs right now.

The shared host this benchmark was defined on changes speed by up to 1.7x
over seconds to minutes: a fixed pure-Python loop ran between 0.082 s and
0.142 s per call, with CPU time equal to wall time.  Medians over passes
cannot remove a drift that lasts longer than a run.  So the benchmark runs
this kernel between set-ups and between fixtures, and reports each time in
reference seconds: the time divided by the mean time of the kernel runs
just before and after it, times REF_SECONDS.  The kernel uses only the
standard library and numpy, never fflab, so a change to fflab cannot move
it.

It mixes the two kinds of work fflab does: interpreter-bound integer and
dict arithmetic (Laurent series, lattice reduction, the task loops) and
numpy arithmetic on stacks of small int64 matrices (batched ranks, box
enumeration).  On a 2-vCPU host each half takes about 0.07 s.
"""

from __future__ import annotations

import resource
import time

import numpy as np

__all__ = ["REF_SECONDS", "reference_kernel", "cpu_seconds"]

# The kernel's median wall time on the host the benchmark was defined on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6).  On that host a time in reference
# seconds reads close to one in seconds.
REF_SECONDS = 0.15

_PY_STEPS = 200_000
_NP_ROUNDS = 6
_NP_SHAPE = (20_000, 4, 4)


def cpu_seconds() -> float:
    """Process CPU time, user and system, children included.  The
    process's own share comes from the high-resolution process clock."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _python_part() -> int:
    acc, table = 0, {}
    for i in range(_PY_STEPS):
        k = (i * i) % 97
        table[k] = table.get(k, 0) + (i * 31 + acc) % 1000003
        acc = (acc + table[k]) % 65521
    return acc


def _numpy_part() -> int:
    a = np.arange(np.prod(_NP_SHAPE), dtype=np.int64).reshape(_NP_SHAPE)
    for _ in range(_NP_ROUNDS):
        a = (a * 7 + a[:, [1, 2, 3, 0], :]) % 1000003
        a = a - a.sum(axis=1)[:, None, :] % 13
    return int(a[0, 0, 0])


def reference_kernel():
    """Run the kernel once: (wall seconds, CPU seconds)."""
    start, cpu_start = time.perf_counter(), cpu_seconds()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start, cpu_seconds() - cpu_start
