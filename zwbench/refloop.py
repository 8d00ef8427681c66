"""Machine-speed reference: a fixed pure-Python loop.

On a shared machine a Python process can run 40% slower for a second or
two, in CPU time and wall time alike.  The harness times this loop before,
between and after operations and scales each timing by (nominal loop time
/ measured loop time), so timings read as seconds on a machine running at
its nominal speed.

Slow episodes do not slow all code alike.  On the 2-vCPU VM this was
tuned on, a pure integer loop slowed down less than zwords operations
did, and a loop of dict lookups, short-string building and hashing and
reads at pseudo-random offsets of a 2 MiB buffer slowed down more.  The
reference runs both, for about equal time, and scaling by it cut the
pass-to-pass spread of a workload's total time from 20-40% to a few
percent.  It allocates no objects the garbage collector tracks (ints and
strings only), so the program's heap cannot slow it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

BUFFER = bytearray(bytes(range(256)) * 8192)
KEYS = ["key%d" % i for i in range(512)]
TABLE = {k: i for i, k in enumerate(KEYS)}
INT_ITERS = 3000
MIX_ITERS = 400
# Median loop time on a 2-vCPU x86-64 cloud VM running CPython 3.11.
REF_NOMINAL_S = 0.00124
# Reference samples on each side of an operation used for its speed.
WINDOW = 3


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


def ref_loop() -> int:
    x = 1
    for i in range(INT_ITERS):
        x = (x * 1103515245 + i) & 0xFFFFFF
    buf, keys, table = BUFFER, KEYS, TABLE
    mask = len(buf) - 1
    acc = 0
    for _ in range(MIX_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[x & 511]
        acc = _step(acc, table[key] + buf[x & mask])
        acc ^= hash(key + "/" + str(acc & 1023)) & 0xFF
    return acc


def timed_ref() -> float:
    t0 = perf_counter()
    ref_loop()
    return perf_counter() - t0


def local_factors(refs: list[float]) -> list[float]:
    """Speed factor for each operation bracketed by refs[i] and refs[i+1]:
    the nominal time over the median of the nearby reference samples."""
    out = []
    for i in range(len(refs) - 1):
        nearby = refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(REF_NOMINAL_S / median(nearby))
    return out
