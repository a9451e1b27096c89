"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of the same pure-Python work switches between
two levels about 1.7 apart, in stretches that can outlast a whole run
(NOTES.md, Op latency and host speed).  The benchmark times this kernel
all through its passes and multiplies every time it reports by
``NOMINAL_S / mean(kernel times)``: the times then read as on a host that
runs the kernel in ``NOMINAL_S``.  The kernel is the benchmark's own code
and imports nothing from the program, so a change to the program cannot
move it.  It does the kind of work the program's hot paths do: exact
rational products and row reduction of small dense matrices, and
dictionaries keyed by tuples.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# The kernel's time on a fast stretch of the 2-vCPU machine the benchmark
# was defined on (Python 3.11).  It sets the scale of the reported times
# and nothing else.
NOMINAL_S = 0.022

_SIZE = 9
_MATRICES = 4
_ROUNDS = 2


def _matrices(seed: int) -> list[list[list[Fraction]]]:
    rng = random.Random(seed)
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    return [
        [[rng.choice(values) if rng.random() < 0.6 else Fraction(0) for _ in range(_SIZE)]
         for _ in range(_SIZE)]
        for _ in range(_MATRICES)
    ]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols]
            for row in a]


def _rank(m) -> int:
    m = [row[:] for row in m]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _kernel() -> int:
    mats = _matrices(7)
    table: dict[tuple[int, int, int], Fraction] = {}
    checksum = 0
    for k in range(_ROUNDS):
        for i, a in enumerate(mats):
            p = _mul(a, mats[(i + k + 1) % _MATRICES])
            checksum += _rank(p)
            for r, row in enumerate(p):
                for c, x in enumerate(row):
                    if x:
                        key = (k % 3, r, c)
                        table[key] = table.get(key, Fraction(0)) + x
    return checksum + len(table)


def timed() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
