"""The machine's current speed, from fixed computations that do not use imvu.

The reference machine shares its cores with other loads, and its speed
drifts by 35-70% for stretches of a minute or more (see the noise section
of README.md).  ``factor()`` times four small fixed kernels, one for each
kind of work the table workloads do (about 80 ms in all), and returns how
much slower they ran than on the reference machine at its fastest: the
geometric mean of the four time ratios, about 1 there and then, 1.5 when
the machine is a third slower.  A step timed between two such probes and
divided by their mean factor is its time at the reference speed.  The
kernels' inputs are fixed, so a probe does the same work in every run
whatever the seed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.optimize import linprog

_RNG = np.random.default_rng(20221107)
_SMALL = _RNG.random(20_000) + 0.1         # stays in cache: vectorized math
_LARGE = _RNG.random(1_000_000) + 0.1      # 8 MB: memory traffic
_A = _RNG.random((60, 40))
_B = _A.sum(axis=1)
_C = -_RNG.random(40)


def _numpy_small() -> None:
    for _ in range(20):
        np.exp(np.log(_SMALL) * 0.5).sum()


def _numpy_large() -> None:
    np.exp(np.log(_LARGE) * 0.5).sum()


def _step(a: int, b: int) -> int:
    return a * b + 1


def _python() -> None:
    s = 0
    for _ in range(15_000):
        s = _step(s, 1) % 7
    table = {}
    for i in range(3_000):
        table[i] = str(i)


def _lp() -> None:
    # the solver the designer calls, on a fixed dense LP
    for _ in range(2):
        linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")


# Each kernel's fastest time on the reference machine (Intel Xeon at 2.0 GHz,
# nproc 2, Python 3.11.7, numpy 2.4.6, scipy 1.17.1): the fastest of 200 runs.
KERNELS = (
    (_numpy_small, 0.00131),
    (_numpy_large, 0.00879),
    (_python, 0.00169),
    (_lp, 0.00653),
)


def timings() -> list[float]:
    """Seconds each kernel takes now: the median of three runs, so that a
    timer interrupt or a switch to another process in one of them is not
    taken for the machine's speed."""
    runs = []
    for _ in range(3):
        row = []
        for kernel, _ in KERNELS:
            start = time.perf_counter()
            kernel()
            row.append(time.perf_counter() - start)
        runs.append(row)
    return [statistics.median(column) for column in zip(*runs)]


def factor() -> float:
    """How many times slower than the reference the kernels run now."""
    logs = [math.log(t / ref) for t, (_, ref) in zip(timings(), KERNELS)]
    return math.exp(sum(logs) / len(logs))


for _kernel, _ in KERNELS:   # warm up: first calls pay for imports and caches
    _kernel()
