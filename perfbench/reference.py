"""Fixed reference kernels that track the speed of the machine.

On a shared 2-CPU x86_64 virtual machine the speed swings by up to 2x
in phases of 5 to 30 seconds (the same flow took 0.29 s and 0.63 s a
minute apart, with no CPU time stolen).  A 30-second run cannot average
that away.  So the benchmark times a kernel between rounds of ops and
scales each round's op times by ``NOMINAL_S`` over the kernel's time
around that round: the end-to-end times are reported at the machine
speed at which the kernel takes ``NOMINAL_S``.

The kernels do the kinds of work reluflow does (interpreted Python loops,
small numpy calls, scipy ``brentq``, small HiGHS ``linprog`` programs) on
fixed inputs, and they use no reluflow code, so a change to reluflow
cannot change them.  The raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import brentq, linprog

# Time of one call of either kernel at the nominal machine speed, in seconds.
NOMINAL_S = 0.01

_RNG = np.random.default_rng(20240817)
_X = _RNG.uniform(0.05, 1.0, size=(8, 32))
_V = _RNG.uniform(0.1, 1.0, size=8)
_RATES = np.linspace(0.5, 3.0, 8)
_LP_A = np.hstack([-_RNG.uniform(-1.0, 1.0, size=(12, 4)), np.ones((12, 1))])
_LP_C = np.array([0.0, 0.0, 0.0, 0.0, -1.0])


def _gap(t: float) -> float:
    return float(np.exp(-_RATES * t) @ _V) - 1.0


def _mixed() -> float:
    acc = 0.0
    for i in range(600):
        e = np.exp(-_RATES * (0.01 * i))
        acc += float(np.sum(_X.T @ (_V * e))) + math.sqrt(i + 1.0)
        for j in range(20):
            acc += j * 0.5
        if i % 100 == 0:
            acc += brentq(_gap, 0.0, 50.0, xtol=1e-30, rtol=4 * np.finfo(float).eps)
    return acc + _margin_lp(12)


def _margin_lp(rows: int) -> float:
    res = linprog(_LP_C, A_ub=_LP_A[:rows], b_ub=np.zeros(rows), bounds=[(-1.0, 1.0)] * 4 + [(None, 1.0)],
                  method="highs")
    return float(res.fun)


def _lp() -> float:
    return sum(_margin_lp(rows) for rows in range(5, 13))


# Each workload names the kernel whose work is most like its own: the
# census is mostly small HiGHS margin programs, the others mostly
# interpreted Python around small numpy calls.
KERNELS = {"mixed": _mixed, "lp": _lp}


def timed_median(name: str, calls: int) -> float:
    """Median seconds of ``calls`` calls of kernel ``name`` made now."""
    kernel = KERNELS[name]
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
