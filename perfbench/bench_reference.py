"""A fixed piece of work that measures the machine's speed.

The host this benchmark runs on is shared.  For minutes at a time it runs
the same code two to three times slower, and the process's CPU time
stretches with it.  The benchmark times reference_work() between operations
and scales its CPU times by REFERENCE_S, the reference's CPU time at quiet
speed, over the reference's mean CPU time in the run.

The reference imitates the package's own work: a division of int64 numpy
polynomials mod a prime, as in finitefield; mpmath root finding, as in
classify3 and classify4; Fraction arithmetic, as in numberfield; and plain
integer arithmetic.  It is written out here and never calls the package, so
no change to the package can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import mpmath
import numpy as np

# CPU seconds of one reference_work() at the quiet speed of the 2.1 GHz Xeon
# this was built on (Python 3.11.7): set so that the scaled ops_per_s of runs
# in a slow spell equals that of the same workloads in a quiet hour
REFERENCE_S = 0.0089

_P = 10007
_DIVISOR = np.array([(7 * i * i + 3) % _P for i in range(24)] + [1], dtype=np.int64)
_DIVIDEND = np.array([(5 * i * i + 11 * i + 1) % _P for i in range(60)], dtype=np.int64)
_QUARTIC = [1, 0, -7, 13, 5]


def reference_work() -> int:
    n = len(_DIVISOR) - 1
    total = 0
    for _ in range(12):
        a = _DIVIDEND.copy()
        for d in range(len(a) - 1, n - 1, -1):
            a[d - n:d + 1] = (a[d - n:d + 1] - int(a[d]) * _DIVISOR) % _P
        total += int(a[:n].sum())
    with mpmath.workdps(40):
        for shift in range(2):
            roots = mpmath.polyroots(_QUARTIC[:-1] + [_QUARTIC[-1] + shift],
                                     maxsteps=100, extraprec=60)
            total += len(roots)
    x = Fraction(0)
    for i in range(1, 600):
        x = Fraction(i % 13 + 1, i % 11 + 1) * Fraction(i % 7 + 2, i % 5 + 3) - x
    s = 0
    for i in range(40000):
        s = (s * 31 + i) % 1000003
    return total + x.numerator + s


def time_reference() -> float:
    """CPU seconds of one reference_work() call."""
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0
