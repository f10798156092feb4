"""A fixed reference kernel that measures how fast the machine runs
right now, so that times taken in a slow moment can be scaled back.

The host this benchmark was built on is a shared 2-vCPU virtual machine
whose speed flips between two states about 1.8x apart, each lasting
under a second to minutes, with CPU time equal to wall time.  Taking the
fastest observation helps only when a run meets a fast moment.  Instead
every timed step is bracketed by runs of `kernel()`, and its time is
scaled by REF_KERNEL_S / (the kernel's time around it): the result is
the step's time in seconds at the speed where the kernel takes
REF_KERNEL_S.  Where the two kernel times around a step disagree, the
speed changed during the step, and `typical` leaves that sample out.

The kernel does what cicert spends its time on, in code of its own (a
change to cicert must not change the kernel): products of sparse
polynomials held as dicts of exponent tuples, with residues mod a prime
and with Fractions.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's time on the build machine in its fast state (Intel Xeon,
# Python 3.11.7).  A fixed constant: it only sets the scale of the
# reported seconds, never their spread.
REF_KERNEL_S = 0.0005
REPS = 3
# kernel times further apart than this around a step mean the speed
# changed during it
STEADY_RATIO = 1.1

perf = time.perf_counter


def _terms(n, seed, fractions):
    terms, x = {}, seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483648
        mono = (x % 4, (x >> 3) % 4, (x >> 6) % 3, (x >> 9) % 3)
        c = (x >> 12) % 97 + 1
        terms[mono] = Fraction(c, (x >> 5) % 7 + 1) if fractions else c
    return terms


_MOD = (_terms(16, 1, False), _terms(16, 2, False))
_RAT = (_terms(6, 3, True), _terms(6, 4, True))


def _mul(f, g, p=None):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if p is not None:
                c %= p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return sorted(out.items(), reverse=True)


def _once():
    _mul(*_MOD, 32003)
    _mul(*_RAT)


def kernel():
    """Seconds the reference kernel takes now: the fastest of REPS
    repetitions, so a single interrupt does not count."""
    best = None
    for _ in range(REPS):
        start = perf()
        _once()
        t = perf() - start
        if best is None or t < best:
            best = t
    return best


def scaled(seconds, before, after):
    """(`seconds` measured between two kernel times, in seconds at the
    reference speed; whether the two kernel times agree within
    STEADY_RATIO, that is, whether the speed held through the step)."""
    steady = max(before, after) <= STEADY_RATIO * min(before, after)
    return seconds * REF_KERNEL_S * 2.0 / (before + after), steady


def typical(samples):
    """Median of a step's scaled times over the passes, taken over the
    samples where the speed held if there are any."""
    held = [t for t, steady in samples if steady]
    return statistics.median(held or [t for t, _ in samples])
