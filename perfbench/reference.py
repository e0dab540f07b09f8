"""A fixed task that times the machine, not the library.

On the reference machine, a shared 2-core VM, everything slows down and
speeds up together by tens of percent over minutes: one calibration point
with one seed took 1.8 s in one run and 3.1 s in the next, and the import
time moved in step.  Timing this task right before each
measured interval, and rescaling the interval by ``NOMINAL_S / task time``,
cancels such a common factor.  The task mixes what the workloads do: a
scalar Python loop, numpy calls on short vectors, small complex linear
algebra and passes over a 2 MB array.  Its arrays stay resident and small,
so it adds little (about 2.5 MB) to the worker's peak RSS.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# median task time on the reference machine (2-core Xeon VM, Python 3.11,
# numpy 2.4, one BLAS thread); rescaled times read as seconds there
NOMINAL_S = 0.019

_rng = np.random.default_rng(0)
_VEC = np.linspace(0.1, 5.0, 256)
_MAT = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_RHS = _rng.standard_normal((64, 8)) + 1j * _rng.standard_normal((64, 8))
_BIG = np.ones(1 << 18)


def _task() -> float:
    acc = 0.0
    for i in range(1, 24001):
        acc += math.sqrt(i) / (1.0 + i)
    for _ in range(600):
        acc += float(np.sum(np.exp(-_VEC * _VEC) * _VEC))
    for _ in range(60):
        acc += float(np.abs(np.linalg.solve(_MAT, _RHS)[0, 0]))
    for _ in range(12):
        np.multiply(_BIG, 1.0000001, out=_BIG)
    return acc


def run() -> float:
    """Run the task twice and return the wall time of the second run.

    The first run refills the caches, so the timed one does not depend on
    what the measured code left in them.
    """
    _task()
    t0 = perf_counter()
    acc = _task()
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference task produced a non-finite value")
    return elapsed


def rescaled(times, refs) -> list[float]:
    """Each interval rescaled by the reference task timed just before it."""
    return [t * NOMINAL_S / r for t, r in zip(times, refs)]
