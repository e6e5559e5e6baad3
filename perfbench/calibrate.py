"""The reference unit that calibrates every time the benchmark reports.

The host's speed drifts by tens of percent over seconds, and a pure-Python
program slows with it.  The benchmark times this fixed unit of work next to
every operation and multiplies the operation's time by ``NOMINAL_S /
measured``, which expresses it in the time the operation would take on a
host running the unit at its nominal speed.

The unit mixes pure-Python integer arithmetic with a NumPy sort of a
preallocated buffer.  It allocates no container that the garbage collector
tracks, so a collection triggered by the program's own garbage is never
charged to it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median raw time of one unit on the reference host (2 cores, Python 3.11.7,
# numpy 2.4.6).  Calibrated figures are milliseconds and seconds of that host.
NOMINAL_S = 0.0010

_INT_STEPS = 4000
_SORT_LEN = 32768
# refs on either side of an operation that set its local host speed
_HALF_WINDOW = 2


class RefUnit:
    def __init__(self):
        self._src = np.random.default_rng(20260518).random(_SORT_LEN)
        self._buf = np.empty_like(self._src)

    def run(self):
        x = 1
        for _ in range(_INT_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        np.copyto(self._buf, self._src)
        self._buf.sort()
        return x

    def sample(self):
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def local_factors(refs, n_ops):
    """Calibration factor of each operation.

    ``refs[i]`` is the unit timed just before operation i and ``refs[n_ops]``
    the one after the last; operation i is scaled by NOMINAL_S over the
    median of the refs within ``_HALF_WINDOW`` places of it, so one slow
    sample does not skew an operation.
    """
    if len(refs) != n_ops + 1:
        raise ValueError("need one ref before each operation and one after the last")
    out = []
    for i in range(n_ops):
        lo = max(0, i - _HALF_WINDOW)
        hi = min(len(refs), i + _HALF_WINDOW + 2)
        out.append(NOMINAL_S / statistics.median(refs[lo:hi]))
    return out
