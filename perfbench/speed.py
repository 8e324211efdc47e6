"""A fixed reference load that tracks how fast this machine runs right now.

On a shared host the speed of one core drifts by a quarter over minutes as
other tenants come and go, far more than the changes the benchmark has to
resolve.  So, while a pass runs, a `Sampler` times a fixed burst of work
every ``INTERVAL_S`` seconds from a timer signal, and each check's time is
rescaled to the burst's reference duration: a check that took ``t``
seconds while the bursts around it took ``c`` is reported as
``t * REFERENCE_S / c``.  The time spent in bursts is taken out of the
check's time first.

The burst is the kind of work bachlab's checks are made of (small-array
gathers and bincounts, and pure-Python integer arithmetic) but calls
nothing in bachlab, so no change to bachlab moves it: a change shows in
full, while the drift of the machine cancels.  The raw times are printed
with the details of every run.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

#: duration of one burst on the reference host (2.1 GHz Xeon vCPU,
#: Python 3.11, NumPy 2.4), a fixed constant of the benchmark
REFERENCE_S = 0.012
#: wall time between the end of one burst and the start of the next
INTERVAL_S = 0.2
#: bursts this far before a check starts or after it ends still count
PAD_S = 0.6

_RNG = np.random.default_rng(12345)
_A, _B = _RNG.random(70), _RNG.random(70)
_PI, _PJ = _RNG.integers(0, 70, 240), _RNG.integers(0, 70, 240)
_DIAG = np.arange(15)
_K = _RNG.integers(0, 70, 255)


def burst() -> float:
    """Seconds taken by one fixed burst of reference work."""
    t0 = perf_counter()
    acc = 0
    for _ in range(800):
        w = np.concatenate((_A[_PI] * _B[_PJ] + _A[_PJ] * _B[_PI],
                            _A[_DIAG] * _B[_DIAG]))
        np.bincount(_K, weights=w, minlength=70)
        for j in range(24):
            acc = (acc * 1103515245 + j) % 2305843009213693951
    return perf_counter() - t0


class Sampler:
    """Bursts timed from SIGALRM while the ``with`` block runs.

    ``stamps[i]`` is when burst i started and ``bursts[i]`` how long it
    took; ``stolen`` is the wall time spent in the handler so far.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.bursts: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.bursts.append(burst())
        self.stamps.append(t0)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.bursts:  # a block shorter than one interval
            self.stamps.append(perf_counter())
            self.bursts.append(burst())

    def work_clock(self) -> float:
        """perf_counter minus the time spent in bursts so far."""
        return perf_counter() - self.stolen

    def scale(self, t0: float, t1: float) -> float:
        """Rescaling factor for work done between t0 and t1."""
        lo = bisect_left(self.stamps, t0 - PAD_S)
        hi = bisect_right(self.stamps, t1 + PAD_S)
        near = self.bursts[lo:hi] or self.bursts
        return REFERENCE_S / statistics.median(near)
