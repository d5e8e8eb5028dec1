"""Operation timing corrected for the machine's momentary speed.

On a shared machine the speed of one core drifts by up to 2x within
seconds, as other tenants come and go.  Raw wall times of the same work then
differ more between runs than the regressions the benchmark must catch.
``SpeedClock`` runs a fixed reference kernel, which is independent of
hsswitness, right before and right after every operation, and every
``INTERVAL`` seconds from a timer signal while one runs.  An operation's
time in reference seconds is its raw time times the kernel's nominal
duration over the median kernel duration seen during it and within
``WINDOW`` seconds of it.

Contention slows interpreter-bound and memory-bound code by different
amounts, so there are two kernels: ``interpreter`` (bytecode, small
eigensolves; for series and processes dominated by Python) and ``array``
(vector math on arrays larger than L2; for the bath quadrature).  The time
spent in the kernel is excluded from the raw time.  Both times are kept;
the gated metrics use the reference seconds, and the report prints the raw
ones too.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: timer period of the in-operation samples
INTERVAL = 0.1
#: samples this close to an operation also count for it: the speed drifts
#: over seconds, and a single 2 ms sample is itself noisy
WINDOW = 2.0

_A = np.diag(np.arange(2.0, 8.0)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
_X = np.linspace(0.1, 50.0, 4000)
_BIG = np.linspace(0.1, 50.0, 150_000)
_EIGVALSH = np.linalg.eigvalsh  # bound before any tracing wraps numpy


def interpreter_kernel():
    """Interpreter work, small eigensolves and short vector math."""
    s = 0.0
    for i in range(36):
        s += float(_EIGVALSH(_A)[0])
        s += sum(j * 0.5 for j in range(60))
        s += float(np.cos(_X * (1.0 + i)).sum())
    return s


def array_kernel():
    """Vector math over 1.2 MB arrays, like one quadrature panel sweep."""
    return float((np.cos(_BIG * 1.1) * np.exp(-_BIG)).sum())


#: kernel and the duration that defines one reference second: the typical
#: duration on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
KERNELS = {"interpreter": (interpreter_kernel, 0.002),
           "array": (array_kernel, 0.003)}


class SpeedClock:
    """Times operations in raw and reference seconds; a context manager."""

    def __init__(self, kernel):
        self._kernel, self._nominal = KERNELS[kernel]
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)
        self._spent = 0.0
        self._old = None

    def _sample(self, *_):
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self._spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, fn, *args, during=True):
        """Run ``fn(*args)``; return (result, raw seconds, (start, end)).

        ``during=False`` skips the in-operation samples, for a call that
        waits on a subprocess: the subprocess shares the benchmark's CPU, so a
        sample would be preempted by it and read slow.
        """
        self._sample()
        spent = self._spent
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = t1 - t0 - (self._spent - spent)
            self._sample()
        return result, raw, (t0, t1)

    def reference(self, raw, span):
        """Reference seconds of an operation, from the samples within WINDOW.

        Before the run ends, only the samples taken so far count.
        """
        lo, hi = span[0] - WINDOW, span[1] + WINDOW
        near = [d for t, d in self.samples if lo <= t <= hi]
        return raw * self._nominal / statistics.median(near)


class PlainClock:
    """The same interface without references, for traced and in-process runs."""

    def time(self, fn, *args, during=True):
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        return result, t1 - t0, (t0, t1)

    def reference(self, raw, span):
        return raw
