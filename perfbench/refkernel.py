"""Machine speed, sampled all through a run with a fixed reference computation.

Shared cloud CPUs change speed by 20-40% from one half-minute to the next
as other tenants load the host; a pure-Python loop slows as much as the
package does.  :class:`SpeedSampler` runs one reference call every quarter
second from a ``SIGALRM`` handler, so the machine's speed is known at every
moment of a job, however long the package holds the interpreter.  The
end-to-end metrics divide each measured interval by the reference call's
time around it (unit ``ref``: one reference call).  The kernel uses numpy
and the interpreter the way the package does, so both respond alike to a
slower machine, but it never calls the package: a change to the package
moves the ratio, a change of machine speed mostly does not.

The sampler's :meth:`~SpeedSampler.clock` leaves out the time spent in the
handler, so intervals timed with it measure the workload alone.

Never edit this kernel in a change that claims a gain: ratios taken before
and after it would stop being comparable.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_RNG = np.random.default_rng(20220414)
_MATRIX = _RNG.standard_normal((200, 200))
_SMALL = _RNG.standard_normal((4, 8, 200)).astype(np.float32)
_TAPS = _RNG.standard_normal(16).astype(np.float32)
_SIGNAL = _RNG.standard_normal((16, 8, 400)).astype(np.float32)
_KERNEL = _RNG.standard_normal((4, 16)).astype(np.float32)
SMALL_ROUNDS = 6
# Reference seconds: measured seconds scaled to a machine on which one
# reference call takes this long (about its time where the benchmark was
# defined).  Used for ``setup_s``, which must be reported in seconds.
NOMINAL_S = 0.005


def reference_call():
    """One call: an interpreter loop, a small BLAS product, rounds of
    small-array numpy calls like batch-1 inference (pad, sliding window,
    contraction, normalisation, masked ``expm1``), and one larger
    sliding-window contraction."""
    total = 0
    for i in range(8000):
        total += i * i
    _MATRIX @ _MATRIX
    for _ in range(SMALL_ROUNDS):
        padded = np.pad(_SMALL, ((0, 0), (0, 0), (8, 7)))
        z = np.tensordot(sliding_window_view(padded, _TAPS.size, axis=-1), _TAPS,
                         axes=([3], [0]))
        z = (z - z.mean(axis=(0, 2), keepdims=True)) / np.sqrt(
            z.var(axis=(0, 2), keepdims=True) + 1e-3)
        np.expm1(z, out=z, where=z < 0)
    windows = sliding_window_view(_SIGNAL, _KERNEL.shape[1], axis=-1)
    out = np.tensordot(windows, _KERNEL, axes=([3], [1]))
    return total, float(np.exp(np.tanh(out)).mean())


class SpeedSampler:
    """Times one reference call every ``interval`` seconds while active.

    Use as a context manager in the main thread.  Python runs the handler
    between bytecodes, so a call into numpy finishes before a sample is
    taken.
    """

    def __init__(self, interval=0.25):
        self.interval = interval
        self.stamps = []       # clock() at each sample's start
        self.durations = []    # seconds per reference call
        self._handler_ns = 0
        self._previous = None

    def clock(self):
        """Seconds of ``perf_counter`` minus the time spent sampling."""
        return (time.perf_counter_ns() - self._handler_ns) / 1e9

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.stamps.append((t0 - self._handler_ns) / 1e9)
        reference_call()
        t1 = time.perf_counter_ns()
        self.durations.append((t1 - t0) / 1e9)
        self._handler_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def reference_s(self, start, end, pad=0.5):
        """Median reference-call time over ``[start - pad, end + pad]``, or
        the next sample's when none falls in it (the sampler takes one on
        entry and one on exit, so there always is one)."""
        lo = bisect.bisect_left(self.stamps, start - pad)
        hi = bisect.bisect_right(self.stamps, end + pad)
        if lo < hi:
            return statistics.median(self.durations[lo:hi])
        return self.durations[min(lo, len(self.durations) - 1)]
