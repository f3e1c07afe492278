"""Host-speed probe: wall seconds corrected for how fast the host runs.

The benchmark runs on a few cores of a shared host whose speed drifts: for
stretches of 5-20 s the same single-threaded code runs 1.3-1.8 times slower,
and CPU time shows the same slowdown as wall time, so it cannot tell the two
apart.  A probe samples that speed while the library runs: every
``INTERVAL`` seconds a SIGALRM handler in the measuring thread itself times a
fixed reference computation (exact Gauss-Jordan elimination of a 12 x 13
matrix over ``fractions.Fraction``, the arithmetic the library spends its
time in, about 8 ms).  ``Probe.seconds`` then reports an interval's wall
time, less the probe's own ticks inside it, scaled by ``REFERENCE_S`` over the
median tick time around the interval: the wall seconds the same work takes
when the host runs at reference speed.

The correction is partial: in a slow stretch the reference slows somewhat
more than the library does, so a slow stretch reads slightly fast.  It still
removes most of the drift; on the workloads here it cut the spread between
runs from about 0.3 to about 0.1 of the median.

The reference computation runs with the garbage collector off, so that
collector settings made by the library move the library's times and not the
reference.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.25
# Time of one reference computation on an unloaded core of the 2-CPU x86-64
# host the benchmark was written on (CPython 3.11).
REFERENCE_S = 0.0078
# Ticks this many seconds before and after an interval also count for its
# speed, so that a short interval still has several.
WINDOW = 1.0

_N = 12
_MATRIX = [[Fraction((31 * i * i + 17 * j * j + 7 * i * j + 1) % 23 - 11, 1 + (i + 2 * j) % 5)
            for j in range(_N + 1)] for i in range(_N)]


def reference_work():
    """Reduce a fixed, invertible 12 x 13 rational matrix to reduced row
    echelon form."""
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        p = next(r for r in range(c, _N) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Probe:
    """Context manager that samples host speed while it is active.

    ``ticks`` holds (start, duration) of every reference computation.  A
    tick runs to its end between two bytecodes of the measured code, so a
    tick that starts inside an interval also ends inside it.
    """

    def __init__(self):
        self.ticks = []
        self._old = None

    def _tick(self, signum=None, frame=None):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self.ticks.append((t0, time.perf_counter() - t0))
        finally:
            if was_enabled:
                gc.enable()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return False

    def own_s(self, t0, t1):
        """Seconds the probe itself took between t0 and t1."""
        return sum(d for s, d in self.ticks if t0 <= s < t1)

    def seconds(self, t0, t1):
        """Wall seconds from t0 to t1, less the probe's own ticks, at
        reference host speed."""
        near = ([d for s, d in self.ticks if t0 - WINDOW <= s < t1 + WINDOW]
                or [min(self.ticks, key=lambda tick: abs(tick[0] - t0))[1]])
        return (t1 - t0 - self.own_s(t0, t1)) * REFERENCE_S / statistics.median(near)
