"""Machine-speed calibration of timed work.

The speed of a shared machine drifts by tens of percent over seconds, and
the drift moves all timings by roughly a common factor. While a
``Calibrator`` is active, a fixed reference probe runs every ``interval``
seconds from a SIGALRM handler, and once more before and after each timed
call. A call's wall time excludes the probes run inside it (about 2% of
it). Its calibrated time is that wall time scaled by REFERENCE_PROBE_S over
the mean probe time seen during the call: the time the call would have
taken at the speed where the probe takes exactly REFERENCE_PROBE_S.
"""

import signal
import time

import numpy as np

# Median probe time on the 2-core Xeon sandbox the baseline was measured on.
REFERENCE_PROBE_S = 6.0e-4

_X = np.linspace(-1.0, 1.0, 5)[None, :]
_W = np.linspace(-0.5, 0.5, 5 * 64).reshape(5, 64)
_H = np.linspace(-1.0, 1.0, 128 * 64).reshape(128, 64)
_B = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)


def probe_kernel():
    """Single-row numpy calls, batched BLAS and plain interpreter work: the
    three kinds of work the workloads mix, so their slowdowns are all seen."""
    for _ in range(64):
        np.tanh(_X @ _W)
    for _ in range(4):
        np.tanh(_H @ _B)
    counts = {}
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0.0) + 0.5 * i
    return counts


class Calibrator:
    def __init__(self, interval=0.025, clock=time.perf_counter, on_probe=None):
        """``on_probe(seconds)`` is told the length of every probe."""
        self.interval = interval
        self.clock = clock
        self.on_probe = on_probe
        self.probes = []  # duration of every probe run, in order
        self.probe_s = 0.0
        self._previous = None

    def probe(self, *_):
        t0 = self.clock()
        probe_kernel()
        d = self.clock() - t0
        self.probes.append(d)
        self.probe_s += d
        if self.on_probe is not None:
            self.on_probe(d)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args, **kwargs):
        """Call fn; return (result, wall seconds, calibrated seconds)."""
        first = len(self.probes)
        self.probe()
        inside0 = self.probe_s
        t0 = self.clock()
        out = fn(*args, **kwargs)
        t1 = self.clock()
        inside = self.probe_s - inside0
        self.probe()
        seen = self.probes[first:]
        wall = t1 - t0 - inside
        return out, wall, wall * REFERENCE_PROBE_S * len(seen) / sum(seen)
