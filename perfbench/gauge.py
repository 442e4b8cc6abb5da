"""A machine-speed gauge: fixed work, independent of the witness's code.

The benchmark runs on shared machines whose speed drifts by 10-30% over
tens of seconds (other tenants share the cores).  Identical passes of the
same workload can differ that much, so raw timings of two runs are not
comparable.  The gauge times a small fixed mix of the kinds of work the
witness does (interpreted Python, an FFT, elementwise array passes, a
matrix product and a sliding-window correlation like the viewport
search) between witness calls, never inside them, and the
benchmark scales each pass's timings by ``REFERENCE_S / median gauge``:
the witness's time at the gauge's reference speed.  The gauge's own code
lives in the benchmark, so no change to the witness can move it.
"""

from __future__ import annotations

import statistics

import numpy as np

#: Gauge seconds that define the reference speed (about a 2-vCPU VM's
#: median); only the ratio matters when two runs are compared.
REFERENCE_S = 0.010
#: Minimum wall seconds between two gauge samples.
INTERVAL_S = 0.5


class Gauge:
    """Samples the fixed work at most every ``INTERVAL_S`` seconds."""

    def __init__(self, clock) -> None:
        self._clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.random((480, 640), dtype=np.float32)
        self._b = rng.random((480, 640), dtype=np.float32)
        self._m = rng.random((128, 256), dtype=np.float32)
        self._page = rng.random((900, 640), dtype=np.float32)
        self._view = rng.random((360, 640), dtype=np.float32)
        self._last = -INTERVAL_S
        self.samples: list = []
        #: Seconds spent sampling, to subtract from wall times around it.
        self.spent_s = 0.0

    def _work(self) -> float:
        t0 = self._clock()
        total = 0
        for i in range(5000):
            total += i * i
        np.fft.rfft(self._a, axis=1)
        np.abs(self._a - self._b).sum(axis=1)
        (self._a > 0.5).any(axis=0)
        self._m.T @ self._m
        view = self._view - self._view.mean()
        for offset in range(0, 40, 4):
            window = self._page[offset : offset + 360]
            float((view * (window - window.mean())).sum())
        return self._clock() - t0

    def tick(self) -> None:
        """Take a sample if the last one is older than ``INTERVAL_S``."""
        now = self._clock()
        if now - self._last >= INTERVAL_S:
            self.samples.append(self._work())
            self._last = self._clock()
            self.spent_s += self._last - now

    def take(self) -> list:
        """The samples since the last ``take``; the next ``tick`` samples."""
        samples, self.samples = self.samples, []
        self._last = -INTERVAL_S
        return samples


def speed_factor(samples: list) -> float:
    """Multiply a raw time by this to get the time at reference speed."""
    return REFERENCE_S / statistics.median(samples)
