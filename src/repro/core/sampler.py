"""Random-interval screenshot sampling (paper §III-C).

vWitness samples the frame buffer with a random delay uniform in
[0, 500ms] between consecutive samples — on average four samples per
second.  Randomness is the TOCTOU defense: an attacker cannot predict
sampling times, so evading them requires flipping the display faster than
the ~500ms human-perception threshold.
"""

from __future__ import annotations

import numpy as np

#: The paper's maximum inter-sample delay (ms).
MAX_DELAY_MS = 500.0


class ScreenshotSampler:
    """Generates the randomized sampling schedule against a virtual clock."""

    def __init__(self, start_ms: float, seed: int = 0, max_delay_ms: float = MAX_DELAY_MS, periodic: bool = False) -> None:
        if max_delay_ms <= 0:
            raise ValueError(f"max delay must be positive, got {max_delay_ms}")
        self._rng = np.random.default_rng(seed)
        self.max_delay_ms = max_delay_ms
        self.periodic = periodic
        self.next_sample_ms = start_ms + self._draw()

    def _draw(self) -> float:
        if self.periodic:
            # The ablation baseline: fixed half-max period (same mean rate).
            return self.max_delay_ms / 2.0
        return float(self._rng.uniform(0.0, self.max_delay_ms))

    def due(self, now_ms: float) -> bool:
        """Has the next sampling instant passed?"""
        return now_ms >= self.next_sample_ms

    def schedule_next(self, now_ms: float) -> float:
        """Advance the schedule after taking a sample; returns the next time."""
        self.next_sample_ms = now_ms + self._draw()
        return self.next_sample_ms

    def defer(self, now_ms: float, delay_ms: float) -> float:
        """Push the next sampling instant out by ``delay_ms`` without
        consuming a schedule draw (a *delayed* sample, not a rescheduled
        one — the fault-injection ``sampler.delay`` seam).  Never moves
        the schedule earlier."""
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self.next_sample_ms = max(self.next_sample_ms, now_ms + delay_ms)
        return self.next_sample_ms
