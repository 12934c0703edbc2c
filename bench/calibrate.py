"""A fixed calibration kernel that measures how fast the host runs right now.

The host's speed drifts by about 1.5x within minutes (see NOTES.md,
"Steadiness"), and the drift slows every process, so neither the wall
time nor the CPU time of a run compares between invocations.  The benchmark
runs this kernel in a slot before and after every simulate run and scales
the run's time by the kernel's reference time over its time in those two
slots.

The kernel imports nothing from jscc, so a change to the program cannot
move it.  It mixes the kinds of work the workloads do: an interpreted loop,
numpy calls on 4096-sample batches, a broadcast nearest-point search and
`np.unique(axis=0)` over integer box keys.  One round takes about 0.1 s.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median seconds of one round on a 2-vCPU Intel Xeon (2.0 GHz) Firecracker
# microVM, Python 3.11.7, numpy 2.4.6, in a quiet spell of the host.
REFERENCE_ROUND_S = 0.104


class Kernel:
    """Fixed inputs, built once; each part takes about 25 ms."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240501)
        self.x = rng.random(4096)
        self.points = rng.random((512, 3))
        self.y = rng.random((1536, 3))
        self.keys = rng.integers(0, 400, size=(30_000, 2))

    @staticmethod
    def _python() -> float:
        acc = 0.0
        for i in range(150_000):
            acc += (i % 7) * 0.5 - (i & 3)
        return acc

    def _batch(self) -> float:
        rng = np.random.default_rng(7)
        total = 0.0
        for _ in range(70):
            noise = rng.standard_normal(self.x.size) * 0.1
            y = np.floor((self.x + noise) * 8.0) / 8.0
            total += math.fsum(np.square(y - self.x))
        return total

    def _search(self) -> float:
        total = 0
        for k in range(0, len(self.y), 512):
            d = ((self.y[k:k + 512, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
            total += int(d.argmin(axis=1).sum())
        return float(total)

    def _unique(self) -> float:
        return float(len(np.unique(self.keys, axis=0)))

    def round(self) -> float:
        """Seconds one pass over every part takes."""
        t0 = time.perf_counter()
        self._python()
        self._batch()
        self._search()
        self._unique()
        return time.perf_counter() - t0

    def slot(self, seconds: float) -> list:
        """One warm-up round, discarded (the first after a simulate run is
        slow), then rounds for at least `seconds` and at least three of
        them; returns the seconds of each."""
        self.round()
        rounds = []
        while len(rounds) < 3 or sum(rounds) < seconds:
            rounds.append(self.round())
        return rounds


def speed_factor(*slots: list) -> float:
    """Reference round time over the mean of the slots' median round times:
    below 1 when the host runs slower than the reference host.  The host
    flips between a fast and a slow state every few seconds, so the mean of
    two slots estimates the share of time a run between them spent slow."""
    return REFERENCE_ROUND_S / statistics.fmean(statistics.median(s) for s in slots)
