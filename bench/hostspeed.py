"""Host-speed calibration: a fixed kernel timed between the ops of a run.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to about 1.6x, in spells that last from tens of seconds to minutes; the
same code then measures that much slower or faster from one run to the
next.  To keep that drift out of the timed figures, each worker times this
kernel every EVERY_S seconds between ops, and divides every op latency by
the host factor at that moment: the median of the NEAREST kernel times
around it, over REFERENCE_S.  Set-up time is divided by the median of
SETUP_SAMPLES kernel times taken right after set-up.  A median, because a
scheduler stall can stretch one 3 ms sample a hundredfold.

The kernel uses numpy, scipy and plain Python only, never qsnn, so a change
to the program cannot move it: a program that gets slower reads slower.
Its mix (interpreter loops, calls on small complex arrays, an 8x8 expm)
is the mix the qsnn ops spend their time in.  Times are thus in
reference-host units: what the op would take on a host where the kernel
takes REFERENCE_S.  The raw wall-clock figures are reported next to them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.linalg import expm

# Median kernel time on the 2-vCPU host the baseline was taken on, in its
# faster spells.
REFERENCE_S = 0.003
EVERY_S = 0.2
NEAREST = 5
# Set-up has one factor, from this many samples taken right after it.
SETUP_SAMPLES = 11

_rng = np.random.default_rng(20190715)
_A = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_H = -0.05j * (_A + _A.conj().T)
_S2 = _A[:2, :2].copy()
_S4 = _A[:4, :4].copy()
_PSI = (_rng.normal(size=128) + 1j * _rng.normal(size=128)) / 16.0
_WORDS = [f"k{i}" for i in range(64)]


def _work() -> float:
    table = {}
    for round_ in range(20):
        for i, word in enumerate(_WORDS):
            table[word] = table.get(word, 0) + i * round_
    total = float(sum(table.values()))
    state = _PSI
    for _ in range(40):
        u = expm(_H)
        k = np.kron(_S2, _S4) @ u
        state = (state.reshape(16, 8) @ k.T).reshape(2, 64).T.reshape(128)
        state = state / np.linalg.norm(state)
        total += float(np.abs(np.vdot(state, _PSI)))
    return total


def slowness(samples: list[float]) -> float:
    """Median kernel time over REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class HostClock:
    """Kernel samples of one run, and the host factor at any moment."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            at = time.perf_counter()
            self.samples.append(kernel_seconds())
            self.times.append(at)

    def due(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """Host slowness at `at`, from the NEAREST samples around it."""
        if not self.samples:
            raise ValueError("no calibration samples")
        index = bisect.bisect(self.times, at)
        lo = max(0, min(index - NEAREST // 2, len(self.samples) - NEAREST))
        return slowness(self.samples[lo:lo + NEAREST])
