"""A host-speed reference, timed through each repetition, to normalise CPU times.

On a shared VM the CPU's speed drifts by 10-30 % over seconds to minutes,
whatever the benchmark does: identical repetitions of a 30 s census differ by
that much in CPU time, and so do the medians of two sets of runs taken a few
minutes apart.  So while a repetition runs, a fixed reference kernel that
uses nothing of the package (numpy table lookups and a sort, like the
package's kernels, and an interpreter loop) is timed every INTERVAL_S of this
process's CPU time from a SIGPROF handler.  The runner scales the
repetition's CPU time by NOMINAL_S / (median reference time): a repetition
that ran while the host was 20 % slow is reported at the speed the host has
when the reference takes NOMINAL_S.

Each sample runs the kernel twice and times the second, warm run, so the
sample measures the host and not the cache state the package left behind.
The CPU the sampler uses is counted in `spent()`, which the benchmark's CPU
clock subtracts.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# The reference kernel's median warm time on a 2-vCPU Intel Xeon VM with
# Python 3.11 and numpy 2.4 (the host of perfbench/baseline.json).  It only
# fixes the scale of the normalised figures; do not change it between the
# runs being compared.
NOMINAL_S = 0.0019
INTERVAL_S = 0.2

_rng = np.random.default_rng(20240917)
_TABLE = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_INDEX = _rng.integers(0, 256, size=(3, 20_000), dtype=np.uint8)

_samples: list[float] = []
_spent = 0.0
_busy = False


def reference() -> int:
    """The fixed kernel: about 2 ms of numpy lookups, a sort and a loop."""
    x = _TABLE[_INDEX[0], _INDEX[1]]
    x = np.sort(_TABLE[x, _INDEX[2]])
    s = 0
    for i in range(2000):
        s += (i * i) % 7
    return int(x[0]) + s


def sample() -> None:
    """Time one warm run of the reference and record it."""
    global _spent, _busy
    if _busy:  # a timer signal arrived while sampling
        return
    _busy = True
    c0 = time.process_time()
    try:
        reference()
        t0 = time.perf_counter()
        reference()
        _samples.append(time.perf_counter() - t0)
    finally:
        _spent += time.process_time() - c0
        _busy = False


def spent() -> float:
    """CPU seconds the sampler has used in this process."""
    return _spent


def take() -> list[float]:
    """The samples recorded since the last call."""
    out = list(_samples)
    _samples.clear()
    return out


def reference_s(n: int) -> float:
    """Median of n fresh samples, taken now."""
    take()
    for _ in range(n):
        sample()
    return statistics.median(take())


@contextmanager
def sampling(interval: float = INTERVAL_S):
    """Sample the reference every `interval` CPU seconds inside the block."""
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: sample())
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
