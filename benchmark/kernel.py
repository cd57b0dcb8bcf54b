"""The reference kernel: fixed work whose time tracks the host's speed.

Run as a script, it times the kernel in an interpreter of its own, so that
the state a benchmarked op leaves behind in the workload process (a cache, a
grown heap) cannot slow the kernel down and read as host slowness.  Each line
read from standard input runs the kernel once and prints its seconds; the end
of the input ends the process.
"""

from __future__ import annotations

import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
SMALL, LARGE = _RNG.random(256), _RNG.random(16_384)


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter work, small-array numpy calls and a
    cache-sized array pass: the mix of the benchmark's ops."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    for _ in range(8):
        np.searchsorted(np.sort(SMALL ** 1.75), SMALL[:32])
    np.sort(np.hypot(LARGE, LARGE[::-1]))
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(reference_kernel()), flush=True)
