"""Host-speed calibration: scales measured times to a fixed host speed.

The benchmark's host is a share of a busy machine whose speed drifts by up
to 1.5x over minutes, so wall times of the same code differ from run to
run by more than a regression worth catching.  The calibration kernel below
does a fixed amount of the kind of work the program's control loops do,
pure-Python float arithmetic and numpy calls on 3-vectors, and never calls
safedmp.  The benchmark runs it between cycles of ops; a cycle's times are
multiplied by ``REFERENCE_S / t``, where ``t`` is the mean kernel time just
before and just after the cycle.  A program change does not move the
kernel, so it still moves the scaled times in full; a slow host moves both
and cancels out.

The kernel and ``REFERENCE_S`` must stay as they are: changing either
rescales every time the benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel time on a 2-core Intel Xeon virtual machine; scaled times
#: read as the times such a host gives at that speed.
REFERENCE_S = 0.020


def kernel() -> float:
    x, v = 0.1, 0.0
    samples = []
    for i in range(30000):
        a = -25.0 * (x - 1.0) - 10.0 * v
        v += a * 0.005
        x += v * 0.005
        if i % 100 == 0:
            samples.append((x, v))
    p = np.array([0.1, 0.2, 0.3])
    c = np.array([0.5, 0.2, 0.3])
    total = 0.0
    for _ in range(3000):
        d = p - c
        n = float(np.linalg.norm(d))
        p = p + 0.001 * d / (n + 1.0)
        total += n
    return total + len(samples)


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(seconds: float) -> float:
    """Factor that scales a time measured when the kernel took ``seconds``."""
    return REFERENCE_S / seconds
