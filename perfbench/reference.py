"""A fixed reference computation that measures how fast the machine is now.

The machine this benchmark was defined on is shared: a core's speed drifts by
up to a factor of two over minutes, and each core drifts on its own.  The
end-to-end timings are therefore taken on one core, and each timed piece
(a round, a set-up) is rescaled by the time this kernel took on that core
just before it:

    time at reference speed = measured time * REF_KERNEL_S / kernel time

The kernel mixes what the workloads spend their time on: a complex FFT of a
padded-grid length, elementwise numpy arithmetic, and a pure-Python loop.
It never calls burgerslab, so a change to the program cannot move it.
"""

import os
from time import perf_counter

import numpy as np

# The kernel's time on an uncontended core of the machine where the benchmark
# was defined (2.1 GHz Xeon; 7.8 ms fastest, 9.7 ms median over 154 samples).
REF_KERNEL_S = 0.010

_GRID = np.random.default_rng(0).standard_normal((1, 4125)) + 0j


def kernel_s():
    """Seconds the reference computation takes now."""
    start = perf_counter()
    for _ in range(100):
        y = np.fft.ifft(_GRID, axis=1)
        np.abs(y) ** 2 + y.real
        acc = 0
        for i in range(300):
            acc += i * i
    return perf_counter() - start


def at_reference_speed(seconds, kernel):
    """``seconds`` measured right after a kernel that took ``kernel``."""
    return seconds * REF_KERNEL_S / kernel


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on a single core, so
    that the kernel and the work it rescales see the same contention."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
