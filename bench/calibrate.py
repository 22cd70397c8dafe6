"""Machine-speed calibration interleaved with the timed operations.

On a shared machine the CPU time of a fixed piece of work drifts by 20 %
or more over tens of seconds, as other tenants load the caches, memory
bandwidth and sibling hyperthreads. A fixed kernel timed next to every
operation drifts with it. The kernel mixes interpreter work, a LAPACK
inverse and a streaming pass over an 8 MB array, as the workloads do.
Dividing by the kernel's time and multiplying by ``NOMINAL_S`` gives CPU
seconds on a machine where the kernel takes exactly ``NOMINAL_S``.

Measured on a shared 2-core machine, the ``score`` operation's CPU time had
a coefficient of variation of 0.14, and its ratio to the kernel 0.07.
Medians over blocks of ten operations ranged from 0.81 to 1.24 times their
mean raw, and from 0.91 to 1.07 normalized. For ``vb``, the medians of
10-second blocks had a coefficient of variation of 0.098 raw and 0.063
normalized by the block's median kernel time.
"""

from __future__ import annotations

import functools
import time

import numpy as np

NOMINAL_S = 0.016


@functools.cache
def _operands():
    rng = np.random.default_rng(0)
    stream = rng.standard_normal(1_000_000)
    return rng.standard_normal((200, 200)), stream, np.empty_like(stream)


def kernel_seconds() -> float:
    """CPU seconds of one pass of the fixed calibration kernel."""
    matrix, stream, out = _operands()
    started = time.process_time()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(3):
        np.linalg.inv(matrix)
    for _ in range(4):
        np.multiply(stream, 1.0000001, out=out)
    return time.process_time() - started
