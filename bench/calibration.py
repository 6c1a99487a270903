"""Machine-speed calibration for timings on a shared host.

On a shared virtual machine the same code runs up to ~1.6x slower for
seconds at a time while neighbours are busy, and neither CPU time nor steal
time shows it.  The benchmark therefore times a fixed kernel right before
and after every timed call and reports each call's time scaled by
``nominal / kernel time``: the seconds it would have taken at the nominal
speed of the reference machine.  The kernels are the benchmark's own code,
independent of kerrmzi, so a change to kerrmzi moves the scaled times
by the same factor as it moves the raw ones.  There are two kernels,
matched to the work they calibrate: interpreter-bound Python (the
closed-form layer, imports) and a permute-and-contract of a complex
tensor (the Fock oracle).
"""

from __future__ import annotations

import functools
import math
import statistics
import time


def python_kernel() -> None:
    # float arithmetic only: no objects the garbage collector tracks, so
    # the kernel's speed does not depend on the size of the heap
    acc = 0.0
    sqrt, cos = math.sqrt, math.cos
    for i in range(1, 6001):
        x = i * 1e-3
        acc += sqrt(x) * cos(x) + x * x / (1.0 + x)


@functools.cache
def _tensor_buffers():
    import numpy as np  # not at module level: set-up launches time numpy's import

    n = 64
    tensor = np.exp(2j * np.pi * np.arange(n**3).reshape(n, n, n) / 977.0)
    mat = np.exp(2j * np.pi * np.arange(n * n).reshape(n, n) / 131.0) / n
    return np.matmul, tensor, mat, np.empty((n, n * n), dtype=complex)


def tensor_kernel() -> None:
    # the oracle's gate step: permute the axes of a 4 MB complex tensor and
    # contract one axis with a matrix, into a fixed output buffer
    matmul, tensor, mat, out = _tensor_buffers()
    matmul(mat, tensor.transpose(1, 0, 2).reshape(mat.shape[0], -1), out=out)


# nominal kernel seconds on the reference machine (2-core x86 virtual machine,
# Python 3.11, numpy 2.4 with one OpenBLAS thread), quiet host
KERNELS = {"python": (python_kernel, 1.05e-3), "tensor": (tensor_kernel, 2.8e-3)}
REPEATS = 5  # kernel runs per sample; the sample is their median


class Clock:
    """Times calls and scales each by the machine speed around it."""

    def __init__(self, kind: str):
        self.kernel, self.nominal_s = KERNELS[kind]
        self.last_speed = self.speed()

    def speed(self) -> float:
        """Nominal over measured kernel time: 1 at nominal speed, below 1
        on a slowed host."""
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - start)
        return self.nominal_s / statistics.median(samples)

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, scaled seconds) of one call."""
        before = self.last_speed
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        self.last_speed = self.speed()
        return result, raw, raw * 0.5 * (before + self.last_speed)
