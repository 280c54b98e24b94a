"""Machine-speed calibration, run inside the measured process.

On a shared machine the speed of the CPU drifts from minute to minute, so a
run's raw times move with the machine as much as with the program. Each run
therefore also times two fixed kernels that never touch flowgate:

- `interpreter`: CSV-like parsing (splitting a line of 1,536 decimal values
  and converting them with numpy) and an integer loop;
- `blas`: float64 matrix products of encoder-layer shape, on the BLAS threads
  the benchmark sets.

`calibrate` runs them between the operations of the timed phase, never
inside one. `run.py` divides each kernel's time by its nominal time on the
reference machine (`spec.CAL_REF_S`) to get the run's slowness, and scales
the measured times by it. The garbage collector is off while a kernel runs,
so the program's heap cannot change the kernels' cost.
"""
from __future__ import annotations

import gc
import time

import numpy as np

KERNELS = ("interpreter", "blas")
_LINE = ",".join([repr(b / 255.0) for b in range(256)] * 6)


def interpreter_round() -> None:
    for _ in range(60):
        np.array(_LINE.split(","), dtype=np.float64)
    total = 0
    for i in range(100_000):
        total += i * i


def blas_round(a: np.ndarray, b: np.ndarray) -> None:
    for _ in range(30):
        a @ b


def calibrate(rounds: int) -> list[list[float]]:
    """Seconds of each of `rounds` rounds, per kernel in KERNELS order."""
    # made per call and freed after it, so they are not resident while the
    # program runs
    rng = np.random.default_rng(0)
    a, b = rng.random((64, 1600)), rng.random((1600, 512))
    kernels = (interpreter_round, lambda: blas_round(a, b))
    times: list[list[float]] = [[] for _ in kernels]
    gc.disable()
    try:
        for kernel, out in zip(kernels, times):
            for _ in range(rounds):
                start = time.perf_counter()
                kernel()
                out.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times
