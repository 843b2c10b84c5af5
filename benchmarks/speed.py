"""Scale operation times to a fixed reference speed of the machine.

On a shared virtual machine the speed of a CPU drifts from second to second:
on the 2-vCPU host that recorded the first trajectory entry, one fixed
pure-Python loop took anywhere from 15.5 ms to 29 ms, in phases of one to a
few seconds, and its CPU time drifted with its wall time.  Before times
were scaled, the medians of two 15-second runs of one workload differed by
up to 45%; the ten-seed spreads of raw and scaled medians are recorded in
trajectory/BENCH_1.json.

So the benchmark times a fixed calibration kernel between operations, at
least every ``EVERY_S`` seconds, and scales each operation's wall time by
``reference / k``, with ``k`` the mean kernel time of the calibrations just
before and just after it.  Scaled times are seconds at the speed at which the
kernel takes its reference time.  Raw wall times are kept beside them in the
run record.  The kernels are benchmark code, so a change to the program
cannot move them.

The drift slows interpreted Python, small numpy calls and process start-up
by different amounts, so there are three kernels and each timing is scaled
by the one that resembles it.  Over 80 s of drift, scaling oracle points by
the numpy kernel left a 14% range between the medians of 20-point windows,
and scaling by the Python kernel left 39%.  Scaling CLI processes by the
Python kernel over-corrected them: runs on a slow machine came out 20%
faster than runs on a fast one.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.1
_MATRIX = np.random.default_rng(0).standard_normal((31, 31))
_SYMMETRIC = _MATRIX + _MATRIX.T
_BLOCKS = [np.arange(k) for k in range(1, 32)]


def _python_kernel() -> None:
    """Scalar math in the interpreter, like the closed forms and the optimizer."""
    total = 0.0
    for i in range(1, 6001):
        x = i * 5e-4
        total += math.exp(-x) * math.sqrt(x) + math.log1p(x) / (1.0 + x)


def _numpy_kernel() -> None:
    """Small dense eigensolves and per-block fancy indexing, like the Fock oracle."""
    for _ in range(4):
        _, vectors = np.linalg.eigh(_SYMMETRIC)
        out = np.zeros_like(_SYMMETRIC)
        for idx in _BLOCKS:
            out[idx, idx[::-1]] = _SYMMETRIC[idx, idx[::-1]] * 0.5 + vectors[idx, 0]


def _process_kernel() -> None:
    """A fresh interpreter that imports numpy, like the start-up of a CLI call."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# Kernel, its time at the reference speed (its median on the 2-vCPU Intel
# Xeon (2.1 GHz) virtual machine that recorded the first trajectory entry),
# and how many runs one calibration takes the median of.  The Python kernel
# scales the 0.36 s sweeps of sweep_grid, each bracketed by one calibration
# before and one after, so it takes more runs.  With 3 runs, the medians of
# scaled sweep times spread 3.8% and 6.8% over two sets of ten seeds; with 7,
# 4.3% over a third set.
KERNELS = {
    "python": (_python_kernel, 0.0016, 7),
    "numpy": (_numpy_kernel, 0.0015, 3),
    "process": (_process_kernel, 0.15, 1),
}


def kernel_s(kind: str) -> float:
    """Median time of a few runs of a calibration kernel.

    Not the minimum: within a slow phase contention comes and goes, and the
    operations being scaled feel its typical level, not its best moments.
    Not the mean, which one stray pause of tens of milliseconds would skew.
    """
    kernel, _, repeats = KERNELS[kind]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrated:
    """Collects operation timings, raw and scaled by the kernel measured around them."""

    def __init__(self, kind: str = "python") -> None:
        self.kind = kind
        self.kernels = [kernel_s(kind)]
        self.last = time.perf_counter()
        self.pending: list[dict] = []
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def add(self, timing: dict) -> None:
        """Add one operation's {sample name: seconds or [seconds]}."""
        self.pending.append(timing)
        if time.perf_counter() - self.last >= EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        """Measure the kernel and scale every timing added since the last measurement."""
        if not self.pending:
            return
        self.kernels.append(kernel_s(self.kind))
        self.last = time.perf_counter()
        reference = KERNELS[self.kind][1]
        factor = reference / (0.5 * (self.kernels[-2] + self.kernels[-1]))
        for timing in self.pending:
            for key, value in timing.items():
                values = value if isinstance(value, list) else [value]
                self.raw.setdefault(key, []).extend(values)
                self.scaled.setdefault(key, []).extend(v * factor for v in values)
        self.pending = []

    def record(self) -> dict:
        return {
            "kernel": self.kind,
            "reference_s": KERNELS[self.kind][1],
            "kernel_samples": len(self.kernels),
            "kernel_p50_s": statistics.median(self.kernels),
            "kernel_min_s": min(self.kernels),
            "kernel_max_s": max(self.kernels),
        }
