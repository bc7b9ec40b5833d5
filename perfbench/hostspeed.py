"""Host-speed calibration for the warpagg benchmark.

The shared 2-vCPU hosts the benchmark runs on change speed under it. A
fixed piece of numpy work took 6.5 ms and then 10.7 ms within a tenth of
a second, with CPU time tracking wall time (the CPU is slower,
nothing is waiting), and the median of a 30 s run moved by more than a
third between sets of runs minutes apart. Ratios between the program and
a fixed piece of work timed next to it are far steadier than either.

So a run times :class:`Kernel`, a fixed mix of interpreter, small-array and
large-array numpy work owned by the benchmark, between operations and at
least every ``PERIOD_S`` inside them. :meth:`Calibrator.scale` converts a
timed interval of the program into reference seconds: the samples inside
it are cut out, and each stretch between two samples is multiplied by
``REF_S`` over the mean time of the samples on either side. ``REF_S`` is
the kernel's median on the baseline host, so reference seconds are on the
scale of wall seconds there. A change to the program moves reference
seconds as it moves wall seconds; a change of host speed moves the kernel
too and mostly cancels.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

PERIOD_S = 0.1
# Median of Kernel()() on the baseline host (2 vCPU Linux VM, numpy 2.4.6).
REF_S = 0.0051


class Kernel:
    """A fixed mix of the work the program does: Python loops, small numpy
    calls (attack_small) and memory-bound elementwise passes over arrays
    larger than cache (the paper-scale grid kernels). It writes into its own
    buffers: a fresh large array would cost page faults that depend on what
    the program left in the allocator, not on host speed."""

    def __init__(self):
        rng = np.random.default_rng(20010311)
        self.small = rng.random((24, 24))
        self.large = rng.random((512, 512))
        self.small_out = np.empty_like(self.small)
        self.large_out = np.empty_like(self.large)

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(300):
            acc += float(np.tanh(self.small, out=self.small_out).sum())
            for j in range(25):
                acc += j * 0.5
        for _ in range(2):
            np.multiply(self.large, self.large, out=self.large_out)
            np.negative(self.large_out, out=self.large_out)
            acc += float(np.exp(self.large_out, out=self.large_out).sum())
        return acc


class Calibrator:
    """Kernel samples taken during a run, and the scaling they imply."""

    def __init__(self, clock=time.perf_counter, run_kernel=None):
        self.clock = clock
        self.run_kernel = run_kernel or Kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.run_kernel()  # first call pays for page faults, not host speed

    def sample(self) -> None:
        self.starts.append(self.clock())
        self.run_kernel()
        self.ends.append(self.clock())

    def maybe_sample(self) -> None:
        """Sample if ``PERIOD_S`` has passed since the last sample ended."""
        if not self.ends or self.clock() - self.ends[-1] >= PERIOD_S:
            self.sample()

    def kernel_seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _around(self, x: float, y: float) -> float:
        """Mean time of the last sample ending by ``x`` and the first one
        starting from ``y``."""
        around = []
        i = bisect.bisect_right(self.ends, x) - 1
        if i >= 0:
            around.append(self.ends[i] - self.starts[i])
        j = bisect.bisect_left(self.starts, y)
        if j < len(self.starts):
            around.append(self.ends[j] - self.starts[j])
        if not around:
            raise ValueError("no kernel sample around the interval")
        return sum(around) / len(around)

    def scale(self, a: float, b: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of ``[a, b]``, with the kernel
        samples that ran inside it cut out."""
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.ends, b)
        cuts = [a]
        for k in range(first, last):
            cuts += [self.starts[k], self.ends[k]]
        cuts.append(b)
        wall = ref = 0.0
        for x, y in zip(cuts[::2], cuts[1::2]):
            wall += y - x
            ref += (y - x) * REF_S / self._around(x, y)
        return wall, ref
