"""Host-speed calibration: timings in reference-box seconds.

The reference box is a shared host.  Its speed for the same code drifts
by up to half over minutes: one lib-roundtrip pass took 4.8 s and, a few
minutes later in another process with the same inputs, 7.4 s.  Neither
steal time nor the allocator explains it (process CPU time equals wall
time, and the slowdown hits every operation alike), so no statistic taken
inside a run removes it.

A fixed kernel that uses numpy and the interpreter only, never the
program, is timed between a run's operations: a gather at random indices
from a table larger than L2 (the program's decode-table and index
lookups) and a loop in the interpreter over a small dict (its per-symbol
and per-block bookkeeping).  Of the kernels tried, this pair tracked the
program best; a streaming numpy kernel tracked compress nearly as well
but decompress, which is interpreter-bound, far worse.  The mean call
time over ``NOMINAL_S``, the kernel's call time on the reference box at a
quiet moment, is the host's slowdown at that moment.  lib-roundtrip's
times and every workload's set-up time are divided by the slowdown of
the moments they were taken in (and rates multiplied by it), so they read
in the seconds of the reference box at rest.  A change of the host's
speed moves the kernel and the program alike and cancels; a change of the
program moves only the program.  svc-small and stream-large run the
program on both vCPUs at once, and the kernel, run on one between their
phases, made them less steady; they report raw wall time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

#: one kernel call on the reference box at a quiet moment, in seconds
NOMINAL_S = 5.5e-3
#: table the kernel gathers from: 2 MB, larger than L2 and well inside L3
TABLE_ITEMS = 500_000
GATHERS = 400_000
#: iterations of the kernel's interpreter loop
LOOP = 20_000


class Calibrator:
    """Times the kernel.  ``sample`` adds calls to the current window;
    ``take`` returns the window's slowdown and starts a new one."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal(TABLE_ITEMS).astype(np.float32)
        self._index = rng.integers(0, TABLE_ITEMS, GATHERS)
        # the kernel writes only into this array, allocated once, so that
        # its time does not depend on the allocator's state, which the
        # program's own allocations change
        self._out = np.empty(GATHERS, dtype=np.float32)
        self._codes = {i: (i * 7919) & 0xFFFF for i in range(4096)}
        for _ in range(3):  # warm-up: first-call costs are not the host's speed
            self._kernel()
        self._times: list[float] = []

    def _kernel(self) -> int:
        np.take(self._table, self._index, out=self._out)
        codes = self._codes
        acc = 0
        for i in range(LOOP):
            acc += codes[i & 4095] ^ (i >> 3)
        return acc

    def sample(self, calls: int = 1) -> None:
        for _ in range(calls):
            t0 = perf_counter()
            self._kernel()
            self._times.append(perf_counter() - t0)

    def take(self) -> float:
        """Slowdown (mean kernel call time over ``NOMINAL_S``) of the calls
        since the last ``take``; 1.0 when there were none.  The mean, not
        the median: the program's own times take in the host's short
        stalls too, and the mean tracked them better (README.md)."""
        slowdown = sum(self._times) / len(self._times) / NOMINAL_S if self._times else 1.0
        self._times = []
        return slowdown


def slowdown_now() -> float:
    """The host's slowdown right now: twenty calls of a fresh calibrator."""
    cal = Calibrator()
    cal.sample(20)
    return cal.take()
