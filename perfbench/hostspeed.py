"""How fast the host runs Python during a run, from a fixed piece of work.

The benchmark shares a few cores with other tenants of its host, and their
load changes how fast the same Python code runs by up to about 1.6x from one
minute to the next. Steal time stays near zero and process CPU time equals
wall time, so the slowdown shows in every timing alike: across ten
consecutive runs, a fresh `import ascentlab.cli` took 139 to 220 ms, and
the operations' median times moved with it. A run therefore times
`reference_work`, which does not touch the program, every REF_EVERY
seconds between operations, and reports its time metrics at the speed of a
host on which the reference takes NOMINAL_MS: a time is multiplied by
NOMINAL_MS over the median reference time, and a rate divided by it. The
run prints the unscaled values beside them.
"""

from __future__ import annotations

import gc
import math
import time
from statistics import median

REF_EVERY = 0.5      # seconds between reference samples
NOMINAL_MS = 3.4     # the reference's median time on a 2-vCPU VM, Python 3.11.7


def reference_work() -> int:
    """Fixed pure-Python integer arithmetic. It keeps nothing alive and
    imports nothing from the program, so neither the program's code nor the
    heap the program leaves behind changes its time. Of the candidates
    tried (this loop, frozenset unions, a large lookup table, list and
    tuple churn), this one followed the speed of the verify and build mixes
    most closely, one to one."""
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def time_reference() -> float:
    """One sample, in seconds: the reference run twice with the collector
    off, the second run timed, so that caches the program left cold and
    garbage it left behind do not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken over one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(time_reference())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """A sample, if REF_EVERY seconds have passed since the last one."""
        if time.perf_counter() - self._last >= REF_EVERY:
            self.sample()

    def median_ms(self) -> float:
        return median(self.samples) * 1e3

    def factor(self) -> float:
        """NOMINAL_MS over the median sample: multiply a time by it, divide a rate."""
        return NOMINAL_MS / self.median_ms()
