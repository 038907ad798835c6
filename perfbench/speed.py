"""Host-speed calibration: a fixed pure-Python kernel timed between queries.

A shared 2-vCPU machine can change speed by up to 2x over seconds to minutes,
and wall-clock and CPU times of a query both follow it.  So the benchmark
times a fixed kernel that shares no code with coalgex, the package's own Moore
refinement on one fixed random machine, at most every `every_s` seconds
between queries.  A time measured at a given moment is rescaled to the speed
at which the kernel takes `reference_s`, using the median of the latest
`window` kernel timings.  A change to coalgex moves query times and leaves the
kernel alone; a change of host speed moves both, and the ratio stays.

Import time did not follow that kernel, so set-up is rescaled by
`import_seconds` instead: a fresh import of a fixed set of pure-Python
standard modules that neither coalgex nor the benchmark imports.
"""
from __future__ import annotations

import importlib
import random
import statistics
import sys
from collections import deque
from time import perf_counter

from .machines import bisimilarity_classes, random_machine

IMPORT_KERNEL = ("difflib", "calendar", "pprint", "textwrap", "configparser", "optparse")


def import_seconds() -> float:
    """Time to import the IMPORT_KERNEL modules afresh."""
    for name in IMPORT_KERNEL:
        sys.modules.pop(name, None)
    start = perf_counter()
    for name in IMPORT_KERNEL:
        importlib.import_module(name)
    return perf_counter() - start


class Speed:
    def __init__(self, reference_s: float, every_s: float = 0.2, reps: int = 3, window: int = 5):
        self.reference_s = reference_s
        self.every_s = every_s
        self.reps = reps
        self.values = random_machine(random.Random("calibration"), "nfa", 60).values
        self.recent: deque[float] = deque(maxlen=window)
        self.kernel_seconds: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(self.reps):
            bisimilarity_classes(self.values)
        seconds = perf_counter() - start
        self.recent.append(seconds)
        self.kernel_seconds.append(seconds)
        self.last = perf_counter()

    def factor(self) -> float:
        """Reference seconds per wall second at the host's current speed."""
        if not self.recent:
            for _ in range(self.recent.maxlen):
                self.sample()
        elif perf_counter() - self.last >= self.every_s:
            self.sample()
        return self.reference_s / statistics.median(self.recent)

    def host_speed(self) -> float:
        """Median speed over the run relative to the reference (1 = reference)."""
        return self.reference_s / statistics.median(self.kernel_seconds)
