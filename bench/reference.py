"""Machine-speed reference interleaved with a pass.

On a shared 2-vCPU virtual machine the same series-oracle pass took 2.3 s
in one minute and 3.9 s in the next, and a slow spell can cover a whole run.
While a pass runs, a timer interrupts it every PERIOD_S seconds to run one
fixed slice of pure-Python work and time it. The pass's own time divided by
the mean slice time is the pass in reference units: a slow spell stretches
the slices and the pass alike, so the ratio holds steady. The slice calls
nothing from mapenum, so no change to the program moves it, and its memory
stays small.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

PERIOD_S = 0.03
SLICE_ROUNDS = 8_000
# The slice's median duration on the machine where the bounds were set (a
# shared 2-vCPU VM, Python 3.11.7). A time in slices multiplied by it reads
# as seconds at that machine's usual speed.
SLICE_NOMINAL_S = 0.0035


def reference_slice() -> None:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(SLICE_ROUNDS):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1_000_003
    if len(table) != 221:
        raise AssertionError("reference slice did not run")


def timed_slice() -> float:
    """Run one reference slice and return its duration in seconds."""
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


class Interleaved:
    """Context manager that runs and times reference slices during its block.

    ``on_slice`` is called with each slice's duration, so a tracer can keep
    slices out of the self time of the span they interrupted.
    """

    def __init__(self, on_slice: Callable[[float], None] | None = None) -> None:
        self.on_slice = on_slice
        self.slices = 0
        self.slice_s = 0.0

    def own_clock(self) -> float:
        """perf_counter minus the time spent in slices so far."""
        return time.perf_counter() - self.slice_s

    def mean_slice_s(self) -> float:
        if not self.slices:
            raise RuntimeError("no reference slice ran; the block was shorter than PERIOD_S")
        return self.slice_s / self.slices

    def _tick(self, signum, frame) -> None:
        duration = timed_slice()
        self.slice_s += duration
        self.slices += 1
        if self.on_slice is not None:
            self.on_slice(duration)

    def __enter__(self) -> "Interleaved":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
