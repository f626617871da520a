"""The machine's current speed, from a fixed slice of interpreter work.

On a shared VM the same CPU-bound Python loop runs up to twice as fast or
as slow for stretches of seconds to minutes, in CPU time as much as in wall
time, so two runs of the same code can differ by more than any bound a
benchmark can hold.  The benchmark therefore times ``calibration_slice``
every ``EVERY_S`` seconds between ops and states each op's latency at the
reference speed: its wall time times ``REFERENCE_S`` over the median slice
time around it.  The slice does not touch ``knowhow``, so a change to the
program moves the op times and not the slice times.

The slice tracks the ops' speed only in part.  Over windows of 12-15 s, the
op time of a fixed set of ops varied by 10% (coefficient of variation) as
measured and by 6% once scaled on ``check``, and by 8% and 2% on ``prove``.
Process start-up does not track it at all, so ``setup_s`` is reported as
measured.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

EVERY_S = 0.1
WINDOW_S = 1.0  # an op's speed is the median slice time within this distance
#: Op times are stated at the speed at which a slice takes this long.  It is
#: near the slice's median on the 2-vCPU 2.1 GHz Xeon VM of the first
#: baseline, where the median of a 20-s run ranged over 2.7-5.1 ms.
REFERENCE_S = 0.004


def calibration_slice() -> int:
    """Tuples, frozensets, dict lookups and calls, as the program's checker does."""
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 61, i % 17)
        block = frozenset((i % 7, i % 5, i % 3))
        table[key] = table.get(key, 0) + len(block)
    return len(table)


class SpeedLog:
    """Slice times taken during a run, and the speed factor at any moment."""

    def __init__(self):
        self.when: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        """Time one slice now; return the seconds it took.

        The cyclic collector is off meanwhile: the slice makes no cycles, and
        a collection's cost grows with the program's heap, not the machine.
        """
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_slice()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.when.append(start)
        self.took.append(took)
        self._next = start + EVERY_S
        return took

    def maybe_sample(self) -> float:
        """Time one slice if ``EVERY_S`` has passed since the last; return its seconds."""
        return self.sample() if time.perf_counter() >= self._next else 0.0

    def factor(self, at: float) -> float:
        """``REFERENCE_S`` over the median slice time within ``WINDOW_S`` of ``at``."""
        low = bisect.bisect_left(self.when, at - WINDOW_S)
        high = bisect.bisect_right(self.when, at + WINDOW_S)
        if low == high:  # no slice that close: take the nearest one
            j = bisect.bisect_left(self.when, at)
            if j == len(self.when) or (j and at - self.when[j - 1] < self.when[j] - at):
                j -= 1
            low, high = j, j + 1
        return REFERENCE_S / statistics.median(self.took[low:high])
