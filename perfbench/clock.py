"""Host seconds corrected for the speed of a shared host.

The reference box is a 2-vCPU virtual machine whose speed drifts by up
to a quarter over tens of seconds with its neighbours' load (a fixed
Python kernel measured 43-71 ms in consecutive 5 s windows).  Medians
over passes cannot remove a drift that lasts longer than a run, so every
timed interval is corrected by the speed of a fixed calibration kernel
run right before and right after it::

    corrected = raw * REFERENCE_KERNEL_S / mean(kernel before, kernel after)

The kernel is benchmark code (pure Python: integer hashing into a
1 MB table, a small heap and a dict, the kind of interpreter work the
simulator does), so no change to the program can move it.  A corrected
second is a second at the host speed at which the kernel takes
:data:`REFERENCE_KERNEL_S`.
"""

from __future__ import annotations

import heapq
import time

PERF = time.perf_counter

REFERENCE_KERNEL_S = 0.0073
"""Median of :func:`kernel_seconds` on the quiet reference box."""

MIN_INTERVAL_S = 0.5
"""Intervals shorter than this are merged with the next one, so the
kernel costs at most a few percent of the run."""

_TABLE = [0] * (1 << 17)


def _kernel(rounds: int = 15000) -> int:
    table, heap, recent = _TABLE, [], {}
    mask = len(table) - 1
    x, hits = 1, 0
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slot = (x >> 3) & mask
        if table[slot] == x >> 20:
            hits += 1
        else:
            table[slot] = x >> 20
        if not i & 7:
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        recent[x & 4095] = i
    return hits


def kernel_seconds() -> float:
    """Time of the calibration kernel now (best of two, so a single
    interrupt does not count as a slow host)."""
    best = float("inf")
    for _ in range(2):
        start = PERF()
        _kernel()
        best = min(best, PERF() - start)
    return best


class SteadyClock:
    """Accumulates corrected seconds over the intervals between
    :meth:`start`, any number of :meth:`tick` calls, and :meth:`stop`.
    """

    def __init__(self):
        self.raw = 0.0
        self.corrected = 0.0
        self.spent = 0.0
        """Seconds spent running the calibration kernel."""
        self._mark = None
        self._kernel_before = None

    def start(self) -> None:
        self._kernel_before = self._calibrate()
        self._mark = PERF()

    def tick(self) -> None:
        """Close the current interval if it is long enough and open the
        next one."""
        if PERF() - self._mark >= MIN_INTERVAL_S:
            self._close()

    def stop(self) -> float:
        """Close the last interval; return the corrected total."""
        self._close()
        return self.corrected

    def _calibrate(self) -> float:
        start = PERF()
        seconds = kernel_seconds()
        self.spent += PERF() - start
        return seconds

    def _close(self) -> None:
        elapsed = PERF() - self._mark
        after = self._calibrate()
        self.raw += elapsed
        self.corrected += elapsed * REFERENCE_KERNEL_S * 2 / (
            self._kernel_before + after)
        self._kernel_before = after
        self._mark = PERF()
