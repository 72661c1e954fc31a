"""Host-speed calibration: express measured times in reference seconds.

The benchmark runs on a few vCPUs of a shared host.  The speed of those
vCPUs moves with the other tenants' load: on the 2-vCPU x86-64
container this benchmark was built on, one fixed piece of pure-Python
work took anywhere from 0.12 s to 0.24 s within a minute, in slow and
fast stretches that last from a second to half a minute.  No estimator
over a run of a few tens of seconds removes a stretch that covers the
whole run.

So every timed piece of work is bracketed by calls of :func:`kernel`, a
fixed pure-Python loop that calls nothing in the program, and its time
is rescaled to a reference host on which one kernel call takes
``REF_KERNEL_S``::

    reference seconds = host seconds * REF_KERNEL_S / kernel seconds

Within those stretches the speed still moves from one tenth of a second
to the next, so the kernel calls right before and right after a piece
of work track it best: on the container above, rescaling each
few-millisecond slice of a fixed simulation by the mean of its two
neighbouring kernel calls cut the spread of its total time from 25% to
under 5% (quartile distance over median, 220 repetitions over four
minutes), while smoothing the kernel times over a window of tenths of a
second did worse.

The kernel is part of the benchmark, never of the program, so a change
to the program cannot move it: a faster program shows in full, unlike a
ratio to another code path of the program (``step_reference``), which a
change to shared code would move on both sides.  Memory use, garbage
collection and the program's own work all stay in the measured time;
only the host's speed at that moment is divided out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# One kernel call on the reference host: the 2-vCPU x86-64 container
# this benchmark was built on, in its fast stretches (CPython 3.11).
REF_KERNEL_S = 0.2e-3


class _Cell:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.next = None


_CELLS = [_Cell(i * 7 % 13, i) for i in range(64)]
for _a, _b in zip(_CELLS, _CELLS[1:]):
    _a.next = _b


def kernel() -> int:
    """Fixed interpreter work: attribute reads, dict and list operations,
    calls and comparisons, with no allocation of tracked objects beyond
    one dict, so the garbage collector never runs inside it."""
    table: dict[int, int] = {}
    get = table.get
    acc = 0
    for _ in range(30):
        cell = _CELLS[0]
        while cell is not None:
            key = cell.key
            table[key] = get(key, 0) + cell.weight
            if table[key] > acc:
                acc = len(table)
            cell = cell.next
    return acc


def kernel_s() -> float:
    """Host seconds one :func:`kernel` call takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def probe(n: int = 3) -> list[float]:
    """``n`` consecutive kernel timings."""
    return [kernel_s() for _ in range(n)]


def scale(kernel_seconds: float) -> float:
    """Factor that turns host seconds into reference seconds."""
    return REF_KERNEL_S / kernel_seconds


def bracketed(host_seconds: list[float],
              kernel_times: list[float]) -> list[float]:
    """Consecutive pieces of work in reference seconds.

    ``kernel_times`` has one more entry than ``host_seconds``: a kernel
    call before the first piece and one after every piece, so piece
    ``i`` lies between kernel calls ``i`` and ``i + 1``.
    """
    if len(kernel_times) != len(host_seconds) + 1:
        raise ValueError("need one kernel time between every two pieces")
    return [t * scale((before + after) / 2)
            for t, before, after in zip(host_seconds, kernel_times,
                                        kernel_times[1:])]


def reference_seconds(host_seconds: float, kernel_times: list[float]) -> float:
    """``host_seconds`` of work timed next to ``kernel_times``, rescaled."""
    return host_seconds * scale(statistics.median(kernel_times))

