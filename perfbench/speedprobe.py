"""The machine's speed, sampled while a command runs.

A CPU of this kind of shared host runs the same Python code at its best
speed for a few seconds and up to 1.7 times slower for the next few, and
the two vCPUs swing apart.  A timer signal interrupts the process every
PERIOD_S seconds and times one fixed kernel, in the process and on the
CPU that runs the command.  The kernel's mean time over a
command, against REF_KERNEL_S, says how much slower than the reference
speed the machine ran while the command did; dividing the command's time
by it gives the seconds it would have taken at the reference speed.
"""

from __future__ import annotations

import signal
import time

# One kernel call every PERIOD_S seconds of wall time, which costs the
# command about 2% of its time; the benchmark takes it out again.
PERIOD_S = 0.005
# The kernel's time at the best speed of the machine the benchmark was
# written on (Intel Xeon KVM guest, Python 3.11); only a scale.
REF_KERNEL_S = 0.000075
# The slowest share of samples is dropped: a sample that the operating
# system interrupted says nothing about the speed the command ran at.
TRIM = 0.1


# Operands of the kernel's big-integer half, a few thousand bits each.
_BIG_A, _BIG_B = 3 ** 1500, 7 ** 1250


def kernel() -> int:
    """About 0.1 ms of the program's kinds of work: a loop of small-integer
    arithmetic with dict and list traffic, run by the interpreter, then
    big-integer products and remainders, run in C.  Code of either kind
    alone tracked the program's speed less well than the two together."""
    x, acc, table, row = 1, 0, {}, [0] * 16
    for i in range(100):
        x = (x * 1103515245 + 12345) % 2147483648
        table[i & 31] = x
        row[i & 15] ^= table.get((i * 7) & 31, 0) >> 5
        acc += row[(i * 3) & 15] % 97
    y = _BIG_A
    for _ in range(2):
        y = (y * _BIG_B) % _BIG_A + acc
    return y & 0xFFFF


def time_kernel(calls: int) -> list[float]:
    """Times of `calls` back-to-back kernel calls."""
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the kernel ran: the mean
    of the samples without the slowest TRIM share, over REF_KERNEL_S."""
    kept = sorted(samples)[:max(1, round(len(samples) * (1 - TRIM)))]
    return sum(kept) / len(kept) / REF_KERNEL_S


class SpeedProbe:
    """Samples the kernel on SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        # a tick that arrives while the kernel still runs is skipped, not
        # nested inside it
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
