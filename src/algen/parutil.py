"""Deterministic shard execution for exhaustive sweeps.

A sweep over range(total) is cut into 4 * threads contiguous shards.
Each shard returns a tuple of integer counts, and the tuples are summed
column by column; integer sums are commutative, so the worker count
never changes a result.  The worker count is capped at the core count,
and with one worker the same shards run in-process.
"""

from __future__ import annotations

import os


def sharded_sum(fn, args: tuple, total: int, threads: int) -> tuple[int, ...]:
    """Column sums of fn((*args, lo, hi)) over shards [lo, hi) of range(total)."""
    threads = max(1, min(threads, os.cpu_count() or 1))
    count = 4 * threads
    bounds = [total * i // count for i in range(count + 1)]
    shards = [(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if threads == 1:
        parts = [fn(shard) for shard in shards]
    else:
        import multiprocessing

        with multiprocessing.Pool(threads) as pool:
            parts = pool.map(fn, shards)
    return tuple(sum(col) for col in zip(*parts))
