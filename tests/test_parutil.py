import multiprocessing
import os

from algen import parutil


def _span_shard(args):
    lo, hi = args
    return hi - lo, sum(range(lo, hi))


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was requested")


def test_sharded_sum_runs_in_process_when_capped(monkeypatch):
    # one core: a huge worker count is capped before any shard is built,
    # so the sweep runs in this process; should the cap ever break, the
    # stubbed Pool fails the test instead of starting processes
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    want = parutil.sharded_sum(_span_shard, (), 1000, 1)
    assert want == (1000, sum(range(1000)))
    assert parutil.sharded_sum(_span_shard, (), 1000, 10 ** 6) == want
