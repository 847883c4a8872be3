"""Test helper: the pairs of M_n(F_2) matrices that generate M_n(F_2)."""

import functools

from algen import genff


@functools.cache
def f2_generating_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered pairs a < b of M_n(F_2) codes (bit i the row-major entry
    i), n in {2, 3}, that genff._f2_generates accepts.  Generation depends
    only on the set of entries, so twice the length counts ordered pairs."""
    q = 1 << (n * n)
    return tuple((a, b) for a in range(q) for b in range(a + 1, q)
                 if genff._f2_generates(n, (a, b)))
