"""The 10^4 seeded M_2(Z) pairs on which two suites check
genz.det_commutator_test against the Z-closure, with the closure's
verdicts, computed once per test run and shared by both."""

import functools
import random

from algen.genff import shape_over_Z
from algen.genz import generates_Z


@functools.cache
def m2z_pairs_with_closure_verdicts() -> tuple:
    """(A, B, generates) for 10^4 pairs drawn from random.Random(20260808),
    entries in [-5, 5], A before B; generates is the closure's verdict."""
    shape = shape_over_Z([(2, 1)])
    rng = random.Random(20260808)
    out = []
    for _ in range(10_000):
        A = tuple(rng.randrange(-5, 6) for _ in range(4))
        B = tuple(rng.randrange(-5, 6) for _ in range(4))
        out.append((A, B, generates_Z(shape, [(A,), (B,)]).generates))
    return tuple(out)
