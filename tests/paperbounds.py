"""Results of the paper that the tests check against exact counts: the
number of generating k-tuples of M_n(F_q), its lower bound, and the
number of field-type maximal subalgebras of M_n(F_q).  No command
computes them.
"""

import math

from algen import ffalg
from algen.errors import BadParams
from algen.genff import gen_count


def g_closed_form(k: int, n: int, q: int) -> int:
    """Number of generating k-tuples of M_n(F_q), gen_count * |PGL_n(F_q)|."""
    return gen_count(k, n, q) * ffalg.group_orders(n, q)[1]


def lower_bound(m: int, n: int, q: int) -> int:
    """q^(m n^2) - ceil(2^((n+6)/2)) * q^(n^2 m - (m-1)(n-1)); may be negative."""
    if m < 1 or n < 1:
        raise BadParams("m, n must be >= 1")
    pow2 = 2 ** (n + 6)
    c = _isqrt_ceil(pow2)
    return q ** (m * n * n) - c * q ** (n * n * m - (m - 1) * (n - 1))


def _isqrt_ceil(v: int) -> int:
    r = math.isqrt(v)
    return r if r * r == v else r + 1


def count_field_type_subalgebras(n: int, s: int, q: int) -> int:
    """Number of F_q-subalgebras of M_n(F_q) isomorphic to M_{n/s}(F_{q^s}):
    s^{-1} prod_{s not| i, 1<=i<n} (q^n - q^i), for s a prime divisor of n.
    """
    if s < 2 or not ffalg.is_prime(s) or n % s:
        raise BadParams("s must be a prime divisor of n")
    ffalg.prime_power_split(q)
    val = 1
    qn = q ** n
    for i in range(1, n):
        if i % s:
            val *= qn - q ** i
    if val % s:
        raise AssertionError("subalgebra count must be divisible by s")
    return val // s
