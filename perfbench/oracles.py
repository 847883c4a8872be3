"""Reference values computed apart from the program under test.

Every expected output of the benchmark comes from here: the paper's
closed forms and group orders, a Moebius sum for the box density, and
zeta values from pi and Apery's constant.  Nothing imports algen.
"""

from __future__ import annotations

import math

# Apery's constant zeta(3), to more digits than a double holds.
ZETA3 = 1.2020569031595942853997381615114499907649862923405
ZETA2 = math.pi ** 2 / 6
ZETA4 = math.pi ** 4 / 90
ZETA6 = math.pi ** 6 / 945

# Ordered {0,1} pairs of 3 x 3 matrices that generate M_3(F_2) but fail
# to generate M_3(Z) (the paper's census).
CENSUS3_FAIL_OVER_Z = 9132


def g2(m: int, q: int) -> int:
    """Generating m-tuples of M_2(F_q): q^(2m+1) (q^(m-1) - 1)(q^m - 1)."""
    return q ** (2 * m + 1) * (q ** (m - 1) - 1) * (q ** m - 1)


def g3(m: int, q: int) -> int:
    """Generating m-tuples of M_3(F_q), the paper's closed form (m >= 2)."""
    tail = (q ** (3 * m - 2) + q ** (2 * m - 2) - q ** m
            - 2 * q ** (m - 1) - q ** (m - 2) + q + 1)
    return (q ** (3 * m + 4) * (q ** (m - 1) - 1) * (q ** (m - 1) + 1)
            * (q ** m - 1) * tail)


def pgl_order(n: int, q: int) -> int:
    """|PGL_n(F_q)| = prod_{i<n} (q^n - q^i) / (q - 1)."""
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl // (q - 1)


def primes_upto(B: int) -> list[int]:
    if B < 2:
        return []
    flags = [True] * (B + 1)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(B) + 1):
        if flags[i]:
            for j in range(i * i, B + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def mobius_upto(N: int) -> list[int]:
    """mu(0..N) by a linear sieve; mu[0] is unused and set to 0."""
    mu = [1] * (N + 1)
    mu[0] = 0
    for p in primes_upto(N):
        for j in range(p, N + 1, p):
            mu[j] = -mu[j]
        for j in range(p * p, N + 1, p * p):
            mu[j] = 0
    return mu


def box_coprime_count(N: int) -> int:
    """Points (x, y) of [-N, N]^2 with gcd(x, y) = 1, by Moebius inversion:
    sum_d mu(d) ((2 floor(N/d) + 1)^2 - 1), the -1 dropping (0, 0)."""
    mu = mobius_upto(N)
    return sum(mu[d] * ((2 * (N // d) + 1) ** 2 - 1) for d in range(1, N + 1))


def den_m3_k2() -> float:
    """The paper's density of generating pairs of M_3(Z): 1/(zeta(2)^2 zeta(3))."""
    return 1 / (ZETA2 ** 2 * ZETA3)


def den_m3_k3(B: int = 1000) -> tuple[float, float]:
    """1/(zeta(2) zeta(3) zeta(4)) * prod_p (1 + p^-2 + p^-3 - p^-5), with
    an absolute error bound.

    The product converges like sum p^-2, too slowly to check a certified
    bound of 1e-10.  Dividing each factor by (1 + p^-2)(1 + p^-3), whose
    products are zeta(2)/zeta(4) and zeta(3)/zeta(6), leaves
    1 - 2/(p^5 + p^3 + p^2 + 1), so the value equals
    1/(zeta(4)^2 zeta(6)) * prod_p (1 - 2/(p^5 + p^3 + p^2 + 1)).
    The factors past B lie in [1 - 2 p^-5, 1], so truncating at B loses a
    relative 1 - exp(-sum_{n > B} 2 n^-5) <= B^-4 / 2.
    """
    log_prod = math.fsum(math.log1p(-2 / (p ** 5 + p ** 3 + p * p + 1))
                         for p in primes_upto(B))
    value = math.exp(log_prod) / (ZETA4 ** 2 * ZETA6)
    return value, value * (0.5 / B ** 4 + 1e-15)


def direct_euler_m3_k3(B: int) -> tuple[float, float]:
    """The same value from the product truncated at B as written, with the
    crude tail bound exp(sum_{n > B} (n^-2 + n^-3)) - 1 <= exp(2/B) - 1."""
    log_prod = math.fsum(math.log1p(p ** -2 + p ** -3 - p ** -5)
                         for p in primes_upto(B))
    value = math.exp(log_prod) / (ZETA2 * ZETA3 * ZETA4)
    return value, value * math.expm1(2 / B)


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def psi_numerator(k: int) -> list[int]:
    """x^(3k-2) + phi_k(x) with phi_k = x^(2k-2) - x^k - 2x^(k-1) - x^(k-2)
    + x + 1, ascending coefficients."""
    out = [0] * (3 * k - 1)
    for e, c in ((3 * k - 2, 1), (2 * k - 2, 1), (k, -1), (k - 1, -2),
                 (k - 2, -1), (1, 1), (0, 1)):
        out[e] += c
    return out


def psi_divisor(k: int) -> list[int]:
    """The paper's divisor d_k of x^(3k-2) + phi_k by k mod 6."""
    return {0: [-1, 1], 4: [-1, 1], 1: [-1, 0, 1], 3: [-1, 0, 1],
            2: [-1, 0, 0, 1], 5: [-1, -1, 0, 1, 1]}[k % 6]
