"""Numerical density formulas with certified absolute error bounds.

Every returned value carries an explicit error bound: zeta values come
from a partial sum plus a bracketing integral tail, Euler products from
a truncation at a prime bound P plus an integral bound on the discarded
log-tail.  Accumulation runs in decimal arithmetic at 30 significant
digits, in a local context that leaves the caller's precision alone, so
the working precision never limits the reported bounds at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable

from .errors import BadParams, DivergentTail
from .polys import phi_poly, poly_degree, poly_eval

_DECIMAL = Context(prec=30)

MAX_SIEVE = 10 ** 8
EXACT_ZETA = "exact-zeta"
EULER_TRUNCATION = "euler-truncation"


@dataclass(frozen=True)
class DensityValue:
    value: float
    abs_error_bound: float
    P: int | None          # prime truncation bound; None for exact-zeta routes
    method: str


@dataclass(frozen=True)
class EulerProductSpec:
    """A truncated product over primes p <= prime_bound of local_factor(p).

    Factors must lie in (0, 1] and satisfy |1 - factor(p)| <= C p^-e with
    e = tail_exponent > 1 and C = tail_constant, which certifies the tail.
    """

    local_factor: Callable[[int], Fraction | float]
    prime_bound: int
    tail_exponent: float
    tail_constant: float

    def __post_init__(self):
        if self.prime_bound < 2:
            raise BadParams("prime bound must be >= 2")
        if self.tail_exponent <= 1:
            raise DivergentTail("tail exponent must exceed 1")
        if self.tail_constant < 0:
            raise BadParams("tail constant must be >= 0")


def _at_working_precision(fn):
    """Run fn with Decimal arithmetic at 30 significant digits."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with localcontext(_DECIMAL):
            return fn(*args, **kwargs)
    return wrapper


def sieve_primes(P: int) -> list[int]:
    """Primes <= P by Eratosthenes; refused above the sieve cap."""
    if P > MAX_SIEVE:
        raise BadParams(f"prime bound {P} above sieve cap {MAX_SIEVE}")
    if P < 2:
        return []
    flags = bytearray([1]) * (P + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(P) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(flags[i * i::i]))
    return [i for i in range(2, P + 1) if flags[i]]


# ---------------------------------------------------------------------------
# Riemann zeta at integers >= 2
# ---------------------------------------------------------------------------

@_at_working_precision
def _zeta_decimal(s: int, eps: float) -> tuple[Decimal, Decimal]:
    """(value, error bound) with |value - zeta(s)| <= error <= eps.

    Partial sum to M plus the midpoint of the bracketing integrals
    int_{M+1}^inf and int_M^inf of t^-s; the half-width M^-s / 2 is the
    certified error, so M = ceil(eps^(-1/s)) suffices.
    """
    if s < 2:
        raise BadParams("zeta is evaluated at integers >= 2 only")
    if not 0 < eps < math.inf:
        raise BadParams(f"eps must be positive and finite, got {eps}")
    M = max(4, math.ceil(eps ** (-1.0 / s)) + 1)
    if M > 10 ** 7:
        raise BadParams(f"eps = {eps} needs {M} terms; too small for s = {s}")
    total = Decimal(0)
    for n in range(1, M + 1):
        total += Decimal(1) / Decimal(n) ** s
    hi = Decimal(M) ** (1 - s) / (s - 1)       # >= tail
    lo = Decimal(M + 1) ** (1 - s) / (s - 1)   # <= tail
    value = total + (hi + lo) / 2
    return value, (hi - lo) / 2


def zeta_value(s: int, eps: float = 1e-9) -> DensityValue:
    value, err = _zeta_decimal(s, eps)
    return DensityValue(float(value), float(err) + 1e-15, None, EXACT_ZETA)


@_at_working_precision
def _inv_with_error(v: Decimal, e: Decimal) -> tuple[Decimal, Decimal]:
    """1/v with propagated absolute error, for v - e > 0."""
    assert v > e
    return Decimal(1) / v, e / (v * (v - e))


def _product_with_errors(pairs) -> tuple[Decimal, Decimal]:
    """Product of positive (value, abs_error) factors with a rigorous bound."""
    value = Decimal(1)
    growth = Decimal(1)
    for v, e in pairs:
        value *= v
        growth *= 1 + e / v
    return value, value * (growth - 1)


# ---------------------------------------------------------------------------
# Specific densities
# ---------------------------------------------------------------------------

@_at_working_precision
def den_Zn(k: int, n: int, eps: float = 1e-10) -> DensityValue:
    """Density of k-tuples generating the module Z^n:
    prod_{m=k-n+1}^{k} zeta(m)^-1, which is 0 at k = n (the zeta(1) factor).
    """
    if n < 1 or k < n:
        raise BadParams("need k >= n >= 1")
    if k == n:
        return DensityValue(0.0, 0.0, None, EXACT_ZETA)
    pairs = []
    for m in range(k - n + 1, k + 1):
        z, ze = _zeta_decimal(m, eps)
        pairs.append(_inv_with_error(z, ze))
    value, err = _product_with_errors(pairs)
    return DensityValue(float(value), float(err) + 1e-15, None, EXACT_ZETA)


@_at_working_precision
def den_matrix(n: int, k: int, P: int = 10 ** 5, eps: float = 1e-10) -> DensityValue:
    """Density of k-tuples generating M_n(Z), n in {2, 3}.

    n = 2: 1/(zeta(k-1) zeta(k)), exactly 0 at k = 2.
    n = 3: 1/(zeta(2k-2) zeta(k)) * prod_{p<=P} (1 + phi_k(p)/p^(3k-2)),
           with the tail certified from |phi_k(x)| <= (sum |coeffs|) x^deg.
    """
    if n == 2:
        if k < 2:
            raise BadParams("need k >= 2")
        if k == 2:
            return DensityValue(0.0, 0.0, None, EXACT_ZETA)
        z1, e1 = _zeta_decimal(k - 1, eps)
        z2, e2 = _zeta_decimal(k, eps)
        value, err = _product_with_errors(
            [_inv_with_error(z1, e1), _inv_with_error(z2, e2)])
        return DensityValue(float(value), float(err) + 1e-15, None, EXACT_ZETA)
    if n != 3:
        raise BadParams("matrix densities cover n in {2, 3}")
    if k < 2:
        raise BadParams("need k >= 2")
    phi = phi_poly(k)
    exp = 3 * k - 2
    z1, e1 = _zeta_decimal(2 * k - 2, eps)
    z2, e2 = _zeta_decimal(k, eps)
    prod = Decimal(1)
    for p in sieve_primes(P):
        pk = p ** exp
        prod *= Decimal(pk + poly_eval(phi, p)) / Decimal(pk)
    # |phi_k(p)| / p^(3k-2) <= C p^-e with C = sum |coeffs|, e = 3k-2-deg
    C = sum(abs(c) for c in phi)
    e = exp - poly_degree(phi)
    assert e >= 2
    if C * Decimal(P) ** (-e) > Decimal("0.5"):
        raise BadParams(f"prime bound {P} too small to certify the tail")
    tail_log = 2 * C * Decimal(P) ** (1 - e) / (e - 1)
    pairs = [_inv_with_error(z1, e1), _inv_with_error(z2, e2),
             (prod, prod * (tail_log.exp() - 1))]
    value, err = _product_with_errors(pairs)
    return DensityValue(float(value), float(err) + 1e-15, P, EULER_TRUNCATION)


@_at_working_precision
def euler_product(spec: EulerProductSpec) -> DensityValue:
    """prod_{p <= P} local_factor(p) with a certified bound on the tail.

    The factors are densities of local conditions, hence constrained to
    (0, 1]; the discarded tail then satisfies
    prod_{p > P} f(p) in [exp(-T), 1] with T = 2 C P^(1-e) / (e-1).
    """
    primes = sieve_primes(spec.prime_bound)
    value = Decimal(1)
    for p in primes:
        f = spec.local_factor(p)
        if isinstance(f, Fraction):
            fd = Decimal(f.numerator) / Decimal(f.denominator)
        else:
            fd = Decimal(f)
        if not 0 < fd <= 1:
            raise BadParams(f"local factor at p = {p} outside (0, 1]: {f}")
        value *= fd
    C = Decimal(spec.tail_constant)
    e = spec.tail_exponent
    P = Decimal(spec.prime_bound)
    if C * P ** Decimal(-e) > Decimal("0.5"):
        raise BadParams("prime bound too small to certify the tail")
    tail_log = 2 * C * P ** Decimal(1 - e) / Decimal(e - 1)
    err = value * (1 - (-tail_log).exp())
    return DensityValue(float(value), float(err) + 1e-15,
                        spec.prime_bound, EULER_TRUNCATION)
