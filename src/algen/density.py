"""Numerical density formulas with certified absolute error bounds.

Every returned value carries an explicit error bound.  A zeta value is
the partial sum H_M of its series plus the midpoint of the two integrals
that bracket the rest, and the half-width of that bracket is its bound;
H_M is evaluated in exact rationals by Euler-Maclaurin and rounded once.
An Euler product is truncated at a prime bound P, with an integral bound
on the discarded log-tail.  Decimal arithmetic runs at 30 significant
digits, in a local context that leaves the caller's precision alone; the
rounding it and the float conversions make is bounded (see
`_certified`) and covered by the 1e-15 added to every printed bound.
"""

from __future__ import annotations

import functools
import itertools
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
ZETA_EPS = 1e-9      # default accuracy of a zeta value on its own
PRODUCT_EPS = 1e-10  # default accuracy of the zeta factors of a density


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


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------
# Each Decimal operation in the 30-digit context is correctly rounded, so
# its relative error is at most u = 5e-30; a power x**j, done by squaring
# and multiplying, counts as 2 * bitlen(j) operations.  A quantity reached
# from exact inputs through N operations is then within relative error
# rho(N) = N u / (1 - N u) >= (1 + u)^N - 1 of its exact value.  A
# density is a product of such factors, and its bound is built from the
# same factors, so rounding moves the value by at most rho(N) |value| and
# the bound by at most rho(N) (|value| + bound).  Converting both to floats
# and adding the slack cost 2^-53 relatively each.  The 1e-15 added to every
# printed bound therefore covers all rounding whenever
#     (2 rho(N) + 2^-52) (|value| + bound) <= 1e-15 (1 - 2^-53).
# At MAX_SIEVE (about 1.2e7 operations) rho(N) < 1e-22, so this holds
# whenever |value| + bound < 4.5; every density and zeta value is far below.

_SLACK = 1e-15
_UNIT = Fraction(5, 10 ** 30)
# inverting a (value, bound) pair, multiplying it into a product, and its
# share of combining the product's bound
_FACTOR_OPS = 10


def _power_ops(j: int) -> int:
    return 2 * abs(j).bit_length()


def _certified(value: Decimal, err: Decimal, ops: int, P: int | None,
               method: str) -> DensityValue:
    """Round value and bound to floats, the bound raised by the 1e-15 slack;
    refused when ops operations could round by more than the slack covers."""
    nu = ops * _UNIT
    if nu >= 1 or (2 * nu / (1 - nu) + Fraction(1, 2 ** 52)) * (
            abs(Fraction(value)) + Fraction(err)) > Fraction(_SLACK) * (
            1 - Fraction(1, 2 ** 53)):
        raise BadParams(f"rounding of {ops} decimal operations is not "
                        f"covered by the {_SLACK} slack")
    return DensityValue(float(value), float(err) + _SLACK, P, method)


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
    return list(itertools.compress(range(P + 1), flags))


# ---------------------------------------------------------------------------
# Riemann zeta at integers >= 2
# ---------------------------------------------------------------------------

# Euler-Maclaurin for the tail T_a = sum_{n >= a} n^-s at real s > 1:
#   T_a = a^(1-s)/(s-1) + a^-s/2 + sum_{k>=1} B_2k/(2k)! (s)_(2k-1) a^(1-s-2k)
# with the rising factorial (s)_j = s (s+1) ... (s+j-1).  Cut after any
# term, the remainder is at most the first omitted term (Edwards, Riemann's
# Zeta Function, 1974, ch. 6).  From a = 32 on, 23 terms reach 1e-50 for
# every s < 100.
_EM_HEAD = 32
_EM_TERMS = 24
_EM_TOL = Fraction(1, 10 ** 50)


@functools.lru_cache(maxsize=1)
def _em_coefficients() -> tuple[Fraction, ...]:
    """B_2k / (2k)! for k = 1.._EM_TERMS, built on first use.

    B_2m = ((2m-1)/2 - sum_{j<m} C(2m+1, 2j) B_2j) / (2m+1), the even part
    of sum_{j<=n} C(n+1, j) B_j = 0 with B_1 = -1/2 and B_odd = 0 beyond.
    """
    even = [Fraction(1)]
    for m in range(1, _EM_TERMS + 1):
        acc = sum(math.comb(2 * m + 1, 2 * j) * even[j] for j in range(1, m))
        even.append((Fraction(2 * m - 1, 2) - acc) / (2 * m + 1))
    return tuple(even[m] / math.factorial(2 * m)
                 for m in range(1, _EM_TERMS + 1))


def _em_tail(s: int, a: int) -> Fraction:
    """sum_{n >= a} n^-s to within 1e-50, for 2 <= s < 100 and a >= 32."""
    tail = Fraction(1, (s - 1) * a ** (s - 1)) + Fraction(1, 2 * a ** s)
    rising = s  # (s)_(2k+1) at index k
    for k, c in enumerate(_em_coefficients()):
        term = c * rising / a ** (s + 2 * k + 1)
        if abs(term) < _EM_TOL:
            return tail
        tail += term
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    raise ArithmeticError(f"Euler-Maclaurin tail at s = {s}, a = {a} "
                          f"did not reach {_EM_TOL}")


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise BadParams(f"eps must be positive and finite, got {eps}")


def _zeta_ops(s: int) -> int:
    """Rounding count of _zeta_decimal: the final rounding and the 2e-50
    Euler-Maclaurin remainder (below u, since zeta(s) > 1) for the value;
    two powers, two divisions, a difference and a halving for the bound."""
    return 2 * _power_ops(1 - s) + 6


@_at_working_precision
def _zeta_decimal(s: int, eps: float) -> tuple[Decimal, Decimal]:
    """(value, error) with |A - zeta(s)| <= error <= eps, value = A rounded.

    A = H_M + (M^(1-s) + (M+1)^(1-s)) / (2(s-1)) is the partial sum
    H_M = sum_{n<=M} n^-s plus the midpoint of the integrals int_M^inf and
    int_{M+1}^inf of t^-s, which bracket the rest of the series; their
    half-width, at most M^-s / 2, is the error, so M = ceil(eps^(-1/s)) + 1
    suffices.  H_M is taken in exact rationals as the head
    sum_{n<32} n^-s plus T_32 - T_{M+1}, both tails by Euler-Maclaurin to
    within 1e-50 (or as the plain sum when M < 32), and A is rounded once.
    For s >= 100 the terms past n = 1 add up to less than 2^-s (1 + 2/(s-1))
    + 4^(1-s), below half a unit in the 30th digit, so A rounds to 1.
    """
    if s < 2:
        raise BadParams("zeta is evaluated at integers >= 2 only")
    _check_eps(eps)
    # -1 / s divides exactly, also for an s too large for a float
    M = max(4, math.ceil(eps ** (-1 / s)) + 1)
    if M > 10 ** 7:
        raise BadParams(f"eps = {eps} needs {M} terms; too small for s = {s}")
    hi = Decimal(M) ** (1 - s) / (s - 1)       # >= tail
    lo = Decimal(M + 1) ** (1 - s) / (s - 1)   # <= tail
    if s >= 100:
        return Decimal(1), (hi - lo) / 2
    H = sum(Fraction(1, n ** s) for n in range(1, min(M + 1, _EM_HEAD)))
    if M >= _EM_HEAD:
        H += _em_tail(s, _EM_HEAD) - _em_tail(s, M + 1)
    A = H + (Fraction(1, M ** (s - 1))
             + Fraction(1, (M + 1) ** (s - 1))) / (2 * (s - 1))
    return Decimal(A.numerator) / A.denominator, (hi - lo) / 2


def zeta_value(s: int, eps: float = ZETA_EPS) -> DensityValue:
    value, err = _zeta_decimal(s, eps)
    return _certified(value, err, _zeta_ops(s), None, EXACT_ZETA)


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

def _inverse_zetas(ms, eps: float):
    """(value, error) pairs of zeta(m)^-1 for m in ms, and their rounding
    count (each zeta value's own and _FACTOR_OPS for using it)."""
    pairs = [_inv_with_error(*_zeta_decimal(m, eps)) for m in ms]
    return pairs, sum(_zeta_ops(m) + _FACTOR_OPS for m in ms)


@_at_working_precision
def den_Zn(k: int, n: int, eps: float = PRODUCT_EPS) -> DensityValue:
    """Density of k-tuples generating the module Z^n:
    prod_{m=k-n+1}^{k} zeta(m)^-1, which is 0 at k = n (the zeta(1) factor).
    """
    _check_eps(eps)
    if n < 1 or k < n:
        raise BadParams("need k >= n >= 1")
    if k == n:
        return DensityValue(0.0, 0.0, None, EXACT_ZETA)
    pairs, ops = _inverse_zetas(range(k - n + 1, k + 1), eps)
    value, err = _product_with_errors(pairs)
    return _certified(value, err, ops, None, EXACT_ZETA)


@_at_working_precision
def den_matrix(n: int, k: int, P: int = 10 ** 5,
               eps: float = PRODUCT_EPS) -> DensityValue:
    """Density of k-tuples generating M_n(Z), n in {2, 3}.

    n = 2: 1/(zeta(k-1) zeta(k)), the module density den_Zn(k, 2), exactly
           0 at k = 2.
    n = 3: 1/(zeta(2k-2) zeta(k)) * prod_{p<=P} (1 + phi_k(p)/p^(3k-2)),
           with the tail certified from |phi_k(x)| <= (sum |coeffs|) x^deg.
    """
    _check_eps(eps)
    if n not in (2, 3):
        raise BadParams("matrix densities cover n in {2, 3}")
    if k < 2:
        raise BadParams("need k >= 2")
    if n == 2:
        return den_Zn(k, 2, eps)
    phi = phi_poly(k)
    exp = 3 * k - 2
    pairs, ops = _inverse_zetas((2 * k - 2, k), eps)
    primes = sieve_primes(P)
    prod = Decimal(1)
    for p in primes:
        pk = p ** exp
        prod *= Decimal(pk + poly_eval(phi, p)) / Decimal(pk)
    # |phi_k(p)| / p^(3k-2) <= C p^-e with C = sum |coeffs|, e = 3k-2-deg
    C = sum(abs(c) for c in phi)
    e = exp - poly_degree(phi)
    assert e >= 2
    if C * Decimal(P) ** (-e) > Decimal("0.5"):
        raise BadParams(f"prime bound {P} too small to certify the tail")
    tail_log = 2 * C * Decimal(P) ** (1 - e) / (e - 1)
    pairs.append((prod, prod * (tail_log.exp() - 1)))
    value, err = _product_with_errors(pairs)
    # a division and a product per prime; the tail's power and 5 more
    ops += 2 * len(primes) + _FACTOR_OPS + _power_ops(1 - e) + 5
    return _certified(value, err, ops, P, EULER_TRUNCATION)


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
    # a division and a product per prime; 8 for the tail (its power, which
    # the decimal module rounds within one unit, counts twice)
    return _certified(value, err, 2 * len(primes) + 8,
                      spec.prime_bound, EULER_TRUNCATION)
