"""Numerical density formulas with certified absolute error bounds.

Every returned value carries an explicit error bound.  A zeta value is
the partial sum H_M of its series plus the midpoint of the two integrals
that bracket the rest, and the half-width of that bracket is its bound;
H_M is evaluated in exact rationals by Euler-Maclaurin and rounded once.
An Euler product is truncated at a prime bound P, with an integral bound
on the discarded log-tail; its primes are sieved one window at a time and
never held all at once.  den_matrix(3, k) multiplies its largest factors
exactly and sums the logarithms of the rest in binary64.  Decimal
arithmetic runs at 30 significant digits, in a local context that leaves
the caller's precision alone; the rounding it, the binary64 sum and the
float conversions make is bounded (see `_certified`) and covered by the
1e-15 added to every printed bound.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from . import ffalg
from .errors import BadParams, DivergentTail
from .polys import phi_poly, poly_degree, poly_eval

_DECIMAL = Context(prec=30)

MAX_SIEVE = 10 ** 8
EXACT_ZETA = "exact-zeta"
EULER_TRUNCATION = "euler-truncation"
ZETA_EPS = 1e-9      # default accuracy of a zeta value on its own
PRODUCT_EPS = 1e-10  # default accuracy of the zeta factors of a density


# P is the prime truncation bound, None for exact-zeta routes
DensityValue = namedtuple("DensityValue", "value abs_error_bound P method")


class EulerProductSpec(namedtuple("EulerProductSpec", "local_factor "
                                  "prime_bound tail_exponent tail_constant")):
    """A truncated product over primes p <= prime_bound of local_factor(p),
    a Fraction or a float.

    Factors must lie in (0, 1] and satisfy |1 - factor(p)| <= C p^-e with
    e = tail_exponent > 1 and C = tail_constant, which certifies the tail.
    """

    __slots__ = ()

    def __new__(cls, local_factor, prime_bound: int, tail_exponent: float,
                tail_constant: float):
        if prime_bound < 2:
            raise BadParams("prime bound must be >= 2")
        if tail_exponent <= 1:
            raise DivergentTail("tail exponent must exceed 1")
        if tail_constant < 0:
            raise BadParams("tail constant must be >= 0")
        return super().__new__(cls, local_factor, prime_bound, tail_exponent,
                               tail_constant)


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
# rho(N) = N u / (1 - N u) >= (1 + u)^N - 1 of its exact value.  A factor
# may also carry a relative error eta from outside the Decimal context
# (the binary64 tail of den_matrix(3, k), see _log_tail_error); together
# the two give rho' = (1 + rho(N)) (1 + eta) - 1.  A density is a product
# of such factors, and its bound is built from the same factors, so
# rounding moves the value by at most rho' |value| and the bound by at
# most rho' (|value| + bound).  Converting both to floats and adding the
# slack cost 2^-53 relatively each.  The 1e-15 added to every printed
# bound therefore covers all rounding whenever
#     (2 rho' + 2^-52) (|value| + bound) <= 1e-15 (1 - 2^-53).
# At MAX_SIEVE (about 1.2e7 operations) rho(N) < 1e-22, and eta stays
# below 3e-19 for every den_matrix(3, k), so this holds whenever
# |value| + bound < 4.49; every density and zeta value is far below.

_SLACK = 1e-15
_UNIT = Fraction(5, 10 ** 30)
# inverting a (value, bound) pair, multiplying it into a product, and its
# share of combining the product's bound
_FACTOR_OPS = 10


def _power_ops(j: int) -> int:
    return 2 * abs(j).bit_length()


def _rounding_allowance(ops: int, rel: Fraction) -> Fraction | None:
    """rho' for ops Decimal operations and an outside relative error rel;
    None when ops u reaches 1 and rho(N) is unbounded."""
    nu = ops * _UNIT
    if nu >= 1:
        return None
    return (1 + nu / (1 - nu)) * (1 + rel) - 1


def _certified(value: Decimal, err: Decimal, ops: int, P: int | None,
               method: str, rel: Fraction = Fraction(0)) -> DensityValue:
    """Round value and bound to floats, the bound raised by the 1e-15 slack;
    refused when ops operations and the relative error rel could round by
    more than the slack covers."""
    rho = _rounding_allowance(ops, rel)
    if rho is None or (2 * rho + Fraction(1, 2 ** 52)) * (
            abs(Fraction(value)) + Fraction(err)) > Fraction(_SLACK) * (
            1 - Fraction(1, 2 ** 53)):
        raise BadParams(f"rounding of {ops} decimal operations and a "
                        f"relative error {float(rel):.3g} is not covered "
                        f"by the {_SLACK} slack")
    return DensityValue(float(value), float(err) + _SLACK, P, method)


def _check_sieve_bound(P: int) -> None:
    if P > MAX_SIEVE:
        raise BadParams(f"prime bound {P} above sieve cap {MAX_SIEVE}")


def sieve_primes(P: int, lo: int = 0) -> list[int]:
    """Primes p with lo < p <= P, in increasing order; refused above the
    sieve cap."""
    _check_sieve_bound(P)
    return _odd_sieve(max(lo, 0), P)


def _odd_sieve(lo: int, P: int) -> list[int]:
    """Primes in (lo, P] by Eratosthenes over the odd numbers there, crossed
    off by the odd primes up to isqrt(P), which are sieved the same way."""
    two = [2] if lo < 2 <= P else []
    first = (lo + 1) | 1
    if P < first:
        return two
    # flags[i] stands for the odd number first + 2i
    size = (P - first) // 2 + 1
    flags = bytearray([1]) * size
    if first == 1:
        flags[0] = 0
    for p in _odd_sieve(2, math.isqrt(P)):
        # the first odd multiple of p from max(p^2, first) on
        m = max(p * p, first)
        m += (p - m) % (2 * p)
        i = (m - first) // 2
        flags[i::p] = bytes(len(range(i, size, p)))
    return [*two, *itertools.compress(range(first, P + 1, 2), flags)]


# A window holds _WINDOW odd numbers while sqrt(P) <= 1024, and 32 per unit
# of sqrt(P) beyond, so that crossing off the pi(sqrt(P)) base primes stays
# a small share of each window's work.
_WINDOW = 2 ** 15


def _prime_windows(P: int):
    """The primes <= P in increasing order, one list per window of odd
    numbers, each sieved when it is reached, so one window is held at a
    time; refused above the sieve cap before any window is sieved."""
    _check_sieve_bound(P)
    width = 2 * (_WINDOW * max(1024, math.isqrt(P)) >> 10)
    return (sieve_primes(min(lo + width, P), lo)
            for lo in range(0, P, width))


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
    if P < 2:
        raise BadParams("prime bound must be >= 2")
    value, err, ops, rel = _den_matrix3(k, P, eps)
    return _certified(value, err, ops, P, EULER_TRUNCATION, rel)


# ---------------------------------------------------------------------------
# The den_matrix(3, k) product: an exact head and a binary64 log tail
# ---------------------------------------------------------------------------
# The factor at p is 1 + x_p with x_p = phi_k(p) / p^(3k-2), and
# |x_p| <= C p^-e for C = sum |coeffs of phi_k| and e = 3k - 2 - deg phi_k,
# the pair that also certifies the truncation at P.  The few primes with
# C p^-e > 2^-20 (26 for k = 2, 40 for k = 3, none once k >= 23) keep the
# Decimal factor, two operations each.  Every other p <= P contributes
# log(1 + x_p), taken as t_p = x - x^2/2 + x^3/3 in binary64; math.fsum
# adds them into S, and the head is multiplied by exp(S) in Decimals.
# _log_tail_error bounds what this costs against the exact product as a
# relative error eta, which _certified covers with the 1e-15 slack beside
# the Decimal rounding.  eta is below 3e-19 (at k = 3) and the error it
# bounds is smaller still, far under the 15th digit the CLI prints, so the
# printed value and bound are those of the all-Decimal product.
# Primes with C p^-e < 2^-1100 are skipped: their term evaluates to 0.0,
# so S is the same, and from k = 200 on only primes below 46 are left.

_HEAD_LOG2 = 20
_ZERO_LOG2 = 1100


def _log_series_sum(coeffs: list[float], primes) -> float:
    """fsum over p of t_p = x - x^2/2 + x^3/3 in binary64, with x the
    Horner value at r = 1.0/p of sum_i coeffs[i] r^(len(coeffs) - 1 - i).

    With phi_k's coefficients (low degree first) followed by e zeros as
    coeffs, x is phi_k(p)/p^(3k-2): Horner on the reversed phi_k, then e
    multiplications by r (adding 0.0 is exact).  Only IEEE +, -, * and /
    are used, the model _log_tail_error assumes.
    """
    first, *rest = coeffs

    def terms():
        for p in primes:
            r = 1.0 / p
            x = first
            for c in rest:
                x = x * r + c
            yield x + x * x * (x / 3.0 - 0.5)

    return math.fsum(terms())


def _power_sum_bound(Q: int, s: int) -> Fraction:
    """sum_{n >= Q} n^-s <= Q^-s + int_Q^inf t^-s dt, for s > 1."""
    s = min(s, _ZERO_LOG2)  # Q >= 2: the sum grows as s falls
    return Fraction(1, Q ** s) + Fraction(1, (s - 1) * Q ** (s - 1))


def _log_tail_error(S: float, C: int, e: int, steps: int, Q: int,
                    count: int) -> Fraction:
    """A bound eta on |exp(S) / prod (1 + x_p) - 1| over the count primes
    p >= Q of the float tail, all with |x_p| <= C p^-e <= 2^-20, when S is
    _log_series_sum over coefficients with steps Horner steps.

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, sections 2.2 and 3.1): fl(a op b) = (a op b)(1 + d) + h with
    |d| <= u = 2^-53, |h| <= 2^-1075, and h = 0 for + and -.  With
    gamma_m = m u / (1 - m u), for each term:
    * r = 1.0/p is off by one d, and Horner's bound gives
      |x_hat - x| <= gamma_(3 steps) sum |c_i| p^(i-3k+2) <= gamma_(3 steps) C p^-e;
    * the series rounds at most 2u |x_hat| more, and moves an error in x
      by a factor at most 1 + 2^-19 (its derivative is 1 - x + x^2); so
      |t_hat - t(x)| <= (1 + 2^-19) gamma_m C p^-e with m = 3 steps + 2;
    * the Taylor remainder is |t(x) - log(1 + x)| <= |x|^4 / (4 (1 - |x|));
    * fewer than m operations underflow, 2^-1075 each, scaled by at most
      2 later: m 2^-1074.  That also covers a prime past the 2^-1100 cut,
      whose log(1 + x_p) < 2^-1099 is dropped.
    math.fsum rounds the exact sum of the t_hat once: |S|/(2^53 - 1).
    Summed with _power_sum_bound this gives dS >= |S - sum log(1 + x_p)|,
    and |exp(dS) - 1| <= dS (1 + dS) since dS <= 1.
    """
    m = 3 * steps + 2
    gamma = Fraction(m, 2 ** 53 - m)
    dS = (Fraction(abs(S)) / (2 ** 53 - 1)
          + (1 + Fraction(1, 2 ** 19)) * gamma * C * _power_sum_bound(Q, e)
          + C ** 4 * _power_sum_bound(Q, 4 * e)
          / (4 * (1 - Fraction(1, 2 ** _HEAD_LOG2)))
          + Fraction(count * m, 2 ** 1074))
    return dS * (1 + dS)


@_at_working_precision
def _den_matrix3(k: int, P: int, eps: float):
    """(value, bound, Decimal operations, relative error of the float tail)
    of den_matrix(3, k), for _certified."""
    phi = phi_poly(k)
    exp = 3 * k - 2
    pairs, ops = _inverse_zetas((2 * k - 2, k), eps)
    windows = _prime_windows(P)
    # |phi_k(p)| / p^(3k-2) <= C p^-e with C = sum |coeffs|, e = 3k-2-deg
    C = sum(abs(c) for c in phi)
    e = exp - poly_degree(phi)
    assert e >= 2
    if C * Decimal(P) ** (-e) > Decimal("0.5"):
        raise BadParams(f"prime bound {P} too small to certify the tail")
    # the head: C p^-e > 2^-20; skipped after the cut: C p^-e < 2^-1100
    head_bound = ffalg._iroot((C << _HEAD_LOG2) - 1, e)
    cut = ffalg._iroot(C << _ZERO_LOG2, e)
    head: list[int] = []
    Q, count = None, 0  # the first float-tail prime, and their number

    def float_tail():
        """Each window's primes between the head and the cut, one window
        held at a time; the head primes are set aside."""
        nonlocal Q, count
        for primes in windows:
            i = bisect.bisect_right(primes, head_bound)
            j = bisect.bisect_right(primes, cut, i)
            head.extend(primes[:i])
            if Q is None and i < len(primes):
                Q = primes[i]
            count += len(primes) - i
            yield itertools.islice(primes, i, j)
            if j < len(primes):
                return
            del primes  # not held while the next window is sieved

    # one fsum over every window, so S is rounded once
    S = _log_series_sum([float(c) for c in phi] + [0.0] * e,
                        itertools.chain.from_iterable(float_tail()))
    count += sum(map(len, windows))  # the primes past the cut
    prod = Decimal(1)
    for p in head:
        pk = p ** exp
        prod *= Decimal(pk + poly_eval(phi, p)) / Decimal(pk)
    prod *= Decimal(S).exp()
    rel = _log_tail_error(S, C, e, exp, Q, count) if count else Fraction(0)
    tail_log = 2 * C * Decimal(P) ** (1 - e) / (e - 1)
    pairs.append((prod, prod * (tail_log.exp() - 1)))
    value, err = _product_with_errors(pairs)
    # a division and a product per head prime, exp(S) and its product, the
    # tail's power and 5 more
    ops += 2 * len(head) + 2 + _FACTOR_OPS + _power_ops(1 - e) + 5
    return value, err, ops, rel


@_at_working_precision
def euler_product(spec: EulerProductSpec) -> DensityValue:
    """prod_{p <= P} local_factor(p) with a certified bound on the tail.

    The factors are densities of local conditions, hence constrained to
    (0, 1]; the discarded tail then satisfies
    prod_{p > P} f(p) in [exp(-T), 1] with T = 2 C P^(1-e) / (e-1).
    """
    primes = itertools.chain.from_iterable(_prime_windows(spec.prime_bound))
    value = Decimal(1)
    count = 0
    for count, p in enumerate(primes, 1):
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
    return _certified(value, err, 2 * count + 8,
                      spec.prime_bound, EULER_TRUNCATION)
