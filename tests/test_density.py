import bisect
import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from algen import density
from algen.cli import main
from algen.density import (
    EulerProductSpec,
    den_matrix,
    den_Zn,
    euler_product,
    sieve_primes,
    zeta_value,
)
from algen.errors import BadParams, DivergentTail
from algen.genff import g_closed_form
from algen.polys import phi_poly, poly_degree, poly_eval

# reference value computed independently via the alternating series
# zeta(3) = (1 - 2^-2)^-1 * sum (-1)^(n+1) n^-3 (error below 1e-13 at 10^5 terms)
ZETA3 = 1.2020569031595943


def test_zeta_closed_forms():
    for eps in (1e-6, 1e-9):
        z2 = zeta_value(2, eps)
        assert abs(z2.value - math.pi ** 2 / 6) <= z2.abs_error_bound <= eps
        z4 = zeta_value(4, eps)
        assert abs(z4.value - math.pi ** 4 / 90) <= z4.abs_error_bound <= eps
    z3 = zeta_value(3, 1e-9)
    assert abs(z3.value - ZETA3) <= z3.abs_error_bound + 1e-13
    assert z3.method == "exact-zeta"


def test_zeta_validation():
    with pytest.raises(BadParams):
        zeta_value(1, 1e-6)
    with pytest.raises(BadParams):
        zeta_value(2, 0.0)
    with pytest.raises(BadParams):
        zeta_value(2, 1e-30)  # would need too many terms


@functools.cache
def _zeta_partial_sum(s, eps):
    """The approximant summed term by term in 30-digit Decimals: the oracle
    for the Euler-Maclaurin evaluation in density._zeta_decimal."""
    with localcontext(Context(prec=30)):
        M = max(4, math.ceil(eps ** (-1.0 / s)) + 1)
        total = Decimal(0)
        for n in range(1, M + 1):
            total += Decimal(1) / Decimal(n) ** s
        hi = Decimal(M) ** (1 - s) / (s - 1)
        lo = Decimal(M + 1) ** (1 - s) / (s - 1)
        return total + (hi + lo) / 2, (hi - lo) / 2


# s = 2..6 at three accuracies and zeta(2) at 1e-12; M = 31, 32, 33 around
# the Euler-Maclaurin head; s from 50 to 150 around the s >= 100 shortcut
ZETA_GRID = ([(s, eps) for s in range(2, 7) for eps in (1e-6, 1e-9, 1e-10)]
             + [(2, 1e-12)] + [(2, (M - 1.5) ** -2) for M in (31, 32, 33)]
             + [(s, 1e-9) for s in (50, 97, 98, 99, 100, 101, 150)])


def test_zeta_matches_partial_sum_oracle():
    for s, eps in ZETA_GRID:
        value, err = density._zeta_decimal(s, eps)
        want, want_err = _zeta_partial_sum(s, eps)
        assert float(value) == float(want) and float(err) == float(want_err), (
            s, eps)
        assert abs(value - want) <= Decimal("1e-26"), (s, eps)
        M = max(4, math.ceil(eps ** (-1.0 / s)) + 1)
        if M < 100:  # the approximant summed exactly, rounded once
            A = sum(Fraction(1, n ** s) for n in range(1, M + 1)) + (
                Fraction(1, M ** (s - 1))
                + Fraction(1, (M + 1) ** (s - 1))) / (2 * (s - 1))
            with localcontext(Context(prec=30)):
                assert value == Decimal(A.numerator) / A.denominator, (s, eps)
    assert density._zeta_decimal(100, 1e-9)[0] == 1
    # the value rounds to 1 and the bound underflows to 0, however large s is
    for s in (5 * 10 ** 6, 10 ** 400):
        z = zeta_value(s, 1e-9)
        assert (z.value, z.abs_error_bound) == (1.0, 1e-15)


def test_zeta_within_its_bound_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for s, eps in ZETA_GRID:
            value, err = density._zeta_decimal(s, eps)
            exact = Fraction(str(mpmath.zeta(s)))  # within 1e-49
            # the approximant is within err; rounding it moved it by < 1e-29
            assert abs(Fraction(value) - exact) <= Fraction(err) + Fraction(
                1, 10 ** 29), (s, eps)
            assert err <= eps


def test_euler_maclaurin_tails_against_hurwitz_zeta():
    # every s the exact route takes, from the smallest tail start a = 32
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        for s in range(2, 100):
            for a in (32, 10 ** 7 + 1):
                got = density._em_tail(s, a)
                want = Fraction(str(mpmath.zeta(s, a)))
                assert abs(got - want) < Fraction(1, 10 ** 50), (s, a)


def test_densities_unchanged_under_partial_sum_oracle(monkeypatch):
    cases = ([functools.partial(den_Zn, k, n)
              for n in range(2, 8) for k in range(n, 8)]
             + [functools.partial(den_matrix, 2, k) for k in range(2, 8)]
             + [functools.partial(den_matrix, 3, k, 10 ** 4) for k in (2, 3, 4)])

    def run():
        return [(d.value, d.abs_error_bound) for d in (f() for f in cases)]

    fast = run()
    monkeypatch.setattr(density, "_zeta_decimal", _zeta_partial_sum)
    assert run() == fast


def test_zeta_term_cap():
    # M = ceil(eps^(-1/2)) + 1 is 10^7 for the first eps, 10^7 + 1 after
    ok, over = (10 ** 7 - 1.5) ** -2, (10 ** 7 - 0.5) ** -2
    assert math.ceil(ok ** -0.5) + 1 == 10 ** 7
    assert math.ceil(over ** -0.5) + 1 == 10 ** 7 + 1
    z = zeta_value(2, ok)
    assert abs(z.value - math.pi ** 2 / 6) <= z.abs_error_bound <= ok + 1e-15
    with pytest.raises(BadParams):
        zeta_value(2, over)
    assert main(["density", "--kind", "zeta", "--s", "2",
                 "--eps", repr(over)]) == 2


def test_rounding_slack_refuses_what_it_cannot_cover():
    at_max_sieve = 2 * 5761455 + 1000  # 2 per prime below 10^8, and more
    d = density._certified(Decimal(1), Decimal(1), at_max_sieve, None, "m")
    assert (d.value, d.abs_error_bound) == (1.0, 1.0 + 1e-15)
    with pytest.raises(BadParams):
        density._certified(Decimal(1), Decimal(0), 10 ** 29, None, "m")
    with pytest.raises(BadParams):  # 2^-52 of 5 is more than 1e-15
        density._certified(Decimal(4), Decimal(1), 1, None, "m")


def test_rounding_slack_covers_the_float_tail():
    # eta of den_matrix(3, k) stays below 3e-19 (largest at k = 3) ...
    etas = {k: density._den_matrix3(k, 10 ** 4, 1e-10)[3] for k in range(2, 31)}
    assert max(etas.values()) == etas[3] < Fraction(3, 10 ** 19)
    assert all(etas[k] > 0 for k in etas)
    # ... which the slack covers beside the Decimal rounding at MAX_SIEVE,
    # up to |value| + bound = 4.49
    at_max_sieve = 2 * 5761455 + 1000
    eta = Fraction(3, 10 ** 19)
    for v, e in [(Decimal(1), Decimal(1)), (Decimal("4.49"), Decimal(0))]:
        d = density._certified(v, e, at_max_sieve, None, "m", eta)
        assert (d.value, d.abs_error_bound) == (float(v), float(e) + 1e-15)
    # a relative error beyond the slack is refused, where ops alone pass
    with pytest.raises(BadParams):
        density._certified(Decimal("4.49"), Decimal(0), at_max_sieve, None,
                           "m", Fraction(1, 10 ** 18))
    density._certified(Decimal(1), Decimal(1), 1, None, "m",
                       Fraction(1, 10 ** 16))
    with pytest.raises(BadParams):
        density._certified(Decimal(1), Decimal(1), 1, None, "m",
                           Fraction(2, 10 ** 16))


def _den_matrix3_all_decimal(k, P, eps=density.PRODUCT_EPS):
    """Oracle: den_matrix(3, k) as one Decimal division and product per
    prime, the loop it ran before its float tail, here at 60 digits on the
    same 30-digit zeta factors.  (value, bound, operation count), the
    fixed operations outside the loop counted as 100, more than they are."""
    pairs, ops = density._inverse_zetas((2 * k - 2, k), eps)
    with localcontext(Context(prec=60)):
        phi = phi_poly(k)
        exp = 3 * k - 2
        primes = sieve_primes(P)
        prod = Decimal(1)
        for p in primes:
            pk = p ** exp
            prod *= Decimal(pk + poly_eval(phi, p)) / Decimal(pk)
        C = sum(abs(c) for c in phi)
        e = exp - poly_degree(phi)
        if C * Decimal(P) ** (-e) > Decimal("0.5"):
            raise BadParams("prime bound too small")
        tail_log = 2 * C * Decimal(P) ** (1 - e) / (e - 1)
        pairs.append((prod, prod * (tail_log.exp() - 1)))
        value, err = density._product_with_errors(pairs)
    return value, err, 2 * len(primes) + 100


def test_den_matrix3_against_all_decimal_oracle(monkeypatch):
    # the default windows, 3 * 10^5 spanning five of them, and windows of
    # one odd number each, so that the last head prime and the first tail
    # prime Q always lie in different windows
    runs = ((density._WINDOW, (2, 97, 101, 997, 1009, 10 ** 4, 10 ** 5,
                               3 * 10 ** 5)),
            (1, (97, 1009, 10 ** 4)))
    for window, bounds in runs:
        monkeypatch.setattr(density, "_WINDOW", window)
        for k in (2, 3, 4, 5, 10):
            for P in bounds:
                try:
                    want, want_err, oracle_ops = _den_matrix3_all_decimal(k, P)
                except BadParams:  # C 2^-e > 1/2 at k = 3, P = 2
                    with pytest.raises(BadParams):
                        den_matrix(3, k, P)
                    continue
                value, err, ops, rel = density._den_matrix3(k, P, 1e-10)
                rho = density._rounding_allowance(ops, rel)
                # both within their allowance of the exact product of the
                # same zeta factors; the oracle's 60-digit rounding is
                # 2 N 5e-60
                rho60 = Fraction(2 * oracle_ops * 5, 10 ** 60)
                assert abs(Fraction(value) - Fraction(want)) <= (
                    (rho + rho60) * abs(Fraction(value)) * (1 + 2 * rho)), (
                    window, k, P)
                d = den_matrix(3, k, P)
                assert d.value == float(want), (window, k, P)
                assert d.abs_error_bound == float(want_err) + 1e-15, (
                    window, k, P)


def test_products_hold_one_window_of_primes():
    # the whole list of primes up to 10^6 alone takes about 3.5 MiB
    ones = EulerProductSpec(lambda p: Fraction(1), 10 ** 6, 2.0, 0.0)
    den_matrix(3, 2, 10 ** 3)  # caches filled outside the measurement
    for run in (lambda: den_matrix(3, 2, 10 ** 6),
                lambda: euler_product(ones)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


def test_den_matrix3_large_k_visits_few_primes(monkeypatch):
    seen = []
    real = density._log_series_sum

    def spy(coeffs, primes):
        primes = list(primes)
        seen.append(primes)
        return real(coeffs, primes)

    monkeypatch.setattr(density, "_log_series_sum", spy)
    # k = 200: |x_p| <= 7 p^-200, all in the float tail; from p = 47 on,
    # 7 p^-200 < 2^-1100 and the term is not computed
    d = den_matrix(3, 200, 10 ** 6)
    assert (d.value, d.abs_error_bound) == (1.0, 1e-15)
    assert seen == [sieve_primes(43)] and len(seen[0]) == 14
    # the skipped terms evaluate to 0.0, so the sum is unchanged
    for k in (100, 200):
        coeffs = [float(c) for c in phi_poly(k)] + [0.0] * k
        primes = sieve_primes(10 ** 4)
        kept = [p for p in primes if p ** k <= 7 << 1100]
        dropped = primes[len(kept):]
        assert kept == primes[:len(kept)] and len(dropped) > 800, k
        assert all(real(coeffs, [p]) == 0.0 for p in dropped), k
        assert real(coeffs, primes) == real(coeffs, kept), k
        seen.clear()
        density._den_matrix3(k, 10 ** 4, 1e-10)
        assert seen == [kept], k


def test_den_matrix3_huge_k_is_prompt():
    # the error bound's power sums are taken at exponent min(e, 1100), so
    # no million-bit Fraction is built
    t0 = time.perf_counter()
    d = den_matrix(3, 10 ** 6)
    assert (d.value, d.abs_error_bound) == (1.0, 1e-15)
    assert time.perf_counter() - t0 < 5


def test_sieve():
    assert sieve_primes(1) == []
    assert sieve_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(sieve_primes(10 ** 5)) == 9592
    with pytest.raises(BadParams):
        sieve_primes(10 ** 8 + 1)


def _windowed(P):
    windows = list(density._prime_windows(P))
    assert all(type(w) is list for w in windows), P
    return [p for w in windows for p in w]


def test_sieve_against_trial_division(monkeypatch):
    oracle = [n for n in range(2, 2001)
              if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for P in range(2001):
        want = [p for p in oracle if p <= P]
        got = sieve_primes(P)
        assert got == want, P
        assert type(got) is list
        # every window of up to six integers that ends at P
        for lo in range(max(P - 6, 0), P):
            assert sieve_primes(P, lo) == want[bisect.bisect(want, lo):], (
                P, lo)
    assert all(type(p) is int for p in sieve_primes(2000))
    # windows of three odd numbers, six integers each
    monkeypatch.setattr(density, "_WINDOW", 3)
    for P in (*range(50), 997, 1000, 2000):
        assert _windowed(P) == [p for p in oracle if p <= P], P
    assert all(type(p) is int for p in _windowed(2000))
    monkeypatch.undo()
    assert len(sieve_primes(10 ** 6)) == 78498
    # across the edges of the default windows, 2^16 integers each below 2^20
    sympy = pytest.importorskip("sympy")
    for P in (2 ** 16 - 1, 2 ** 16 + 1, 2 ** 17 - 1, 2 ** 17 + 1, 10 ** 6,
              3 * 10 ** 6):
        got = _windowed(P)
        assert len(got) == sympy.primepi(P), P
        assert got == sorted(set(got)) and got[-1] == sympy.prevprime(P + 1)


def test_den_Zn():
    d = den_Zn(2, 1)
    assert abs(d.value - 6 / math.pi ** 2) <= d.abs_error_bound + 1e-12
    assert den_Zn(3, 3).value == 0.0
    assert den_Zn(5, 5).value == 0.0
    d32 = den_Zn(3, 2)
    expect = 1 / (math.pi ** 2 / 6 * ZETA3)
    assert abs(d32.value - expect) <= d32.abs_error_bound + 1e-12
    with pytest.raises(BadParams):
        den_Zn(1, 2)


def test_den_matrix_m2():
    assert den_matrix(2, 2).value == 0.0
    d = den_matrix(2, 3)
    expect = 1 / (math.pi ** 2 / 6 * ZETA3)
    assert abs(d.value - expect) <= d.abs_error_bound + 1e-12


def test_den_matrix_m3_k2_equals_intro_value():
    # phi_2(x) = -x makes the correction product collapse to 1/zeta(3),
    # so den_2(M_3(Z)) = 1/(zeta(2)^2 zeta(3))
    d = den_matrix(3, 2, P=10 ** 5)
    expect = 1 / ((math.pi ** 2 / 6) ** 2 * ZETA3)
    assert abs(d.value - expect) <= d.abs_error_bound + 1e-8
    assert d.method == "euler-truncation" and d.P == 10 ** 5


def test_euler_product_trivial():
    spec = EulerProductSpec(lambda p: Fraction(1), 100, 2.0, 0.0)
    d = euler_product(spec)
    assert d.value == 1.0 and d.abs_error_bound <= 1e-12


def test_euler_product_zeta2():
    spec = EulerProductSpec(lambda p: Fraction(p * p - 1, p * p), 10 ** 5, 2.0, 1.0)
    d = euler_product(spec)
    assert abs(d.value - 6 / math.pi ** 2) <= d.abs_error_bound
    assert d.abs_error_bound < 1e-4


def test_euler_product_matches_den_matrix():
    # g_{k,2}(p)/p^(4k) meets 1/(zeta(k-1) zeta(k)) for k = 3, 4, 5
    for k, P in [(3, 10 ** 5), (4, 10 ** 4), (5, 10 ** 4)]:
        spec = EulerProductSpec(
            lambda p, k=k: Fraction(g_closed_form(k, 2, p), p ** (4 * k)),
            P, float(k - 1), 2.0)
        d = euler_product(spec)
        ref = den_matrix(2, k)
        assert abs(d.value - ref.value) <= (
            d.abs_error_bound + ref.abs_error_bound), k
    assert d.abs_error_bound + ref.abs_error_bound < 1e-6
    d3 = euler_product(EulerProductSpec(
        lambda p: Fraction(g_closed_form(3, 2, p), p ** 12), 10 ** 5, 2.0, 2.0))
    ref3 = den_matrix(2, 3)
    assert d3.abs_error_bound + ref3.abs_error_bound <= 1e-4


def test_euler_product_validation():
    with pytest.raises(DivergentTail):
        EulerProductSpec(lambda p: Fraction(1), 100, 1.0, 1.0)
    with pytest.raises(BadParams):
        euler_product(EulerProductSpec(lambda p: Fraction(2), 100, 2.0, 1.0))


def test_monotone_truncation():
    def factor(p):
        return Fraction(p * p - 1, p * p)

    prev = None
    for P in (10 ** 3, 10 ** 4, 10 ** 5):
        d = euler_product(EulerProductSpec(factor, P, 2.0, 1.0))
        if prev is not None:
            assert abs(d.value - prev.value) <= prev.abs_error_bound
            assert d.abs_error_bound < prev.abs_error_bound
        prev = d

    prev = None
    for P in (10 ** 3, 10 ** 4, 10 ** 5):
        d = den_matrix(3, 2, P=P)
        if prev is not None:
            assert abs(d.value - prev.value) <= prev.abs_error_bound
        prev = d


def test_import_leaves_decimal_precision_alone():
    import algen

    src = os.path.dirname(os.path.dirname(algen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # nor builds the Bernoulli table, which waits for the first zeta value
    out = subprocess.run(
        [sys.executable, "-c",
         "import decimal, algen.cli; print(decimal.getcontext().prec, "
         "algen.density._em_coefficients.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["28", "0"]
