import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

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


def test_sieve():
    assert sieve_primes(1) == []
    assert sieve_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(sieve_primes(10 ** 5)) == 9592
    with pytest.raises(BadParams):
        sieve_primes(10 ** 8 + 1)


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
    out = subprocess.run(
        [sys.executable, "-c",
         "import decimal, algen; print(decimal.getcontext().prec)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "28"
