import itertools
import random
import time

import numpy as np
import pytest
from conjugacy import are_conjugate_tuples, fq_insert, fq_sub, gl_elements

from algen import ffalg
from algen.errors import (
    BadParams,
    DivisionByZero,
    FactorizationIncomplete,
    NonPrime,
)
from algen.ffalg import (
    group_orders,
    make_field,
    mat_mul,
    multiplicative_generator,
)


def test_make_field_prime():
    f2 = make_field(2, 1)
    assert f2.q == 2 and f2.modulus is None
    f5 = make_field(5)
    assert f5.q == 5


def test_make_field_f4_modulus():
    # the only irreducible quadratic over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_f9_modulus_matches_enumeration():
    # oracle: first monic quadratic over F_3 (low-to-high lex) with no root
    expected = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert make_field(3, 2).modulus == expected


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_modulus_irreducible_exhaustive(p, s):
    # exhaustive factor search up to degree s/2 confirms irreducibility
    mod = list(make_field(p, s).modulus)
    for d in range(1, s // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            den = list(low) + [1]
            if ffalg.gfp_mod(mod, den, p) == []:
                pytest.fail(f"modulus has factor {den}")


def _monics(p, d):
    return ([*low, 1] for low in itertools.product(range(p), repeat=d))


@pytest.mark.parametrize("p, top", [(2, 10), (3, 7), (5, 5), (7, 4)])
def test_ben_or_against_a_brute_factor_search(p, top):
    # a monic of degree d is reducible iff it is the product of two monics
    # of degrees e and d - e for some 1 <= e <= d / 2
    for d in range(1, top + 1):
        reducible = {tuple(ffalg.gfp_mul(g, h, p)) for e in range(1, d // 2 + 1)
                     for g in _monics(p, e) for h in _monics(p, d - e)}
        for f in _monics(p, d):
            assert ffalg.gfp_is_irreducible(f, p) == (tuple(f) not in reducible), f


def _first_irreducible_full_scan(p, s):
    """Oracle: the modulus search before it skipped constant term 0."""
    for low in itertools.product(range(p), repeat=s):
        if ffalg.gfp_is_irreducible(list(low) + [1], p):
            return tuple(low) + (1,)


def test_make_field_modulus_matches_full_scan():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        s = 2
        while p ** s <= 600:
            assert make_field(p, s).modulus == _first_irreducible_full_scan(p, s)
            s += 1


def test_make_field_skips_constant_term_zero(monkeypatch):
    # each candidate with f(0) = 0 is divisible by x; F_{1009^3} and
    # F_{65537^2} are found after a handful of irreducibility tests
    tested = []
    real = ffalg.gfp_is_irreducible

    def counted(f, p):
        tested.append(f)
        assert len(tested) <= 50, "scanned past constant term 0"
        return real(f, p)

    monkeypatch.setattr(ffalg, "gfp_is_irreducible", counted)
    for p, s in ((1009, 3), (65537, 2)):
        tested.clear()
        ctx = ffalg.make_field.__wrapped__(p, s)
        assert ctx.modulus[0] != 0 and ctx.q == p ** s


def test_elements_in_canonical_order_is_lazy_and_sorted():
    for q in range(2, 513):
        try:
            p, s = ffalg.prime_power_split(q)
        except BadParams:
            continue
        ctx = make_field(p, s)
        assert (list(ctx.elements_in_canonical_order())
                == sorted(range(q), key=ctx.coeffs))
    big = make_field(2 ** 61 - 1)
    codes = big.elements_in_canonical_order()
    assert iter(codes) is codes
    assert list(itertools.islice(codes, 3)) == [0, 1, 2]


def test_make_field_errors():
    with pytest.raises(NonPrime):
        make_field(6)
    with pytest.raises(ffalg.BadDegree):
        make_field(2, 0)


def test_inv_examples():
    f5 = make_field(5)
    assert f5.inv(2) == 3
    f4 = make_field(2, 2)
    u = 2
    assert f4.inv(u) == 3  # u * (u+1) = 1
    with pytest.raises(DivisionByZero):
        f4.inv(0)


@pytest.mark.parametrize("p,s", [(5, 1), (2, 2), (3, 2), (2, 3), (3, 5)])
def test_field_axioms_seeded(p, s):
    ctx = make_field(p, s)
    rng = random.Random(20260808)
    for _ in range(1000):
        a = rng.randrange(ctx.q)
        b = rng.randrange(ctx.q)
        c = rng.randrange(ctx.q)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_multiplicative_generator():
    assert multiplicative_generator(make_field(2)) == 1
    assert multiplicative_generator(make_field(5)) == 2
    f4 = make_field(2, 2)
    u = multiplicative_generator(f4)
    assert u == 2
    # order is exactly q - 1
    assert f4.pow(u, 3) == 1 and f4.pow(u, 1) != 1

    for p, s in [(3, 2), (5, 1), (7, 1), (2, 4)]:
        ctx = make_field(p, s)
        g = multiplicative_generator(ctx)
        seen = set()
        x = 1
        for _ in range(ctx.q - 1):
            x = ctx.mul(x, g)
            seen.add(x)
        assert len(seen) == ctx.q - 1


def _generator_by_powers(ctx):
    """multiplicative_generator without the norm filter: every candidate
    goes through the powers a^((q-1)/r) in F_q."""
    target = ctx.q - 1
    if target == 1:
        return 1
    factors = ffalg.prime_factors(target)
    for a in ctx.elements_in_canonical_order():
        if a and all(ctx.pow(a, target // r) != 1 for r in factors):
            return a


@pytest.mark.parametrize("p, s", [
    (2, 1), (7, 1), (3, 2), (5, 2), (7, 2), (13, 2), (31, 2), (101, 2),
    (2, 2), (2, 3), (2, 5), (2, 8), (3, 3), (3, 5), (7, 3), (5, 3),
])
def test_multiplicative_generator_against_powers_oracle(p, s):
    ctx = make_field(p, s)
    assert multiplicative_generator(ctx) == _generator_by_powers(ctx)
    # the norm is the power a^((q-1)/(p-1)), computed without powers in F_q
    rng = random.Random(p * 100 + s)
    for _ in range(20):
        a = rng.randrange(ctx.q)
        assert ffalg._norm(ctx, a) == (
            ctx.pow(a, (ctx.q - 1) // (p - 1)) if a else 0)


def test_multiplicative_generator_in_characteristic_two():
    # F_2* is trivial, so no norm is computed for p = 2; the generators of
    # F_{2^s} are those found when the norm filter also ran there
    want = {1: 1, 2: 2, 3: 4, 4: 4, 5: 16, 6: 32, 7: 64, 8: 160, 9: 448,
            10: 256, 11: 1024, 12: 3072, 30: 838860800}
    assert {s: multiplicative_generator(make_field(2, s))
            for s in want} == want


def test_multiplicative_generator_large_quadratic_field():
    # F_{65537^2}: all but one of the 65539 candidates before 1 + 3x fail
    # the norm test (N(c x) = c^2); _generator_by_powers takes 13 s here
    ctx = make_field(65537, 2)
    t0 = time.perf_counter()
    g = multiplicative_generator(ctx)
    elapsed = time.perf_counter() - t0
    assert g == 196612 and ctx.coeffs(g) == (1, 3)
    assert all(ctx.pow(g, (ctx.q - 1) // r) != 1
               for r in ffalg.prime_factors(ctx.q - 1))
    assert elapsed < 8


@pytest.mark.parametrize("p", [1000003, 2 ** 61 - 1])
def test_multiplicative_generator_skips_a_coset_without_generators(p):
    # p = 3 mod 4, so the modulus is x^2 + 1 and x has order 4: each of the
    # first p candidates c x has order dividing 4 (p - 1) < q - 1.  The
    # search starts after them; the scan of the powers oracle from there
    # finds the same element
    ctx = make_field(p, 2)
    assert ctx.modulus == (1, 0, 1) and ctx.pow(p, 4) == 1
    t0 = time.perf_counter()
    g = multiplicative_generator(ctx)
    assert time.perf_counter() - t0 < 1
    factors = ffalg.prime_factors(ctx.q - 1)
    want = next(a for a in ctx.elements_in_canonical_order(p)
                if all(ctx.pow(a, (ctx.q - 1) // r) != 1 for r in factors))
    assert g == want and ctx.coeffs(g)[0] >= 1


def _echelon_dim(ctx, vectors, width):
    ech = ffalg.FqEchelon(ctx, width)
    for v in vectors:
        ech.insert(v)
    return ech.dim


def test_fq_echelon_dimension():
    f2, f3, f4 = make_field(2), make_field(3), make_field(2, 2)
    assert _echelon_dim(f2, [], 3) == 0
    basis = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    assert _echelon_dim(f3, basis, 4) == 4
    assert _echelon_dim(f2, [(1, 1, 0), (1, 1, 0), (0, 1, 1)], 3) == 2
    # FqEchelon works over F_p; the tests eliminate over F_4 itself with
    # fq_insert (codes 2 = x, 3 = x + 1): (x, 1) = x (1, x + 1)
    with pytest.raises(AssertionError):
        ffalg.FqEchelon(f4, 2)
    pivots = {}
    assert [fq_insert(f4, pivots, v) for v in [(1, 3), (2, 1)]] == [True, False]
    pivots = {}
    assert [fq_insert(f4, pivots, v) for v in [(1, 3), (2, 3)]] == [True, True]


def test_group_orders_examples():
    assert group_orders(2, 2) == (6, 6)
    assert group_orders(3, 2) == (168, 168)
    assert group_orders(2, 3) == (48, 24)
    with pytest.raises(BadParams):
        group_orders(2, 6)


def _count_invertible_2x2(q: int) -> int:
    """Enumeration oracle: count 2x2 matrices with nonzero determinant,
    multiplication per the field's tables (vectorized)."""
    ctx = make_field(*ffalg.prime_power_split(q))
    if ctx.s == 1:
        a, b, c, d = np.meshgrid(*([np.arange(q)] * 4), indexing="ij")
        det = (a * d - b * c) % q
        return int(np.count_nonzero(det))
    mul = np.array([[ctx.mul(x, y) for y in range(q)] for x in range(q)])
    neg = np.array([ctx.mul(ctx.p - 1, x) for x in range(q)])
    add = np.array([[ctx.add(x, y) for y in range(q)] for x in range(q)])
    a, b, c, d = np.meshgrid(*([np.arange(q)] * 4), indexing="ij")
    det = add[mul[a, d], neg[mul[b, c]]]
    return int(np.count_nonzero(det))


def _det3(ctx, m):
    """Cofactor-expansion determinant, independent of the rank routine."""
    a, b, c, d, e, f, g, h, i = m
    t1 = ctx.mul(a, ctx.sub(ctx.mul(e, i), ctx.mul(f, h)))
    t2 = ctx.mul(b, ctx.sub(ctx.mul(d, i), ctx.mul(f, g)))
    t3 = ctx.mul(c, ctx.sub(ctx.mul(d, h), ctx.mul(e, g)))
    return ctx.add(ctx.sub(t1, t2), t3)


class _TabledField:
    """The arithmetic of a field context read from q x q tables that the
    context fills in, for sweeps that multiply in one small field often."""

    def __init__(self, ctx):
        els = range(ctx.q)
        self._mul, self._add, self._sub = (
            [[op(a, b) for b in els] for a in els]
            for op in (ctx.mul, ctx.add, lambda a, b: fq_sub(ctx, a, b)))

    def mul(self, a, b):
        return self._mul[a][b]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]


def test_group_orders_vs_enumeration():
    # every prime power with q^4 <= 10^6 for n = 2
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]:
        assert group_orders(2, q)[0] == _count_invertible_2x2(q), q
    # n = 3 with q^9 <= 10^6: q in {2, 3, 4}
    for q in [2, 3]:
        ctx = _TabledField(make_field(q))
        count = sum(1 for m in itertools.product(range(q), repeat=9)
                    if _det3(ctx, m) != 0)
        assert group_orders(3, q)[0] == count
    f4 = _TabledField(make_field(2, 2))
    count = sum(1 for m in itertools.product(range(4), repeat=9)
                if _det3(f4, m) != 0)
    assert group_orders(3, 4)[0] == count
    # n = 4, q = 2 (2^16 candidates): bit-packed row elimination
    count = 0
    for m in range(1 << 16):
        rows = [(m >> (4 * i)) & 15 for i in range(4)]
        rank = 0
        piv = [0] * 4
        for r in rows:
            while r:
                b = r.bit_length() - 1
                if not piv[b]:
                    piv[b] = r
                    rank += 1
                    break
                r ^= piv[b]
        if rank == 4:
            count += 1
    assert group_orders(4, 2)[0] == count
    # n = 1: units
    for q in [2, 3, 4, 9]:
        assert group_orders(1, q) == (q - 1, 1)


def test_gl_elements_counts():
    # the test oracle's GL_n sweep against the order formula
    assert len(gl_elements(make_field(2), 2)) == 6
    assert len(gl_elements(make_field(2), 3)) == 168
    assert len(gl_elements(make_field(3), 2)) == group_orders(2, 3)[0] == 48


def test_conjugate_tuples_basics():
    f2 = make_field(2)
    E12, E21 = (0, 1, 0, 0), (0, 0, 1, 0)
    t = (E12, E21)
    assert are_conjugate_tuples(f2, t, t)
    g = (1, 1, 0, 1)
    ginv = (1, 1, 0, 1)  # self-inverse over F_2
    conj = tuple(mat_mul(f2, 2, mat_mul(f2, 2, g, a), ginv) for a in t)
    assert are_conjugate_tuples(f2, t, conj)
    # different conjugation invariants: (0,0,0,0,1) vs (0,0,1,1,1)
    t2 = (E12, (1, 1, 1, 0))
    assert not are_conjugate_tuples(f2, t, t2)


def test_conjugate_tuples_equivalence_relation():
    f2 = make_field(2)
    rng = random.Random(99)
    sample = [tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(2))
              for _ in range(8)]
    rel = [[are_conjugate_tuples(f2, a, b) for b in sample] for a in sample]
    for i in range(len(sample)):
        assert rel[i][i]
        for j in range(len(sample)):
            assert rel[i][j] == rel[j][i]
            for k in range(len(sample)):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_conjugate_tuples_galois():
    # over F_4 as an F_2-algebra, u*I and (u+1)*I are Frobenius twists
    f4 = make_field(2, 2)
    uI = ((2, 0, 0, 2),)
    u1I = ((3, 0, 0, 3),)
    assert not are_conjugate_tuples(f4, uI, u1I, include_galois=False)
    assert are_conjugate_tuples(f4, uI, u1I, include_galois=True)


def test_prime_power_split_by_integer_roots():
    for p, e in ((2, 1), (2, 6), (3, 4), (5, 4), (2 ** 61 - 1, 1),
                 (2 ** 61 - 1, 2), (3, 40)):
        assert ffalg.prime_power_split(p ** e) == (p, e)
    # (10^9 + 7)(10^9 + 9): no trial division up to its square root
    for q in (6, 12, 100, (10 ** 9 + 7) * (10 ** 9 + 9), 10 ** 1000 + 1):
        with pytest.raises(BadParams):
            ffalg.prime_power_split(q)


def test_iroot_brackets_seeded_random_inputs():
    # r^e <= x < (r + 1)^e, on random x of up to 1200 bits, on exact
    # powers and one below them, and on x = 1
    rng = random.Random(43)
    cases = [(1, 1), (1, 5)]
    for _ in range(2000):
        e = rng.randrange(1, 700)
        x = rng.getrandbits(rng.randrange(1, 1201)) or 1
        cases.append((x, e))
        r = rng.randrange(2, 2 ** rng.randrange(2, 40))
        cases += [(r ** e, e), (r ** e - 1, e)]
    for x, e in cases:
        r = ffalg._iroot(x, e)
        assert r ** e <= x < (r + 1) ** e, (x, e)


def test_is_prime_refuses_probable_primes():
    bound = ffalg.MR_DETERMINISTIC_BOUND
    assert ffalg.is_prime(bound - 20)  # the largest prime below the bound
    # composite verdicts stay certain past the bound
    assert not ffalg.is_prime(3 * bound)
    assert not ffalg.is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
    for n in (bound, 2 ** 89 - 1, (2 ** 89 - 1) ** 2):
        with pytest.raises(FactorizationIncomplete):
            ffalg.prime_power_split(n)


def test_prime_factors_against_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    cases = list(range(1, 500)) + [2 ** 61 - 1, 2 * 999983 ** 2,
                                   2 * 3 * 5 * 7 * 11 * 13 * (10 ** 9 + 7)]
    cases += [rng.randrange(1, 10 ** 12) for _ in range(200)]
    for n in cases:
        assert ffalg.prime_factors(n) == tuple(sorted(sympy.factorint(n))), n
