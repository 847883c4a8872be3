import pytest

from algen.errors import BadParams, DivisionInexact
from algen.genff import gen_count
from algen.polys import (
    DEGENERATE,
    IRREDUCIBLE,
    REDUCIBLE,
    f_poly,
    h_poly,
    is_irreducible_mod_p,
    min_generators,
    phi_poly,
    poly_div_exact,
    poly_divmod,
    poly_eval,
    poly_mul,
    psi_poly,
)

# the displayed expansion of psi_12, degree 33, low degree first
PSI12 = (-1, -2, -2, -2, -2, -2, -2, -2, -2, -2, -1, 1,
         2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
         1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_poly_arithmetic():
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    q, r = poly_divmod((-1, 0, 1), (1, 1))
    assert q == (-1, 1) and r == ()
    with pytest.raises(DivisionInexact):
        poly_div_exact((1, 0, 1), (1, 1))
    with pytest.raises(BadParams):
        poly_divmod((1, 1), (2, 2))  # non-monic divisor


def test_f_family():
    assert f_poly(1) == ()
    assert poly_eval(f_poly(2), 2) == 768
    assert f_poly(2) == (0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1)  # x^10 - x^8
    with pytest.raises(BadParams):
        f_poly(0)


def test_h_family():
    assert h_poly(1) == ()
    assert poly_eval(h_poly(2), 2) == 16
    assert poly_eval(h_poly(3), 2) == 448
    assert poly_eval(h_poly(4), 2) == 8960


def test_phi_family():
    assert phi_poly(2) == (0, -1)                 # collapses to -x
    assert phi_poly(3) == (1, 0, -2, -1, 1)       # x^4 - x^3 - 2x^2 + 1
    for k in range(3, 20):
        assert len(phi_poly(k)) - 1 == 2 * k - 2
    with pytest.raises(BadParams):
        phi_poly(1)


def test_psi_family():
    assert psi_poly(2) == (0, 1)
    assert psi_poly(12) == PSI12
    for k in range(2, 101):
        psi = psi_poly(k)  # exact division is asserted inside
        assert set(psi) <= {-2, -1, 0, 1, 2}, k


def test_families_increasing_on_integers():
    for k in range(2, 11):
        f, h = f_poly(k), h_poly(k)
        for fam in (f, h):
            prev = None
            for x in range(2, 51):
                v = poly_eval(fam, x)
                assert v >= 0
                if prev is not None:
                    assert v > prev
                prev = v


def test_cross_module_identities():
    for q in (2, 3, 4, 5):
        for m in range(2, 6):
            assert poly_eval(h_poly(m), q) == gen_count(m, 2, q)
            assert poly_eval(f_poly(m), q) == gen_count(m, 3, q)


def test_min_generators_thresholds():
    assert min_generators(3, 768).r == 2
    assert min_generators(3, 769).r == 3
    assert min_generators(2, 16).r == 2
    assert min_generators(2, 17).r == 3
    assert min_generators(2, 448).r == 3
    assert min_generators(2, 449).r == 4
    assert min_generators(2, 1).r == 2
    with pytest.raises(BadParams):
        min_generators(4, 5)
    with pytest.raises(BadParams):
        min_generators(2, 0)


def test_min_generators_by_bisection_matches_linear_scan():
    # the paper's h_k(2) = 2^(2k) (2^(k-1) - 1)(2^k - 1) / 3, scanned one
    # k at a time
    def linear(m):
        k = 2
        while 4 ** k * (2 ** (k - 1) - 1) * (2 ** k - 1) // 3 < m:
            k += 1
        return k

    for m in (1, 16, 17, 769, 10 ** 4299):
        assert min_generators(2, m).r == linear(m), m
    assert [min_generators(3, m).r for m in (1, 768, 769)] == [2, 2, 3]


def test_min_generators_monotone_unit_jumps():
    seen = []
    prev_r = None
    for m in range(1, 9000, 7):
        rep = min_generators(2, m)
        assert rep.lower < m <= rep.upper
        if prev_r is not None:
            assert rep.r >= prev_r
        prev_r = rep.r
        seen.append(rep.r)
    assert set(seen) == {2, 3, 4, 5}  # h_4(2) = 8960 sits inside the range
    # jumps land exactly at the family values
    for k in (2, 3, 4, 5):
        t = poly_eval(h_poly(k), 2)
        assert min_generators(2, t).r == k
        assert min_generators(2, t + 1).r == k + 1


def test_irreducibility_verdicts():
    assert is_irreducible_mod_p((1, 0, 1), 2) == REDUCIBLE    # (x+1)^2
    assert is_irreducible_mod_p((1, 0, 1), 3) == IRREDUCIBLE
    assert is_irreducible_mod_p(phi_poly(3), 2) == IRREDUCIBLE
    assert is_irreducible_mod_p((1, 1, 3), 3) == DEGENERATE   # leading 3 = 0 mod 3
    assert is_irreducible_mod_p((5, 1), 7) == IRREDUCIBLE     # linear
    with pytest.raises(BadParams):
        is_irreducible_mod_p((1, 0, 1), 4)
    with pytest.raises(BadParams):
        is_irreducible_mod_p((3,), 2)


def test_irreducibility_against_root_oracle():
    # degree 2 and 3: irreducible mod p iff no roots mod p
    for p in (2, 3, 5):
        for poly in [(1, 1, 1), (1, 0, 0, 1), (2, 1, 0, 1), (1, 2, 1)]:
            if poly[-1] % p == 0:
                continue
            verdict = is_irreducible_mod_p(poly, p)
            has_root = any(poly_eval(poly, x) % p == 0 for x in range(p))
            assert (verdict == IRREDUCIBLE) == (not has_root), (poly, p)
