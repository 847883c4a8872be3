"""Integer polynomial families and minimal-generator thresholds.

Polynomials are tuples of arbitrary-precision coefficients, low degree
first, with no trailing zeros; the zero polynomial is the empty tuple.
Divisions are exact over Z against monic divisors, with the remainder
asserted zero: for the psi family the divisibility itself is a claim
being checked, and a failure raises instead of truncating.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BadParams, DivisionInexact
from . import ffalg, genff

IntPoly = tuple[int, ...]

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
DEGENERATE = "degenerate"


def poly_trim(cs) -> IntPoly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_from_terms(terms) -> IntPoly:
    """terms: iterable of (degree, coeff); collects repeated degrees."""
    if not terms:
        return ()
    acc: dict[int, int] = {}
    for d, c in terms:
        acc[d] = acc.get(d, 0) + c
    deg = max(acc)
    out = [0] * (deg + 1)
    for d, c in acc.items():
        out[d] = c
    return poly_trim(out)


def poly_add(f: IntPoly, g: IntPoly) -> IntPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return poly_trim(out)


def poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pow_x(n: int, coeff: int = 1) -> IntPoly:
    return poly_trim([0] * n + [coeff])


def poly_eval(f: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_degree(f: IntPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division by a monic divisor, exact over Z."""
    if not g:
        raise BadParams("division by the zero polynomial")
    if g[-1] != 1:
        raise BadParams("divisor must be monic for exact division over Z")
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(f) - dg)
    while len(r) > dg:
        lead = r[-1]
        shift = len(r) - 1 - dg
        if lead:
            q[shift] = lead
            for i in range(dg):
                r[shift + i] -= lead * g[i]
        r.pop()
    return poly_trim(q), poly_trim(r)


def poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    q, r = poly_divmod(f, g)
    if r:
        raise DivisionInexact(f"remainder {list(r)} in claimed-exact division")
    return q


# ---------------------------------------------------------------------------
# The four families
# ---------------------------------------------------------------------------

def phi_poly(k: int) -> IntPoly:
    """phi_k(x) = x^(2k-2) - x^k - 2x^(k-1) - x^(k-2) + x + 1 (k >= 2),
    with coinciding exponents collected (phi_2 collapses to -x)."""
    if k < 2:
        raise BadParams("phi_k needs k >= 2")
    return poly_from_terms([
        (2 * k - 2, 1), (k, -1), (k - 1, -2), (k - 2, -1), (1, 1), (0, 1)])


def f_poly(k: int) -> IntPoly:
    """Copy-count threshold polynomial for 3 x 3 matrices:
    f_1 = 0 and, for k >= 2,
    f_k(x) = x^(3k+1) (x^(k-1)-1)(x^(k-1)+1)(x^k-1)(x^(3k-2) + phi_k(x))
             / ((x^2+x+1)(x-1)^2(x+1)).
    """
    if k < 1:
        raise BadParams("f_k needs k >= 1")
    if k == 1:
        return ()
    num = poly_pow_x(3 * k + 1)
    num = poly_mul(num, poly_from_terms([(k - 1, 1), (0, -1)]))
    num = poly_mul(num, poly_from_terms([(k - 1, 1), (0, 1)]))
    num = poly_mul(num, poly_from_terms([(k, 1), (0, -1)]))
    num = poly_mul(num, poly_add(poly_pow_x(3 * k - 2), phi_poly(k)))
    den = poly_mul(poly_mul((1, 1, 1), (1, -2, 1)), (1, 1))
    return poly_div_exact(num, den)


def h_poly(k: int) -> IntPoly:
    """Copy-count threshold polynomial for 2 x 2 matrices:
    h_1 = 0 and h_k(x) = x^(2k) (x^(k-1)-1)(x^k-1) / ((x-1)(x+1)) for k >= 2.
    """
    if k < 1:
        raise BadParams("h_k needs k >= 1")
    if k == 1:
        return ()
    num = poly_pow_x(2 * k)
    num = poly_mul(num, poly_from_terms([(k - 1, 1), (0, -1)]))
    num = poly_mul(num, poly_from_terms([(k, 1), (0, -1)]))
    return poly_div_exact(num, (-1, 0, 1))


_PSI_DIVISORS = {
    0: (-1, 1),                # x - 1
    4: (-1, 1),
    1: (-1, 0, 1),             # x^2 - 1
    3: (-1, 0, 1),
    2: (-1, 0, 0, 1),          # x^3 - 1
    5: (-1, -1, 0, 1, 1),      # (x + 1)(x^3 - 1)
}


def psi_poly(k: int) -> IntPoly:
    """psi_k = (x^(3k-2) + phi_k(x)) / d_k, where d_k depends on k mod 6:
    x-1 for k = 0,4; x^2-1 for k = 1,3; x^3-1 for k = 2; (x+1)(x^3-1)
    for k = 5.  The division must be exact; a remainder is a finding.
    """
    if k < 2:
        raise BadParams("psi_k needs k >= 2")
    num = poly_add(poly_pow_x(3 * k - 2), phi_poly(k))
    return poly_div_exact(num, _PSI_DIVISORS[k % 6])


# ---------------------------------------------------------------------------
# Minimal generator counts for M_n(Z)^m
# ---------------------------------------------------------------------------

class MinGenReport(namedtuple("MinGenReport", "n m r lower upper")):
    """r generators are the fewest for M_n(Z)^m; lower and upper are the
    copies reachable with r - 1 and with r generators."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, r: int, lower: int, upper: int):
        assert lower < m <= upper
        assert r >= 2
        return super().__new__(cls, n, m, r, lower, upper)


def min_generators(n: int, m: int) -> MinGenReport:
    """Smallest r with M_n(Z)^m generated by r elements (n in {2, 3}).

    r is the least k >= 2 with m <= gen_{k,n}(2), read from gen_count;
    gen_{k,n}(2) is F_k(2), F = h for n = 2 and f for n = 3.  The
    k = 2 threshold for n = 2 is h_2(2) = 16, which is exactly the copy
    count realized by the explicit 16-copy witness.  gen_{k+1,n}(2) >=
    2^(n^2) gen_{k,n}(2), so k doubles and then bisects.
    """
    if n not in (2, 3):
        raise BadParams("thresholds cover n in {2, 3}")
    if m < 1:
        raise BadParams("m must be >= 1")
    lo, hi = 1, 2  # gen_{1,n}(2) = 0 < m
    while genff.gen_count(hi, n, 2) < m:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if genff.gen_count(mid, n, 2) < m else (lo, mid)
    return MinGenReport(n, m, hi, genff.gen_count(lo, n, 2),
                        genff.gen_count(hi, n, 2))


# ---------------------------------------------------------------------------
# Sufficient irreducibility testing
# ---------------------------------------------------------------------------

def is_irreducible_mod_p(poly: IntPoly, p: int) -> str:
    """Distinct-degree verdict on the reduction mod p: "irreducible",
    "reducible", or "degenerate" when the leading coefficient vanishes.
    Irreducibility mod p is sufficient (not necessary) for
    irreducibility over Q.
    """
    if not ffalg.is_prime(p):
        raise BadParams(f"p = {p} is not prime")
    poly = poly_trim(poly)
    if poly_degree(poly) < 1:
        raise BadParams("need a polynomial of degree >= 1")
    if poly[-1] % p == 0:
        return DEGENERATE
    fbar = [c % p for c in poly]
    lead_inv = pow(fbar[-1], p - 2, p)
    fbar = [c * lead_inv % p for c in fbar]
    return IRREDUCIBLE if ffalg.gfp_is_irreducible(fbar, p) else REDUCIBLE
