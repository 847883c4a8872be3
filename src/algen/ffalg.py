"""Exact arithmetic in F_{p^s}, dense matrices over it, and a row echelon
over F_p.

Field elements are encoded as integers in [0, q): the element with
coefficient vector (c_0, ..., c_{s-1}) over F_p gets the code
sum(c_i * p**i).  For prime fields (s = 1) the code is the residue
itself.  All matrices are dense, row-major tuples of element codes.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import (
    BadDegree,
    BadParams,
    DivisionByZero,
    FactorizationIncomplete,
    NonPrime,
)

# Enumeration entry points never accept matrices larger than this.
MAX_ENUM_N = 8

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# is_prime is a proof below this bound and only a probable-prime test from
# it on: the bound is the least strong pseudoprime to all twelve bases,
# 399165290221 * 798330580441.
MR_DETERMINISTIC_BOUND = 318665857834031151167461

TRIAL_DIVISION_BOUND = 10 ** 6


def is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES: a proof below MR_DETERMINISTIC_BOUND.

    From the bound on a composite verdict is still certain, but a number
    that passes every base is refused with FactorizationIncomplete.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_DETERMINISTIC_BOUND:
        raise FactorizationIncomplete(f"{n} is only a probable prime")
    return True


def prime_power_split(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, or raise BadParams."""
    if q < 2:
        raise BadParams(f"not a prime power: {q}")
    for e in range(1, q.bit_length() + 1):
        r = _iroot(q, e)
        if r ** e == q and is_prime(r):
            return r, e
    raise BadParams(f"not a prime power: {q}")


def _iroot(x: int, e: int) -> int:
    """Largest r with r**e <= x, for x >= 1, by integer Newton steps."""
    # Newton steps from a start at or above the root fall to it and stop;
    # from below, the start would be returned.  With the root's k low bits
    # split off, x < (y + 1) 2^(k e) for y = x >> (k e); binary64 gives the
    # at most 55 top bits of 2^k (y + 1)^(1/e) within 2^-44, so the 2^-31
    # margin keeps the start above the root by less than a factor 1 + 2^-30.
    k = max(x.bit_length() // e - 53, 0)
    y = x >> (k * e)
    r = (int(2 ** (math.log2(y + 1) / e) * (1 + 2 ** -31)) + 1) << k
    while True:
        t = ((e - 1) * r + x // r ** (e - 1)) // e
        if t >= r:
            return r
        r = t


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of a positive integer, in increasing order.

    Trial division up to 10^6, then a primality verdict on the cofactor;
    a composite cofactor, or one that is prime only by a probable-prime
    test, is reported as FactorizationIncomplete, never guessed.
    """
    if n < 1:
        raise BadParams(f"expected a positive integer, got {n}")
    out = []
    m = n
    d = 2
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        # composite cofactors up to 10^12 would have a factor <= 10^6
        if m > TRIAL_DIVISION_BOUND ** 2 and not is_prime(m):
            raise FactorizationIncomplete(
                f"cofactor {m} of {n} is composite but unfactored")
        out.append(m)
    return tuple(out)


# ---------------------------------------------------------------------------
# Univariate polynomials over F_p: dense coefficient lists, low degree first.
# Used for field construction and reused by the integer-polynomial module
# for mod-p irreducibility verdicts.
# ---------------------------------------------------------------------------

def gfp_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def gfp_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return gfp_trim(out)


def gfp_mod(f: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of f modulo a monic polynomial m."""
    assert m and m[-1] == 1
    r = [c % p for c in f]
    dm = len(m) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return gfp_trim(r)


def gfp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    a, b = [c % p for c in f], [c % p for c in g]
    gfp_trim(a)
    gfp_trim(b)
    while b:
        # make b monic so gfp_mod applies
        lead_inv = pow(b[-1], p - 2, p)
        b = [c * lead_inv % p for c in b]
        a, b = b, gfp_mod(a, b, p)
    if a:
        lead_inv = pow(a[-1], p - 2, p)
        a = [c * lead_inv % p for c in a]
    return a


def gfp_powmod(f: list[int], e: int, m: list[int], p: int) -> list[int]:
    """f**e modulo the monic polynomial m."""
    result = [1]
    base = gfp_mod(f, m, p)
    while e:
        if e & 1:
            result = gfp_mod(gfp_mul(result, base, p), m, p)
        base = gfp_mod(gfp_mul(base, base, p), m, p)
        e >>= 1
    return result


def gfp_is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for a monic f of degree d >= 1 over F_p: f is
    irreducible iff gcd(f, x^(p^i) - x) = 1 for i = 1 .. d // 2, since a
    reducible f has an irreducible factor of some degree i <= d / 2, which
    divides x^(p^i) - x.  It stops at the first i that finds a factor."""
    d = len(f) - 1
    assert d >= 1 and f[-1] % p == 1
    x = [0, 1]
    xp = x
    for _ in range(d // 2):
        xp = gfp_powmod(xp, p, f, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(xp, x, fillvalue=0)]
        if gfp_gcd(gfp_trim(diff), f, p) != [1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable arithmetic context for F_{p^s}.

    The modulus (for s > 1) is the lexicographically smallest monic
    irreducible of degree s, comparing coefficient vectors low degree
    first.  This makes contexts deterministic: same (p, s), same field.
    """

    __slots__ = ("p", "s", "q", "modulus")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = modulus

    def __repr__(self):
        return f"FieldCtx(q={self.q})" if self.s == 1 else (
            f"FieldCtx(q={self.q}, modulus={list(self.modulus)})")

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{s-1}) of an element code."""
        out = []
        for _ in range(self.s):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + c % self.p
        return a

    # -- arithmetic on codes ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        return self.from_coeffs(map(operator.add, self.coeffs(a), self.coeffs(b)))

    def mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        prod = gfp_mod(gfp_mul(list(self.coeffs(a)), list(self.coeffs(b)), self.p),
                       list(self.modulus), self.p)
        return self.from_coeffs(prod)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("no inverse of 0")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements_in_canonical_order(self, start: int = 0):
        """All element codes sorted by coefficient vector, low degree first,
        from the start-th on, as a lazy iterator."""
        return map(self.from_coeffs, _coefficient_vectors(self.p, self.s, start))


def _coefficient_vectors(p: int, s: int, start: int):
    """Yield the coefficient vectors (c_0, ..., c_{s-1}) over F_p in
    lexicographic order, from the start-th on: the base-p digits of the
    indices, most significant first."""
    for x in range(start, p ** s):
        yield [x // p ** (s - 1 - i) % p for i in range(s)]


@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1) -> FieldCtx:
    """Construct F_{p^s} with a deterministic irreducible modulus."""
    if not is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if s < 1:
        raise BadDegree(f"extension degree must be >= 1, got {s}")
    if s == 1:
        return FieldCtx(p, 1, None)
    # a candidate with constant term 0 is divisible by x: start at c_0 = 1
    for low in _coefficient_vectors(p, s, p ** (s - 1)):
        f = low + [1]
        if gfp_is_irreducible(f, p):
            return FieldCtx(p, s, tuple(f))
    raise AssertionError("no irreducible polynomial found")  # unreachable


def multiplicative_generator(ctx: FieldCtx) -> int:
    """Smallest element (canonical order) of multiplicative order q - 1.

    The norm F_q* -> F_p* is a surjective homomorphism, so the norm of a
    generator generates F_p*.  For odd p, candidates that fail this test,
    which takes a determinant and powers mod p, are skipped before the
    powers in F_q; F_2* is trivial, so for p = 2 it would skip nothing.

    The first p candidates are the coset y F_p* of y = x^(s-1), and 0.  A
    coset of F_p* holds a generator exactly when its image generates the
    cyclic F_q*/F_p* of order M = (q-1)/(p-1), that is when
    y^((q-1)/r) != 1 for every prime r | M.  Otherwise the block is
    skipped whole: over F_{p^2} with modulus x^2 + 1 no c x generates,
    and the scan took about 10 s at p = 10^6 + 3.
    """
    target = ctx.q - 1
    if target == 1:
        return 1
    p = ctx.p
    factors = prime_factors(target)
    p_factors = prime_factors(p - 1)
    M = target // (p - 1)
    y = ctx.q // p
    hopeless = any(ctx.pow(y, target // r) == 1 for r in factors if M % r == 0)
    for a in ctx.elements_in_canonical_order(p * hopeless):
        if a == 0:
            continue
        if p_factors:
            norm = _norm(ctx, a)
            if any(pow(norm, (p - 1) // r, p) == 1 for r in p_factors):
                continue
        if all(ctx.pow(a, target // r) != 1 for r in factors):
            return a
    raise AssertionError("F_q* is cyclic; a generator must exist")


def _norm(ctx: FieldCtx, a: int) -> int:
    """N(a) in F_p: the determinant mod p of the F_p matrix of x -> a x,
    whose u-th column holds the coefficients of a x^u."""
    p, f = ctx.p, ctx.modulus
    col = list(ctx.coeffs(a))
    cols = [col]
    for _ in range(ctx.s - 1):
        # times x: shift up, then x^s = -(f_0 + ... + f_{s-1} x^{s-1})
        top = col[-1]
        col = [(c - top * fi) % p for c, fi in zip([0] + col[:-1], f)]
        cols.append(col)
    det = 1
    for j in range(ctx.s):
        i = next((i for i in range(j, ctx.s) if cols[i][j]), None)
        if i is None:
            return 0
        if i != j:
            cols[i], cols[j] = cols[j], cols[i]
            det = -det
        piv = cols[j]
        det = det * piv[j] % p
        inv = pow(piv[j], -1, p)
        for r in range(j + 1, ctx.s):
            c = cols[r][j] * inv % p
            if c:
                cols[r] = [(x - c * y) % p for x, y in zip(cols[r], piv)]
    return det % p


# ---------------------------------------------------------------------------
# Dense matrices: row-major tuples of element codes.
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(ctx: FieldCtx, n: int, A, B) -> tuple[int, ...]:
    mul = ctx.mul
    add = ctx.add
    out = []
    for i in range(n):
        arow = A[i * n:(i + 1) * n]
        for j in range(n):
            acc = 0
            for t in range(n):
                a = arow[t]
                b = B[t * n + j]
                if a and b:
                    acc = add(acc, mul(a, b))
            out.append(acc)
    return tuple(out)


class FqEchelon:
    """Incremental row echelon over a prime field F_p: tracks span dimension
    as rows arrive.  Pivots lie in the first width coordinates; any further
    ones ride along."""

    __slots__ = ("p", "width", "pivots")

    def __init__(self, ctx: FieldCtx, width: int):
        assert ctx.s == 1, "FqEchelon works over a prime field"
        self.p = ctx.p
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vec) -> list[int]:
        """The remainder of vec after elimination by every basis row."""
        p = self.p
        v = list(vec)
        for j in range(self.width):
            a = v[j]
            if a:
                row = self.pivots.get(j)
                if row is not None:
                    v = [(x - a * y) % p for x, y in zip(v, row)]
        return v

    def insert(self, vec) -> bool:
        """Reduce vec against the basis; insert the remainder. True if new."""
        p = self.p
        v = self.reduce(vec)
        for j in range(self.width):
            a = v[j]
            if a:
                inv_a = pow(a, p - 2, p)
                self.pivots[j] = [inv_a * x % p for x in v]
                return True
        return False


# ---------------------------------------------------------------------------
# Group orders
# ---------------------------------------------------------------------------

def alpha(m: int, n: int, q: int) -> int:
    """Number of m-tuples spanning F_q^n: prod_{i<n} (q^m - q^i); 1 if n=0."""
    if m < 0 or n < 0:
        raise BadParams("m, n must be >= 0")
    out = 1
    qm = q ** m
    for i in range(n):
        out *= qm - q ** i
        if out == 0:
            return 0
    return out


def group_orders(n: int, q: int) -> tuple[int, int]:
    """(|GL_n(F_q)|, |PGL_n(F_q)|) = (alpha(n, n, q), gl / (q - 1))."""
    if n < 1:
        raise BadParams(f"n must be >= 1, got {n}")
    prime_power_split(q)
    gl = alpha(n, n, q)
    assert gl % (q - 1) == 0
    return gl, gl // (q - 1)

