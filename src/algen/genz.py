"""Generation certification over Z.

A tuple generates M_{n_1}(Z)^{m_1} x ... as a Z-algebra iff the lattice
spanned by all monomials in its entries (including 1) is the full integer
lattice.  The closure is computed by Noetherian-chain iteration in the
loop genff._closure, which the F_p closure shares: adjoin left products
by the generators and re-reduce until the lattice stops growing.  The
final echelon certifies the outcome: at full rank the product of its
pivots is the index of the lattice, 1 exactly when the tuple generates,
and the prime factors of the index are the residue characteristics
where generation fails.  closure_lattice also gives the lattice itself,
as its Hermite normal form.

A pair in M_2(Z) or M_3(Z) needs no closure for the bare verdict: it
generates iff the rows and the columns of its commutators
A^k B^l - B^l A^k span Z^n (commutator_lattice_test).  For n = 3 the
commutators are built one at a time as the span needs them, and the span
of Z^3 is a Hermite reduction on six scalars (_spans_Z3), not _ZEchelon.
generates_Z_bool (Monte Carlo) and the census use that rule there;
generates_Z, closure_lattice and checkgen keep the closure, which gives
the index.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import sub

from . import ffalg, genff
from .errors import BadParams, CertificationFailed, ShapeMismatch, UnsupportedSize
from .ffalg import prime_factors as factor_index
from .genff import AlgebraShape, shape_over_Z
from .parutil import sharded_sum


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with a x + b y = g = gcd(a, b) >= 0; (+-1, 0, |a|) when
    b = 0.  For b != 0, x is the inverse of a/g modulo |b/g|, so
    0 <= x < |b/g|."""
    if not b:
        return (-1, 0, -a) if a < 0 else (1, 0, a)
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b // g))
    return x, (g - a * x) // b, g


# ---------------------------------------------------------------------------
# Integer row lattices
# ---------------------------------------------------------------------------

class _ZEchelon:
    """Row echelon over Z with positive pivots, one row per pivot column."""

    __slots__ = ("D", "rows")

    def __init__(self, D: int):
        self.D = D
        self.rows: dict[int, list[int]] = {}

    def index_if_full(self) -> int:
        """Product of pivots when full rank, else 0."""
        if len(self.rows) < self.D:
            return 0
        return math.prod(row[j] for j, row in self.rows.items())

    def add(self, vec) -> bool:
        """Add a vector to the lattice; True iff the lattice grew."""
        D = self.D
        rows = self.rows
        v = list(vec)
        changed = False
        for j in range(D):
            a = v[j]
            if not a:
                continue
            row = rows.get(j)
            if row is None:
                if a < 0:
                    v = [-x for x in v]
                rows[j] = v
                return True
            b = row[j]
            q, r = divmod(a, b)
            if r == 0:
                if q:
                    for t in range(j, D):
                        v[t] -= q * row[t]
            else:
                x, y, g = _xgcd(b, a)
                bg = b // g
                ag = a // g
                newrow = [0] * j
                newv = [0] * j
                for t in range(j, D):
                    rt, vt = row[t], v[t]
                    newrow.append(x * rt + y * vt)
                    newv.append(bg * vt - ag * rt)
                rows[j] = newrow
                v = newv
                changed = True
        return changed

    def canonical_basis(self) -> tuple[tuple[int, ...], ...]:
        """Hermite normal form: entries above each pivot reduced into [0, pivot)."""
        cols = sorted(self.rows)
        basis = [list(self.rows[c]) for c in cols]
        for ri, c in enumerate(cols):
            prow = basis[ri]
            piv = prow[c]
            for r2 in range(ri):
                q = basis[r2][c] // piv
                if q:
                    basis[r2] = [x - q * y for x, y in zip(basis[r2], prow)]
        return tuple(tuple(r) for r in basis)


class Lattice(namedtuple("Lattice", "D basis")):
    """Canonical HNF basis of a submodule of Z^D: D an int, basis a tuple
    of int tuples."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        """Product of pivots when full rank; 0 when rank-deficient."""
        return math.prod(self.pivots()) if self.rank == self.D else 0

    def pivots(self) -> tuple[int, ...]:
        out = []
        for row in self.basis:
            for v in row:
                if v:
                    out.append(v)
                    break
        return tuple(out)


def hnf(rows, D: int | None = None) -> Lattice:
    """Canonical Hermite normal form of the row span.

    The ambient rank is taken from the rows; pass D explicitly when the
    row list may be empty.
    """
    rows = [list(r) for r in rows]
    if not rows and D is None:
        raise BadParams("no rows; pass D to fix the ambient rank")
    if D is None:
        D = len(rows[0])
    ech = _ZEchelon(D)
    for r in rows:
        if len(r) != D:
            raise BadParams("rows of unequal length")
        ech.add(r)
    return Lattice(D, ech.canonical_basis())


# ---------------------------------------------------------------------------
# Monomial closure over Z
# ---------------------------------------------------------------------------

def _closure_echelon(shape: AlgebraShape, t) -> _ZEchelon:
    if shape.ctx is not None:
        raise ShapeMismatch("expected a Z-side shape")
    ops = [genff.left_mul_ops(shape, genff._element_coords(shape, g))
           for g in genff._check_tuple(shape, t)]
    ech = _ZEchelon(shape.rank)
    genff._closure(ech.add, ech.index_if_full, 0, genff._scalar_coords(shape),
                   ops)
    return ech


def generates_Z_bool(shape: AlgebraShape, t) -> bool:
    """The verdict of generates_Z without the HNF or the factoring.

    A pair in M_2(Z) or M_3(Z) (one block (n, 1, 1), n in {2, 3}) is
    decided by its commutator lattices (commutator_lattice_test), with no
    closure.  Every other shape and tuple length takes the closure, as
    generates_Z does: it has full rank and its pivots multiply to 1.
    """
    if shape.ctx is None and shape.blocks in (((2, 1, 1),), ((3, 1, 1),)):
        t = genff._check_tuple(shape, t)
        if len(t) == 2:
            (A,), (B,) = t
            return commutator_lattice_test(A, B)
    return _closure_echelon(shape, t).index_if_full() == 1


def closure_lattice(shape: AlgebraShape, t) -> Lattice:
    """HNF basis of the Z-span of all monomials in t (including 1)."""
    ech = _closure_echelon(shape, t)
    return Lattice(shape.rank, ech.canonical_basis())


# index 0 means rank-deficient; bad_primes, sorted, are where generation fails
ZGenReport = namedtuple("ZGenReport", "generates index bad_primes")


def generates_Z(shape: AlgebraShape, t) -> ZGenReport:
    """Certify generation over Z: full rank and index 1 in the closure,
    the index being the product of the closure echelon's pivots."""
    index = _closure_echelon(shape, t).index_if_full()
    if index == 1:
        return ZGenReport(True, 1, ())
    return ZGenReport(False, index, factor_index(index) if index else ())


# ---------------------------------------------------------------------------
# Pairs in M_2(Z) and M_3(Z): commutator lattices
# ---------------------------------------------------------------------------

def _mat2_mul(A, B):
    return (A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
            A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3])


def _mat3_mul(A, B):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = B
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
            a0 * b2 + a1 * b5 + a2 * b8, a3 * b0 + a4 * b3 + a5 * b6,
            a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
            a6 * b2 + a7 * b5 + a8 * b8)


def det_commutator_test(A, B) -> bool:
    """True iff det(AB - BA) is a unit of Z, i.e. +1 or -1 (n = 2 only)."""
    if len(A) != 4 or len(B) != 4:
        raise UnsupportedSize("commutator determinant test is for 2x2 matrices")
    AB = _mat2_mul(A, B)
    BA = _mat2_mul(B, A)
    N = tuple(x - y for x, y in zip(AB, BA))
    return N[0] * N[3] - N[1] * N[2] in (1, -1)


def _spans_Z3(vecs) -> bool:
    """Do the vectors span Z^3?  Hermite reduction on scalars, with the
    Bezout step of _ZEchelon.add: the rows (p0, a01, a02), (0, p1, a12)
    and (0, 0, p2), a pivot 0 while its row is missing.  Stops at the
    first vector that makes every pivot 1."""
    p0 = a01 = a02 = p1 = a12 = p2 = 0
    for x, y, z in vecs:
        if x:
            if not p0:
                p0, a01, a02 = (x, y, z) if x > 0 else (-x, -y, -z)
                y = z = 0
            elif x % p0:
                u, v, g = _xgcd(p0, x)
                s, t = p0 // g, x // g
                p0, a01, a02, y, z = (g, u * a01 + v * y, u * a02 + v * z,
                                      s * y - t * a01, s * z - t * a02)
            else:
                q = x // p0
                y -= q * a01
                z -= q * a02
        if y:
            if not p1:
                p1, a12 = (y, z) if y > 0 else (-y, -z)
                z = 0
            elif y % p1:
                u, v, g = _xgcd(p1, y)
                p1, a12, z = g, u * a12 + v * z, p1 // g * z - y // g * a12
            else:
                z -= y // p1 * a12
        if z:
            p2 = math.gcd(p2, z)
        if p0 == p1 == p2 == 1:
            return True
    return False


def _commutators3(A, B):
    """C_11, C_12, C_21, C_22 of a pair in M_3(Z), in that order; B^2 and
    A^2 are formed when first needed, so C_11 costs two products and all
    four cost ten."""
    yield [*map(sub, _mat3_mul(A, B), _mat3_mul(B, A))]
    B2 = _mat3_mul(B, B)
    yield [*map(sub, _mat3_mul(A, B2), _mat3_mul(B2, A))]
    A2 = _mat3_mul(A, A)
    yield [*map(sub, _mat3_mul(A2, B), _mat3_mul(B, A2))]
    yield [*map(sub, _mat3_mul(A2, B2), _mat3_mul(B2, A2))]


def commutator_lattice_test(A, B) -> bool:
    """True iff the pair (A, B) generates M_n(Z), n in {2, 3}, as a ring.

    With C_kl = A^k B^l - B^l A^k for 1 <= k, l <= n - 1, the pair
    generates iff the rows of all C_kl span Z^n and so do their columns.
    Generation over Z is generation mod every prime l.  Over F_l, n
    prime, a pair that does not generate fixes a line or a hyperplane or
    commutes.  N = cap ker C_kl mod l is invariant under A and B, which
    commute on it (Shemesh), so N != 0 exactly when the pair fixes a
    line or a plane in N or commutes; a common eigenvector lies in N.
    The transposes give the hyperplanes, as C_kl(A^T, B^T) = -C_kl^T.
    Rank n mod every l is a Z-span of Z^n.  For n = 2 both conditions
    say det(AB - BA) = +-1 (det_commutator_test).  For n = 3 the rows,
    then the columns, go to _spans_Z3 commutator by commutator
    (_commutators3); each pass stops once the span is Z^3, and the
    column pass reuses the commutators the row pass built.
    """
    if len(A) == 4 and len(B) == 4:
        return det_commutator_test(A, B)
    if len(A) != 9 or len(B) != 9:
        raise UnsupportedSize(
            "commutator lattice test is for 2x2 and 3x3 matrices")
    rows, cols = itertools.tee(_commutators3(A, B))
    return (_spans_Z3(v for C in rows for v in (C[:3], C[3:6], C[6:]))
            and _spans_Z3(v for C in cols for v in (C[::3], C[1::3], C[2::3])))


# ---------------------------------------------------------------------------
# The {0,1} census and the 16-copy witness
# ---------------------------------------------------------------------------

def _code_to_zmat(n: int, code: int) -> tuple[int, ...]:
    return tuple((code >> i) & 1 for i in range(n * n))


def construct_M2Z16():
    """Two explicit generators of M_2(Z)^16.

    genff.generating_orbits gives the 16 automorphism orbits of the 96
    generating pairs of M_2(F_2), each of size |PGL_2(F_2)| = 6, in order
    of their first members, the row-major least pairs.  Those {0,1} pairs
    are lifted unchanged to integer matrices and assembled coordinatewise;
    the Z-closure certifies the result before it is returned.
    """
    orbits = genff.generating_orbits(2, 2, ffalg.make_field(2))
    if len(orbits) != 16:
        raise CertificationFailed(f"expected 16 orbits, found {len(orbits)}")
    x, y = zip(*(first for first, _size in orbits.values()))
    report = generates_Z(shape_over_Z([(2, 16)]), [x, y])
    if not report.generates:
        raise CertificationFailed(
            f"witness failed certification: index {report.index}")
    return x, y


def _census_shard(args) -> tuple[int, int]:
    n, lo, hi = args
    # a < b < hi in every representative of the shard
    mats = [_code_to_zmat(n, c) for c in range(hi)]
    gen = 0
    fail = 0
    for a, b, size in genff.f2_pair_classes(n, lo, hi):
        if not genff._f2_generates(n, (a, b)):
            continue
        gen += 2 * size
        if not commutator_lattice_test(mats[a], mats[b]):
            fail += 2 * size
    return gen, fail


def zero_one_census(n: int, threads: int = 1) -> tuple[int, int]:
    """Over all ordered pairs of {0,1} n x n integer matrices: how many
    generate M_n(F_2) after reduction mod 2, and how many of those fail
    to generate M_n(Z).

    Generation depends only on the pair as a set and no single matrix
    generates, so every unordered pair counts twice.  Conjugation by a
    permutation matrix and transposition of both matrices preserve the
    {0,1} set and generation over F_2 and over Z, so only one pair per
    orbit of this group of order 2 * n! is decided, weighted by the
    orbit's size.  A representative that generates mod 2 is decided over
    Z by commutator_lattice_test, with no closure.  Shards split the
    larger code b of the representative, which keeps them balanced;
    representatives crowd at small a.
    """
    if n not in (2, 3):
        raise UnsupportedSize("census covers n in {2, 3}")
    return sharded_sum(_census_shard, (n,), 1 << (n * n), threads)
