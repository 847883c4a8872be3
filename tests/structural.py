"""Test oracle: the maximal-subalgebra rule on lists, over any F_q.

A tuple of M_n(F_q), n prime in {2, 3}, generates iff its entries share
no invariant line or hyperplane and do not all commute.  genff applies
the rule packed, to M_2(F_2) and M_3(F_2) only (_f2_generates); this is
the list-level reference that acceptance criterion 11 and the tests
compare with the closure.
"""

import itertools

from algen.errors import ShapeMismatch, UnsupportedSize
from algen.ffalg import FieldCtx, mat_mul


def transpose(n: int, a) -> tuple:
    """The transpose of the row-major n x n matrix a, whose column i is
    a[i::n]."""
    return tuple(x for i in range(n) for x in a[i::n])


def _lines(ctx: FieldCtx, n: int):
    """Representatives of the 1-dim subspaces of F_q^n (leading entry 1)."""
    out = []
    for lead in range(n):
        for rest in itertools.product(range(ctx.q), repeat=n - lead - 1):
            out.append((0,) * lead + (1,) + rest)
    return out


def _mat_vec(ctx: FieldCtx, n: int, A, v):
    return tuple(
        _dot(ctx, A[i * n:(i + 1) * n], v) for i in range(n))


def _dot(ctx: FieldCtx, row, v):
    acc = 0
    for a, b in zip(row, v):
        if a and b:
            acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def _is_scalar_multiple(ctx: FieldCtx, v, w) -> bool:
    """Is w a scalar multiple of the nonzero vector v?"""
    lam = None
    for a, b in zip(v, w):
        if a == 0:
            if b != 0:
                return False
        else:
            l2 = ctx.mul(b, ctx.inv(a))
            if lam is None:
                lam = l2
            elif lam != l2:
                return False
    return True


def _common_invariant_line(ctx: FieldCtx, n: int, mats) -> bool:
    for v in _lines(ctx, n):
        if all(_is_scalar_multiple(ctx, v, _mat_vec(ctx, n, A, v)) for A in mats):
            return True
    return False


def generates_structural(ctx: FieldCtx, t, n: int) -> bool:
    """Maximal-subalgebra test for tuples in M_n(F_q), n prime in {2, 3}:
    generation holds iff there is no common invariant line, no common
    invariant hyperplane (lines of the transposes), and the entries do
    not pairwise commute (ruling out the field-type maximal subalgebras).

    It is the list-level reference, for any q, of the packed test that
    _f2_generates applies to single M_2(F_2) and M_3(F_2) blocks.
    """
    if n not in (2, 3):
        raise UnsupportedSize("structural test covers n in {2, 3}")
    mats = [tuple(a) for a in t]
    for a in mats:
        if len(a) != n * n:
            raise ShapeMismatch("matrix size mismatch")
    if _common_invariant_line(ctx, n, mats):
        return False
    transposed = [transpose(n, a) for a in mats]
    if _common_invariant_line(ctx, n, transposed):
        return False
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(ctx, n, mats[i], mats[j]) != mat_mul(ctx, n, mats[j], mats[i]):
                return True
    return False  # commutative tuples span a proper subalgebra
