"""Test oracle: brute-force conjugacy of matrix tuples over a finite field.

genff decides automorphism orbits by a canonical orbit key; this sweep
over GL_n, which compares g a with b g and needs no inverses, checks it.
"""

import itertools
from functools import lru_cache

from algen import ffalg
from algen.errors import BadParams


def galois_order(ctx, base_q: int) -> int:
    """Order of Gal(F_{ctx.q} / F_{base_q})."""
    s = 0
    v = 1
    while v < ctx.q:
        v *= base_q
        s += 1
    if v != ctx.q:
        raise BadParams(f"{base_q} is not a subfield size of {ctx.q}")
    return s


def is_invertible(ctx, n: int, g) -> bool:
    """True iff the rows of the n x n matrix g are independent over ctx."""
    ech = ffalg.FqEchelon(ctx, n)
    for i in range(n):
        ech.insert(g[i * n:(i + 1) * n])
    return ech.dim == n


@lru_cache(maxsize=8)
def gl_elements(ctx, n: int) -> tuple[tuple[int, ...], ...]:
    """All invertible n x n matrices over ctx, in code order."""
    return tuple(g for g in itertools.product(range(ctx.q), repeat=n * n)
                 if is_invertible(ctx, n, g))


def inverse(ctx, n: int, g) -> tuple[int, ...]:
    """g^(|GL_n(q)| - 1), the inverse of an invertible g by Lagrange."""
    e = ffalg.group_orders(n, ctx.q)[0] - 1
    out, sq = ffalg.mat_identity(n), tuple(g)
    while e:
        if e & 1:
            out = ffalg.mat_mul(ctx, n, out, sq)
        sq = ffalg.mat_mul(ctx, n, sq, sq)
        e >>= 1
    return out


def frobenius(ctx, a, base_q: int) -> tuple[int, ...]:
    """Apply x -> x^base_q to every entry of the matrix a."""
    return tuple(ctx.pow(x, base_q) for x in a)


def are_conjugate_tuples(ctx, t1, t2, include_galois=False,
                         base_q=None) -> bool:
    """True iff some g in GL_n (optionally composed with a Frobenius power
    over the base field of size base_q) maps t1 coordinatewise to t2.

    base_q defaults to p, giving the full automorphism group over the
    prime field.
    """
    if len(t1) != len(t2):
        raise BadParams("tuples of different length")
    if not t1:
        return True
    sz = len(t1[0])
    n = 1
    while n * n < sz:
        n += 1
    if n * n != sz or any(len(a) != sz for a in itertools.chain(t1, t2)):
        raise BadParams("entries are not square matrices of equal size")

    if base_q is None:
        base_q = ctx.p
    twists = [tuple(t1)]
    if include_galois and ctx.s > 1:
        # Galois twists of t1: powers of the Frobenius x -> x^base_q.
        for _ in range(galois_order(ctx, base_q) - 1):
            twists.append(tuple(frobenius(ctx, a, base_q)
                                for a in twists[-1]))

    for g in gl_elements(ctx, n):
        for tw in twists:
            if all(ffalg.mat_mul(ctx, n, g, a) == ffalg.mat_mul(ctx, n, b, g)
                   for a, b in zip(tw, t2)):
                return True
    return False
