"""Test oracle: automorphism orbits of generating tuples by canonical keys.

genff counts generating tuples of a power algebra by the falling factorial
of the one-block count, which assumes that the automorphisms act freely
(genff.brute_count), and genz.construct_M2Z16 finds the least pair of each
orbit by the closure in M_2(F_2)^2.  This is the orbit engine they
replaced, which needs no group and assumes no free action: it keys every
tuple by a closure that builds a basis of words, and lists each orbit's
first member and size.
"""

import itertools

from algen.ffalg import FieldCtx, FqEchelon
from algen.genff import (
    AlgebraShape,
    _closure,
    _element_coords,
    _over_prime_field,
    _scalar_coords,
    left_mul_ops,
    shape_over_field,
)


def generating_orbits(k: int, n: int, ctx: FieldCtx, s: int = 1) -> dict:
    """The automorphism orbits of the generating k-tuples of M_n(F_{q^s})
    as an F_q-algebra, ctx = F_q: {_orbit_key: [first member, size]}.

    Every k-tuple of matrices is keyed once, in row-major lexicographic
    order of its entry codes, so each first member (a tuple of k matrices,
    each a row-major tuple of codes) is the least tuple of its orbit, and
    the orbits come in the order of their first members.  Counts never
    key tuples (brute_count); construct_M2Z16 finds the first members of
    M_2(F_2) without keys, and the tests compare the two.
    """
    shape = shape_over_field(ctx, [(n, s, 1)])
    mats = list(itertools.product(range(ctx.q ** s), repeat=n * n))
    # each matrix recoded over F_p, x 1 last when q > p, and its operator
    # built once; the key's closure decides
    prime, vecs = _over_prime_field(
        shape, [_element_coords(shape, (a,)) for a in mats])
    ops = [left_mul_ops(prime, v) for v in vecs]
    scalars = ops[len(mats):]
    orbits: dict = {}
    for tup in itertools.product(range(len(mats)), repeat=k):
        key = _orbit_key(prime, [ops[i] for i in tup] + scalars)
        orbit = orbits.get(key)
        if orbit:
            orbit[1] += 1
        elif key is not None:
            orbits[key] = [tuple(mats[i] for i in tup), 1]
    return orbits


def _orbit_key(shape: AlgebraShape, gens) -> tuple | None:
    """A key of a generating tuple of a one-block F_q shape, equal for two
    tuples iff an automorphism of the block as an F_q-algebra maps one to
    the other; None when the tuple does not generate.

    The tuple comes recoded over F_p (_over_prime_field, which adds x 1 as
    a generator when q > p): shape is the recoded shape and gens the
    left_mul_ops rows of the generators.  _closure takes the words
    breadth-first from 1, in generator order, until each basis word has
    met every generator: a word is kept as basis word b_j if it is
    independent of those kept before.  The key lists, in that order, an
    entry for each kept word and the coordinates of every other one in
    the basis, carried by the echelon rows as tags.

    An F_q-automorphism, a conjugation composed with a Frobenius power over
    F_q, maps each word to the same word of the image tuple and so fixes
    the key.  Conversely, if tuples T and T' have equal keys, the F_p-linear
    map L: b_j(T) -> b_j(T') sends 1 to 1 and L(g b) = g' L(b) for every
    generator g, x 1 included, so it maps every word to the same word: L is
    an algebra automorphism that commutes with x 1, so F_q-linear.  No
    Galois image needs to be tried.
    """
    D = shape.rank
    key = []
    ech = FqEchelon(shape.ctx, D)

    def add(w):
        r = ech.reduce(w + [0] * D)
        if not any(r[:D]):
            key.append(tuple(r[D:]))
            return False
        key.append(ech.dim)
        r[D + ech.dim] = 1
        return ech.insert(r)

    _closure(add, lambda: 0, shape.ctx.p, _scalar_coords(shape), gens)
    return tuple(key) if ech.dim == D else None
