"""Test oracle: the list closure over an FqEchelon, whatever the prime.

genff decides F_2 shapes with bit-packed closures and keeps the list loop
genff._closure for odd p and Z.  This runs that loop over F_2 too, with
sparse left_mul_ops rows and products reduced mod p, as every F_q shape
was decided before the packed closure existed.  genff._closure is looked
up at call time, so a test can replace it.
"""

from algen import genff
from algen.ffalg import FqEchelon


def list_closure_generates(shape, vecs) -> bool:
    """Generation test for coordinate vectors over an F_q shape."""
    shape, vecs = genff._over_prime_field(shape, vecs)
    D = shape.rank
    ech = FqEchelon(shape.ctx, D)
    genff._closure(ech.insert, lambda: int(ech.dim == D), shape.ctx.p,
                   genff._scalar_coords(shape),
                   [genff.left_mul_ops(shape, v) for v in vecs])
    return ech.dim == D
