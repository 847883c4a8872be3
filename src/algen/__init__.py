"""Exact toolkit for generating tuples of matrix algebras.

Decides, counts, and measures generation of products of matrix rings:
over finite fields (closure tests, exhaustive counts, closed forms),
over Z (Hermite-normal-form certificates with index and bad primes),
and asymptotically (zeta and Euler-product densities with certified
error bounds, plus seeded Monte-Carlo experiments).
"""

__version__ = "0.1.0"

# Dependency order: no module compiles while another's import is half
# done, which keeps the memory peak of a fresh interpreter lower.
from . import ffalg, genff, genz, polys, density, sampler  # noqa: F401
