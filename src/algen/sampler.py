"""Empirical densities: seeded box sampling and exhaustive grid counts.

The random source is SplitMix64.  Every sample index gets its own
substream seeded by mix64(seed XOR ((index + 1) * GOLDEN mod 2^64)), so
results are reproducible for a fixed seed no matter how the sample range
is sharded across workers.  Coordinates are drawn uniformly from the
2N+1 integers of [-N, N] by rejection, so there is no modulo bias.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import genff, genz
from .errors import BadParams, TooLarge
from .ffalg import is_prime, make_field, prime_factors
from .genff import AlgebraShape, enum_cap
from .parutil import sharded_sum

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def draws(self, m: int, count: int) -> list[int]:
        """count uniform draws from [0, m) by rejection, for 1 <= m <= 2^64.

        The rejection bound is computed once for all of them, and the
        SplitMix64 step runs inline: this loop is the generator's only
        implementation.
        """
        if not 1 <= m <= 1 << 64:
            raise BadParams(f"draw range {m} outside [1, 2^64]")
        bound = (1 << 64) - ((1 << 64) % m)
        # the running sum is reduced mod 2^64 only where it is mixed
        acc = self.state
        out = []
        append = out.append
        for _ in range(count):
            while True:
                acc += _GOLDEN
                z = acc & _MASK64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < bound:
                    break
            append(z % m)
        self.state = acc & _MASK64
        return out

    def next64(self) -> int:
        return self.draws(1 << 64, 1)[0]


def substream(seed: int, index: int) -> SplitMix64:
    """The generator of sample index: its state is the SplitMix64 mix of
    seed XOR ((index + 1) * GOLDEN mod 2^64), which is the first output
    of a generator one step behind that value."""
    z = seed ^ ((index + 1) * _GOLDEN & _MASK64)
    return SplitMix64(SplitMix64(z - _GOLDEN).next64())


@dataclass(frozen=True)
class BoxModel:
    """Cube [-N, N]^D sampling plan: half-width, seed, and sample count."""

    N: int
    seed: int
    samples: int = 1

    def __post_init__(self):
        if self.N < 0 or self.samples < 0:
            raise BadParams("half-width and sample count must be >= 0")
        if self.N >= 1 << 63:
            raise BadParams("half-width must be below 2^63, so 2N+1 <= 2^64")


@dataclass(frozen=True)
class DensityEstimate:
    hits: int
    trials: int
    estimate: Fraction
    ci95_halfwidth: float

    def __post_init__(self):
        assert 0 <= self.hits <= self.trials
        assert self.estimate == Fraction(self.hits, self.trials)


def sample_tuple(shape: AlgebraShape, k: int, box: BoxModel, index: int = 0):
    """Draw one k-tuple with all k * rank coordinates uniform on [-N, N].

    Coordinates are drawn element by element, slot by slot, row-major,
    from the substream of (box.seed, index).
    """
    N = box.N
    sizes = shape.slot_sizes()
    vals = [v - N for v in
            substream(box.seed, index).draws(2 * N + 1, k * shape.rank)]
    out = []
    pos = 0
    for _ in range(k):
        elem = []
        for n in sizes:
            end = pos + n * n
            elem.append(tuple(vals[pos:end]))
            pos = end
        out.append(tuple(elem))
    return tuple(out)


def _mc_shard(args) -> tuple[int]:
    shape, k, box, lo, hi = args
    shape2 = genff.shape_over_field(make_field(2), shape.blocks)
    hits = 0
    for i in range(lo, hi):
        t = sample_tuple(shape, k, box, i)
        t2 = [[v & 1 for mat in elem for v in mat] for elem in t]
        if genff._decide(shape2, t2) and genz.generates_Z_bool(shape, t):
            hits += 1
    return (hits,)


def mc_density(shape: AlgebraShape, k: int, box: BoxModel,
               threads: int = 1) -> DensityEstimate:
    """Monte-Carlo estimate of the density of k-tuples generating over Z.

    A sample counts as a hit when genz.generates_Z_bool says it
    generates; only the verdict is needed, so no HNF is taken and no
    index is factored.  Pairs in M_2(Z) and M_3(Z) are decided by
    commutator lattices, every other shape and k by the Z-closure.  A
    tuple that generates over Z also generates its reduction mod 2, so
    samples whose reduction fails over F_2 are rejected before the
    Z-decision; no verdict changes.
    """
    if k < 1:
        raise BadParams(f"tuple length k must be positive, got {k}")
    if box.samples < 1:
        raise BadParams("need at least one sample")
    trials = box.samples
    hits, = sharded_sum(_mc_shard, (shape, k, box), trials, threads)
    phat = hits / trials
    ci = 1.96 * math.sqrt(phat * (1 - phat) / trials)
    return DensityEstimate(hits, trials, Fraction(hits, trials), ci)


# ---------------------------------------------------------------------------
# Exhaustive polynomial-system densities over integer boxes
# ---------------------------------------------------------------------------

def normalize_poly(poly, nvars: int | None = None):
    """Accept {exps: coeff} mappings or (exps, coeff) pair lists; return a
    sorted tuple of (exps, coeff) with consistent arity and no zero terms."""
    items = poly.items() if hasattr(poly, "items") else poly
    terms = []
    for exps, coeff in items:
        exps = tuple(int(e) for e in exps)
        coeff = int(coeff)
        if any(e < 0 for e in exps):
            raise BadParams("exponents must be >= 0")
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise BadParams("inconsistent variable counts across terms")
        if coeff:
            terms.append((exps, coeff))
    if nvars is None:
        raise BadParams("cannot infer the variable count of an empty polynomial")
    return tuple(sorted(terms)), nvars


def _normalize_system(polys):
    nvars = None
    system = []
    for poly in polys:
        terms, nvars = normalize_poly(poly, nvars)
        system.append(terms)
    if not system:
        raise BadParams("need at least one polynomial")
    return system, nvars


def _value_bound(terms, N: int) -> int:
    return sum(abs(c) * max(N, 1) ** sum(exps) for exps, c in terms)


def _eval_last_axis(terms, fixed, xs, p: int | None = None):
    """Evaluate at (fixed..., xs) with numpy Horner over the last variable;
    with a modulus p every step is reduced mod p."""
    import numpy as np

    by_deg: dict[int, int] = {}
    for exps, c in terms:
        scalar = c
        for v, e in zip(fixed, exps[:-1]):
            if e:
                scalar *= pow(v, e, p)
        d = exps[-1]
        by_deg[d] = by_deg.get(d, 0) + scalar
    if not by_deg:
        return np.zeros_like(xs)
    if p is not None:
        by_deg = {d: c % p for d, c in by_deg.items()}
    maxd = max(by_deg)
    acc = np.full_like(xs, by_deg[maxd])
    for d in range(maxd - 1, -1, -1):
        acc = acc * xs + by_deg.get(d, 0)
        if p is not None:
            acc %= p
    return acc


# Rows whose row constant is below this bound are counted through its
# primes: factoring it by trial division then takes at most 512 steps.
_PRIME_ROUTE_BOUND = 1 << 20
# Points of the last axis evaluated at once, so that a long row never needs
# one array of its full length.
_CHUNK = 1 << 16


def _eval_int(terms, point) -> int:
    """Value at a point given by its first len(point) coordinates; the
    terms must not involve the others."""
    v = 0
    for exps, c in terms:
        for x, e in zip(point, exps):
            c *= x ** e
        v += c
    return v


def exhaustive_poly_density(polys, N: int) -> Fraction:
    """Exact fraction of points x in [-N, N]^n where the values
    f_1(x), ..., f_s(x) generate the unit ideal of Z, i.e. their gcd is 1.

    The result is a rational with denominator (2N+1)^n exactly.

    On a row (every variable but the last fixed) the polynomials free of
    the last variable take integer values; their gcd c is the row
    constant.  A row with c = 1 counts whole.  For 0 < c < 2^20 the good
    points of the row are counted by inclusion-exclusion over the
    squarefree divisors d of c, each term the number of points where d
    divides every other value.  Other rows take the gcd of every value.
    The values of the other polynomials are int64 arrays, or object
    arrays of Python ints when one of them could reach 2^62.
    """
    if N < 0:
        raise BadParams(f"half-width must be >= 0, got {N}")
    system, nvars = _normalize_system(polys)
    cap = enum_cap()
    total = (2 * N + 1) ** nvars
    if total > cap:
        raise TooLarge(f"{total} grid points exceed enumeration cap {cap}")
    import numpy as np

    free = [t for t in system if all(e[-1] == 0 for e, _ in t)]
    rest = [t for t in system if any(e[-1] for e, _ in t)]
    dtype = (object if any(_value_bound(t, N) >= 2 ** 62 for t in rest)
             else np.int64)
    # the rest's values, and so the count for each d, are the same on
    # every row when no rest polynomial involves the fixed variables
    static = all(not any(e[:-1]) for t in rest for e, _ in t)
    count = 0
    for lo in range(-N, N + 1, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, N + 1), dtype=dtype)
        vals = None
        memo: dict[int, int] = {}
        for fixed in itertools.product(range(-N, N + 1), repeat=nvars - 1):
            c = 0
            for terms in free:
                c = math.gcd(c, _eval_int(terms, fixed))
            if c == 1:
                count += len(xs)
                continue
            if not rest:
                continue
            if vals is None or not static:
                vals = [_eval_last_axis(t, fixed, xs) for t in rest]
            if c == 0 or c >= _PRIME_ROUTE_BOUND:
                g = np.abs(vals[0])
                for v in vals[1:]:
                    g = np.gcd(g, np.abs(v))
                if c:
                    g = np.gcd(g.astype(object) if c >= 2 ** 62 else g, c)
                count += int(np.count_nonzero(g == 1))
                continue
            divisors = [(1, 1)]
            for p in prime_factors(c):
                divisors += [(d * p, -mu) for d, mu in divisors]
            count += len(xs)
            for d, mu in divisors[1:]:
                n = memo.get(d)
                if n is None:
                    hit = vals[0] % d == 0
                    for v in vals[1:]:
                        hit &= v % d == 0
                    n = int(np.count_nonzero(hit))
                    if static:
                        memo[d] = n
                count += mu * n
    return Fraction(count, total)


def local_zero_count(polys, p: int, n: int | None = None) -> int:
    """Number of common zeros of the system in F_p^n, by enumeration."""
    if not is_prime(p):
        raise BadParams(f"p = {p} is not prime")
    system, nvars = _normalize_system(polys)
    if n is not None and n != nvars:
        raise BadParams(f"system has {nvars} variables, not {n}")
    cap = enum_cap()
    if p ** nvars > cap:
        raise TooLarge(f"{p ** nvars} points exceed enumeration cap {cap}")
    import numpy as np

    count = 0
    for lo in range(0, p, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
        for fixed in itertools.product(range(p), repeat=nvars - 1):
            mask = None
            for terms in system:
                zero = _eval_last_axis(terms, fixed, xs, p) == 0
                mask = zero if mask is None else (mask & zero)
            count += int(np.count_nonzero(mask))
    return count

