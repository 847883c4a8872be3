"""Empirical densities: seeded box sampling and exhaustive grid counts.

The random source is SplitMix64.  Every sample index gets its own
substream seeded by mix64(seed XOR ((index + 1) * GOLDEN mod 2^64)), so
results are reproducible for a fixed seed no matter how the sample range
is sharded across workers.  Coordinates are drawn uniformly from the
2N+1 integers of [-N, N] by rejection, so there is no modulo bias.

The output function runs on many states at once: each 64-bit state sits
in its own 128-bit lane of one Python integer, and each step of the mix
is one big-integer operation over every lane.  Draw j of a substream is
the mix of its state plus j * GOLDEN, which depends on nothing drawn
before it, so a batch of samples mixes all of their substream states
and then all of their draws in two such passes, and each substream is
the one a step-by-step generator would produce.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from operator import countOf, not_

from . import genff, genz
from .errors import BadParams, TooLarge
from .ffalg import MAX_ENUM_N, make_field, prime_factors
from .genff import AlgebraShape, check_enum
from .parutil import sharded_sum
from .polys import IntPoly, poly_eval, poly_trim

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# 128-bit lanes mixed in one batch, a sample's draws never split.  With
# 2^10 the peak memory of `mc` is that of drawing one sample at a time
# (2^12 added about 250 KB), and pairs of M_3(Z) draw within 3% as fast.
_LANES = 1 << 10
_LOW64 = b"\xff" * 8 + bytes(8)


def _mix(z: int, n: int) -> list[int]:
    """SplitMix64's output function on the low 64 bits of each of the n
    128-bit lanes of z, by one big-integer operation per step.  Each lane
    is masked to its low 64 bits before a shift or multiply, so no bit
    crosses into the next lane."""
    mask = int.from_bytes(_LOW64 * n, "little")
    z &= mask
    z = (z ^ z >> 30) & mask
    z = z * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) & mask
    z = z * 0x94D049BB133111EB & mask
    z ^= z >> 31
    words = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")
    # big-endian bytes put lane 0 last and its low half after its high one
    return words[::2 if sys.byteorder == "little" else -2].tolist()


def _steps(count: int) -> bytes:
    """Lanes holding j * GOLDEN for j = 1..count."""
    return b"".join((j * _GOLDEN).to_bytes(16, "little")
                    for j in range(1, count + 1))


def _outputs(states: list[int], steps: bytes) -> list[int]:
    """For each 64-bit state s in turn, the outputs mix(s + g) for the
    lanes g of steps.  Each state's lane is copied once for every step,
    which the additions then tell apart."""
    n, c = len(states), len(steps) // 16
    src = memoryview(b"".join(s.to_bytes(16, "little")
                              for s in states)).cast("Q")[::2]
    dst = memoryview(bytearray(16 * n * c)).cast("Q")
    for j in range(c):
        dst[2 * j::2 * c] = src
    z = int.from_bytes(dst, "little") + int.from_bytes(steps * n, "little")
    return _mix(z, n * c)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def draws(self, m: int, count: int) -> list[int]:
        """count uniform draws from [0, m) by rejection, for 1 <= m <= 2^64.

        Outputs are mixed _LANES at a time, and no more are taken than
        draws are still missing, so the state ends just after the last
        accepted output.
        """
        if not 1 <= m <= 1 << 64:
            raise BadParams(f"draw range {m} outside [1, 2^64]")
        bound = (1 << 64) - ((1 << 64) % m)
        out = []
        while len(out) < count:
            need = min(count - len(out), _LANES)
            out += [v for v in _outputs([self.state], _steps(need))
                    if v < bound]
            self.state = (self.state + need * _GOLDEN) & _MASK64
        return [v % m for v in out]

class BoxModel(namedtuple("BoxModel", "N seed samples")):
    """Cube [-N, N]^D sampling plan: half-width, seed, and sample count."""

    __slots__ = ()

    def __new__(cls, N: int, seed: int, samples: int = 1):
        if N < 0 or samples < 0:
            raise BadParams("half-width and sample count must be >= 0")
        if N >= 1 << 63:
            raise BadParams("half-width must be below 2^63, so 2N+1 <= 2^64")
        return super().__new__(cls, N, seed, samples)


class DensityEstimate(namedtuple("DensityEstimate",
                                 "hits trials estimate ci95_halfwidth")):
    """estimate = Fraction(hits, trials), with a 95% interval half-width."""

    __slots__ = ()

    def __new__(cls, hits: int, trials: int, estimate: Fraction,
                ci95_halfwidth: float):
        assert 0 <= hits <= trials
        assert estimate == Fraction(hits, trials)
        return super().__new__(cls, hits, trials, estimate, ci95_halfwidth)


def sample_tuples(shape: AlgebraShape, k: int, box: BoxModel, lo: int, hi: int):
    """sample_tuple(shape, k, box, i) for i = lo, ..., hi - 1, in order.

    The substream states of a batch of indices are mixed at once, and
    then every draw of the batch at once, at most _LANES lanes in each
    mix.  A sample with an output at or past the rejection bound keeps
    its accepted outputs and draws the rest from its own substream,
    from the step after its last one, as SplitMix64.draws does.
    """
    N = box.N
    m = 2 * N + 1
    bound = (1 << 64) - ((1 << 64) % m)
    sizes = shape.slot_sizes()
    count = k * shape.rank
    per = max(1, _LANES // max(count, 1))
    first, steps = _steps(1), _steps(count)
    for start in range(lo, hi, per):
        n = min(per, hi - start)
        # the substream state: the first output of a generator one step
        # behind z = seed ^ (i + 1) GOLDEN
        firsts = _outputs([(box.seed ^ (i + 1) * _GOLDEN) - _GOLDEN & _MASK64
                           for i in range(start, start + n)], first)
        vals = _outputs(firsts, steps)
        if bound <= max(vals, default=0):
            rows = []
            for b, s in enumerate(firsts):
                row = [v for v in vals[b * count:(b + 1) * count] if v < bound]
                rows += row + SplitMix64(s + count * _GOLDEN).draws(
                    m, count - len(row))
            vals = rows
        vals = [v % m - N for v in vals]
        pos = 0
        for _ in range(n):
            out = []
            for _ in range(k):
                elem = []
                for size in sizes:
                    end = pos + size * size
                    elem.append(tuple(vals[pos:end]))
                    pos = end
                out.append(tuple(elem))
            yield tuple(out)


def sample_tuple(shape: AlgebraShape, k: int, box: BoxModel, index: int = 0):
    """Draw one k-tuple with all k * rank coordinates uniform on [-N, N].

    Coordinates are drawn element by element, slot by slot, row-major,
    from the substream of (box.seed, index).
    """
    return next(sample_tuples(shape, k, box, index, index + 1))


def _mc_shard(args) -> tuple[int]:
    shape, k, box, lo, hi = args
    shape2 = genff.shape_over_field(make_field(2), shape.blocks)
    hits = 0
    for t in sample_tuples(shape, k, box, lo, hi):
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
    Z-decision; no verdict changes.  Blocks above ffalg.MAX_ENUM_N are
    refused (TooLarge), as counts refuse them.
    """
    if k < 1:
        raise BadParams(f"tuple length k must be positive, got {k}")
    if box.samples < 1:
        raise BadParams("need at least one sample")
    n = max(shape.slot_sizes())
    if n > MAX_ENUM_N:
        raise TooLarge(f"matrix size {n} above enumeration limit")
    trials = box.samples
    hits, = sharded_sum(_mc_shard, (shape, k, box), trials, threads)
    phat = hits / trials
    ci = 1.96 * math.sqrt(phat * (1 - phat) / trials)
    return DensityEstimate(hits, trials, Fraction(hits, trials), ci)


# ---------------------------------------------------------------------------
# Exhaustive polynomial-system densities over integer boxes
# ---------------------------------------------------------------------------

def _normalize_system(polys):
    """Each {exps: coeff} map as a sorted tuple of (exps, coeff) without
    zero terms, and the variable count that every term must share."""
    nvars = None
    system = []
    for poly in polys:
        terms = sorted((tuple(map(int, exps)), int(c)) for exps, c in poly.items())
        if not terms and nvars is None:
            raise BadParams("cannot infer the variable count of an empty polynomial")
        for exps, _ in terms:
            if any(e < 0 for e in exps):
                raise BadParams("exponents must be >= 0")
            nvars = len(exps) if nvars is None else nvars
            if len(exps) != nvars:
                raise BadParams("inconsistent variable counts across terms")
        system.append(tuple(t for t in terms if t[1]))
    if not system:
        raise BadParams("need at least one polynomial")
    if nvars == 0:
        raise BadParams("need at least one variable")
    return system, nvars


# Rows whose row constant is below this bound are counted through its
# primes: factoring it by trial division then takes at most 512 steps.
_PRIME_ROUTE_BOUND = 1 << 20


def _eval_int(terms, point) -> int:
    """Value at a point given by its first len(point) coordinates; the
    terms must not involve the others."""
    v = 0
    for exps, c in terms:
        for x, e in zip(point, exps):
            c *= x ** e
        v += c
    return v


def _in_last(terms, fixed) -> IntPoly:
    """The polynomial in the last variable, low degree first, that terms
    become with every other variable fixed."""
    cs = [0] * (1 + max(e[-1] for e, _ in terms))
    for exps, c in terms:
        cs[exps[-1]] += _eval_int(((exps, c),), fixed)
    return poly_trim(cs)


def _values(f: IntPoly, y0: int, count: int):
    """f(y0), ..., f(y0 + count - 1), for f of degree D >= 1: D nested
    running sums of its constant D-th difference, or, when the differences
    would not repay their D + 1 starting values, each as a sum of the
    nonzero terms of f, one power each.  That is so when count <= D, and
    on a sparse row, whose t nonzero terms cost t powers of about
    bits(D) products each per point against D sums."""
    D = len(f) - 1
    if count <= D or (len(f) - f.count(0)) * D.bit_length() < D:
        terms = [(e, c) for e, c in enumerate(f) if c]
        return (sum(c * y ** e for e, c in terms)
                for y in range(y0, y0 + count))
    diffs = [poly_eval(f, y0 + i) for i in range(D + 1)]
    for k in range(1, D + 1):
        for i in range(D, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    it = itertools.repeat(diffs[D])
    for d in reversed(diffs[:D]):
        it = itertools.accumulate(it, initial=d)
    return itertools.islice(it, count)


def _roots_mod(f: IntPoly, p: int, N: int) -> set[int]:
    """The offsets i < min(p, 2N+1) where p divides f(i - N)."""
    n = min(p, 2 * N + 1)
    if len(f) == 2 and f[1] % p:
        return set(range((N - f[0] * pow(f[1], -1, p)) % p, n, p))
    zero = map(not_, map(p.__rmod__, _values(f, -N, n)))
    return set(itertools.compress(range(n), zero))


def _row_count(c: int, rest, N: int, roots: dict[int, set[int]]) -> int:
    """Points y of [-N, N] where c and the values f(y) of the polynomials
    rest have gcd 1.  roots[p] caches the offsets i < min(p, 2N+1) at
    which p divides every value; the caller keeps it only while rest
    stays the same.  Once p does not divide every coefficient, some f is
    nonzero mod p and leaves at most deg f offsets there."""
    L = 2 * N + 1
    c = math.gcd(c, *(f[0] for f in rest if len(f) == 1))
    rest = [f for f in rest if len(f) > 1]
    if c == 1:
        return L
    if not rest:
        return 0
    if c == 0 and len(rest) == 1:
        # |f(y)| >= |c_D| |y| - S for |y| >= 1, S the sum of the other
        # |c_i|, so f(y) = +-1 only for |y| <= (S + 1) / |c_D|
        f = rest[0]
        w = min(N, (sum(map(abs, f[:-1])) + 1) // abs(f[-1]))
        return countOf(map(abs, _values(f, -w, 2 * w + 1)), 1)
    if 0 < c < _PRIME_ROUTE_BOUND:
        primes = prime_factors(c)
        for p in primes:
            if all(a % p == 0 for f in rest for a in f):
                return 0
            if p not in roots:
                roots[p] = set.intersection(*(_roots_mod(f, p, N)
                                              for f in rest))
            if len(roots[p]) == min(p, L):
                return 0
        # inclusion-exclusion over the squarefree d | c: d divides every
        # value at the offsets whose residue mod d lies in CRT of the
        # roots; more residues than points go to the gcd at every point
        if math.prod(len(roots[p]) + 1 for p in primes) <= L:
            terms = [(1, 1, [0])]
            for p in (p for p in primes if roots[p]):
                for d, mu, rs in list(terms):
                    e = d * pow(d, -1, p)  # 0 mod d, 1 mod p
                    terms.append((d * p, -mu, [(r + (s - r) * e) % (d * p)
                                               for r in rs for s in roots[p]]))
            return sum(mu * ((L - 1 - r) // d + 1)
                       for d, mu, rs in terms for r in rs)
    return countOf(map(math.gcd, itertools.repeat(c),
                       *(_values(f, -N, L) for f in rest)), 1)


def exhaustive_poly_density(polys, N: int) -> Fraction:
    """Exact fraction of points x in [-N, N]^n where the values
    f_1(x), ..., f_s(x) generate the unit ideal of Z, i.e. their gcd is 1.

    The result is a rational with denominator (2N+1)^n exactly.

    On a row (every variable but the last fixed) the polynomials free of
    the last variable take integer values; their gcd c is the row
    constant.  A row with c = 1 counts whole.  For 0 < c < 2^20 the good
    points of the row are counted by inclusion-exclusion over the
    squarefree divisors d of c, through the roots mod each prime p | c of
    the other polynomials and CRT.  With c = 0 and one other polynomial
    only a window where it can be +-1 is scanned; other rows take the gcd
    of every value.  Rows are grouped by c when the other polynomials do
    not depend on the row.  Everything is Python integers.
    """
    if N < 0:
        raise BadParams(f"half-width must be >= 0, got {N}")
    system, nvars = _normalize_system(polys)
    check_enum(2 * N + 1, nvars, "grid points")
    total = (2 * N + 1) ** nvars
    free = [t for t in system if all(e[-1] == 0 for e, _ in t)]
    rest = [t for t in system if any(e[-1] for e, _ in t)]

    def row_constant(fixed):
        return math.gcd(*(_eval_int(t, fixed) for t in free))

    rows = itertools.product(range(-N, N + 1), repeat=nvars - 1)
    if all(not any(e[:-1]) for t in rest for e, _ in t):
        # the rest, and so a row's count given c, are the same on every row
        rest = [_in_last(t, ()) for t in rest]
        roots: dict[int, set[int]] = {}
        count = sum(n * _row_count(c, rest, N, roots)
                    for c, n in Counter(map(row_constant, rows)).items())
    else:
        count = sum(_row_count(row_constant(fixed),
                               [_in_last(t, fixed) for t in rest], N, {})
                    for fixed in rows)
    return Fraction(count, total)
