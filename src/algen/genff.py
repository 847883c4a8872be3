"""Generation testing and counting over finite fields.

Generation is unital throughout: the subalgebra generated by a tuple is
the span of all monomials in its entries, including the empty monomial 1.
A closure pass therefore starts from the identity and repeatedly adjoins
left products by the generators; the span chain stabilizes after at most
D steps, where D is the free rank of the ambient algebra.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache

from . import ffalg
from .errors import BadParams, ShapeMismatch, TooLarge, UnsupportedSize
from .ffalg import FieldCtx, FqEchelon, make_field, mat_mul
from .parutil import sharded_sum

DEFAULT_ENUM_CAP = 2 ** 30


def enum_cap() -> int:
    """Enumeration cap; ALGEN_ENUM_CAP overrides the default."""
    v = os.environ.get("ALGEN_ENUM_CAP")
    if not v:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(v)
    except ValueError:
        raise BadParams(f"ALGEN_ENUM_CAP is not an integer: {v!r}") from None
    if cap < 1:
        raise BadParams(f"ALGEN_ENUM_CAP must be positive: {v!r}")
    return cap


# ---------------------------------------------------------------------------
# Shapes and tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraShape:
    """A finite product prod M_{n_i}(F_{q^{s_i}})^{m_i} (or over Z when ctx is None).

    blocks: tuple of (n_i, s_i, m_i).  Z-side shapes fix s_i = 1 and carry
    no field context.  Blocks with equal (n_i, s_i) must be merged into a
    single multiplicity; construction rejects duplicates because distinct
    isomorphic factors break the product-generation criterion.
    """

    blocks: tuple[tuple[int, int, int], ...]
    ctx: FieldCtx | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ShapeMismatch("shape needs at least one block")
        seen = set()
        for n, s, m in self.blocks:
            if n < 1 or s < 1 or m < 1:
                raise ShapeMismatch(f"bad block ({n}, {s}, {m})")
            if (n, s) in seen:
                raise ShapeMismatch(
                    f"duplicate block type ({n}, {s}); merge multiplicities")
            seen.add((n, s))
            if self.ctx is None and s != 1:
                raise ShapeMismatch("Z-side shapes require s = 1 in every block")
            if s > 1 and self.ctx is not None and self.ctx.s > 1:
                raise UnsupportedSize(
                    "extension blocks are only supported over a prime base field")

    @property
    def rank(self) -> int:
        """Free rank over the base ring: sum of m_i * s_i * n_i**2."""
        return sum(m * s * n * n for n, s, m in self.blocks)

    def slot_sizes(self) -> list[int]:
        """Matrix size for each slot of an element, blocks flattened."""
        out = []
        for n, _s, m in self.blocks:
            out.extend([n] * m)
        return out


def shape_over_field(ctx: FieldCtx, blocks) -> AlgebraShape:
    return AlgebraShape(tuple(tuple(b) for b in blocks), ctx)


def shape_over_Z(blocks) -> AlgebraShape:
    """blocks: iterable of (n_i, m_i)."""
    return AlgebraShape(tuple((n, 1, m) for n, m in blocks), None)


# ---------------------------------------------------------------------------
# The closure test: does a tuple generate the whole algebra?
#
# An element is a coordinate vector over the base ring: its matrices slot
# by slot, row-major, each entry of an extension block split into its s
# coefficients over F_p.  Left multiplication by a generator is a sparse
# linear operator on these vectors, and the generated subalgebra is the
# span of the orbit of 1 under these operators: a subspace over F_p, a
# lattice over Z.
# ---------------------------------------------------------------------------

def _check_tuple(shape: AlgebraShape, t) -> tuple:
    """t as a tuple of elements, each a tuple of integer matrices that match
    the shape's slots; ShapeMismatch otherwise.  Over F_q an entry of a
    block (n, s, m) is an element code in [0, q^s); BadParams otherwise."""
    sizes = shape.slot_sizes()
    out = []
    for elem in t:
        if len(elem) != len(sizes):
            raise ShapeMismatch("element does not match shape slots")
        mats = []
        for mat, n in zip(elem, sizes):
            mat = tuple(map(int, mat))
            if len(mat) != n * n:
                raise ShapeMismatch("matrix size does not match shape")
            mats.append(mat)
        out.append(tuple(mats))
    if shape.ctx is not None:
        qs = [shape.ctx.q ** s for _n, s, m in shape.blocks for _ in range(m)]
        for elem in out:
            for mat, q in zip(elem, qs):
                if not all(0 <= v < q for v in mat):
                    raise BadParams(f"entries over F_{q} must lie in [0, {q})")
    return tuple(out)


def _element_coords(shape: AlgebraShape, elem) -> list[int]:
    """Base-ring coordinate vector of an element (length shape.rank)."""
    coords = []
    idx = 0
    for n, s, m in shape.blocks:
        fctx = None if s == 1 else make_field(shape.ctx.p, s)
        for _ in range(m):
            mat = elem[idx]
            idx += 1
            if s == 1:
                coords.extend(mat)
            else:
                for entry in mat:
                    coords.extend(fctx.coeffs(entry))
    return coords


def _scalar_coords(shape: AlgebraShape, c: int = 1) -> list[int]:
    """Coordinates of c times the identity, c an element code of every
    slot's field (1, or x = p in extension blocks)."""
    return _element_coords(shape, [tuple(c * v for v in ffalg.mat_identity(n))
                                   for n in shape.slot_sizes()])


def left_mul_ops(shape: AlgebraShape, coords) -> list[list[tuple[int, int]]]:
    """Sparse rows of v -> g v on coordinate vectors, g the element with the
    given coordinates: one list of (source, coefficient) pairs per product
    coordinate.  In an extension block an entry a acts on the s coordinates
    of an entry as the F_p matrix of x -> a x (_mul_action).
    """
    ops = []
    off = 0
    for n, s, m in shape.blocks:
        ext = None if s == 1 else make_field(shape.ctx.p, s)
        size = n * n * s
        for _ in range(m):
            g = coords[off:off + size]
            if ext is None:
                acts = [((a,),) for a in g]
            else:
                acts = [_mul_action(ext, ext.from_coeffs(g[i:i + s]))
                        for i in range(0, size, s)]
            # (g v)[r, c] = sum_i g[r, i] v[i, c]
            rows = [[] for _ in range(size)]
            for r in range(n):
                for i in range(n):
                    for v, act in enumerate(acts[r * n + i]):
                        for u, a in enumerate(act):
                            if a:
                                for c in range(n):
                                    rows[(r * n + c) * s + v].append(
                                        (off + (i * n + c) * s + u, a))
            ops.extend(rows)
            off += size
    return ops


@lru_cache(maxsize=4096)
def _mul_action(ext: FieldCtx, a: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the F_p matrix of x -> a x on coefficient vectors."""
    cols = [ext.coeffs(ext.mul(a, ext.p ** u)) for u in range(ext.s)]
    return tuple(tuple(col[v] for col in cols) for v in range(ext.s))


def _closure(add, index, modulus: int, seed, ops) -> None:
    """Grow a span from seed by the operators until it is closed or all.

    add(v) puts v in the span and says whether the span grew; index() is 0
    below full rank and the index of the span at full rank, 1 meaning all
    of it.  Products are reduced mod the modulus unless it is 0.  Over F_p
    it is p throughout; over Z it is 0 until full rank and then the index
    d of the lattice, which contains d Z^D.

    Words are taken breadth-first, shortest first.  The span does not
    depend on the order, but over Z the coefficients of a word grow with
    its length, and long words multiplied first make long echelon rows.
    """
    add(seed)
    full = index()
    if full == 1:
        return
    modulus = full or modulus
    work = deque([seed])
    while work:
        v = work.popleft()
        for op in ops:
            w = []
            for row in op:
                acc = 0
                for t, c in row:
                    acc += c * v[t]
                w.append(acc)
            if modulus:
                w = [x % modulus for x in w]
            if add(w):
                full = index()
                if full == 1:
                    return
                modulus = full or modulus
                work.append(w)


def generates(shape: AlgebraShape, t) -> bool:
    """True iff the unital subalgebra generated by the tuple t is everything.

    t is a sequence of elements; each element is a sequence of matrices
    matching the shape's slots.
    """
    if shape.ctx is None:
        raise ShapeMismatch("use genz.generates_Z for Z-side shapes")
    return _decide(shape, [_element_coords(shape, elem)
                           for elem in _check_tuple(shape, t)])


def _decide(shape: AlgebraShape, vecs) -> bool:
    """Generation test for coordinate vectors over an F_q shape.

    A single M_2(F_2) or M_3(F_2) block goes to the invariant-line test
    of _f2_generates; every other shape is decided by a closure over its
    prime field.
    """
    if shape.ctx.q == 2 and shape.blocks in (((2, 1, 1),), ((3, 1, 1),)):
        return _f2_generates(shape.blocks[0][0], [_f2_encode(v) for v in vecs])
    return _generates_generic(*_over_prime_field(shape, vecs))


def _over_prime_field(shape: AlgebraShape, vecs):
    """The shape and coordinate vectors recoded over the prime field.

    A base field F_q = F_p[x] with q = p^e, e > 1, is recoded over F_p:
    the F_q-span of the monomials in t is the F_p-span of the monomials in
    t and the central x 1, and each block (n, 1, m) becomes (n, e, m).
    Over a prime field both are returned as they are.
    """
    ctx = shape.ctx
    if ctx.s == 1:
        return shape, vecs
    blocks = [(n, ctx.s, m) for n, _s, m in shape.blocks]
    shape = shape_over_field(make_field(ctx.p), blocks)
    vecs = [[c for a in v for c in ctx.coeffs(a)] for v in vecs]
    vecs.append(_scalar_coords(shape, ctx.p))
    return shape, vecs


def _generates_generic(shape: AlgebraShape, vecs) -> bool:
    """Closure over a prime field of the elements with coordinates vecs:
    bit-packed over F_2, the list loop _closure over an FqEchelon for odd
    p."""
    ctx = shape.ctx
    D = shape.rank
    if ctx.p == 2:
        return _f2_span_generates(D, _f2_one(shape),
                                  [_f2_masks(shape, tuple(v)) for v in vecs])
    ech = FqEchelon(ctx, D)
    _closure(ech.insert, lambda: int(ech.dim == D), ctx.p,
             _scalar_coords(shape), [left_mul_ops(shape, v) for v in vecs])
    return ech.dim == D


# -- bit-packed tests over F_2 ----------------------------------------------
#
# A coordinate vector over F_2 is one int, coordinate i at bit i.  Single
# M_n(F_2) blocks with n in {2, 3} are decided by invariant-line masks
# (_f2_generates) without a closure.  Every other shape over F_2 goes to
# the one closure, _f2_span_generates: it applies each generator as D row
# masks, bit j of g v being the parity of masks[j] & v, and keeps the
# span as an XOR echelon keyed by the leading bit.

def _f2_encode(mat) -> int:
    code = 0
    for i, v in enumerate(mat):
        if v:
            code |= 1 << i
    return code


@lru_cache(maxsize=4)
def _f2_tables(n: int):
    """Row decompositions and XOR-combination maps for all n x n codes.

    rows[c][i] is row i of the matrix with code c, as an n-bit int.
    xmaps[c][m] is the XOR of the rows of c selected by the bitmask m,
    so row_i(a*b) = xmaps[b][rows[a][i]].
    """
    q = 1 << (n * n)
    mask = (1 << n) - 1
    rows = [tuple((c >> (i * n)) & mask for i in range(n)) for c in range(q)]
    xmaps = []
    for c in range(q):
        r = rows[c]
        xm = [0] * (mask + 1)
        for m in range(1, mask + 1):
            low = m & -m
            xm[m] = xm[m ^ low] ^ r[low.bit_length() - 1]
        xmaps.append(tuple(xm))
    return rows, xmaps


@lru_cache(maxsize=2)
def _f2_invariant_masks(n: int):
    """Invariant-line masks of all n x n codes over F_2.

    lines[c] has bit v set for each nonzero v in F_2^n (an n-bit int)
    with c v in {0, v}: the line through v is invariant.  hyperplanes[c]
    is the same mask for the transpose of c; its invariant lines are the
    normals of the hyperplanes that c maps into themselves.
    """
    rows, _xmaps = _f2_tables(n)
    nn = n * n
    lines = []
    for r in rows:
        mask = 0
        for v in range(1, 1 << n):
            w = 0
            for i in range(n):
                w |= ((r[i] & v).bit_count() & 1) << i
            if w == 0 or w == v:
                mask |= 1 << v
        lines.append(mask)
    transpose = [sum(1 << (i % n * n + i // n) for i in range(nn) if c >> i & 1)
                 for c in range(1 << nn)]
    return tuple(lines), tuple(lines[t] for t in transpose)


def _f2_generates(n: int, codes) -> bool:
    """Generation test for a tuple of M_n(F_2) codes, n in {2, 3}.

    The maximal subalgebras of M_n(F_2) are the stabilisers of a line or
    a hyperplane and the copies of the field F_{2^n}, which are
    commutative, so the tuple generates iff no line and no hyperplane is
    invariant under every entry and two entries do not commute
    (generates_structural on lists).
    """
    rows, xmaps = _f2_tables(n)
    lines, hyperplanes = _f2_invariant_masks(n)
    common_line = common_hyperplane = -1
    for c in codes:
        common_line &= lines[c]
        common_hyperplane &= hyperplanes[c]
    if common_line or common_hyperplane:
        return False
    # row i of a b is xmaps[b][rows[a][i]]
    for j, b in enumerate(codes):
        rb, xb = rows[b], xmaps[b]
        for a in codes[:j]:
            ra, xa = rows[a], xmaps[a]
            for i in range(n):
                if xb[ra[i]] != xa[rb[i]]:
                    return True
    return False


@lru_cache(maxsize=4096)
def _f2_masks(shape: AlgebraShape, coords: tuple) -> tuple[int, ...]:
    """v -> g v over F_2 as D row masks, g the element with the given
    coordinates: mask j has bit t set for each source t of row j of
    left_mul_ops with an odd coefficient, so bit j of g v is the parity
    of masks[j] & v."""
    return tuple(sum((c & 1) << t for t, c in row)
                 for row in left_mul_ops(shape, coords))


@lru_cache(maxsize=64)
def _f2_one(shape: AlgebraShape) -> int:
    """The identity of an F_2 shape as a packed vector."""
    return _f2_encode(_scalar_coords(shape))


def _f2_span_generates(D: int, seed: int, gens) -> bool:
    """Closure over F_2 of seed under the operators gens (row masks as
    from _f2_masks) on D-bit vectors: True iff the span reaches rank D.
    Words are taken breadth-first; the span is an XOR echelon keyed by
    the leading bit."""
    if D == 1:
        return True
    piv = [0] * D
    piv[seed.bit_length() - 1] = seed
    rank = 1
    bits = [1 << j for j in range(D)]
    work = deque([seed])
    while work:
        v = work.popleft()
        for masks in gens:
            w = 0
            for mk, bit in zip(masks, bits):
                if (mk & v).bit_count() & 1:
                    w |= bit
            x = w
            while x:
                b = x.bit_length() - 1
                r = piv[b]
                if not r:
                    piv[b] = x
                    rank += 1
                    if rank == D:
                        return True
                    work.append(w)
                    break
                x ^= r
    return False


@lru_cache(maxsize=4)
def f2_generating_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered pairs a < b of M_n(F_2) codes that generate the algebra.

    The generated subalgebra depends only on the set of entries, so the
    ordered count is twice the length (no single matrix generates M_n
    for n >= 2).
    """
    if n < 2 or n > 3:
        raise UnsupportedSize("pair table kept for n in {2, 3} only")
    q = 1 << (n * n)
    return tuple((a, b) for a in range(q) for b in range(a + 1, q)
                 if _f2_generates(n, (a, b)))


@lru_cache(maxsize=4)
def _f2_symmetries(n: int) -> tuple[tuple[int, ...], ...]:
    """Code permutation tables of the 2 * n! symmetries of the {0,1}
    matrices that preserve generation over any ring: conjugation by a
    permutation matrix (an automorphism), alone or followed by
    transposition (an anti-automorphism).
    """
    nn = n * n
    tables = []
    for perm in itertools.permutations(range(n)):
        for transpose in (False, True):
            dest = []
            for i in range(nn):
                r, c = perm[i // n], perm[i % n]
                dest.append(c * n + r if transpose else r * n + c)
            tables.append(tuple(
                sum(1 << dest[i] for i in range(nn) if code >> i & 1)
                for code in range(1 << nn)))
    return tuple(tables)


def f2_pair_classes(n: int, lo: int, hi: int):
    """Yield (a, b, size) for the orbits of unordered pairs a < b of
    M_n(F_2) codes under _f2_symmetries, one per orbit, with lo <= b < hi.

    (a, b) is the lexicographically least sorted image of the orbit and
    size the number of its distinct images: the group order divided by
    the number of tables that fix the pair.  The least image starts with
    a code that is least in its own orbit, so only such codes are tried
    as a.
    """
    tables = _f2_symmetries(n)
    least = [c for c in range(1 << (n * n)) if all(t[c] >= c for t in tables)]
    for b in range(lo, hi):
        for a in least:
            if a >= b:
                break
            stab = 0
            for t in tables:
                x, y = t[a], t[b]
                if x > y:
                    x, y = y, x
                if x < a or (x == a and y < b):
                    break
                stab += x == a and y == b
            else:
                yield a, b, len(tables) // stab


# ---------------------------------------------------------------------------
# Exhaustive counting
# ---------------------------------------------------------------------------

def brute_count(k: int, n: int, q: int, s: int = 1, m: int = 1,
                threads: int = 1) -> int:
    """Exact count of generating k-tuples of (M_n(F_{q^s}))^m over F_q,
    by exhaustive enumeration.
    """
    if k < 1 or n < 1 or m < 1 or s < 1:
        raise BadParams("k, n, s, m must be positive")
    if n > ffalg.MAX_ENUM_N:
        raise TooLarge(f"matrix size {n} above enumeration limit")
    cap = enum_cap()
    p, e = ffalg.prime_power_split(q)
    # a power count (m > 1) runs over the same coordinate k-tuples
    states = q ** (s * n * n * k)
    if states > cap:
        raise TooLarge(f"{states} states exceed enumeration cap {cap}")
    ctx = make_field(p, e)
    if m == 1:
        return _brute_single(k, n, ctx, s, threads)
    return _brute_power(k, n, ctx, s, m)


def _brute_single(k: int, n: int, ctx: FieldCtx, s: int, threads: int) -> int:
    total = _subspace_total(k, s * n * n - 1, ctx.q)
    return sharded_sum(_subspace_shard, (k, n, ctx.p, ctx.s, s), total,
                       threads)[0]


def _pivot_blocks(k: int, d: int):
    """RREF pivot sets of the subspaces of F_q^d of dimension at most k, in
    sweep order, each with the (row, column) places of its free entries.
    A pivot set with f free entries holds q^f subspaces.
    """
    for j in range(min(k, d) + 1):
        for piv in itertools.combinations(range(d), j):
            yield piv, [(r, c) for r in range(j)
                        for c in range(piv[r] + 1, d) if c not in piv]


def _subspace_total(k: int, d: int, q: int) -> int:
    return sum(q ** len(free) for _, free in _pivot_blocks(k, d))


def _subspace_shard(args) -> tuple[int]:
    """Weighted count of the generating subspaces W with flat rank in
    [lo, hi).

    The subalgebra generated by A_1..A_k depends only on span{1, A_i}.
    Split A = F_q 1 + C, where C is the zero set of the coordinate at which
    the identity is 1 (the constant part of the last diagonal entry), and
    write A_i = c_i 1 + w_i.  The k-tuples whose w_i span a given W of
    dimension j number q^k prod_{i<j} (q^k - q^i), so each W is decided
    once, by a closure on its RREF basis.  The flat rank orders the pivot
    sets as _pivot_blocks does, then the free entries as base-q digits.
    """
    k, n, p, e, s, lo, hi = args
    ctx = make_field(p, e)
    q = ctx.q
    d = s * n * n - 1
    c0 = (n * n - 1) * s
    shape = shape_over_field(ctx, [(n, s, 1)])
    weights = [q ** k * alpha(k, j, q) for j in range(min(k, d) + 1)]
    total = start = 0
    for piv, free in _pivot_blocks(k, d):
        end = start + q ** len(free)
        for x in range(max(lo, start) - start, min(hi, end) - start):
            rows = [[int(c == pc) for c in range(d)] for pc in piv]
            for r, c in free:
                x, rows[r][c] = divmod(x, q)
            for row in rows:
                row.insert(c0, 0)
            if _decide(shape, rows):
                total += weights[len(piv)]
        start = end
        if start >= hi:
            break
    return (total,)


def _brute_power(k: int, n: int, ctx: FieldCtx, s: int, m: int) -> int:
    """Count generating k-tuples of (M_n(F_{q^s}))^m by the simple-factor
    test: the m coordinate k-tuples must each generate M_n(F_{q^s}) and lie
    in pairwise distinct automorphism orbits.  Every coordinate k-tuple is
    decided and keyed by its orbit once; with orbit sizes c_1, c_2, ...,
    the m-tuples of pairwise distinct orbits number m! e_m(c_1, c_2, ...).
    """
    shape = shape_over_field(ctx, [(n, s, 1)])
    mats = [_element_coords(shape, (a,)) for a in
            itertools.product(range(ctx.q ** s), repeat=n * n)]
    sizes = Counter(_orbit_key(shape, vecs)
                    for vecs in itertools.product(mats, repeat=k)
                    if _decide(shape, vecs))
    if m > len(sizes):
        return 0
    # e[j]: elementary symmetric sum of degree j of the orbit sizes so far
    e = [1] + [0] * m
    for c in sizes.values():
        for j in range(m, 0, -1):
            e[j] += e[j - 1] * c
    return math.factorial(m) * e[m]


def _orbit_key(shape: AlgebraShape, vecs) -> tuple:
    """A key of the generating tuple with coordinate vectors vecs in a
    one-block F_q shape, equal for two tuples iff an automorphism of the
    block as an F_q-algebra maps one to the other.

    The tuple is recoded over F_p (_over_prime_field, which adds x 1 as a
    generator when q > p), and _closure takes its words breadth-first from
    1, in generator order, until each basis word has been multiplied by
    every generator: a word is kept as basis word b_j if it is independent
    of those kept before.  The key lists, in that order, j for each kept
    word and, for each other one, the tuple of its coordinates in the
    basis, negated: the echelon rows carry their combinations of the b_j
    as D tags.

    An F_q-automorphism, a conjugation composed with a Frobenius power over
    F_q, maps each word to the same word of the image tuple and so fixes
    the key.  Conversely, if tuples T and T' have equal keys, the F_p-linear
    map L: b_j(T) -> b_j(T') sends 1 to 1 and L(g b) = g' L(b) for every
    generator g, x 1 included, so it maps every word to the same word: L is
    an algebra automorphism that commutes with x 1, so F_q-linear.  No
    Galois image needs to be tried.

    Raises BadParams if the words of the tuple do not span the block.
    """
    shape, vecs = _over_prime_field(shape, vecs)
    D = shape.rank
    ech = FqEchelon(shape.ctx, D)
    key = []

    def add(w):
        r = ech.reduce(w + [0] * D)
        if not any(r[:D]):
            key.append(tuple(r[D:]))
            return False
        key.append(ech.dim)
        r[D + ech.dim] = 1
        return ech.insert(r)

    _closure(add, lambda: 0, shape.ctx.p, _scalar_coords(shape),
             [left_mul_ops(shape, v) for v in vecs])
    if ech.dim < D:
        raise BadParams("orbit keys are defined for generating tuples only")
    return tuple(key)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def g_closed_form(k: int, n: int, q: int) -> int:
    """Number of generating k-tuples of M_n(F_q), closed form for n in {2,3}.

    n=2: q^(2k+1) (q^(k-1) - 1)(q^k - 1)
    n=3: q^(3k+4) (q^(k-1) - 1)(q^(k-1) + 1)(q^k - 1)
         * (q^(3k-2) + q^(2k-2) - q^k - 2 q^(k-1) - q^(k-2) + q + 1)
    """
    if k < 1:
        raise BadParams("k must be >= 1")
    ffalg.prime_power_split(q)
    if n == 2:
        return q ** (2 * k + 1) * (q ** (k - 1) - 1) * (q ** k - 1)
    if n == 3:
        if k == 1:
            return 0
        tail = (q ** (3 * k - 2) + q ** (2 * k - 2) - q ** k
                - 2 * q ** (k - 1) - q ** (k - 2) + q + 1)
        return (q ** (3 * k + 4) * (q ** (k - 1) - 1) * (q ** (k - 1) + 1)
                * (q ** k - 1) * tail)
    raise UnsupportedSize(f"no closed form for n = {n}")


def gen_count(k: int, n: int, q: int) -> int:
    """gen_{k,n}(q) = g_{k,n}(q) / |PGL_n(F_q)|: the largest number of
    copies of M_n(F_q) generable by k elements.

    Cross-evaluates independent closed forms for the quotient and asserts
    they agree exactly.
    """
    g = g_closed_form(k, n, q)
    _gl, pgl = ffalg.group_orders(n, q)
    if g % pgl:
        raise AssertionError("free action must make |PGL| divide the count")
    val = g // pgl
    if n == 2:
        num = q ** (2 * k - 1) * (q ** k - 1) * (q ** k - q)
        den = q * q - 1
        assert num % den == 0 and val == num // den
        if q == 2:
            num2 = 2 ** (2 * k - 1) * (2 ** k - 2) * (2 ** k - 1)
            assert num2 % 3 == 0 and val == num2 // 3
    else:
        num = (q ** (3 * k - 3) * (q ** k - 1) * (q ** k - q) * (q ** k + q)
               * (q ** (3 * k) - q ** (k + 2) + q ** (2 * k)
                  - 2 * q ** (k + 1) - q ** k + q ** 3 + q ** 2))
        den = (q - 1) ** 2 * (q + 1) * (q * q + q + 1)
        assert num % den == 0 and val == num // den
        if q == 2:
            num4 = ((2 ** k - 2) * (2 ** k - 1) * (2 ** k + 2)
                    * (2 ** (3 * k) + 2 ** (2 * k) - 2 ** (k + 3)
                       - 2 ** k + 12) * 2 ** (3 * k - 3))
            assert num4 % 21 == 0 and val == num4 // 21
    return val


def count_gen_power_formula(k: int, n: int, q: int, s: int, m: int,
                            max_digits: int = 0) -> int:
    """|Gen_k((M_n(F_{q^s}))^m, F_q)| as the falling-factorial product
    prod_{i=0}^{m-1} (g - i*t) with t = s * |PGL_n(F_{q^s})|.

    With max_digits > 0 (0 means no limit, as for
    sys.get_int_max_str_digits), TooLarge as soon as the product has more
    decimal digits than that.
    """
    if m < 1:
        raise BadParams("m must be >= 1")
    if s == 1 and n in (2, 3):
        g = g_closed_form(k, n, q)
    else:
        try:
            g = brute_count(k, n, q, s=s, m=1)
        except TooLarge as exc:
            raise UnsupportedSize(f"no source for g: {exc}") from exc
    _gl, pgl = ffalg.group_orders(n, q ** s)
    t = s * pgl
    # the automorphisms, t of them, act freely on generating tuples, so t
    # divides g and the factor g - (g / t) t is the first that vanishes
    if m > g // t:
        return 0
    cap = 10 ** max_digits if max_digits else math.inf
    total = 1
    for i in range(m):
        total *= g - i * t
        if total >= cap:
            raise TooLarge(f"the count has more than {max_digits} decimal digits")
    return total


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


def lower_bound(m: int, n: int, q: int) -> int:
    """q^(m n^2) - ceil(2^((n+6)/2)) * q^(n^2 m - (m-1)(n-1)); may be negative."""
    if m < 1 or n < 1:
        raise BadParams("m, n must be >= 1")
    pow2 = 2 ** (n + 6)
    c = _isqrt_ceil(pow2)
    return q ** (m * n * n) - c * q ** (n * n * m - (m - 1) * (n - 1))


def _isqrt_ceil(v: int) -> int:
    r = math.isqrt(v)
    return r if r * r == v else r + 1


# ---------------------------------------------------------------------------
# Constructions and structural tests
# ---------------------------------------------------------------------------

def two_generators_ext(n: int, q: int, s: int = 1):
    """The standard two-generator pair of M_n(F_{q^s}) as an F_q-algebra:
    (u E_11, E_1n + sum E_{i+1,i}) with u a multiplicative generator.

    Returns (ext_ctx, A, B); the pair is verified by the closure test
    before returning.
    """
    if n < 1:
        raise BadParams("n must be >= 1")
    p, e = ffalg.prime_power_split(q)
    ext = make_field(p, e * s)
    shape = shape_over_field(make_field(p, e), [(n, s, 1)])
    u = ffalg.multiplicative_generator(ext)
    A = [0] * (n * n)
    A[0] = u
    B = [0] * (n * n)
    if n == 1:
        B[0] = 1
    else:
        B[(n - 1)] = 1  # E_{1,n}
        for i in range(n - 1):
            B[(i + 1) * n + i] = 1  # E_{i+1,i}
    A, B = tuple(A), tuple(B)
    if not generates(shape, [(A,), (B,)]):
        raise AssertionError("two-generator construction failed its closure check")
    return ext, A, B


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
    transposed = [ffalg.mat_transpose(n, a) for a in mats]
    if _common_invariant_line(ctx, n, transposed):
        return False
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(ctx, n, mats[i], mats[j]) != mat_mul(ctx, n, mats[j], mats[i]):
                return True
    return False  # commutative tuples span a proper subalgebra


def count_field_type_subalgebras(n: int, s: int, q: int) -> int:
    """Number of F_q-subalgebras of M_n(F_q) isomorphic to M_{n/s}(F_{q^s}):
    s^{-1} prod_{s not| i, 1<=i<n} (q^n - q^i), for s a prime divisor of n.
    """
    if s < 2 or not ffalg.is_prime(s) or n % s:
        raise BadParams("s must be a prime divisor of n")
    ffalg.prime_power_split(q)
    val = 1
    qn = q ** n
    for i in range(1, n):
        if i % s:
            val *= qn - q ** i
    if val % s:
        raise AssertionError("subalgebra count must be divisible by s")
    return val // s
