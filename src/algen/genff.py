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
from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import xor

from . import ffalg
from .errors import BadParams, ShapeMismatch, TooLarge, UnsupportedSize
from .ffalg import FieldCtx, FqEchelon, alpha, make_field, mat_mul
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


def check_enum(base: int, exponent: int, what: str, cap: int = 0) -> None:
    """TooLarge when base ** exponent things to enumerate (base >= 1)
    exceed the cap, enum_cap() unless one is given.  As base >= 2^(b - 1),
    b its bit length, the power is over the cap once (b - 1) exponent
    reaches the cap's bit length; below that it has under twice the cap's
    bits and is built."""
    cap = cap or enum_cap()
    if ((base.bit_length() - 1) * exponent >= cap.bit_length()
            or base ** exponent > cap):
        shown = base if base <= cap else f"(a {base.bit_length()}-bit base)"
        raise TooLarge(f"{shown}^{exponent} {what} exceed enumeration cap {cap}")


# ---------------------------------------------------------------------------
# Shapes and tuples
# ---------------------------------------------------------------------------

class AlgebraShape(namedtuple("AlgebraShape", "blocks ctx")):
    """A finite product prod M_{n_i}(F_{q^{s_i}})^{m_i} (or over Z when ctx is None).

    blocks: tuple of (n_i, s_i, m_i).  Z-side shapes fix s_i = 1 and carry
    no field context.  Blocks with equal (n_i, s_i) must be merged into a
    single multiplicity; construction rejects duplicates because distinct
    isomorphic factors break the product-generation criterion.
    """

    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, int, int], ...],
                ctx: FieldCtx | None = None):
        if not blocks:
            raise ShapeMismatch("shape needs at least one block")
        seen = set()
        for n, s, m in blocks:
            if n < 1 or s < 1 or m < 1:
                raise ShapeMismatch(f"bad block ({n}, {s}, {m})")
            if (n, s) in seen:
                raise ShapeMismatch(
                    f"duplicate block type ({n}, {s}); merge multiplicities")
            seen.add((n, s))
            if ctx is None and s != 1:
                raise ShapeMismatch("Z-side shapes require s = 1 in every block")
            if s > 1 and ctx is not None and ctx.s > 1:
                raise UnsupportedSize(
                    "extension blocks are only supported over a prime base field")
        return super().__new__(cls, blocks, ctx)

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

    The vectors are recoded over the prime field; over F_2 they are
    packed and go to _f2_decide, for odd p to the list closure.
    """
    shape, vecs = _over_prime_field(shape, vecs)
    if shape.ctx.p == 2:
        return _f2_decide(shape, [_f2_encode(v) for v in vecs])
    return _generates_generic(shape, vecs)


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
    packed ints (_f2_encode) through the table closure over F_2, lists
    through the list loop _closure over an FqEchelon for odd p."""
    ctx = shape.ctx
    if ctx.p == 2:
        D, one, op = _f2_operators(shape.blocks)
        return _f2_span_generates(D, one, [op(v) for v in vecs])
    D = shape.rank
    ech = FqEchelon(ctx, D)
    _closure(ech.insert, lambda: int(ech.dim == D), ctx.p,
             _scalar_coords(shape), [left_mul_ops(shape, v) for v in vecs])
    return ech.dim == D


# -- bit-packed tests over F_2 ----------------------------------------------
#
# A coordinate vector over F_2 is one int, coordinate i at bit i.  Single
# M_n(F_2) blocks with n in {2, 3} are decided by invariant-line masks
# (_f2_generates) without a closure.  Every other shape over F_2 goes to
# the one closure, _f2_span_generates: it applies each generator as nibble
# tables, g v being the XOR of one table entry per 4 bits of v, and keeps
# the span as an XOR echelon keyed by the leading bit.

def _f2_encode(mat) -> int:
    code = 0
    for i, v in enumerate(mat):
        if v:
            code |= 1 << i
    return code


def _f2_decide(shape: AlgebraShape, codes) -> bool:
    """Generation test for packed vectors over an F_2 shape."""
    if shape.blocks in (((2, 1, 1),), ((3, 1, 1),)):
        return _f2_generates(shape.blocks[0][0], codes)
    return _generates_generic(shape, codes)


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
    normals of the hyperplanes that c maps into themselves.  The transpose
    of c sends v to xmaps[c][v], so hyperplanes[c] is read from xmaps, and
    lines[c] is hyperplanes[] at the transpose of c.
    """
    hyper = tuple(sum(1 << v for v in range(1, 1 << n) if xm[v] in (0, v))
                  for xm in _f2_tables(n)[1])
    transpose = _f2_code_map(n, [i % n * n + i // n for i in range(n * n)])
    return tuple(hyper[t] for t in transpose), hyper


def _f2_generates(n: int, codes) -> bool:
    """Generation test for a tuple of M_n(F_2) codes, n in {2, 3}.

    The maximal subalgebras of M_n(F_2) are the stabilisers of a line or
    a hyperplane and the copies of the field F_{2^n}, which are
    commutative, so the tuple generates iff no line and no hyperplane is
    invariant under every entry and two entries do not commute
    (the tests' generates_structural is the same rule on lists).
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


def _nibble_tables(cols) -> tuple[tuple[int, ...], ...]:
    """The F_2-linear map that sends bit t to cols[t], as nibble tables:
    table c holds the image of each u < 16 placed at bits 4c to 4c + 3
    (u < 2^(D - 4c) in the last table, D = len(cols)), so the image of v
    is the XOR of table c at (v >> 4c) & 15."""
    out = []
    for base in range(0, len(cols), 4):
        tab = [0]
        for col in cols[base:base + 4]:
            tab += [x ^ col for x in tab]
        out.append(tuple(tab))
    return tuple(out)


@lru_cache(maxsize=16)
def _f2_operators(blocks):
    """The rank D of the F_2 shape with these blocks (a cheaper key than
    the shape), its packed identity, and a map, caching the last 1024
    codes, from the packed code of an element g to v -> g v as nibble
    tables.  g -> (v -> g v) is linear, so the columns of g are the XOR of
    those of the unit vectors at its bits, each read once from the rows
    of its left_mul_ops operator mod 2.
    """
    shape = shape_over_field(make_field(2), blocks)
    D = shape.rank
    units = []
    for i in range(D):
        cols = [0] * D
        for j, row in enumerate(left_mul_ops(shape, [int(t == i) for t in range(D)])):
            for t, c in row:
                cols[t] ^= (c & 1) << j
        units.append(cols)

    @lru_cache(maxsize=1024)
    def tables(code: int) -> tuple[tuple[int, ...], ...]:
        cols = [0] * D
        for i in range(D):
            if code >> i & 1:
                cols = list(map(xor, cols, units[i]))
        return _nibble_tables(cols)

    return D, _f2_encode(_scalar_coords(shape)), tables


def _f2_span_generates(D: int, seed: int, gens) -> bool:
    """Closure over F_2 of seed under the operators gens (nibble tables
    as from _f2_operators) on D-bit vectors: True iff the span reaches
    rank D.  Words are taken breadth-first, from a worklist that grows
    while it is read; the span is an XOR echelon keyed by the leading bit.
    """
    # piv[b]: the echelon row whose leading bit is bit b - 1
    piv = [0] * (D + 1)
    piv[seed.bit_length()] = seed
    rank = 1
    work = [seed]
    for v in work:
        for tables in gens:
            w = 0
            u = v
            for tab in tables:
                w ^= tab[u & 15]
                u >>= 4
            x = w
            while x:
                b = x.bit_length()
                r = piv[b]
                if not r:
                    piv[b] = x
                    rank += 1
                    if rank == D:
                        return True
                    work.append(w)
                    break
                x ^= r
    return rank == D


def _f2_code_map(n: int, dest) -> tuple[int, ...]:
    """The image of every n x n code when bit i moves to bit dest[i]: the
    OR of one 2^n-entry lookup per row of the code, each lookup built by
    doubling over the row's n destination bits."""
    tab = [0]
    for r in range(0, n * n, n):
        row = [0]
        for d in dest[r:r + n]:
            row += [x | 1 << d for x in row]
        tab = [x | y for y in row for x in tab]
    return tuple(tab)


@lru_cache(maxsize=4)
def _f2_symmetries(n: int) -> tuple[tuple[int, ...], ...]:
    """Code permutation tables of the 2 * n! symmetries of the {0,1}
    matrices that preserve generation over any ring: conjugation by a
    permutation matrix (an automorphism), alone or followed by
    transposition (an anti-automorphism).  Each is a _f2_code_map.
    """
    flip = [i % n * n + i // n for i in range(n * n)]
    tables = []
    for p in itertools.permutations(range(n)):
        dest = [p[i // n] * n + p[i % n] for i in range(n * n)]
        tables += [_f2_code_map(n, dest), _f2_code_map(n, [flip[d] for d in dest])]
    return tuple(tables)


def f2_pair_classes(n: int, lo: int, hi: int):
    """Yield (a, b, size) for the orbits of unordered pairs a < b of
    M_n(F_2) codes under _f2_symmetries, one per orbit, with lo <= b < hi.

    (a, b) is the lexicographically least sorted image of the orbit and
    size the number of its distinct images: the group order divided by
    the number of tables that fix the pair.  The least image starts with
    a code that is least in its own orbit (omin[a] == a, omin[c] the least
    image of c), so only such codes are tried as a, and only up to
    omin[b]: a table that sends b below a rules a out.  Below omin[b], b
    is outside the orbit of a, and only the tables that fix a (its
    stabiliser) can map the pair to one starting with a, so only they
    are tried; at a == omin[b] every table is.
    """
    tables = _f2_symmetries(n)
    order = len(tables)
    omin = list(map(min, *tables))
    least = [(a, [t for t in tables if t[a] == a])
             for a, m in enumerate(omin) if m == a]
    for b in range(lo, hi):
        mb = omin[b]
        for a, stab_a in least:
            if a >= b or a > mb:
                break
            stab = 0
            for t in stab_a if a < mb else tables:
                x, y = t[a], t[b]
                if x > y:
                    x, y = y, x
                if x < a or (x == a and y < b):
                    break
                stab += x == a and y == b
            else:
                yield a, b, order // stab


# ---------------------------------------------------------------------------
# Exhaustive counting
# ---------------------------------------------------------------------------

def _check_count_args(k: int, n: int, q: int, s: int = 1, m: int = 1):
    """(p, e) with q = p^e, once the arguments of a count are checked."""
    if k < 1:
        raise BadParams("k must be >= 1")
    if min(n, s, m) < 1:
        raise BadParams("n, s and m must be >= 1")
    if n > ffalg.MAX_ENUM_N:
        raise TooLarge(f"matrix size {n} above enumeration limit")
    return ffalg.prime_power_split(q)


def brute_count(k: int, n: int, q: int, s: int = 1, m: int = 1,
                threads: int = 1, max_digits: int = 0) -> int:
    """Exact count of generating k-tuples of (M_n(F_{q^s}))^m over F_q.

    The g generating k-tuples of one factor M = M_n(F_{q^s}) are counted
    by the sweep of _brute_single.  A k-tuple of M^m generates iff its m
    coordinate k-tuples generate M and lie in pairwise distinct orbits of
    the automorphisms of M as an F_q-algebra, which number
    t = s |PGL_n(F_{q^s})| and act freely on generating tuples: g / t
    orbits of size t, and _copies counts the m-tuples of distinct ones.
    With max_digits > 0 (0 means no limit), TooLarge when that product
    has more decimal digits than that: before the sweep when bit lengths
    prove it (_check_digits, as for count_gen_power_formula), else as soon
    as the product passes the limit.
    """
    p, e = _check_count_args(k, n, q, s, m)
    # the sweep runs over the k-tuples of one factor, whatever m is
    check_enum(q, s * n * n * k, "states")
    _check_digits(k, n, q, s, m, max_digits)
    g = _brute_single(k, n, make_field(p, e), s, threads)
    if m == 1:
        return g
    t = s * ffalg.group_orders(n, q ** s)[1]
    if g % t:
        raise AssertionError("automorphisms must act freely on generating tuples")
    return _copies(g // t, t, m, max_digits)


def _brute_single(k: int, n: int, ctx: FieldCtx, s: int, threads: int) -> int:
    """Count generating k-tuples of M = M_n(F_{q^s}) by orbits of the
    first entry.  (c 1, A_2, ...) generates iff (A_2, ...) does, so the
    k-tuples led by a scalar are q times the (k - 1)-tuples that generate,
    down to q^k times the verdict on the empty tuple; _orbit_shard sweeps
    the rest."""
    shape = shape_over_field(ctx, [(n, s, 1)])
    reps = _first_entry_orbits(n, ctx, s)
    per = sum(ctx.q ** len(f) for _p, f in _pivot_blocks(k - 1, s * n * n - 2))
    swept, = sharded_sum(_orbit_shard, (k, n, ctx.p, ctx.s, s, reps),
                         len(reps) * per, threads)
    return swept + ctx.q ** k * generates(shape, ())


# _first_entry_orbits marks one byte per element of M / F_q 1, p^d of
# them for d = dim_{F_p} M - [F_q : F_p], and refuses more than this: a
# table this size takes about a minute and 100 MB over F_2, and under the
# default cap every count it refuses took more than a minute as a sweep
# over all subspaces (README "Notes").
MAX_CODES = 1 << 24


def _first_entry_orbits(n: int, ctx: FieldCtx, s: int) -> list:
    """The orbits of the nonscalar A in M = M_n(F_{q^s}), ctx = F_q, under
    conjugation by 1 + E_12, the n-cycle and diag(w, 1, ...) (w generating
    F_{q^s}^*), the Frobenius a -> a^q when s > 1, A -> c A (c generating
    F_q^*) and A -> A + d 1 (d in F_q): [(first member, orbit size)], a
    member coded as the sum of its F_q coordinates times powers of q, the
    first coordinate 0.  Each map keeps the number of k-tuples led by A
    that generate: the first two kinds are automorphisms of M over F_q,
    the last two fix span{1, A}.

    Over F_p, with the coordinates of _over_prime_field, C = M / F_q 1 is
    M without the e = [F_q : F_p] coordinates of the F_q-part of its first
    entry, and an element of C, coded in base p, stands for the q matrices
    A + d 1.  The other maps act on C as F_p-linear maps, read off its
    basis: nibble tables over F_2, rows for odd p.  Orbits are walked
    breadth-first from their least code, and their sizes are counted, so
    the sweep stays exact whatever group the maps generate.
    """
    p, q, e = ctx.p, ctx.q, ctx.s
    S = e * s
    D = S * n * n
    d = D - e
    check_enum(p, d, "elements of the first-entry orbit table", MAX_CODES)
    ext = make_field(p, S)
    maps = []
    if n > 1:
        w = ffalg.multiplicative_generator(ext)
        one = ffalg.mat_identity(n)
        for g, h in (((w,) + one[1:], (ext.inv(w),) + one[1:]),
                     (one[:1] + (1,) + one[2:], one[:1] + (p - 1,) + one[2:]),
                     (one[n:] + one[:n], one[-n:] + one[:-n])):
            maps.append(lambda a, g=g, h=h: mat_mul(ext, n, mat_mul(ext, n, g, a), h))
    if q > 2:
        u = ffalg.multiplicative_generator(ctx)
        maps.append(lambda a: tuple(x and ext.mul(u, x) for x in a))
    if s > 1:
        maps.append(lambda a: tuple(x and ext.pow(x, q) for x in a))
    prime = shape_over_field(make_field(p), [(n, S, 1)])
    gens = []
    for f in maps:
        cols = []
        for c in range(e, D):
            basis = [0] * (n * n)
            basis[c // S] = p ** (c % S)
            v = _element_coords(prime, (f(basis),))
            for t in range((n + 1) * S, D, (n + 1) * S):  # less its F_q 1 part
                v[t:t + e] = [(a - b) % p for a, b in zip(v[t:t + e], v)]
            cols.append(v[e:])
        gens.append(_nibble_tables(list(map(_f2_encode, cols))) if p == 2
                    else list(zip(*cols)))
    seen = bytearray(p ** d)
    reps = []
    for x in range(1, p ** d):
        if not seen[x]:
            seen[x] = 1
            orbit = [x]
            for y in orbit:
                if p > 2:
                    v = [y // p ** i % p for i in range(d)]
                for g in gens:
                    z = 0
                    if p == 2:
                        for i, tab in enumerate(g):
                            z ^= tab[y >> 4 * i & 15]
                    else:
                        for row in reversed(g):
                            z = z * p + sum(map(int.__mul__, v, row)) % p
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            reps.append((x * p ** e, len(orbit) * q))
    return reps


def _pivot_blocks(k: int, d: int):
    """RREF pivot sets of the subspaces of F_q^d of dimension at most k, in
    sweep order, each with the (row, column) places of its free entries.
    A pivot set with f free entries holds q^f subspaces.
    """
    for j in range(min(k, d) + 1):
        for piv in itertools.combinations(range(d), j):
            yield piv, [(r, c) for r in range(j)
                        for c in range(piv[r] + 1, d) if c not in piv]


def _orbit_shard(args) -> tuple[int]:
    """Weighted count of the generating pairs (O, W) with flat rank in
    [lo, hi): O an orbit of _first_entry_orbits with first member A_1, W a
    subspace of dimension j <= k - 1 of M / U, U = span{1, A_1}, taken as
    the coordinates of M other than the first and the last nonzero one of
    A_1.  W is decided once, with A_1, by the dispatch of generates() on
    its RREF basis.  The l-tuples led by O whose entries span U + W number
    |O| |U|^(l-1) prod_{i<j} (q^(l-1) - q^i), and each leads q^(k-l)
    counted k-tuples behind k - l scalars (_brute_single), so W weighs
    |O| times the sum of q^(k+l-2) alpha(l - 1, j, q) over l = j+1 .. k.
    The flat rank orders the orbits, then the pivot sets as _pivot_blocks
    does, then the free entries as base-q digits.
    """
    k, n, p, e, s, reps, lo, hi = args
    ctx = make_field(p, e)
    q = ctx.q
    D = s * n * n
    shape = shape_over_field(ctx, [(n, s, 1)])
    weights = [sum(q ** (k + l - 2) * alpha(l - 1, j, q) for l in range(j + 1, k + 1))
               for j in range(k)]
    total = start = 0
    for code, size in reps:
        a1 = [code // q ** i % q for i in range(D)]
        j1 = max(i for i in range(D) if a1[i])
        at = [c for c in range(1, D) if c != j1]
        for piv, free in _pivot_blocks(k - 1, D - 2):
            end = start + q ** len(free)
            for x in range(max(lo, start) - start, min(hi, end) - start):
                rows = [[0] * D for _ in piv]
                for r, c in enumerate(piv):
                    rows[r][at[c]] = 1
                for r, c in free:
                    x, rows[r][at[c]] = divmod(x, q)
                if _decide(shape, [a1, *rows]):
                    total += size * weights[len(piv)]
            start = end
            if start >= hi:
                return (total,)
    return (total,)


# ---------------------------------------------------------------------------
# Counts by formula
# ---------------------------------------------------------------------------

def gen_count(k: int, n: int, q: int) -> int:
    """gen_{k,n}(q) = g_{k,n}(q) / |PGL_n(F_q)|, the largest number of
    copies of M_n(F_q) generable by k elements: the number a_n(q) of
    absolutely simple n-dimensional representations of k loops, from the
    Mozgovoy-Reineke identity (README "Counts by formula").
    """
    _check_count_args(k, n, q)
    if k == 1 and n > 1:
        return 0  # one matrix generates a commutative algebra, not M_n
    return _absolutely_simple(k, n, q)


def _absolutely_simple(k: int, n: int, q: int) -> int:
    """a_n(q) = -(q-1) (L_n + sum_{r | n, r > 1} a_{n/r}(q^r) / (r (q^r - 1))),
    L = log sum_j f_j t^j with f_j = B_j / |GL_j(q)| for the flag sums
    B_0 = 1, B_j = -sum_{a=1..j} [j choose a]_q q^(k a j) B_{j-a}."""
    gl = [alpha(j, j, q) for j in range(n + 1)]
    B = [1]
    for j in range(1, n + 1):
        # [j choose a]_q = |GL_j| / (|GL_a| |GL_{j-a}| q^(a(j-a)))
        B.append(-sum(gl[j] // (gl[a] * gl[j - a] * q ** (a * (j - a)))
                      * q ** (k * a * j) * B[j - a] for a in range(1, j + 1)))
    f = [Fraction(b, g) for b, g in zip(B, gl)]
    log = [Fraction(0)]
    for j in range(1, n + 1):
        log.append((j * f[j] - sum(i * log[i] * f[j - i] for i in range(1, j))) / j)
    a = -(q - 1) * (log[n] + sum(
        Fraction(_absolutely_simple(k, n // r, q ** r), r * (q ** r - 1))
        for r in range(2, n + 1) if n % r == 0))
    if a.denominator != 1:
        raise AssertionError("the count of absolutely simple modules must be an integer")
    return a.numerator


def count_gen_power_formula(k: int, n: int, q: int, s: int, m: int,
                            max_digits: int = 0) -> int:
    """|Gen_k((M_n(F_{q^s}))^m, F_q)| as the falling-factorial product
    prod_{i=0}^{m-1} (g - i*t) with t = s * |PGL_n(F_{q^s})| (_copies),
    where g / t = (1/s) sum_{d | s} mu(s/d) gen_{k,n}(q^d) (README "Counts
    by formula").  With max_digits > 0 (0 means no limit, as for
    sys.get_int_max_str_digits), TooLarge when the count has more decimal
    digits than that, before any evaluation when a bound proves it.
    """
    _check_count_args(k, n, q, s, m)
    if k == 1 and n > 1:
        return 0  # one matrix generates a commutative algebra, not M_n
    _check_digits(k, n, q, s, m, max_digits)
    primes = ffalg.prime_factors(s)
    orbits = sum((-1) ** j * _absolutely_simple(k, n, q ** (s // math.prod(sub)))
                 for j in range(len(primes) + 1)
                 for sub in itertools.combinations(primes, j))
    if orbits % s:
        raise AssertionError("the Galois group must act freely on generating tuples")
    return _copies(orbits // s, s * ffalg.group_orders(n, q ** s)[1], m,
                   max_digits)


def _check_digits(k: int, n: int, q: int, s: int, m: int, max_digits: int):
    """TooLarge when bit lengths alone prove that the count of generating
    k-tuples of (M_n(F_{q^s}))^m over F_q has more than max_digits decimal
    digits (0 means no limit), whichever route counts it.  For k = 1 and
    n > 1 the count is 0."""
    if k == 1 and n > 1:
        return
    # g >= 2^low and g / t >= 2^copies, from g >= Q^(kn^2) / (16n) with
    # Q = q^s, t <= 2s Q^(n^2-1) and 2^(b-1) <= q < 2^b; as 10/3 > log2(10),
    # 3 low > 10 max_digits makes g longer than max_digits
    b = q.bit_length()
    low = k * n * n * s * (b - 1) - 4 - n.bit_length()
    copies = low - (2 * s).bit_length() - (n * n - 1) * s * b
    if max_digits and 3 * low > 10 * max_digits and m.bit_length() <= copies:
        raise TooLarge(f"the count has more than {max_digits} decimal digits")


def _copies(orbits: int, t: int, m: int, max_digits: int = 0) -> int:
    """prod_{i<m} (orbits - i) t: the m-tuples of members of pairwise
    distinct orbits, each of size t; 0 at once when m > orbits.  TooLarge
    as soon as the product has more than max_digits decimal digits
    (0 means no limit)."""
    if m > orbits:
        return 0
    cap = 10 ** max_digits if max_digits else math.inf
    total = 1
    for i in range(m):
        total *= (orbits - i) * t
        if total >= cap:
            raise TooLarge(f"the count has more than {max_digits} decimal digits")
    return total


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

# Largest field degree [F_{q^s} : F_p] and F_q-dimension n^2 s that
# two_generators_ext accepts.  Over F_2, degree 64 takes about 1 s and
# M_4(F_{2^64}), dimension 1024, about 4 s; degree 100 took 11 s and
# dimension 3200 (M_8(F_{2^50})) 26 s.  Odd primes near degree 64 cost
# the most: M_4(F_{5^60}) takes 13 s (README "Notes").
MAX_TWOGEN_DEGREE = 64
MAX_TWOGEN_DIM = 1024


def two_generators_ext(n: int, q: int, s: int = 1):
    """The standard two-generator pair of M_n(F_{q^s}) as an F_q-algebra:
    (u E_11, E_1n + sum E_{i+1,i}) with u a multiplicative generator.

    Returns (ext_ctx, A, B); the pair is verified by the closure test
    before returning.  A field degree above MAX_TWOGEN_DEGREE, a
    dimension above MAX_TWOGEN_DIM, an extension block over a non-prime
    base field and an unfactored q^s - 1 are refused before any field is
    built.
    """
    if n < 1:
        raise BadParams("n must be >= 1")
    p, e = ffalg.prime_power_split(q)
    if e * s > MAX_TWOGEN_DEGREE:
        raise TooLarge(f"F_{{q^s}} has degree {e * s} over F_{p}, above "
                       f"{MAX_TWOGEN_DEGREE}")
    if n * n * s > MAX_TWOGEN_DIM:
        raise TooLarge(f"M_n(F_{{q^s}}) has dimension n^2 s = {n * n * s} "
                       f"over F_q, above {MAX_TWOGEN_DIM}")
    if e > 1 and s > 1:
        raise UnsupportedSize(
            "extension blocks are only supported over a prime base field")
    if e * s > 1:
        # the generator search needs the primes of q^s - 1: an unfactored
        # one is refused before the field is built, which took up to a
        # minute
        ffalg.prime_factors(q ** s - 1)
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
