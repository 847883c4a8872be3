import itertools
import math
import multiprocessing
import os
import random

import orbitkeys
import pytest
from conjugacy import are_conjugate_tuples, gl_elements, inverse
from f2pairs import f2_generating_pairs
from hypothesis import example, given, settings
from hypothesis import strategies as st
from seededpairs import m2z_pairs_with_closure_verdicts
from structural import transpose

from algen import ffalg, genff, genz, sampler
from algen.errors import BadParams, FactorizationIncomplete, UnsupportedSize
from algen.genff import shape_over_Z, shape_over_field
from algen.genz import (
    Lattice,
    closure_lattice,
    commutator_lattice_test,
    construct_M2Z16,
    det_commutator_test,
    factor_index,
    generates_Z,
    generates_Z_bool,
    zero_one_census,
)

E12 = (0, 1, 0, 0)
E21 = (0, 0, 1, 0)
SHAPE2 = shape_over_Z([(2, 1)])
SHAPE3 = shape_over_Z([(3, 1)])

REMARK_A = (0, 0, 0, 0, 0, 0, 0, 1, 1)
REMARK_B = (0, 0, 1, 1, 0, 1, 0, 0, 1)


# ---------------------------------------------------------------------------
# HNF
# ---------------------------------------------------------------------------

def hnf(rows, D=None) -> Lattice:
    """The Hermite normal form of the span of rows in Z^D, D the length of
    the first row unless given, from the closure's echelon."""
    rows = list(rows)
    ech = genz._ZEchelon(len(rows[0]) if D is None else D)
    for r in rows:
        ech.add(r)
    return Lattice(ech.D, ech.canonical_basis())


def test_hnf_examples():
    assert hnf([(1, 0), (0, 1)]).basis == ((1, 0), (0, 1))
    lat = hnf([(2, 0), (0, 2)])
    assert lat.pivots() == (2, 2) and lat.index == 4
    assert hnf([(2, 1), (0, 1)]).basis == ((2, 0), (0, 1))


def test_hnf_idempotent_and_membership():
    rng = random.Random(17)
    for _ in range(150):
        D = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(D)]
                for _ in range(rng.randrange(1, 6))]
        lat = hnf(rows)
        if lat.basis:
            assert hnf(lat.basis).basis == lat.basis
        # every input row lies in the lattice
        for r in rows:
            assert hnf(list(lat.basis) + [r], D) == lat
        # and every basis row is a Z-combination of the inputs
        for b in lat.basis:
            assert hnf(rows + [b]) == lat


def test_hnf_reduced_above_pivots():
    rng = random.Random(23)
    for _ in range(100):
        rows = [[rng.randrange(-20, 21) for _ in range(4)] for _ in range(5)]
        lat = hnf(rows)
        cols = []
        for row in lat.basis:
            piv_col = next(i for i, v in enumerate(row) if v)
            piv = row[piv_col]
            assert piv > 0
            for above in range(len(cols)):
                assert 0 <= lat.basis[above][piv_col] < piv
            cols.append(piv_col)
        assert cols == sorted(cols)


# ---------------------------------------------------------------------------
# Closure and certification
# ---------------------------------------------------------------------------

def test_closure_examples():
    lat = closure_lattice(SHAPE2, [(E12,), (E21,)])
    assert lat.index == 1
    lat = closure_lattice(SHAPE2, [((0, 2, 0, 0),), (E21,)])
    assert lat.index == 4
    assert lat.basis == ((1, 0, 0, 1), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
    lat = closure_lattice(shape_over_Z([(1, 1)]), [])
    assert lat.basis == ((1,),) and lat.index == 1


def test_closure_across_blocks():
    # Z x M_2(Z): factors of different size separate by the remainder trick
    shape = shape_over_Z([(1, 1), (2, 1)])
    x = ((1,), E12)
    y = ((0,), E21)
    assert generates_Z(shape, [x, y]).generates
    # projection to the M_2 factor fails to generate: no luck
    assert not generates_Z(shape, [x, ((1,), (0, 0, 0, 0))]).generates


def test_hnf_empty_rows():
    lat = hnf([], D=3)
    assert lat.rank == 0 and lat.index == 0


def _naive_closure(shape, t):
    """Fixed-point oracle: union with all generator products, re-HNF,
    repeat until the canonical basis stabilizes.  No worklist, no modular
    reduction; used to cross-check the production closure."""
    sizes = shape.slot_sizes()
    D = shape.rank

    def coords(elem):
        out = []
        for m in elem:
            out.extend(m)
        return list(out)

    def decode(vec):
        mats, i = [], 0
        for n in sizes:
            mats.append(tuple(vec[i:i + n * n]))
            i += n * n
        return mats

    def mul(a, b):
        out = []
        for n, A, B in zip(sizes, a, b):
            out.append(tuple(sum(A[r * n + t] * B[t * n + c] for t in range(n))
                             for r in range(n) for c in range(n)))
        return out

    ident = [tuple(1 if i == j else 0 for i in range(n) for j in range(n))
             for n in sizes]
    basis = [coords(ident)]
    while True:
        rows = [list(b) for b in basis]
        for g in t:
            for b in basis:
                rows.append(coords(mul(list(g), decode(b))))
        new = [list(r) for r in hnf(rows, D=D).basis]
        if new == [list(r) for r in hnf(basis, D=D).basis]:
            return hnf(rows, D=D)
        basis = new


def test_closure_against_fixed_point_oracle():
    rng = random.Random(777)
    # small entries first, then entries up to 10^6, whose products grow
    # long coefficients before the closure reaches full rank
    for i in range(150):
        bound = 3 if i < 120 else 10 ** 6
        blocks = rng.choice([[(2, 1)], [(3, 1)], [(1, 1), (2, 1)], [(2, 2)]])
        shape = shape_over_Z(blocks)
        sizes = shape.slot_sizes()
        t = [tuple(tuple(rng.randrange(-bound, bound + 1) for _ in range(n * n))
                   for n in sizes)
             for _ in range(rng.randrange(1, 4))]
        assert closure_lattice(shape, t).basis == _naive_closure(shape, t).basis


def test_generates_Z_examples():
    assert generates_Z(SHAPE2, [(E12,), (E21,)]) == genz.ZGenReport(True, 1, ())
    rep = generates_Z(SHAPE3, [(REMARK_A,), (REMARK_B,)])
    assert rep == genz.ZGenReport(False, 9, (3,))
    rep = generates_Z(SHAPE2, [((2, 0, 0, 2),)])
    assert not rep.generates and rep.index == 0 and rep.bad_primes == ()


def test_bad_primes_soundness():
    # mod p generation must fail exactly at the bad primes (p <= 50 checked)
    cases = [
        ([(REMARK_A,), (REMARK_B,)], SHAPE3, 3),
        ([((0, 2, 0, 0),), (E21,)], SHAPE2, 2),
        ([((0, 3, 0, 0),), ((0, 0, 5, 0),)], SHAPE2, None),
    ]
    for t, shape, _ in cases:
        rep = generates_Z(shape, t)
        n = shape.blocks[0][0]
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
            fshape = shape_over_field(ffalg.make_field(p), [(n, 1, 1)])
            reduced = [tuple(tuple(v % p for v in mat) for mat in elem)
                       for elem in t]
            ok = genff.generates(fshape, reduced)
            if rep.index == 0:
                continue
            assert ok == (p not in rep.bad_primes), (t, p)


def test_generates_Z_implies_mod_p():
    rng = random.Random(2)
    sample = rng.sample(f2_generating_pairs(3), 40)
    primes = [2, 3, 5, 7, 11]
    fshapes = {p: shape_over_field(ffalg.make_field(p), [(3, 1, 1)]) for p in primes}
    for a, b in sample:
        amat = genz._code_to_zmat(3, a)
        bmat = genz._code_to_zmat(3, b)
        rep = generates_Z(SHAPE3, [(amat,), (bmat,)])
        if rep.generates:
            for p in primes:
                assert genff.generates(fshapes[p], [(amat,), (bmat,)])


def test_det_commutator_examples():
    assert det_commutator_test(E12, E21)
    assert not det_commutator_test((1, 0, 0, 1), (2, 0, 0, 2))
    assert not det_commutator_test((1, 0, 0, 0), E12)
    with pytest.raises(UnsupportedSize):
        det_commutator_test((1,) * 9, (0,) * 9)


def test_det_commutator_equals_closure_seeded():
    pairs = m2z_pairs_with_closure_verdicts()
    assert len(pairs) == 10_000
    for A, B, generates in pairs:
        assert det_commutator_test(A, B) == generates


def conj_invariant(X, Y):
    """(tr X, det X, tr Y, det Y, tr XY) for 2 x 2 integer matrices."""
    XY = genz._mat2_mul(X, Y)
    return (X[0] + X[3], X[0] * X[3] - X[1] * X[2],
            Y[0] + Y[3], Y[0] * Y[3] - Y[1] * Y[2],
            XY[0] + XY[3])


def test_conj_invariant():
    assert conj_invariant(E12, E21) == (0, 0, 0, 0, 1)
    I2 = (1, 0, 0, 1)
    assert conj_invariant(I2, I2) == (2, 1, 2, 1, 2)
    assert conj_invariant((0, 1, 1, 1), (1, 1, 1, 0)) == (1, -1, 1, -1, 2)


def test_modp_conjugacy_classification():
    """Among {0,1} pairs generating M_2(Z): equal conjugation invariants
    iff conjugate modulo every odd prime p <= 13.

    Conjugacy mod p is an equivalence relation, so the forward direction
    is verified along a chain through each invariant class.  For the
    converse, invariant components all lie in ranges narrower than 13,
    so distinct invariants stay distinct mod 13 and the pairs cannot be
    conjugate there (conjugation invariance of the 5-tuple is verified
    separately below); explicit sweeps spot-check that conclusion.
    """
    pairs = []
    for a, b in f2_generating_pairs(2):
        pairs.append((a, b))
        pairs.append((b, a))
    mats = {c: genz._code_to_zmat(2, c) for c in range(16)}
    classes: dict[tuple, list] = {}
    for a, b in pairs:
        classes.setdefault(conj_invariant(mats[a], mats[b]), []).append((a, b))
    primes = [3, 5, 7, 11, 13]
    ctxs = {p: ffalg.make_field(p) for p in primes}

    def conjugate_mod(p, P1, P2):
        t1 = tuple(tuple(v % p for v in mats[c]) for c in P1)
        t2 = tuple(tuple(v % p for v in mats[c]) for c in P2)
        return are_conjugate_tuples(ctxs[p], t1, t2)

    for members in classes.values():
        for P1, P2 in zip(members, members[1:]):
            for p in primes:
                assert conjugate_mod(p, P1, P2), (P1, P2, p)

    invs = sorted(classes)
    for i, v1 in enumerate(invs):
        for v2 in invs[i + 1:]:
            assert any((x - y) % 13 for x, y in zip(v1, v2))
    rng = random.Random(6)
    reps = [members[0] for members in classes.values()]
    for _ in range(8):
        P1, P2 = rng.sample(reps, 2)
        assert not conjugate_mod(13, P1, P2)
        assert not conjugate_mod(3, P1, P2) or not conjugate_mod(5, P1, P2) \
            or not conjugate_mod(13, P1, P2)


def test_conj_invariant_is_conjugation_invariant_mod_p():
    # soundness of the shortcut used above
    rng = random.Random(5)
    for p in (3, 13):
        ctx = ffalg.make_field(p)
        gl = gl_elements(ctx, 2)
        for _ in range(20):
            X = tuple(rng.randrange(p) for _ in range(4))
            Y = tuple(rng.randrange(p) for _ in range(4))
            g = gl[rng.randrange(len(gl))]
            ginv = inverse(ctx, 2, g)
            Xc = ffalg.mat_mul(ctx, 2, ffalg.mat_mul(ctx, 2, g, X), ginv)
            Yc = ffalg.mat_mul(ctx, 2, ffalg.mat_mul(ctx, 2, g, Y), ginv)
            a = tuple(v % p for v in conj_invariant(X, Y))
            b = tuple(v % p for v in conj_invariant(Xc, Yc))
            assert a == b


# ---------------------------------------------------------------------------
# Extended gcd
# ---------------------------------------------------------------------------

def _euclid_xgcd(a, b):
    """Oracle: the extended Euclid loop, with the gcd made nonnegative."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def test_xgcd_bezout_against_euclid():
    rng = random.Random(43)
    cases = [(a, b) for a in range(-7, 8) for b in range(-7, 8)]
    cases += [(rng.randrange(-2 ** bits, 2 ** bits),
               rng.randrange(-2 ** bits, 2 ** bits))
              for bits in (8, 64, 600) for _ in range(200)]
    cases += [(6, 0), (-6, 0), (0, 6), (0, -6), (12, -18), (-12, -18)]
    for a, b in cases:
        x, y, g = genz._xgcd(a, b)
        ex, ey, eg = _euclid_xgcd(a, b)
        assert g == eg >= 0
        assert a * x + b * y == g == a * ex + b * ey
        if b == 0:
            assert (x, y) == (ex, ey)
        else:
            assert 0 <= x < abs(b // g)


# ---------------------------------------------------------------------------
# Module generation of Z^n, against the gcd of maximal minors
# ---------------------------------------------------------------------------

def _det(M) -> int:
    """Leibniz determinant of a square integer matrix."""
    out = 0
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= M[i][j]
        out += term
    return out


def _minor_gcd(rows, n: int) -> int:
    """gcd of the n x n minors of the rows in Z^n: the index of their
    span, 0 when it has rank below n (Newman, Integral Matrices, II)."""
    return math.gcd(*(_det(M) for M in itertools.combinations(rows, n)))


def test_hnf_index_matches_minor_gcd_seeded():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)]
                for _ in range(rng.randrange(1, n + 3))]
        index = _minor_gcd(rows, n)
        assert hnf(rows).index == index


# ---------------------------------------------------------------------------
# Index factorization
# ---------------------------------------------------------------------------

def test_factor_index():
    assert factor_index(1) == ()
    assert factor_index(9) == (3,)
    assert factor_index(288) == (2, 3)
    assert factor_index(2 ** 61 - 1) == (2 ** 61 - 1,)  # Mersenne prime cofactor
    with pytest.raises(BadParams):
        factor_index(0)
    # composite cofactor with no factor below 10^6: two 10-digit primes
    with pytest.raises(FactorizationIncomplete):
        factor_index(1000003**2 * 1000033)
    # (1000003 is above the trial bound, so the cofactor is composite)


def test_factor_index_refuses_probable_primes():
    # the least strong pseudoprime to all twelve Miller-Rabin bases
    psi12 = ffalg.MR_DETERMINISTIC_BOUND
    assert psi12 == 399165290221 * 798330580441
    # a prime past the bound is no better certified than psi12 itself
    for n in (psi12, 2 ** 89 - 1):
        with pytest.raises(FactorizationIncomplete):
            ffalg.is_prime(n)
    for n in (psi12, 2 ** 89 - 1, 3 * (2 ** 89 - 1)):
        with pytest.raises(FactorizationIncomplete):
            factor_index(n)
    # the largest prime below the bound is still certified
    assert factor_index(6 * (psi12 - 20)) == (2, 3, psi12 - 20)


# ---------------------------------------------------------------------------
# The witness and the census
# ---------------------------------------------------------------------------

def test_pair_orbits():
    orbits = orbitkeys.generating_orbits(2, 2, ffalg.make_field(2))
    assert len(orbits) == 16
    # PGL_2(F_2) acts freely: 16 orbits of 6 make the 96 generating pairs
    assert [size for _first, size in orbits.values()] == [6] * 16
    # the keyed orbits' first members are the pairs the witness keeps by
    # closures in M_2(F_2)^2
    assert [first for first, _size in orbits.values()] == list(zip(*construct_M2Z16()))


def test_construct_m2z16():
    x, y = construct_M2Z16()
    assert len(x) == len(y) == 16
    shape = shape_over_Z([(2, 16)])
    rep = generates_Z(shape, [x, y])
    assert rep.generates and rep.index == 1
    # every coordinate pair consists of {0,1} matrices
    for mats in (x, y):
        for mat in mats:
            assert set(mat) <= {0, 1}


def test_construct_m2z16_against_conjugacy_oracle():
    # the 16 pairs lie in distinct GL_2(F_2) orbits, each is the row-major
    # least pair of its orbit, and the orbits cover the 96 generating pairs
    f2 = ffalg.make_field(2)
    x, y = construct_M2Z16()
    reps = list(zip(x, y))
    assert reps == sorted(reps)
    assert not any(are_conjugate_tuples(f2, r1, r2)
                   for r1, r2 in itertools.combinations(reps, 2))
    covered = set()
    for A, B in reps:
        orbit = set()
        for g in gl_elements(f2, 2):
            ginv = inverse(f2, 2, g)
            orbit.add(tuple(ffalg.mat_mul(f2, 2, ffalg.mat_mul(f2, 2, g, a), ginv)
                            for a in (A, B)))
        assert min(orbit) == (A, B) and len(orbit) == 6
        covered |= orbit
    mats = [genz._code_to_zmat(2, c) for c in range(16)]
    pairs = {(mats[a], mats[b]) for a, b in f2_generating_pairs(2)}
    assert covered == pairs | {(b, a) for a, b in pairs}
    assert len(covered) == 96


def test_census_n2():
    assert zero_one_census(2) == (96, 0)


def test_census_n2_ordered_exhaustive_oracle():
    # independent of the unordered-sweep optimization: all 256 ordered pairs
    shape = SHAPE2
    fshape = shape_over_field(ffalg.make_field(2), [(2, 1, 1)])
    gen = fail = 0
    for a in range(16):
        for b in range(16):
            amat = genz._code_to_zmat(2, a)
            bmat = genz._code_to_zmat(2, b)
            if genff.generates(fshape, [(amat,), (bmat,)]):
                gen += 1
                if not generates_Z(shape, [(amat,), (bmat,)]).generates:
                    fail += 1
    assert (gen, fail) == zero_one_census(2) == (96, 0)


def test_census_threads_deterministic():
    assert zero_one_census(2, threads=3) == zero_one_census(2)
    with pytest.raises(UnsupportedSize):
        zero_one_census(4)


def test_census_n3_threads_deterministic():
    assert zero_one_census(3, threads=2) == zero_one_census(3) == (129024, 9132)


def _mat_mul_int(n, A, B):
    return tuple(sum(A[r * n + i] * B[i * n + c] for i in range(n))
                 for r in range(n) for c in range(n))


def _transpose(n, A):
    return tuple(A[c * n + r] for r in range(n) for c in range(n))


def _symmetric_images(n, a, b):
    """Sorted images of the pair {a, b} under P X P^T and its transpose
    for every permutation matrix P, computed on the matrices."""
    mats = (genz._code_to_zmat(n, a), genz._code_to_zmat(n, b))
    out = set()
    for perm in itertools.permutations(range(n)):
        P = tuple(int(perm[r] == c) for r in range(n) for c in range(n))
        Pt = _transpose(n, P)
        conj = [_mat_mul_int(n, _mat_mul_int(n, P, X), Pt) for X in mats]
        for img in (conj, [_transpose(n, X) for X in conj]):
            out.add(tuple(sorted(genff._f2_encode(X) for X in img)))
    return out


def _bitwise_symmetries(n):
    """The tables of _f2_symmetries, each image a sum over the code's bits."""
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


def _all_table_pair_classes(n, lo, hi):
    """f2_pair_classes by trying every table on every pair whose first
    code is least in its orbit."""
    tables = _bitwise_symmetries(n)
    least = [c for c in range(1 << (n * n)) if all(t[c] >= c for t in tables)]
    out = []
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
                out.append((a, b, len(tables) // stab))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_symmetry_tables_match_the_bitwise_build(n):
    assert genff._f2_symmetries(n) == _bitwise_symmetries(n)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_classes_match_the_all_table_scan(n):
    q = 1 << (n * n)
    full = list(genff.f2_pair_classes(n, 0, q))
    assert full == _all_table_pair_classes(n, 0, q)
    # uneven splits, each cut s inside the orbit of s: a smaller image of
    # s lies before the cut
    tables = _bitwise_symmetries(n)
    cuts = [s for s in range(1, q) if min(t[s] for t in tables) < s]
    for a, b in ((cuts[0], cuts[-1]), (cuts[1], cuts[2]), (cuts[-3], cuts[-2])):
        parts = [list(genff.f2_pair_classes(n, lo, hi))
                 for lo, hi in ((0, a), (a, b), (b, q))]
        assert parts[1] == _all_table_pair_classes(n, a, b), (a, b)
        assert parts[0] + parts[1] + parts[2] == full, (a, b)


def test_pair_class_weights_cover_all_pairs():
    for n in (2, 3):
        q = 1 << (n * n)
        classes = list(genff.f2_pair_classes(n, 0, q))
        assert sum(size for _a, _b, size in classes) == q * (q - 1) // 2
        assert len(classes) == {2: 49, 3: 11838}[n]


def test_pair_class_size_is_the_number_of_images():
    # the sizes come from stabilisers; count the images themselves
    for n in (2, 3):
        tables = genff._f2_symmetries(n)
        for a, b, size in genff.f2_pair_classes(n, 0, 1 << (n * n)):
            images = {tuple(sorted((t[a], t[b]))) for t in tables}
            assert size == len(images), (n, a, b)


def test_pair_classes_match_matrix_orbits_n2():
    classes = {(a, b): size for a, b, size in genff.f2_pair_classes(2, 0, 16)}
    least = set()
    for a, b in itertools.combinations(range(16), 2):
        images = _symmetric_images(2, a, b)
        rep = min(images)
        assert classes[rep] == len(images)
        least.add(rep)
    assert least == set(classes)


def test_pair_class_representative_has_same_verdicts():
    classes = {(a, b): size for a, b, size in genff.f2_pair_classes(3, 0, 512)}
    fshape = shape_over_field(ffalg.make_field(2), [(3, 1, 1)])
    rng = random.Random(4)
    pairs = rng.sample(list(itertools.combinations(range(512), 2)), 200)

    def verdicts(a, b):
        t = [(genz._code_to_zmat(3, a),), (genz._code_to_zmat(3, b),)]
        return (genff._generates_generic(fshape, [
                    genff._f2_encode(genff._element_coords(fshape, e)) for e in t]),
                generates_Z(SHAPE3, t).generates)

    seen = set()
    for a, b in pairs:
        images = _symmetric_images(3, a, b)
        rep = min(images)
        assert classes[rep] == len(images)
        assert verdicts(a, b) == verdicts(*rep)
        seen.add(verdicts(a, b))
    assert len(seen) == 3  # no F_2, F_2 only, and Z generation all occur


def test_census_shards_balanced(monkeypatch):
    # count representatives per shard, running the 4 * T shards in-process
    class InProcessPool:
        def __init__(self, threads):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            return [fn(shard) for shard in shards]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    classes = genff.f2_pair_classes
    per_shard = []

    def counting(n, lo, hi):
        per_shard.append(0)
        for rep in classes(n, lo, hi):
            per_shard[-1] += 1
            yield rep

    monkeypatch.setattr(genff, "f2_pair_classes", counting)
    assert zero_one_census(3, threads=2) == (129024, 9132)
    assert len(per_shard) == 8 and sum(per_shard) == 11838
    assert max(per_shard) <= 2 * sum(per_shard) / len(per_shard)


def test_generates_Z_bool_matches_certificate():
    for a, b in itertools.product(range(16), repeat=2):
        t = [(genz._code_to_zmat(2, a),), (genz._code_to_zmat(2, b),)]
        assert generates_Z_bool(SHAPE2, t) == generates_Z(SHAPE2, t).generates
    box = sampler.BoxModel(200, 7)
    hits = 0
    for i in range(200):
        t = sampler.sample_tuple(SHAPE3, 2, box, i)
        verdict = generates_Z_bool(SHAPE3, t)
        assert verdict == generates_Z(SHAPE3, t).generates
        hits += verdict
    assert 0 < hits < 200


# -- M_2(Z) and M_3(Z) pairs: the commutator lattices against the closure
#
# generates_Z_bool decides a pair in one M_2(Z) or M_3(Z) block by the
# rows and columns of its commutators A^k B^l - B^l A^k; the Z-closure is
# the oracle.

def _closure_generates(shape, t):
    return genz._closure_echelon(shape, t).index_if_full() == 1


def _assert_rule_matches_closure(A, B):
    n = 2 if len(A) == 4 else 3
    shape = SHAPE2 if n == 2 else SHAPE3
    t = [(A,), (B,)]
    verdict = commutator_lattice_test(A, B)
    assert verdict == generates_Z_bool(shape, t) == _closure_generates(shape, t), (A, B)
    return verdict


def test_commutator_rule_on_every_census_pair():
    # every representative that generates mod 2, as census sends it over Z
    mats = [genz._code_to_zmat(3, c) for c in range(512)]
    decided = failed = 0
    for a, b, _size in genff.f2_pair_classes(3, 0, 512):
        if genff._f2_generates(3, (a, b)):
            decided += 1
            failed += not _assert_rule_matches_closure(mats[a], mats[b])
    assert decided == 5888 and 0 < failed < decided


@pytest.mark.parametrize("N", [1, 2, 5, 200, 10 ** 18])
def test_commutator_rule_on_seeded_pairs(N):
    verdicts = set()
    for shape in (SHAPE2, SHAPE3):
        box = sampler.BoxModel(N, 2026)
        for i in range(100):
            (A,), (B,) = sampler.sample_tuple(shape, 2, box, i)
            verdicts.add(_assert_rule_matches_closure(A, B))
    assert verdicts == {False, True}


def _mat_mul_Z(n, A, B):
    return tuple(sum(A[i * n + t] * B[t * n + j] for t in range(n))
                 for i in range(n) for j in range(n))


def _built_failures(rng, n):
    """Pairs that cannot generate M_n(Z), one of each kind."""
    def rand():
        return tuple(rng.randint(-9, 9) for _ in range(n * n))

    eye = ffalg.mat_identity(n)
    A = rand()
    A2 = _mat_mul_Z(n, A, A)
    c = [rng.randint(-5, 5) for _ in range(3)]
    poly = tuple(c[0] * i + c[1] * a + c[2] * a2 for i, a, a2 in zip(eye, A, A2))
    # e_1 is a common eigenvector: column 0 is zero below the diagonal
    line = [tuple(0 if j % n == 0 and j else x for j, x in enumerate(rand()))
            for _ in range(2)]
    plane = [transpose(n, X) for X in line]
    ell = rng.choice([2, 3, 5, 7])
    lam = rng.randint(-3, 3)
    scalar_mod_ell = tuple(lam * i + ell * x for i, x in zip(eye, rand()))
    return [(A, poly), (A, A2), tuple(line), tuple(plane),
            (A, tuple(lam * x for x in A)), (scalar_mod_ell, rand())]


def test_commutator_rule_on_built_failures():
    rng = random.Random(151)
    for _ in range(20):
        for n in (2, 3):
            for A, B in _built_failures(rng, n):
                assert not _assert_rule_matches_closure(A, B)
                assert not _assert_rule_matches_closure(B, A)
    # the remark's pair fails only mod 3, with index 9
    assert closure_lattice(SHAPE3, [(REMARK_A,), (REMARK_B,)]).index == 9
    assert not _assert_rule_matches_closure(REMARK_A, REMARK_B)


def test_commutator_rule_only_for_pairs_in_one_block(monkeypatch):
    # triples, M_3(Z)^2 and M_2(Z) x Z keep the closure
    calls = []
    closure = genz._closure_echelon
    monkeypatch.setattr(genz, "_closure_echelon",
                        lambda *args: calls.append(1) or closure(*args))
    E = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    generates_Z_bool(SHAPE3, [(REMARK_A,), (REMARK_B,)])
    generates_Z_bool(SHAPE2, [(E12,), (E21,)])
    assert not calls
    generates_Z_bool(SHAPE3, [(REMARK_A,), (REMARK_B,), (E,)])
    generates_Z_bool(shape_over_Z([(3, 2)]),
                     [(REMARK_A, REMARK_B), (REMARK_B, REMARK_A)])
    generates_Z_bool(shape_over_Z([(1, 1), (2, 1)]), [((1,), E12), ((0,), E21)])
    assert len(calls) == 3
    with pytest.raises(UnsupportedSize):
        commutator_lattice_test((1,) * 16, (0,) * 16)


@st.composite
def _integer_pairs(draw):
    """A pair in M_2(Z) or M_3(Z): free, or built to fail (B a polynomial
    in A, a common line, a common plane, A scalar mod a prime)."""
    n = draw(st.sampled_from([2, 3]))
    bound = draw(st.sampled_from([1, 3, 50, 10 ** 12]))
    kind = draw(st.sampled_from(["free", "poly", "line", "plane", "scalar"]))
    # entries uniform on [-bound, bound]: hypothesis's own integers crowd at 0
    rng = draw(st.randoms(use_true_random=False))
    A, B = (tuple(rng.randint(-bound, bound) for _ in range(n * n))
            for _ in range(2))
    if kind == "poly":
        c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
        B = tuple(c0 * i + c1 * a for i, a in zip(ffalg.mat_identity(n), A))
    elif kind in ("line", "plane"):
        A, B = (tuple(0 if j % n == 0 and j else x for j, x in enumerate(X))
                for X in (A, B))
        if kind == "plane":
            A, B = transpose(n, A), transpose(n, B)
    elif kind == "scalar":
        ell = rng.choice([2, 3, 5])
        A = tuple(i + ell * a for i, a in zip(ffalg.mat_identity(n), A))
    return A, B


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_integer_pairs())
def test_commutator_rule_property(pair):
    _assert_rule_matches_closure(*pair)


def _det3(C):
    return (C[0] * (C[4] * C[8] - C[5] * C[7])
            - C[1] * (C[3] * C[8] - C[5] * C[6])
            + C[2] * (C[3] * C[7] - C[4] * C[6]))


def test_commutator_rule_builds_commutators_lazily(monkeypatch):
    # C_11 = AB - BA takes two products; C_12, C_21 add three each (B^2,
    # A^2) and C_22 two more.  A unimodular C_11 decides both passes, any
    # other pair needs C_12, and the column pass reuses the row pass's
    # commutators, so a failing pair (which exhausts one pass) takes ten.
    mul = genz._mat3_mul
    calls = []
    monkeypatch.setattr(genz, "_mat3_mul",
                        lambda X, Y: calls.append(1) or mul(X, Y))

    def products(A, B):
        calls.clear()
        verdict = commutator_lattice_test(A, B)
        return verdict, len(calls)

    mats = [genz._code_to_zmat(3, c) for c in range(512)]
    census = [(mats[a], mats[b])
              for a, b, _size in genff.f2_pair_classes(3, 0, 512)
              if genff._f2_generates(3, (a, b))]
    rng = random.Random(191)
    built = [pair for _ in range(10) for pair in _built_failures(rng, 3)]
    seen = set()
    for A, B in census + built + [(REMARK_A, REMARK_B)]:
        verdict, used = products(A, B)
        det = _det3([x - y for x, y in zip(mul(A, B), mul(B, A))])
        if not verdict:
            assert used == 10, (A, B)
        elif det in (1, -1):
            assert used == 2, (A, B)
        else:
            assert used in (5, 8, 10), (A, B)
        seen.add((verdict, used))
    assert {(True, 2), (True, 5), (False, 10)} <= seen


@st.composite
def _z3_vector_sets(draw):
    """Up to seven vectors in Z^3 with entries up to 2^200: free, all in
    the span of two, one column scaled by a prime (index above 1), or
    with all-zero vectors among them."""
    bound = draw(st.sampled_from([1, 4, 2 ** 64, 2 ** 200]))
    kind = draw(st.sampled_from(["free", "rank2", "scaled", "zeros"]))
    count = draw(st.integers(0, 7))
    rng = draw(st.randoms(use_true_random=False))

    def rand():
        return [rng.randint(-bound, bound) for _ in range(3)]

    vecs = [rand() for _ in range(count)]
    if kind == "rank2":
        u, w = rand(), rand()
        vecs = [[a * x + b * y for x, y in zip(u, w)]
                for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(count))]
    elif kind == "scaled":
        ell, j = rng.choice([2, 3, 5, 2 ** 61 - 1]), rng.randrange(3)
        for v in vecs:
            v[j] *= ell
    elif kind == "zeros":
        vecs += [[0, 0, 0]] * rng.randint(1, 3)
    return vecs


_BIG = 2 ** 200


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_z3_vector_sets(), st.randoms(use_true_random=False))
@example([], random.Random(0))
@example([[0, 0, 0]] * 4, random.Random(0))
@example([[2, 0, 0], [0, 1, 0], [0, 0, 1]], random.Random(0))
# index 2^201 + 1 until (0, 1, 0) arrives, the last Bezout step on a
# pivot past 64 bits
@example([[2 * _BIG + 1, 0, 0], [_BIG, 1, 0], [0, 0, -1], [0, 1, 0]],
         random.Random(0))
def test_spans_Z3_against_minor_gcd_and_hnf(vecs, rng):
    verdict = genz._spans_Z3(vecs)
    assert verdict == (_minor_gcd(vecs, 3) == 1) == (hnf(vecs, 3).index == 1)
    for _ in range(3):
        assert genz._spans_Z3(rng.sample(vecs, len(vecs))) == verdict


def _random_integer_matrices(seed, count):
    """Seeded integer matrices of 1..5 rows and columns, some of them
    rank-deficient (a row repeated as a multiple of another)."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            rows[-1] = [3 * x for x in rows[0]]
        yield rows


def _in_lattice(sympy, basis_cols, vec) -> bool:
    """Is vec an integer combination of the independent columns?"""
    try:
        x, params = basis_cols.gauss_jordan_solve(sympy.Matrix(vec))
    except ValueError:
        return False
    assert params.shape[0] == 0
    return all(v.is_integer for v in x)


def test_hnf_against_sympy_hermite_normal_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    for rows in _random_integer_matrices(31, 60):
        ours = hnf(rows)
        if not any(any(r) for r in rows):
            assert ours.rank == 0
            continue
        # sympy spans the columns of its form by those of its input
        theirs = hermite_normal_form(sympy.Matrix(rows).T)
        assert ours.rank == theirs.shape[1]
        assert all(_in_lattice(sympy, theirs, b) for b in ours.basis)
        ours_cols = sympy.Matrix(ours.basis).T
        assert all(_in_lattice(sympy, ours_cols, list(theirs.col(j)))
                   for j in range(theirs.shape[1]))
        if ours.rank == ours.D:
            assert ours.index == abs(theirs.det())
