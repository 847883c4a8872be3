import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algen import genff, genz, sampler
from algen.errors import BadParams, TooLarge
from algen.ffalg import make_field
from algen.genff import shape_over_Z
from algen.polys import poly_eval
from algen.sampler import (
    BoxModel,
    DensityEstimate,
    SplitMix64,
    exhaustive_poly_density,
    mc_density,
    sample_tuple,
    sample_tuples,
)

SHAPE2 = shape_over_Z([(2, 1)])

# (shape, k, box): seeded slices of M_3, M_2^3 and M_2
SCREEN_SLICES = [
    (shape_over_Z([(3, 1)]), 2, BoxModel(200, 1, 300)),
    (shape_over_Z([(2, 3)]), 2, BoxModel(50, 1, 100)),
    (shape_over_Z([(2, 1)]), 3, BoxModel(50, 1, 300)),
]

X1 = {(1, 0): 1}
X2 = {(0, 1): 1}


def test_splitmix_determinism():
    assert SplitMix64(42).draws(2 ** 64, 5) == SplitMix64(42).draws(2 ** 64, 5)
    box = BoxModel(2 ** 62, 42)
    assert sample_tuple(SHAPE2, 1, box, 0) != sample_tuple(SHAPE2, 1, box, 1)


def test_splitmix_pinned_draws():
    # the published SplitMix64 outputs for seed 0, from the reference
    # generator and the lane-packed one
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert _scalar_draws(0, 2 ** 64, 3)[0] == published
    assert SplitMix64(0).draws(2 ** 64, 3) == published
    # the first output of the substreams of samples 0 and 1 at seed 42
    assert _scalar_draws(_substream_state(42, 0), 2 ** 64, 1)[0] == [
        6332618229526065668]
    assert _scalar_draws(_substream_state(42, 1), 2 ** 64, 1)[0] == [
        3480922969410067931]
    # m = 2^63 + 1 rejects about half of the 64-bit outputs; one call and
    # six calls make the same stream
    want = [7191089600892374487, 309689372594955804, 8346079845500723674,
            4601199455465548305, 8632209307422871798, 6051947643683389182]
    rng = SplitMix64(7)
    assert rng.draws(2 ** 63 + 1, 6) == want
    steps = (rng.state - 7) * pow(sampler._GOLDEN, -1, 2 ** 64) % 2 ** 64
    assert steps > 6
    rng = SplitMix64(7)
    assert [rng.draws(2 ** 63 + 1, 1)[0] for _ in range(6)] == want
    assert sample_tuple(shape_over_Z([(3, 1)]), 2, BoxModel(200, 1), 0) == (
        ((34, -146, 22, 93, 140, -7, 46, -84, 160),),
        ((-27, -136, -145, -121, 129, 177, 68, -140, -21),))
    assert sample_tuple(shape_over_Z([(2, 2)]), 1, BoxModel(3, 5), 9) == (
        ((2, -1, -1, -3), (-1, 1, -1, 2)),)


_MASK = 2 ** 64 - 1


def _scalar_draws(state, m, count):
    """The reference generator, one SplitMix64 step at a time: count draws
    from [0, m) by rejection, the final state and the number of steps."""
    bound = 2 ** 64 - 2 ** 64 % m
    out = []
    steps = 0
    while len(out) < count:
        state = (state + sampler._GOLDEN) & _MASK
        steps += 1
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        if z < bound:
            out.append(z % m)
    return out, state, steps


def _substream_state(seed, index):
    """The state of the substream of a sample index: the first output of
    a generator one step behind seed XOR (index + 1) * GOLDEN."""
    z = (seed ^ (index + 1) * sampler._GOLDEN) & _MASK
    (s,), _, _ = _scalar_draws((z - sampler._GOLDEN) & _MASK, 2 ** 64, 1)
    return s


def _scalar_sample(shape, k, box, index):
    """sample_tuple by the reference generator, and its steps past the
    k * rank that every sample takes."""
    count = k * shape.rank
    vals, _, steps = _scalar_draws(_substream_state(box.seed, index),
                                   2 * box.N + 1, count)
    it = iter(v - box.N for v in vals)
    t = tuple(tuple(tuple(itertools.islice(it, n * n))
                    for n in shape.slot_sizes()) for _ in range(k))
    return t, steps - count


@pytest.mark.parametrize("m", [1, 7, 401, 2 ** 62 + 3, 2 ** 63 + 1, 2 ** 64])
def test_draws_match_the_scalar_generator(m):
    # counts past _LANES are mixed in several rounds; the state ends just
    # after the last accepted output
    for state in (0, 7, _MASK):
        for count in (0, 1, 5, sampler._LANES + 3):
            rng = SplitMix64(state)
            want, end, _ = _scalar_draws(state, m, count)
            assert rng.draws(m, count) == want, (state, count)
            assert rng.state == end, (state, count)


@pytest.mark.parametrize("N", [0, 200, 2 ** 62, 2 ** 63 - 1])
def test_sample_batches_match_per_index_samples(monkeypatch, N):
    # a lane cap of 64 leaves 1 to 8 samples a batch, so the ranges start
    # off a batch boundary and cross several; at N = 2^62 half of the
    # outputs are rejected and samples top up their streams mid-batch
    monkeypatch.setattr(sampler, "_LANES", 64)
    topped = 0
    for seed in (-3, 0, 2 ** 70 + 5):
        for blocks in ([(3, 1)], [(2, 2)], [(2, 1), (3, 2)]):
            shape = shape_over_Z(blocks)
            for k in (1, 2, 3):
                box = BoxModel(N, seed)
                got = list(sample_tuples(shape, k, box, 5, 24))
                assert got == [sample_tuple(shape, k, box, i)
                               for i in range(5, 24)], (seed, blocks, k)
                for i, t in enumerate(got, 5):
                    want, extra = _scalar_sample(shape, k, box, i)
                    assert t == want, (seed, blocks, k, i)
                    topped += extra > 0
    assert (topped > 0) == (N == 2 ** 62)


def test_sample_batches_stay_within_the_lane_cap(monkeypatch):
    # 2^10 lanes: 8 samples of 128 draws a batch, and one sample of 1280
    # draws a batch where a sample alone is past the cap
    lanes = []
    mix = sampler._mix

    def counted(z, n):
        lanes.append(n)
        return mix(z, n)

    monkeypatch.setattr(sampler, "_mix", counted)
    shape = shape_over_Z([(8, 1)])
    box = BoxModel(2 ** 62, 3)
    got = list(sample_tuples(shape, 2, box, 10, 80))
    assert sampler._LANES == 2 ** 10 and max(lanes) == 8 * 128
    assert got[:3] == [_scalar_sample(shape, 2, box, i)[0] for i in (10, 11, 12)]
    lanes.clear()
    assert len(list(sample_tuples(shape, 20, box, 0, 2))) == 2
    assert max(lanes) == 20 * 64


def test_sample_tuple_point_box():
    t = sample_tuple(SHAPE2, 2, BoxModel(0, 123))
    assert t == (((0, 0, 0, 0),), ((0, 0, 0, 0),))


def test_sample_tuple_deterministic():
    box = BoxModel(5, 42)
    assert sample_tuple(SHAPE2, 3, box, 9) == sample_tuple(SHAPE2, 3, box, 9)
    assert sample_tuple(SHAPE2, 3, box, 9) != sample_tuple(SHAPE2, 3, box, 10)


def test_coordinate_frequencies():
    # 10^4 draws at N = 3: each of the 7 values within 0.02 of 1/7
    shape1 = shape_over_Z([(1, 1)])
    box = BoxModel(3, 42)
    counts = Counter(sample_tuple(shape1, 1, box, i)[0][0][0]
                     for i in range(10_000))
    assert set(counts) == set(range(-3, 4))
    for v, c in counts.items():
        assert abs(c / 10_000 - 1 / 7) < 0.02, (v, c)


def test_mc_density_constant_predicate():
    # 1 alone spans M_1(Z), so every tuple generates there
    est = mc_density(shape_over_Z([(1, 1)]), 2, BoxModel(10, 1, 500))
    assert est.estimate == 1 and est.ci95_halfwidth == 0.0
    assert est == DensityEstimate(500, 500, Fraction(1), 0.0)


def test_mc_density_threads_deterministic():
    box = BoxModel(20, 7, 400)
    a = mc_density(SHAPE2, 2, box, threads=1)
    b = mc_density(SHAPE2, 2, box, threads=3)
    assert a == b
    shape, k, box = SCREEN_SLICES[0]
    assert mc_density(shape, k, box, threads=2) == mc_density(shape, k, box)


def test_mc_density_threads_with_shards_off_batch_boundaries():
    # 56 samples of 18 draws a batch; 1003 samples make shards of 250 or
    # 251 at threads=1 and of 125 or 126 at threads=2
    shape = shape_over_Z([(3, 1)])
    box = BoxModel(2 ** 62, -3, 1003)
    hits = sum(genz.generates_Z_bool(shape, sample_tuple(shape, 2, box, i))
               for i in range(box.samples))
    assert mc_density(shape, 2, box).hits == hits
    assert mc_density(shape, 2, box, threads=2) == mc_density(shape, 2, box)


@pytest.mark.parametrize("shape, k, box", SCREEN_SLICES)
def test_mc_screen_matches_unscreened_oracle(shape, k, box):
    # hits equal the unscreened Z-decision, which equals the closure's,
    # and every sample the mod-2 screen rejects has a closure index that
    # is 0 or even
    shape2 = genff.shape_over_field(make_field(2), shape.blocks)
    hits = rejected = 0
    for i in range(box.samples):
        t = sample_tuple(shape, k, box, i)
        verdict = genz.generates_Z_bool(shape, t)
        index = genz.closure_lattice(shape, t).index
        assert verdict == (index == 1), i
        hits += verdict
        if not genff.generates(shape2, [[[v % 2 for v in mat] for mat in elem]
                                        for elem in t]):
            rejected += 1
            assert index % 2 == 0, i
    assert mc_density(shape, k, box).hits == hits
    assert 0 < rejected < box.samples


def test_exhaustive_single_variable():
    # only +-1 generate the unit ideal of Z
    for N in (1, 5, 50):
        assert exhaustive_poly_density([{(1,): 1}], N) == Fraction(2, 2 * N + 1)


def test_exhaustive_denominator_exact():
    # the value is an exact count over (2N+1)^n grid points
    d = exhaustive_poly_density([X1, X2], 7)
    assert (d * 15 ** 2).denominator == 1
    assert 0 <= d <= 1
    # squares give the same count: gcd(a^2, b^2) = 1 iff gcd(a, b) = 1
    dsq = exhaustive_poly_density([{(2, 0): 1}, {(0, 2): 1}], 7)
    assert d == dsq


def test_exhaustive_brute_oracle():
    # direct loop oracle on a small box
    N = 6
    count = sum(1 for a in range(-N, N + 1) for b in range(-N, N + 1)
                if math.gcd(a, b) == 1)
    assert exhaustive_poly_density([X1, X2], N) == Fraction(count, (2 * N + 1) ** 2)


def test_exhaustive_huge_coefficient_matches_gcd_loop():
    # a coefficient of 2^70 puts the row constants past 2^62
    big = 2 ** 70
    d1 = exhaustive_poly_density([{(1, 0): big}, X2], 4)
    d2 = exhaustive_poly_density([{(1, 0): 1, (0, 0): 0}, X2], 4)
    # big * a and a generate different ideals; compare against explicit loop
    count = sum(1 for a in range(-4, 5) for b in range(-4, 5)
                if math.gcd(big * a, b) == 1)
    assert d1 == Fraction(count, 81)
    assert d2 == exhaustive_poly_density([X1, X2], 4)


def test_exhaustive_cap():
    with pytest.raises(TooLarge):
        exhaustive_poly_density([X1, X2], 10 ** 6)


def test_poly_validation():
    with pytest.raises(BadParams):
        exhaustive_poly_density([{(1, 0): 1, (0, 1, 1): 1}], 2)
    with pytest.raises(BadParams):
        exhaustive_poly_density([], 2)
    with pytest.raises(BadParams):  # a constant in zero variables
        exhaustive_poly_density([{(): 1}], 3)


def test_uniform_rejects_ranges_beyond_64_bits():
    rng = SplitMix64(1)
    with pytest.raises(BadParams):
        rng.draws(2 ** 64 + 1, 1)
    with pytest.raises(BadParams):
        rng.draws(0, 3)
    assert 0 <= rng.draws(2 ** 64, 1)[0] < 2 ** 64
    with pytest.raises(BadParams):
        BoxModel(2 ** 63, 1)
    assert BoxModel(2 ** 63 - 1, 1).N == 2 ** 63 - 1


def test_exhaustive_rejects_negative_half_width():
    with pytest.raises(BadParams):
        exhaustive_poly_density([X1, X2], -1)


# -- the row-constant route against a per-point loop
#
# On a row (all variables but the last fixed) the polynomials free of the
# last variable have a gcd c.  Rows with c = 1 count whole, 0 < c < 2^20
# go through the roots mod each prime of c, c = 0 with one polynomial in
# the last variable scans a window where it can be +-1, and the other
# rows take the gcd of every value.  Each system below is compared with
# _density_per_point, which takes a gcd per point.  A coefficient of 2^70
# sends the values past int64 and row constants past 2^62.

COEFFS = (1, -1, 2, -2, 3, 6, 12, 30, 210, 2 ** 21, 2 ** 70)
BOX_N = {1: 12, 2: 5, 3: 2}


def _system(pick):
    """1-3 polynomials in 1-3 variables, 1-3 terms each, exponents <= 2;
    pick(options) chooses one option."""
    nvars = pick((1, 2, 3))
    polys = []
    for _ in range(pick((1, 2, 3))):
        poly = {}
        for _ in range(pick((1, 2, 3))):
            poly[tuple(pick((0, 1, 2)) for _ in range(nvars))] = pick(COEFFS)
        polys.append(poly)
    return polys, nvars


def _value(poly, point):
    return sum(c * math.prod(x ** e for x, e in zip(point, exps))
               for exps, c in poly.items())


def _routes(polys, nvars):
    """Which routes the rows of the box take, found by direct evaluation."""
    free = [f for f in polys if all(e[-1] == 0 for e in f)]
    rest = [f for f in polys if any(e[-1] for e in f)]
    N = BOX_N[nvars]
    box = itertools.product(range(-N, N + 1), repeat=nvars)
    tags = ({"rest past int64"}
            if any(abs(_value(f, x)) >= 2 ** 63 for x in box for f in rest)
            else set())
    if not free:
        return tags | {"no free polynomial"}
    if not rest:
        tags.add("no rest")
    else:
        tags.add("rest depends on the row"
                 if any(any(e[:-1]) for f in rest for e in f)
                 else "rest fixed")
    for row in itertools.product(range(-N, N + 1), repeat=nvars - 1):
        c = math.gcd(*(_value(f, row + (0,)) for f in free))
        tags.add("c = 0" if c == 0 else "c = 1" if c == 1
                 else "c >= 2^62" if c >= 2 ** 62
                 else "c >= 2^20" if c >= 2 ** 20 else "primes of c")
    return tags


def _density_per_point(polys, nvars, N) -> Fraction:
    """The box density by the gcd of the values at every point."""
    points = list(itertools.product(range(-N, N + 1), repeat=nvars))
    good = sum(math.gcd(*(_value(f, x) for f in polys)) == 1 for x in points)
    return Fraction(good, len(points))


def _assert_matches_per_point(polys, nvars):
    N = BOX_N[nvars]
    assert (exhaustive_poly_density(polys, N)
            == _density_per_point(polys, nvars, N)), polys


@pytest.mark.parametrize("bound", [5, 65536])
def test_row_constant_route_matches_per_point_oracle(monkeypatch, bound):
    # a bound of 5 sends every row constant above 4 past the primes of c,
    # to the gcd at every point; 65536 keeps 6, 12, 30 and 210 on it
    monkeypatch.setattr(sampler, "_PRIME_ROUTE_BOUND", bound)
    rng = random.Random(14)
    seen = set()
    for _ in range(300):
        polys, nvars = _system(rng.choice)
        _assert_matches_per_point(polys, nvars)
        seen |= _routes(polys, nvars)
    assert seen == {"no free polynomial", "no rest", "rest fixed",
                    "rest depends on the row", "c = 0", "c = 1",
                    "c >= 2^20", "c >= 2^62", "primes of c",
                    "rest past int64"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_constant_route_matches_per_point_property(data):
    _assert_matches_per_point(*_system(lambda opts: data.draw(st.sampled_from(opts))))


def test_row_constant_route_skips_the_gcd(monkeypatch):
    N = 50
    points = (2 * N + 1) ** 2
    count = sum(1 for a in range(-N, N + 1) for b in range(-N, N + 1)
                if math.gcd(a, b) == 1)
    calls = []
    gcd = math.gcd

    def counted(*args):
        calls.append(None)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counted)
    assert exhaustive_poly_density([X1, X2], N) == Fraction(count, points)
    # a gcd per row constant, none per point
    assert len(calls) < points // 10, len(calls)
    # no polynomial is free of the last variable: a gcd at every point
    calls.clear()
    exhaustive_poly_density([{(1, 0): 1, (0, 1): 1},
                             {(1, 0): 1, (0, 1): -1}], N)
    assert len(calls) >= points, len(calls)


def test_exhaustive_long_row_in_chunks():
    # rows of 2 * 10^6 + 1 and 2 * 10^7 + 1 points, never held in memory
    for polys, N, good in [
        ([{(1,): 1}], 10 ** 7, 2),
        # y^2 - 2 is -1 at y = +-1 and at no other point
        ([{(2,): 1, (0,): -2}], 10 ** 7, 2),
        # the window |y| <= (10^6 + 1) / 1 covers the whole row; only
        # y = 1 - 10^6 is good, and y = -1 - 10^6 lies just outside the box
        ([{(1,): 1, (0,): 10 ** 6}], 10 ** 6, 1),
    ]:
        tracemalloc.start()
        try:
            d = exhaustive_poly_density(polys, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == Fraction(good, 2 * N + 1), polys
        assert peak < 64 * 2 ** 20, (polys, peak)


def test_row_values_direct_and_by_differences_agree():
    # fewer points than D + 1 are evaluated one by one, more by running
    # sums of the D-th difference: both routes give every value
    rng = random.Random(11)
    for _ in range(200):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] + [rng.choice((-3, 1, 2))]
        y0 = rng.randint(-20, 20)
        want = [sum(c * y ** i for i, c in enumerate(f)) for y in range(y0, y0 + 12)]
        for count in range(13):
            assert list(sampler._values(f, y0, count)) == want[:count], (f, y0, count)
    # sparse rows, a few terms up to degree 3000, are evaluated one by one
    # on every row; Horner over every coefficient checks a spread of points
    for D in (40, 300, 3000):
        f = [0] * (D + 1)
        for e in {0, 1, D // 3, D}:
            f[e] = rng.choice((-2, -1, 1, 3))
        for y0, count in ((-D // 2, D + 2), (-3, 7)):
            got = list(sampler._values(f, y0, count))
            assert len(got) == count
            for i in range(0, count, max(1, count // 40)):
                assert got[i] == poly_eval(f, y0 + i), (D, y0, i)


def test_short_row_values_by_sparse_terms():
    # fewer points than D + 1: the nonzero terms, a power each, give the
    # values poly_eval gives by Horner over every coefficient
    f = [0] * 5001
    f[0], f[17], f[4000], f[5000] = 2, -1, 7, 3
    for y0, count in ((-3, 7), (0, 1), (-40, 80)):
        assert (list(sampler._values(f, y0, count))
                == [poly_eval(f, y) for y in range(y0, y0 + count)])


def test_exhaustive_high_degree_on_a_small_box():
    # x^100000 on 7 points: the window |x| <= 1 takes 3 values by Horner,
    # where D rounds of differences over D + 1 values never finished
    t0 = time.perf_counter()
    assert exhaustive_poly_density([{(100000,): 1}], 3) == Fraction(2, 7)
    assert exhaustive_poly_density([{(1000,): 6, (0,): 3}], 3) == 0
    # with c = 0 and two polynomials in the last variable every point
    # takes a gcd: only x = +-1 is good
    assert exhaustive_poly_density([{(100000,): 1}, {(3,): 2}], 3) == Fraction(2, 7)
    # 3001 points of x^2000, a power each, where 2001 values and 2000
    # rounds of differences took 8 s
    assert exhaustive_poly_density([{(2000,): 1}, {(3,): 2}], 1500) == Fraction(2, 3001)
    assert time.perf_counter() - t0 < 1.5
