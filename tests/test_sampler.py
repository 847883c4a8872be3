import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algen import genff, genz, sampler
from algen.errors import BadParams, TooLarge
from algen.ffalg import make_field
from algen.genff import shape_over_Z
from algen.sampler import (
    BoxModel,
    DensityEstimate,
    SplitMix64,
    exhaustive_poly_density,
    mc_density,
    sample_tuple,
    substream,
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
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]
    assert substream(42, 0).next64() != substream(42, 1).next64()


def test_splitmix_pinned_draws():
    # the published SplitMix64 outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert substream(42, 0).next64() == 6332618229526065668
    assert substream(42, 1).next64() == 3480922969410067931
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
# go through the primes of c, and c = 0, c >= 2^20 or no polynomial free
# of the last variable take the gcd of every value.  Each system below is
# compared with _density_per_point, which takes a gcd per point in Python
# integers.  A coefficient of 2^70 sends the values past int64, into
# object arrays, and row constants past 2^62.

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


@pytest.mark.parametrize("chunk", [sampler._CHUNK, 5])
def test_row_constant_route_matches_per_point_oracle(monkeypatch, chunk):
    # a chunk of 5 points splits every row, so the memo runs per chunk
    monkeypatch.setattr(sampler, "_CHUNK", chunk)
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


class _GcdCalled(Exception):
    pass


def test_row_constant_route_skips_the_gcd(monkeypatch):
    def refuse(*args, **kwargs):
        raise _GcdCalled

    monkeypatch.setattr(np, "gcd", refuse)
    N = 50
    count = sum(1 for a in range(-N, N + 1) for b in range(-N, N + 1)
                if math.gcd(a, b) == 1)
    assert exhaustive_poly_density([X1, X2], N) == Fraction(count, (2 * N + 1) ** 2)
    # no polynomial is free of the last variable: the gcd route remains
    with pytest.raises(_GcdCalled):
        exhaustive_poly_density([{(1, 0): 1, (0, 1): 1},
                                 {(1, 0): 1, (0, 1): -1}], N)


def test_exhaustive_long_row_in_chunks():
    # one row of 2 * 10^7 + 1 points: a single array of it would take 160 MB
    N = 10 ** 7
    tracemalloc.start()
    try:
        d = exhaustive_poly_density([{(1,): 1}], N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == Fraction(2, 2 * N + 1)
    assert peak < 64 * 2 ** 20, peak
