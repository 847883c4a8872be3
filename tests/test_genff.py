import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import orbitkeys
import pytest
from conjugacy import (
    are_conjugate_tuples,
    fq_insert,
    frobenius,
    galois_order,
    inverse,
    is_invertible,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from listclosure import list_closure_generates
from paperbounds import (
    _isqrt_ceil,
    count_field_type_subalgebras,
    g_closed_form,
    lower_bound,
)
from structural import generates_structural, transpose
from subspacesweep import subspace_count, subspace_total

from algen import ffalg, genff
from algen.errors import BadParams, ShapeMismatch, TooLarge, UnsupportedSize
from algen.ffalg import make_field, mat_mul
from algen.genff import (
    alpha,
    brute_count,
    count_gen_power_formula,
    gen_count,
    generates,
    shape_over_field,
    two_generators_ext,
)
from algen.polys import f_poly, h_poly, poly_eval

E12 = (0, 1, 0, 0)
E21 = (0, 0, 1, 0)


def _m2_shape(q, s=1):
    p, e = ffalg.prime_power_split(q)
    return shape_over_field(make_field(p, e), [(2, s, 1)])


def test_generates_examples():
    shape = _m2_shape(2)
    assert generates(shape, [(E12,), (E21,)])
    assert not generates(shape, [((1, 0, 0, 0),), ((0, 0, 0, 1),)])  # diagonal
    assert not generates(shape, [((1, 0, 0, 1),)])  # scalars only, D > 1
    # over a 1-dimensional algebra scalars do generate (unital convention),
    # over F_2 through the packed closure with D = 1
    for q in (2, 3):
        p1 = shape_over_field(make_field(q), [(1, 1, 1)])
        assert generates(p1, [])
        assert generates(p1, [((q - 1,),)])
        assert generates(p1, [((0,),), ((1,),)])


def test_generates_refuses_entries_outside_the_field():
    # entries are element codes in [0, q^s), never reduced: over F_2 the
    # code 2 is not E12's 1, over F_4 the code 5 is not 1
    cases = [(2, 1, 2), (3, 1, 3), (3, 1, -1), (4, 1, 4), (4, 1, 5), (2, 2, 4)]
    for q, s, bad in cases:
        shape = _m2_shape(q, s)
        with pytest.raises(BadParams):
            generates(shape, [(E12,), ((0, 0, bad, 0),)])
        top = q ** s - 1
        assert generates(shape, [(E12,), ((0, 0, top, 0),)])


def test_generates_shape_validation():
    shape = _m2_shape(2)
    with pytest.raises(ShapeMismatch):
        generates(shape, [(E12, E21)])  # two slots, shape has one
    with pytest.raises(ShapeMismatch):
        shape_over_field(make_field(2), [(2, 1, 1), (2, 1, 1)])  # duplicate


def _coords(shape, t):
    return [genff._element_coords(shape, elem) for elem in t]


def test_fast_path_agrees_with_generic():
    shape = _m2_shape(2)
    rng = random.Random(4)
    for _ in range(300):
        t = [tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(1))
             for _ in range(2)]
        assert generates(shape, t) == genff._generates_generic(
            shape, [genff._f2_encode(v) for v in _coords(shape, t)])


# -- matrix-format oracles: products of matrices, not operators on coordinates

def _slot_fields(shape):
    out = []
    for n, s, m in shape.blocks:
        out.extend([shape.ctx if s == 1 else make_field(shape.ctx.p, s)] * m)
    return out


def _identity_element(shape):
    return tuple(ffalg.mat_identity(n) for n in shape.slot_sizes())


def _element_mul(fields, sizes, a, b):
    return tuple(mat_mul(fields[i], sizes[i], a[i], b[i])
                 for i in range(len(sizes)))


def _matrix_closure_generates(shape, t):
    """Oracle: the worklist closure over matrix products, with the echelon
    over the base field F_q itself (no recoding over F_p)."""
    sizes = shape.slot_sizes()
    fields = _slot_fields(shape)
    D = shape.rank
    pivots = {}
    one = _identity_element(shape)
    fq_insert(shape.ctx, pivots, genff._element_coords(shape, one))
    work = [one]
    while work and len(pivots) < D:
        v = work.pop()
        for g in t:
            w = _element_mul(fields, sizes, g, v)
            if fq_insert(shape.ctx, pivots, genff._element_coords(shape, w)):
                work.append(w)
    return len(pivots) == D


def _naive_word_span_generates(shape, t):
    """Oracle: span all words of length < rank, built breadth first."""
    sizes = shape.slot_sizes()
    fields = _slot_fields(shape)
    D = shape.rank
    ident = _identity_element(shape)
    words = [ident]
    level = [ident]
    for _ in range(D - 1):
        level = [_element_mul(fields, sizes, g, w) for w in level for g in t]
        words.extend(level)
        if len(words) > 6000:
            break
    pivots = {}
    for w in words:
        fq_insert(shape.ctx, pivots, genff._element_coords(shape, w))
    return len(pivots) == D


def test_closure_against_word_span_oracle():
    rng = random.Random(777)
    for _ in range(120):
        q, s = rng.choice([(2, 1), (3, 1), (4, 1), (2, 2)])
        p, e = ffalg.prime_power_split(q)
        ctx = make_field(p, e)
        n = rng.choice([1, 2])
        m = rng.choice([1, 2])
        shape = shape_over_field(ctx, [(n, s, m)])
        ext = ctx if s == 1 else make_field(p, s)
        t = [tuple(tuple(rng.randrange(ext.q) for _ in range(n * n))
                   for _ in range(m))
             for _ in range(rng.randrange(1, 3))]
        assert generates(shape, t) == _naive_word_span_generates(shape, t)


@st.composite
def _word_span_cases(draw):
    """A shape (n, s, m) over F_2, F_3, F_4 or F_4 over F_2 with n, m <= 2,
    and one or two elements: free, with equal coordinates (inside the
    diagonal of a power), or scalar in every coordinate (commutative)."""
    q, s = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2)]))
    p, e = ffalg.prime_power_split(q)
    ctx = make_field(p, e)
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["free", "equal", "scalar"]))
    # entries uniform on the field: hypothesis's own integers crowd at 0
    rng = draw(st.randoms(use_true_random=False))
    qs = ctx.q ** s

    def matrix():
        if kind == "scalar":
            a = rng.randrange(qs)
            return tuple(a if i % (n + 1) == 0 else 0 for i in range(n * n))
        return tuple(rng.randrange(qs) for _ in range(n * n))

    t = []
    for _ in range(draw(st.integers(1, 2))):
        coords = (matrix(),) * m if kind == "equal" else tuple(
            matrix() for _ in range(m))
        t.append(coords)
    return shape_over_field(ctx, [(n, s, m)]), t


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_word_span_cases())
def test_closure_against_word_span_oracle_property(case):
    shape, t = case
    assert generates(shape, t) == _naive_word_span_generates(shape, t)


def test_closure_against_matrix_closure_oracle():
    # (q, blocks): F_2 with n = 4 (the table closure), F_3, F_4, F_8 and
    # F_9 as base fields (recoded over F_p with x 1), F_4, F_8 and F_9
    # over their prime fields, mixed blocks and power shapes
    cases = [(2, [(4, 1, 1)]), (3, [(2, 1, 1)]), (3, [(1, 1, 2), (2, 1, 1)]),
             (4, [(2, 1, 1)]), (4, [(1, 1, 1), (2, 1, 2)]), (8, [(2, 1, 1)]),
             (9, [(2, 1, 1)]), (9, [(1, 1, 3)]), (2, [(2, 2, 1)]),
             (2, [(2, 3, 1)]), (3, [(2, 2, 1)]), (2, [(2, 1, 2)]),
             (2, [(2, 1, 1), (2, 2, 1)]), (2, [(1, 2, 2), (2, 1, 1)]),
             (3, [(1, 2, 1), (1, 1, 2)])]
    rng = random.Random(2024)
    seen = set()
    for q, blocks in cases:
        ctx = make_field(*ffalg.prime_power_split(q))
        shape = shape_over_field(ctx, blocks)
        slots = [(n, ctx.q ** s) for n, s, m in blocks for _ in range(m)]
        for _ in range(40):
            k = rng.randrange(1, 4)
            t = [tuple(tuple(rng.randrange(size) for _ in range(n * n))
                       for n, size in slots) for _ in range(k)]
            verdict = generates(shape, t)
            assert verdict == _matrix_closure_generates(shape, t), (q, blocks, t)
            seen.add((q, tuple(blocks), verdict))
    # both verdicts occur on most shapes
    assert len(seen) >= len(cases) + 10


# -- the bit-packed closure over F_2 against the list closure and matrices

# F_2 shapes with extension and mixed blocks, the power M_2(F_2)^2, F_4
# and F_8 bases (recoded over F_2 with x 1), and the powers M_3(F_2)^2
# and F_2^3
PACKED_CASES = [(2, [(2, 2, 1)]), (2, [(2, 3, 1)]), (2, [(3, 2, 1)]),
                (2, [(4, 1, 1)]), (2, [(2, 1, 1), (3, 1, 1)]),
                (2, [(2, 1, 2)]), (4, [(2, 1, 1)]), (8, [(2, 1, 1)]),
                (2, [(3, 1, 2)]), (2, [(1, 1, 3)])]


def _random_tuple(rng, shape, k):
    slots = [(n, shape.ctx.q ** s) for n, s, m in shape.blocks
             for _ in range(m)]
    return [tuple(tuple(rng.randrange(size) for _ in range(n * n))
                  for n, size in slots) for _ in range(k)]


def _packed_generates(shape, t):
    """The table closure on t, even where generates would take the
    invariant-line test."""
    shape, vecs = genff._over_prime_field(shape, _coords(shape, t))
    return genff._generates_generic(shape, [genff._f2_encode(v) for v in vecs])


def _assert_all_closures_agree(shape, t):
    verdict = _packed_generates(shape, t)
    assert verdict == list_closure_generates(shape, _coords(shape, t))
    assert verdict == _matrix_closure_generates(shape, t)
    assert verdict == generates(shape, t)
    return verdict


@pytest.mark.parametrize("q, blocks", PACKED_CASES)
def test_packed_f2_closure_against_list_and_matrix_oracles(q, blocks):
    shape = shape_over_field(make_field(*ffalg.prime_power_split(q)), blocks)
    rng = random.Random(f"{q} {blocks}")
    verdicts = [_assert_all_closures_agree(shape, _random_tuple(rng, shape, k))
                for k in (1, 2, 2, 2, 3) * 8]
    assert any(verdicts) and not all(verdicts)


def test_f2_operator_cache_is_keyed_by_shape():
    # M_2(F_2)^2 and M_2(F_4) over F_2 both have D = 8, so one coordinate
    # vector is an element of each, with different operators
    f2 = make_field(2)
    shapes = [shape_over_field(f2, [(2, 1, 2)]), shape_over_field(f2, [(2, 2, 1)])]
    rng = random.Random(41)
    genff._f2_operators.cache_clear()
    verdicts = []
    for _ in range(60):
        vecs = [[rng.randrange(2) for _ in range(8)] for _ in range(2)]
        for shape in shapes:
            verdict = genff._decide(shape, vecs)
            assert verdict == list_closure_generates(shape, vecs)
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def _list_product(shape, code, v):
    """g v mod 2 from the sparse left_mul_ops rows, g and v packed."""
    rows = genff.left_mul_ops(shape, [code >> i & 1 for i in range(shape.rank)])
    return sum((sum(c * (v >> t & 1) for t, c in row) & 1) << j
               for j, row in enumerate(rows))


# D = 1, 5, 9, 36 and the extension blocks M_2(F_4), M_2(F_8) (D = 12) and
# M_3(F_4) over F_2, and M_2(F_4) recoded over F_2 with its x 1
@pytest.mark.parametrize("q, blocks", [
    (2, [(1, 1, 1)]), (2, [(1, 1, 1), (2, 1, 1)]), (2, [(3, 1, 1)]),
    (2, [(3, 1, 4)]), (2, [(2, 2, 1)]), (2, [(2, 3, 1)]), (2, [(3, 2, 1)]),
    (4, [(2, 1, 1)])])
def test_nibble_tables_match_the_list_product(q, blocks):
    shape = shape_over_field(make_field(*ffalg.prime_power_split(q)), blocks)
    shape, extra = genff._over_prime_field(shape, [])
    D, one, op = genff._f2_operators(shape.blocks)
    assert D == shape.rank
    assert one == genff._f2_encode(genff._scalar_coords(shape))
    rng = random.Random(f"tables {q} {blocks}")
    codes = [genff._f2_encode(v) for v in extra]
    codes += [rng.getrandbits(D) for _ in range(20)]
    for g in codes:
        tables = op(g)
        assert len(tables) == (D + 3) // 4
        for _ in range(20):
            v = rng.getrandbits(D)
            w = 0
            for c, tab in enumerate(tables):
                w ^= tab[v >> 4 * c & 15]
            assert w == _list_product(shape, g, v)


def _rank(blocks):
    return sum(n * n * s * m for (n, s), m in blocks)


@st.composite
def _f2_tuples(draw):
    """A shape over F_2, F_4 or F_8 of rank at most 24 and a tuple in it."""
    q = draw(st.sampled_from([2, 4, 8]))
    kinds = [(n, s) for n in (1, 2, 3) for s in ((1, 2, 3) if q == 2 else (1,))]
    blocks = draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(1, 2)),
                           min_size=1, max_size=2, unique_by=lambda b: b[0])
                  .filter(lambda blocks: _rank(blocks) <= 24))
    shape = shape_over_field(make_field(*ffalg.prime_power_split(q)),
                             [(n, s, m) for (n, s), m in blocks])
    slots = [(n, q ** s) for n, s, m in shape.blocks for _ in range(m)]
    elem = st.tuples(*[st.tuples(*[st.integers(0, size - 1)] * (n * n))
                       for n, size in slots])
    return shape, draw(st.lists(elem, max_size=3))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_f2_tuples())
def test_f2_closures_agree_property(case):
    _assert_all_closures_agree(*case)


# -- M_2(F_2) and M_3(F_2): the invariant-line tables against the masks
#
# generates decides single M_2(F_2) and M_3(F_2) blocks without a closure:
# by the invariant-line and invariant-hyperplane masks of _f2_generates and
# a commutation test.  The table closure of _generates_generic uses none
# of those tables, so it is the oracle here.

def _code_matrix(n, code):
    return tuple(code >> i & 1 for i in range(n * n))


@functools.lru_cache(maxsize=2)
def _mask_closure(n):
    """codes -> verdict of the table closure of _generates_generic on the
    M_n(F_2) tuple with those codes, each code's tables built once."""
    D, one, op = genff._f2_operators(((n, 1, 1),))
    tables = [op(c) for c in range(1 << (n * n))]
    return lambda codes: genff._f2_span_generates(
        D, one, [tables[c] for c in codes])


def _parity_invariant_masks(n):
    """The masks of _f2_invariant_masks, c v found bit by bit as the
    parity of each row of c against v."""
    nn = n * n
    lines = []
    for code in range(1 << nn):
        r = _code_matrix(n, code)
        mask = 0
        for v in range(1, 1 << n):
            w = 0
            for i in range(n):
                w |= (sum(r[i * n + j] & v >> j for j in range(n)) & 1) << i
            if w == 0 or w == v:
                mask |= 1 << v
        lines.append(mask)
    transpose = [sum(1 << (i % n * n + i // n) for i in range(nn) if c >> i & 1)
                 for c in range(1 << nn)]
    return tuple(lines), tuple(lines[t] for t in transpose)


@pytest.mark.parametrize("n", [2, 3])
def test_invariant_masks_match_the_parity_loop(n):
    assert genff._f2_invariant_masks(n) == _parity_invariant_masks(n)


def test_invariant_line_tables_against_mask_closure_all_m3_pairs():
    # every unordered pair a < b and every diagonal pair (a, a)
    closure = _mask_closure(3)
    generating = 0
    for a in range(512):
        for b in range(a, 512):
            verdict = genff._f2_generates(3, (a, b))
            assert verdict == closure((a, b)), (a, b)
            generating += verdict
    assert generating == g_closed_form(2, 3, 2) // 2 == 64512


def test_invariant_line_tables_against_mask_closure_m2_pairs_and_triples():
    closure = _mask_closure(2)
    for k in (2, 3):
        generating = 0
        for codes in itertools.product(range(16), repeat=k):
            verdict = genff._f2_generates(2, codes)
            assert verdict == closure(codes), codes
            generating += verdict
        assert generating == g_closed_form(k, 2, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_invariant_line_tables_against_list_closure_k_tuples(n):
    shape = shape_over_field(make_field(2), [(n, 1, 1)])
    rng = random.Random(f"lines {n}")
    verdicts = set()
    for k in (0, 1, 3, 4, 5):
        for _ in range(60):
            codes = [rng.randrange(1 << (n * n)) for _ in range(k)]
            verdict = genff._f2_generates(n, codes)
            assert verdict == list_closure_generates(
                shape, [list(_code_matrix(n, c)) for c in codes]), codes
            assert verdict == generates(
                shape, [(_code_matrix(n, c),) for c in codes])
            # no tuple of fewer than two entries generates
            assert k > 1 or not verdict
            verdicts.add(verdict)
    assert verdicts == {False, True}


@st.composite
def _f2_code_tuples(draw):
    n = draw(st.sampled_from([2, 3]))
    return n, draw(st.lists(st.integers(0, (1 << (n * n)) - 1), max_size=5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_f2_code_tuples())
def test_invariant_line_tables_property(case):
    n, codes = case
    verdict = genff._f2_generates(n, codes)
    assert verdict == _mask_closure(n)(codes)
    assert verdict == generates_structural(
        make_field(2), [_code_matrix(n, c) for c in codes], n)


def test_invariant_line_tables_wait_for_the_first_call():
    src = os.path.dirname(os.path.dirname(genff.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import algen.cli\n"
         "masks = algen.genff._f2_invariant_masks\n"
         "print(masks.cache_info().currsize)\n"
         "algen.genff._f2_generates(2, (1, 2))\n"
         "print(masks.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True).stdout
    assert out.split() == ["0", "1"]


def test_closed_forms():
    assert g_closed_form(2, 2, 2) == 96
    assert g_closed_form(3, 2, 2) == 2688
    assert g_closed_form(2, 2, 3) == 3888
    assert g_closed_form(2, 3, 2) == 129024
    assert g_closed_form(1, 2, 5) == 0
    assert g_closed_form(1, 3, 5) == 0
    # every n up to the enumeration limit, and none above it
    assert g_closed_form(2, 4, 2) == 2745630720 == 136192 * ffalg.group_orders(4, 2)[1]
    with pytest.raises(TooLarge):
        g_closed_form(2, ffalg.MAX_ENUM_N + 1, 2)


def test_brute_equals_closed_form_small():
    for (k, n, q), expect in [((2, 2, 2), 96), ((3, 2, 2), 2688), ((2, 2, 3), 3888)]:
        assert brute_count(k, n, q) == expect == g_closed_form(k, n, q)


def test_brute_cap():
    with pytest.raises(TooLarge):
        brute_count(4, 3, 3)


def test_brute_n1_unital_convention():
    # with 1 counted as a monomial, every tuple generates the 1-dim algebra
    assert brute_count(2, 1, 2) == 4
    assert brute_count(3, 1, 3) == 27


def test_enum_cap_env_override(monkeypatch):
    monkeypatch.setenv("ALGEN_ENUM_CAP", "100")
    with pytest.raises(TooLarge):
        brute_count(2, 2, 2)
    monkeypatch.delenv("ALGEN_ENUM_CAP")
    assert brute_count(2, 2, 2) == 96


def test_enum_cap_env_not_an_integer(monkeypatch):
    for cap in ("abc", "-5", "0"):
        monkeypatch.setenv("ALGEN_ENUM_CAP", cap)
        with pytest.raises(BadParams):
            brute_count(2, 2, 2)


def test_gen_count_values():
    assert gen_count(2, 2, 2) == 16
    assert gen_count(2, 3, 2) == 768
    assert gen_count(3, 2, 2) == 448
    # g / |PGL| against the h and f families, built as polynomials
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(2, 6):
            assert gen_count(m, 2, q) == poly_eval(h_poly(m), q), (m, q)
            assert gen_count(m, 3, q) == poly_eval(f_poly(m), q), (m, q)


def test_gen_count_beyond_the_paper():
    # the Mozgovoy-Reineke identity past n = 3: q^k for n = 1, 0 for k = 1
    assert gen_count(2, 4, 2) == 136192
    assert gen_count(2, 5, 2) == 87994368
    assert gen_count(3, 3, 2) == 660480
    assert gen_count(2, 6, 2) == 206406369280
    for q in (2, 3, 4, 5, 7):
        for k in (1, 2, 3, 4):
            assert gen_count(k, 1, q) == q ** k
    for n in range(2, ffalg.MAX_ENUM_N + 1):
        assert gen_count(1, n, 2) == 0


def test_subfield_sum_matches_brute_count():
    # g over F_q for M_n(F_{q^s}) is the Moebius sum over the subfields
    # F_{q^d}, d | s, of |PGL_n(q^s)| / |PGL_n(q^d)| * g_{k,n}(q^d)
    for k, n, q, s in [(2, 2, 2, 2), (3, 1, 2, 3), (2, 1, 3, 2), (1, 2, 2, 2),
                       (1, 2, 3, 2)]:
        assert count_gen_power_formula(k, n, q, s, 1) == brute_count(k, n, q, s=s)
    assert count_gen_power_formula(2, 2, 2, 3, 1) == 14442624


def test_formula_refused_before_the_work():
    # a bound proves the count longer than the digit limit, so nothing is
    # evaluated: g_{1000000,3}(2) would have about 2.7 million digits
    for args in [(3000, 3, 1000003, 1, 1), (1000000, 3, 2, 1, 2),
                 (2, 2, 2, 10 ** 9, 2), (1, 1, 2, 10 ** 11, 1)]:
        with pytest.raises(TooLarge):
            count_gen_power_formula(*args, max_digits=4300)
    # more copies than k matrices generate: 0, however long g is
    assert count_gen_power_formula(2000, 2, 2, 1, 2 ** 20000, max_digits=300) == 0
    # the same bound never refuses a count under the limit
    for k, n, q, s, m in itertools.product((1, 2, 3, 40, 200), (1, 2, 3),
                                           (2, 3, 7), (1, 2, 5), (1, 2, 16)):
        try:
            c = count_gen_power_formula(k, n, q, s, m, max_digits=300)
        except TooLarge:
            assert count_gen_power_formula(k, n, q, s, m) >= 10 ** 300
        else:
            assert c < 10 ** 300


def test_brute_power_refused_at_the_digit_limit(monkeypatch):
    # 162 orbits of 24 pairs of M_2(F_3): 100 copies count about 360
    # digits, refused once the product passes 50; 2 copies pass
    with pytest.raises(TooLarge):
        brute_count(2, 2, 3, m=100, max_digits=50)
    assert brute_count(2, 2, 3, m=2, max_digits=50) == 3888 * 3864
    # 162 copies, one per orbit, count 24^162 162!; 163 copies count 0.
    # Only the orbit count tells the two apart, so a count that bit
    # lengths cannot refuse is refused after its sweep
    with pytest.raises(TooLarge):
        brute_count(2, 2, 3, m=162, max_digits=50)
    assert brute_count(2, 2, 3, m=163, max_digits=50) == 0
    # where bit lengths prove the count too long, as for the formula, the
    # sweep never starts: the 504 generating triples of F_8 over F_2
    def refuse(*args):
        raise AssertionError("swept a count that bit lengths refuse")

    monkeypatch.setattr(genff, "_brute_single", refuse)
    for count in (brute_count, count_gen_power_formula):
        with pytest.raises(TooLarge):
            count(3, 1, 2, 3, 1, max_digits=1)


def test_alpha():
    assert alpha(1, 2, 2) == 0  # m < n
    assert alpha(1, 1, 7) == 6
    assert alpha(0, 0, 5) == 1
    # brute oracle: pairs of vectors spanning F_2^2
    count = 0
    for v in itertools.product(range(2), repeat=2):
        for w in itertools.product(range(2), repeat=2):
            if (v[0] * w[1] - v[1] * w[0]) % 2:
                count += 1
    assert alpha(2, 2, 2) == count == 6


def test_alpha_brute_oracle_f3():
    # rank-2 pairs in F_3^2 by row reduction over F_3
    f3 = make_field(3)
    count = sum(
        1
        for v in itertools.product(range(3), repeat=2)
        for w in itertools.product(range(3), repeat=2)
        if is_invertible(f3, 2, v + w)
    )
    assert alpha(2, 2, 3) == count


def test_falling_factorial():
    assert count_gen_power_formula(2, 2, 2, 1, 2) == 8640 == 96 * 90
    assert count_gen_power_formula(2, 2, 2, 1, 17) == 0
    assert count_gen_power_formula(2, 2, 2, 1, 1) == 96
    assert count_gen_power_formula(2, 3, 2, 1, 1) == 129024


def test_brute_power_matches_formula():
    assert brute_count(2, 2, 2, s=1, m=2) == 8640
    # 3888 (3888 - |PGL_2(F_3)|): 3888 generating pairs in orbits of 48
    assert (brute_count(2, 2, 3, m=2) == 15023232
            == count_gen_power_formula(2, 2, 3, 1, 2))


def _power_tuple(coordinate_tuples):
    """The k elements of M_n^m whose m coordinate k-tuples are given."""
    return list(zip(*coordinate_tuples))


def test_generates_power():
    f2 = make_field(2)
    one, two = (shape_over_field(f2, [(2, 1, m)]) for m in (1, 2))
    pair = (E12, E21)
    assert generates(one, _power_tuple([pair]))
    assert not generates(two, _power_tuple([pair, pair]))  # identical coords
    g = (1, 1, 0, 1)
    conj = tuple(mat_mul(f2, 2, mat_mul(f2, 2, g, a), g) for a in pair)
    assert not generates(two, _power_tuple([pair, conj]))
    other = (E12, (1, 1, 1, 0))
    assert generates(two, _power_tuple([pair, other]))
    # M_3(F_2)^2: a pair and its GL_3 conjugate fail, the pair and the
    # same entries in the other order (another orbit) generate
    two = shape_over_field(f2, [(3, 1, 2)])
    _ext, A, B = two_generators_ext(3, 2)
    g = (1, 1, 0, 0, 1, 1, 0, 0, 1)
    ginv = inverse(f2, 3, g)
    conj = tuple(mat_mul(f2, 3, mat_mul(f2, 3, g, a), ginv) for a in (A, B))
    key = _orbit_key(f2, 1, 3, (A, B))
    assert conj != (A, B) and _orbit_key(f2, 1, 3, conj) == key
    assert not generates(two, _power_tuple([(A, B), conj]))
    other = (B, A)
    assert _orbit_key(f2, 1, 3, other) != key
    assert generates(two, _power_tuple([(A, B), other]))


def _orbit_key(ctx, s, n, t):
    """orbitkeys._orbit_key of the tuple t of M_n(F_{q^s}) matrices, the
    block taken as an algebra over ctx = F_q, with the left_mul_ops rows
    it takes."""
    block = shape_over_field(ctx, [(n, s, 1)])
    shape, vecs = genff._over_prime_field(
        block, [genff._element_coords(block, (a,)) for a in t])
    return orbitkeys._orbit_key(shape, [genff.left_mul_ops(shape, v) for v in vecs])


def _random_generating(rng, ctx, ext, n, k, entries=None):
    """A random k-tuple of M_n(ext) that generates it over ctx, its
    entries drawn from the first `entries` codes (all of ext by default)."""
    shape = shape_over_field(ctx, [(n, galois_order(ext, ctx.q), 1)])
    while True:
        t = tuple(tuple(rng.randrange(entries or ext.q) for _ in range(n * n))
                  for _ in range(k))
        if generates(shape, [(a,) for a in t]):
            return t


def _random_automorphism_image(rng, ctx, ext, n, t):
    """The image of t under x -> x^q (q = ctx.q) j times, j random, followed
    by conjugation by a random element of GL_n(ext)."""
    while True:
        g = tuple(rng.randrange(ext.q) for _ in range(n * n))
        if is_invertible(ext, n, g):
            break
    ginv = inverse(ext, n, g)
    j = rng.randrange(galois_order(ext, ctx.q))
    out = []
    for a in t:
        for _ in range(j):
            a = frobenius(ext, a, ctx.q)
        out.append(mat_mul(ext, n, mat_mul(ext, n, g, a), ginv))
    return tuple(out)


# (p, s, n, samples): pairs in M_2(F_2), M_2(F_3), M_2(F_4) over F_2 and
# M_3(F_2), and in F_8 over F_2, whose Galois group has order 3
_ORBIT_KEY_CASES = ((2, 1, 2, 100), (3, 1, 2, 100), (2, 2, 2, 100),
                    (2, 1, 3, 100), (2, 3, 1, 40))


def test_orbit_key_is_automorphism_invariant():
    rng = random.Random(29)
    for p, s, n, samples in _ORBIT_KEY_CASES:
        ctx, ext = make_field(p), make_field(p, s)
        for _ in range(samples):
            t = _random_generating(rng, ctx, ext, n, 2)
            image = _random_automorphism_image(rng, ctx, ext, n, t)
            assert _orbit_key(ctx, s, n, t) == _orbit_key(ctx, s, n, image)


def test_orbit_key_matches_conjugacy_oracle():
    # equal orbit keys iff the brute-force sweep over GL_n, with the
    # Frobenius twists over the base field, finds a conjugating matrix;
    # half of the second tuples are automorphic images of the first
    rng = random.Random(31)
    for p, s, n, samples in _ORBIT_KEY_CASES:
        ctx, ext = make_field(p), make_field(p, s)
        seen = set()
        for _ in range(samples):
            t1 = _random_generating(rng, ctx, ext, n, 2)
            t2 = (_random_automorphism_image(rng, ctx, ext, n, t1)
                  if rng.randrange(2) else _random_generating(rng, ctx, ext, n, 2))
            same = _orbit_key(ctx, s, n, t1) == _orbit_key(ctx, s, n, t2)
            assert same == are_conjugate_tuples(ext, t1, t2, include_galois=True,
                                                base_q=p)
            seen.add(same)
        assert seen == {True, False}


def test_orbit_key_refuses_non_generating_tuples():
    f2, f3 = make_field(2), make_field(3)
    assert _orbit_key(f2, 1, 2, (E12, E12)) is None
    assert _orbit_key(f3, 1, 2, (E12, E12)) is None
    assert _orbit_key(f2, 2, 1, ((1,), (1,))) is None


# (q, samples): M_2(F_q) as an algebra over F_q itself, q = p^2
_BASE_FIELD_CASES = ((4, 60), (9, 6))


def test_orbit_key_over_a_prime_power_base_field():
    # over F_q, q = p^2, the automorphisms are the conjugations: a tuple
    # and its Frobenius twin (x -> x^p on every entry) share a key iff the
    # GL_2 sweep, which applies no twist over F_q, finds a conjugation.
    # Every third tuple is a conjugate of one over F_p, whose twin is
    # conjugate to it.  Leaving x 1 out of the key's generators fails here.
    rng = random.Random(37)
    for q, samples in _BASE_FIELD_CASES:
        ctx = make_field(*ffalg.prime_power_split(q))
        seen = set()
        for i in range(samples):
            t = _random_generating(rng, ctx, ctx, 2, 2,
                                   entries=ctx.p if i % 3 == 0 else None)
            t = _random_automorphism_image(rng, ctx, ctx, 2, t)
            twin = tuple(frobenius(ctx, a, ctx.p) for a in t)
            same = _orbit_key(ctx, 1, 2, t) == _orbit_key(ctx, 1, 2, twin)
            assert same == are_conjugate_tuples(ctx, t, twin,
                                                include_galois=True, base_q=q)
            seen.add(same)
        assert seen == {True, False}


def test_brute_with_galois_scalars():
    # F_4 as an F_2-algebra: 12 generating pairs; the Frobenius pairs them
    # into 6 orbits, so the 2-copy count is 12 * (12 - 2)
    assert brute_count(2, 1, 2, s=2) == 12
    assert brute_count(2, 1, 2, s=2, m=2) == 120
    assert count_gen_power_formula(2, 1, 2, 2, 2) == 120


def test_brute_m2f4_over_f2():
    # pairs generating M_2(F_4) over F_2 = pairs generating over F_4 minus
    # those inside one of the |PGL_2(F_4)|/|PGL_2(F_2)| = 10 conjugate
    # subfield forms, each contributing its own 96 generating pairs
    g = brute_count(2, 2, 2, s=2)
    forms = ffalg.group_orders(2, 4)[1] // ffalg.group_orders(2, 2)[1]
    assert forms == 10
    assert g == g_closed_form(2, 2, 4) - forms * g_closed_form(2, 2, 2) == 45120
    t = 2 * ffalg.group_orders(2, 4)[1]
    assert g % t == 0  # the automorphism group acts freely: 376 orbits


def test_generates_power_galois_twist_detected():
    ext, A, B = two_generators_ext(2, 2, 2)
    f2 = make_field(2)
    one, two = (shape_over_field(f2, [(2, 2, m)]) for m in (1, 2))
    twisted = tuple(frobenius(ext, M, 2) for M in (A, B))
    assert generates(one, _power_tuple([(A, B)]))
    assert not generates(two, _power_tuple([(A, B), (A, B)]))
    assert not generates(two, _power_tuple([(A, B), twisted]))


def test_generates_power_agrees_with_product_closure():
    # the simple-factor criterion (every coordinate generates and the
    # orbit keys differ) against the direct closure in M_2(F_q)^2: random
    # tuples over F_2, and over F_3 a third of them with conjugate
    # coordinates
    rng = random.Random(11)
    for q, samples in ((2, 250), (3, 150)):
        ctx = make_field(q)
        one, two = (shape_over_field(ctx, [(2, 1, m)]) for m in (1, 2))
        seen = set()
        for i in range(samples):
            c1 = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(2))
            c2 = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(2))
            if q == 3 and i % 3 == 0 and generates(one, _power_tuple([c1])):
                c2 = _random_automorphism_image(rng, ctx, ctx, 2, c1)
            via_criterion = (
                all(generates(one, _power_tuple([c])) for c in (c1, c2))
                and _orbit_key(ctx, 1, 2, c1) != _orbit_key(ctx, 1, 2, c2))
            assert generates(two, _power_tuple([c1, c2])) == via_criterion
            seen.add(via_criterion)
        assert seen == {True, False}


def test_threshold_jump():
    # one more copy than gen_m forces a zero count at m elements and a
    # positive count at m + 1
    for m, n, q in [(2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        gen = gen_count(m, n, q)
        assert count_gen_power_formula(m, n, q, 1, gen) > 0
        assert count_gen_power_formula(m, n, q, 1, gen + 1) == 0
        assert count_gen_power_formula(m + 1, n, q, 1, gen + 1) > 0


def test_monotone_jump():
    for n in (2, 3):
        for q in (2, 3, 4):
            for m in range(2, 7):
                assert gen_count(m + 1, n, q) > gen_count(m, n, q) >= 1


def test_lower_bound():
    # q^(m n^2) - 2^((n+6)/2) q^(n^2 m - (m-1)(n-1)) at (2,2,2):
    # 2^8 - 16 * 2^7, negative, hence vacuous against g = 96
    assert lower_bound(2, 2, 2) == 2 ** 8 - 16 * 2 ** 7 == -1792
    assert lower_bound(2, 2, 2) <= 96
    lb = lower_bound(2, 2, 101)
    assert 0 < lb <= g_closed_form(2, 2, 101)
    for n in (2, 3):
        for q in (2, 3, 4, 5):
            for m in range(1, 8):
                assert g_closed_form(m, n, q) >= lower_bound(m, n, q)


def test_nongenerating_estimate_bound():
    # ng_k <= (dim A)^(2k/2) q^(dim*k - k/2), squared to stay in integers
    for (k, n, q) in [(2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2)]:
        dim = n * n
        ng = q ** (dim * k) - g_closed_form(k, n, q)
        assert ng * ng <= dim ** (2 * k) * q ** (2 * dim * k - k)


def test_ratio_tends_to_one():
    for n in (2, 3):
        for q in (2, 3, 4, 5):
            prev = Fraction(0)
            for m in range(2, 9):
                ratio = Fraction(g_closed_form(m, n, q), q ** (m * n * n))
                assert ratio >= prev
                bound = 1 - Fraction(_isqrt_ceil(2 ** (n + 6)),
                                     q ** ((m - 1) * (n - 1)))
                assert ratio > bound
                prev = ratio


def test_two_generators():
    ext, A, B = two_generators_ext(2, 2, 1)
    assert A == (1, 0, 0, 0)          # E11 over F_2 (u = 1)
    assert B == (0, 1, 1, 0)          # E12 + E21
    two_generators_ext(3, 2, 1)
    ext4, A4, B4 = two_generators_ext(2, 2, 2)
    assert ext4.q == 4 and A4[0] == 2  # u E11 with u the generator of F_4
    shape = shape_over_field(make_field(2), [(2, 2, 1)])
    assert shape.rank == 8
    assert generates(shape, [(A4,), (B4,)])


def test_structural_examples():
    f3 = make_field(3)
    # commuting pair
    assert not generates_structural(f3, [(1, 0, 0, 2), (2, 0, 0, 1)], 2)
    A = (0, 0, 0, 0, 0, 0, 0, 1, 1)
    B = (0, 0, 1, 1, 0, 1, 0, 0, 1)
    assert not generates_structural(f3, [A, B], 3)  # common eigenvector mod 3
    f2 = make_field(2)
    assert generates_structural(f2, [A, B], 3)
    with pytest.raises(UnsupportedSize):
        generates_structural(f2, [(1,) * 16], 4)


def test_structural_agrees_with_closure_m2():
    # full sweep over M_2(F_2) pairs and a seeded sweep over M_2(F_3)
    f2 = make_field(2)
    shape = _m2_shape(2)
    for a in itertools.product(range(2), repeat=4):
        for b in itertools.product(range(2), repeat=4):
            assert generates_structural(f2, [a, b], 2) == generates(shape, [(a,), (b,)])
    f3 = make_field(3)
    shape3 = _m2_shape(3)
    rng = random.Random(7)
    for _ in range(500):
        a = tuple(rng.randrange(3) for _ in range(4))
        b = tuple(rng.randrange(3) for _ in range(4))
        assert generates_structural(f3, [a, b], 2) == generates(shape3, [(a,), (b,)])


def test_structural_agrees_with_closure_m3_sampled():
    f2 = make_field(2)
    shape = shape_over_field(f2, [(3, 1, 1)])
    rng = random.Random(13)
    for _ in range(400):
        a = tuple(rng.randrange(2) for _ in range(9))
        b = tuple(rng.randrange(2) for _ in range(9))
        assert generates_structural(f2, [a, b], 3) == generates(shape, [(a,), (b,)])


@st.composite
def _odd_p_tuples(draw):
    """p in {3, 5}, n in {2, 3} and a pair or triple in M_n(F_p): free, or
    built to fail (every entry a polynomial in the first, a common line,
    a common plane)."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["free", "poly", "line", "plane"]))
    # entries uniform on F_p: hypothesis's own integers crowd at 0
    rng = draw(st.randoms(use_true_random=False))
    mats = [tuple(rng.randrange(p) for _ in range(n * n))
            for _ in range(draw(st.integers(2, 3)))]
    ctx = make_field(p)
    if kind == "poly":
        A = mats[0]
        A2 = mat_mul(ctx, n, A, A)
        eye = ffalg.mat_identity(n)
        mats = [A] + [tuple((c0 * i + c1 * a + c2 * a2) % p
                            for i, a, a2 in zip(eye, A, A2))
                      for c0, c1, c2 in ([rng.randrange(p) for _ in range(3)]
                                         for _ in mats[1:])]
    elif kind in ("line", "plane"):
        mats = [tuple(0 if j % n == 0 and j else x for j, x in enumerate(X))
                for X in mats]
        if kind == "plane":
            mats = [transpose(n, X) for X in mats]
    return ctx, n, mats


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_odd_p_tuples())
def test_structural_agrees_with_closure_odd_p_property(case):
    ctx, n, mats = case
    shape = shape_over_field(ctx, [(n, 1, 1)])
    assert generates_structural(ctx, mats, n) == generates(
        shape, [(X,) for X in mats])


def _field_subalgebras_m2(q):
    """Brute enumeration of 2-dimensional subalgebras of M_2(F_q) that are
    fields: spans {1, x} closed under multiplication with no zero divisors."""
    ctx = make_field(*ffalg.prime_power_split(q))
    n = 2
    ident = ffalg.mat_identity(n)
    found = set()
    for x in itertools.product(range(ctx.q), repeat=4):
        span = set()
        for a in range(ctx.q):
            for b in range(ctx.q):
                span.add(tuple(ctx.add(ctx.mul(a, i), ctx.mul(b, e))
                               for i, e in zip(ident, x)))
        if len(span) != ctx.q ** 2:
            continue
        if ffalg.mat_mul(ctx, n, x, x) not in span:
            continue
        # a field has no zero divisors: every nonzero member is invertible
        assert ctx.s == 1
        if all(m == (0, 0, 0, 0) or (m[0] * m[3] - m[1] * m[2]) % ctx.p
               for m in span):
            found.add(frozenset(span))
    return len(found)


def test_field_type_subalgebra_counts():
    assert count_field_type_subalgebras(2, 2, 2) == 1
    assert count_field_type_subalgebras(2, 2, 3) == 3
    assert count_field_type_subalgebras(3, 3, 2) == 8
    assert _field_subalgebras_m2(2) == 1
    assert _field_subalgebras_m2(3) == 3
    with pytest.raises(Exception):
        count_field_type_subalgebras(3, 2, 2)  # 2 does not divide 3


def _surjections(k, j):
    """Number of maps from k positions onto j entries: j! * S(k, j)."""
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))


def _entry_set_count(k, n, q, s=1):
    """Oracle: generation depends only on the set of entries, so decide
    each set of at most k distinct matrices once and weight a set of j by
    the j! * S(k, j) ordered k-tuples whose entries are exactly that set."""
    ctx = make_field(*ffalg.prime_power_split(q))
    ext = ctx if s == 1 else make_field(ctx.p, s)
    shape = shape_over_field(ctx, [(n, s, 1)])
    mats = list(itertools.product(range(ext.q), repeat=n * n))
    return sum(_surjections(k, j)
               for j in range(1, k + 1)
               for subset in itertools.combinations(mats, j)
               if generates(shape, [(a,) for a in subset]))


def test_subspace_sweep_matches_entry_set_oracle():
    for (k, n, q), s in (((2, 2, 2), 1), ((3, 2, 2), 1), ((2, 2, 3), 1),
                         ((2, 2, 4), 1), ((2, 2, 2), 2), ((3, 1, 2), 2),
                         ((4, 1, 3), 2)):
        assert brute_count(k, n, q, s=s) == _entry_set_count(k, n, q, s)


def test_subspace_total_counts_the_pivot_blocks():
    # the Gaussian-binomial sum against q^f subspaces per RREF pivot set
    # with f free entries
    for q in (2, 3, 4, 5, 7):
        for d in range(9):
            for k in range(1, 5):
                assert subspace_total(k, d, q) == sum(
                    q ** len(free) for _, free in genff._pivot_blocks(k, d))


def _orbit_sweep(k, n, q, s):
    """(shard args without the cut, flat rank total, the scalar-led part)
    of the orbit sweep of brute_count."""
    ctx = make_field(*ffalg.prime_power_split(q))
    reps = genff._first_entry_orbits(n, ctx, s)
    per = sum(q ** len(free) for _, free in genff._pivot_blocks(k - 1, s * n * n - 2))
    scalar = q ** k * generates(shape_over_field(ctx, [(n, s, 1)]), ())
    return (k, n, ctx.p, ctx.s, s, reps), len(reps) * per, scalar


def _orbit_shards(args, cuts):
    return [genff._orbit_shard((*args, lo, hi))[0] for lo, hi in zip(cuts, cuts[1:])]


def test_subspace_shards_join_at_any_cut():
    # the flat rank of (orbit, subspace) pairs cut anywhere: (k, n, q, s)
    # the F_2 closure, the generic closure over F_3, sets of up to four
    # entries of F_9 over F_3, M_2(F_4) and F_8 over F_2, and M_2(F_4)
    # recoded over F_2
    rng = random.Random(5)
    for (k, n, q, s), want, rounds in (((3, 2, 2, 1), 2688, 3),
                                       ((2, 2, 3, 1), 3888, 3),
                                       ((4, 1, 3, 2), 6480, 3),
                                       ((2, 2, 2, 2), 45120, 1),
                                       ((3, 1, 2, 3), 8 ** 3 - 2 ** 3, 3),
                                       ((2, 2, 4, 1), 46080, 3)):
        args, total, scalar = _orbit_sweep(k, n, q, s)
        for _ in range(rounds):
            cuts = [0] + sorted(rng.randrange(total + 1) for _ in range(4)) + [total]
            assert sum(_orbit_shards(args, cuts)) + scalar == want


@pytest.mark.parametrize("k, n, q, s", [(2, 2, 2, 1), (3, 2, 2, 1),
                                        (2, 2, 2, 2), (2, 2, 4, 1)])
def test_packed_sweep_against_list_closure(monkeypatch, k, n, q, s):
    # every (orbit, subspace) pair reaches _f2_decide once, packed by
    # _decide: over F_2 the first member and the sweep's rows, over F_4
    # recoded with x 1 appended
    args, total, _ = _orbit_sweep(k, n, q, s)
    seen = []
    decide = genff._f2_decide

    def record(shape, codes):
        verdict = decide(shape, codes)
        seen.append((shape, tuple(codes), verdict))
        return verdict

    monkeypatch.setattr(genff, "_f2_decide", record)
    genff._orbit_shard((*args, 0, total))
    assert len(seen) == len({codes for _, codes, _ in seen}) == total
    for shape, codes, verdict in seen:
        # the first coordinate, where the swept quotient drops F_q 1, stays
        # zero in every entry
        assert q > 2 or not any(c & 1 for c in codes)
        vecs = [[c >> i & 1 for i in range(shape.rank)] for c in codes]
        assert verdict == list_closure_generates(shape, vecs)
    assert {verdict for *_, verdict in seen} == {False, True}


def test_subspace_shards_balanced(monkeypatch):
    # 8 shards, as at --threads 2, each deciding its share of the (orbit,
    # subspace) pairs: 8 orbits of M_2(F_4) over F_2 (generic closure) and
    # 6 of M_3(F_2) (F_2 closure), each with the lines of M / U and 0
    calls = 0
    for name in ("_generates_generic", "_f2_generates"):
        closure = getattr(genff, name)

        def counted(*args, closure=closure):
            nonlocal calls
            calls += 1
            return closure(*args)

        monkeypatch.setattr(genff, name, counted)
    for (k, n, q, s), want, total in (((2, 2, 2, 2), 45120, 8 * 64),
                                      ((2, 3, 2, 1), 129024, 6 * 128)):
        args, swept, scalar = _orbit_sweep(k, n, q, s)
        assert swept == total and scalar == 0
        cuts = [total * i // 8 for i in range(9)]
        values, decided = [], []
        for lo, hi in zip(cuts, cuts[1:]):
            before = calls
            values += _orbit_shards(args, [lo, hi])
            decided.append(calls - before)
        assert sum(values) == want
        assert sum(decided) == total
        assert max(decided) <= 1.25 * total / 8


# (n, q, s): extension fields of F_2 and F_3, and M_2, M_3 over prime and
# prime-power fields
SWEEP_GRID = [(1, 2, 3), (1, 3, 2), (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1),
              (2, 2, 2), (3, 2, 1)]


@pytest.mark.parametrize("n, q, s", SWEEP_GRID)
def test_orbit_sweep_matches_subspace_sweep(n, q, s):
    # the orbits partition the nonscalar matrices, and the orbit sweep
    # counts what the sweep over every subspace of M / F_q 1 counts, for
    # k = 1, 2, 3 at --threads 1 and 2
    reps = genff._first_entry_orbits(n, make_field(*ffalg.prime_power_split(q)), s)
    assert sum(size for _, size in reps) + q == q ** (s * n * n)
    for k in (1, 2, 3):
        want = subspace_count(k, n, q, s)
        assert brute_count(k, n, q, s=s, threads=1) == want, k
        assert brute_count(k, n, q, s=s, threads=2) == want, k


def test_orbit_table_refused_on_bit_lengths(monkeypatch):
    # one byte per element of M / F_q 1 over F_p: the 2^27 of M_2(F_128)
    # over F_2 are refused before any table is built, and the bound is
    # the p^d <= MAX_CODES that the docstring states
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        brute_count(1, 2, 2, s=7)
    assert time.perf_counter() - t0 < 1
    monkeypatch.setattr(genff, "MAX_CODES", 2 ** 7)
    assert brute_count(1, 2, 2) == 0  # 2^3 codes, well inside
    with pytest.raises(TooLarge):
        brute_count(1, 2, 3, s=2)  # 3^7 > 2^7


def _gaussian_binomial(d, j, q):
    num = den = 1
    for i in range(j):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subspace_weights_partition_all_tuples(monkeypatch):
    # with a predicate that is always true every k-tuple is counted once
    monkeypatch.setattr(genff, "_generates_generic", lambda shape, t: True)
    monkeypatch.setattr(genff, "_f2_generates", lambda n, codes: True)
    for k, n, q, s in ((2, 2, 2, 1), (3, 2, 2, 1), (2, 2, 3, 1), (2, 2, 4, 1),
                       (2, 2, 2, 2), (2, 1, 2, 3), (4, 1, 3, 2)):
        D = s * n * n
        by_dimension = sum(_gaussian_binomial(D - 1, j, q) * q ** k * alpha(k, j, q)
                           for j in range(min(k, D - 1) + 1))
        assert brute_count(k, n, q, s=s) == q ** (k * D) == by_dimension


def test_brute_count_threads_agree():
    for args, kw in (((2, 2, 2), {}), ((3, 2, 2), {}), ((2, 2, 3), {}),
                     ((2, 2, 4), {}), ((2, 2, 2), {"s": 2}),
                     ((2, 1, 2), {"s": 3}), ((2, 2, 2), {"m": 2})):
        one = brute_count(*args, threads=1, **kw)
        assert brute_count(*args, threads=2, **kw) == one


def _distinct_orbit_loop(k, n, q, s, m):
    """Oracle: run the simple-factor test over every m-tuple of coordinate
    k-tuples, with one automorphism orbit (None: not generating) per
    k-tuple, the orbits found by the GL_n sweep of are_conjugate_tuples."""
    ctx = make_field(*ffalg.prime_power_split(q))
    ext = ctx if s == 1 else make_field(ctx.p, s)
    shape = shape_over_field(ctx, [(n, s, 1)])
    mats = list(itertools.product(range(ext.q), repeat=n * n))
    reps, orbits = [], []
    for tup in itertools.product(mats, repeat=k):
        if not generates(shape, [(a,) for a in tup]):
            orbits.append(None)
            continue
        orbit = next((i for i, r in enumerate(reps)
                      if are_conjugate_tuples(ext, r, tup, include_galois=True,
                                              base_q=q)), len(reps))
        if orbit == len(reps):
            reps.append(tup)
        orbits.append(orbit)
    return sum(1 for combo in itertools.product(orbits, repeat=m)
               if None not in combo and len(set(combo)) == m)


def test_brute_power_matches_loop_oracle():
    # (k, n, q, s, m): M_2(F_2)^2, F_4^3 and F_8^2 over F_2, F_3^4
    for args, want in (((2, 2, 2, 1, 2), 8640), ((3, 1, 2, 2, 3), 157248),
                       ((1, 1, 2, 3, 2), 18), ((2, 1, 3, 1, 4), 3024)):
        k, n, q, s, m = args
        assert brute_count(k, n, q, s=s, m=m) == want
        assert _distinct_orbit_loop(*args) == want


def test_brute_power_matches_orbit_sizes():
    # m! e_m of the orbit sizes of generating_orbits, which assumes no
    # free action, against the falling factorial of brute_count:
    # M_2(F_2)^2, M_2(F_3)^2, F_4^3 over F_2, M_2(F_2)^4 and M_2(F_2)^17
    for (k, n, q, s, m), want in (((2, 2, 2, 1, 2), 8640),
                                  ((2, 2, 3, 1, 2), 15023232),
                                  ((3, 1, 2, 2, 3), 157248),
                                  ((2, 2, 2, 1, 4), 56609280),
                                  ((2, 2, 2, 1, 17), 0)):
        orbits = orbitkeys.generating_orbits(k, n, make_field(q), s)
        # e[j]: elementary symmetric sum of degree j of the orbit sizes
        e = [1] + [0] * m
        for _first, size in orbits.values():
            for j in range(m, 0, -1):
                e[j] += e[j - 1] * size
        assert math.factorial(m) * e[m] == brute_count(k, n, q, s=s, m=m) == want


def test_brute_extension_field_oracle():
    # M_1(F_{q^s}) over F_q: a k-tuple generates iff some entry lies
    # outside F_q, so q^(sk) - q^k tuples generate; weights up to j = 4
    assert brute_count(3, 1, 2, s=2) == 56
    assert brute_count(4, 1, 3, s=2) == 6480
    assert brute_count(3, 1, 2, s=3) == 8 ** 3 - 2 ** 3
