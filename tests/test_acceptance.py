"""The acceptance gate: every desk-scale number and tolerance, one test
per criterion, one printed PASS/FAIL line each."""

import itertools
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from algen import density, ffalg, genff, genz, polys, sampler
from algen.genff import shape_over_field, shape_over_Z

from conftest import ACCEPTANCE_LINES
from f2pairs import f2_generating_pairs
from seededpairs import m2z_pairs_with_closure_verdicts

getcontext().prec = 30


def _report(num: int, ok: bool, detail: str, t0: float):
    line = (f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"({time.time() - t0:.1f}s)")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_brute_vs_formula():
    t0 = time.time()
    results = {}
    for (k, n, q), expect in [((2, 2, 2), 96), ((3, 2, 2), 2688),
                              ((2, 2, 3), 3888)]:
        brute = genff.brute_count(k, n, q)
        formula = genff.g_closed_form(k, n, q)
        results[(k, n, q)] = (brute, formula, expect)
    elapsed = time.time() - t0
    ok = all(b == f == e for b, f, e in results.values()) and elapsed < 10
    _report(1, ok, f"brute = formula for {sorted(results)}: "
                   f"{[v[0] for v in results.values()]}", t0)


def test_criterion_2_129024():
    t0 = time.time()
    brute = genff.brute_count(2, 3, 2)
    formula = genff.g_closed_form(2, 3, 2)
    elapsed = time.time() - t0
    ok = brute == formula == 129024 and elapsed < 300
    _report(2, ok, f"generating pairs of M_3(F_2): brute {brute}, "
                   f"formula {formula}", t0)


def test_criterion_3_thresholds():
    t0 = time.time()
    g23 = genff.gen_count(2, 3, 2)
    g22 = genff.gen_count(2, 2, 2)
    flips = (polys.min_generators(3, 768).r, polys.min_generators(3, 769).r,
             polys.min_generators(2, 16).r, polys.min_generators(2, 17).r)
    ok = g23 == 768 and g22 == 16 and flips == (2, 3, 2, 3)
    _report(3, ok, f"gen_2,3(2) = {g23}, gen_2,2(2) = {g22}, "
                   f"flips at 769 and 17: r = {flips}", t0)


def test_criterion_4_census():
    t0 = time.time()
    census = genz.zero_one_census(3)
    A = (0, 0, 0, 0, 0, 0, 0, 1, 1)
    B = (0, 0, 1, 1, 0, 1, 0, 0, 1)
    mod2 = genff.generates(shape_over_field(ffalg.make_field(2), [(3, 1, 1)]),
                           [(A,), (B,)])
    rep = genz.generates_Z(shape_over_Z([(3, 1)]), [(A,), (B,)])
    elapsed = time.time() - t0
    ok = (census == (129024, 9132) and mod2 and not rep.generates
          and rep.index == 9 and elapsed < 1800)
    _report(4, ok, f"census(3) = {census}; witness pair in failure set "
                   f"with index {rep.index}", t0)


def test_criterion_5_witness():
    t0 = time.time()
    x, y = genz.construct_M2Z16()
    rep = genz.generates_Z(shape_over_Z([(2, 16)]), [x, y])
    census2 = genz.zero_one_census(2)
    ok = rep.generates and rep.index == 1 and census2 == (96, 0)
    _report(5, ok, f"M_2(Z)^16 witness certified at index {rep.index}; "
                   f"census(2) = {census2}", t0)


def test_criterion_6_falling_factorial():
    t0 = time.time()
    brute = genff.brute_count(2, 2, 2, s=1, m=2)
    formula = genff.count_gen_power_formula(2, 2, 2, 1, 2)
    elapsed = time.time() - t0
    ok = brute == formula == 8640 == 96 * 90 and elapsed < 60
    _report(6, ok, f"pairs generating M_2(F_2)^2: brute {brute} = "
                   f"formula {formula} = 96*90", t0)


def test_criterion_7_polynomial_density_desk_check():
    t0 = time.time()
    dens = sampler.exhaustive_poly_density([{(1, 0): 1}, {(0, 1): 1}], 2000)
    product = Decimal(1)
    for p in density.sieve_primes(10 ** 4):
        product *= Decimal(p * p - 1) / Decimal(p * p)
    inv_zeta2 = 6 / math.pi ** 2
    elapsed = time.time() - t0
    ok = (abs(float(dens) - float(product)) <= 0.005
          and abs(float(product) - inv_zeta2) <= 1e-3
          and elapsed < 60)
    _report(7, ok, f"box density {float(dens):.5f} vs truncated product "
                   f"{float(product):.5f} vs 1/zeta(2) = {inv_zeta2:.5f}", t0)


def test_criterion_8_monte_carlo():
    t0 = time.time()
    est2 = sampler.mc_density(shape_over_Z([(2, 1)]), 3,
                              sampler.BoxModel(500, 42, 20000))
    t_mid = time.time()
    ok2 = (abs(float(est2.estimate) - 0.5058) <= 0.02
           and abs(float(est2.estimate) - 0.5058) <= est2.ci95_halfwidth + 0.01
           and t_mid - t0 < 600)
    est3 = sampler.mc_density(shape_over_Z([(3, 1)]), 2,
                              sampler.BoxModel(200, 42, 20000))
    ok3 = (abs(float(est3.estimate) - 0.3074) <= 0.02
           and abs(float(est3.estimate) - 0.3074) <= est3.ci95_halfwidth + 0.01
           and time.time() - t_mid < 600)
    _report(8, ok2 and ok3,
            f"M_2 k=3: {float(est2.estimate):.4f} (target 0.5058); "
            f"M_3 k=2: {float(est3.estimate):.4f} (target 0.3074)", t0)


def test_criterion_9_density_self_consistency():
    t0 = time.time()
    spec = density.EulerProductSpec(
        lambda p: Fraction(genff.g_closed_form(3, 2, p), p ** 12),
        10 ** 5, 2.0, 2.0)
    ep = density.euler_product(spec)
    ref = density.den_matrix(2, 3)
    combined = ep.abs_error_bound + ref.abs_error_bound
    ok_a = abs(ep.value - ref.value) <= combined <= 1e-4

    # the three-zeta product form of den_3(M_3(Z)), evaluated literally:
    # 1/(zeta(2) zeta(3) zeta(4)) prod_p (1 + p^-2 + p^-3 - p^-5)
    d33 = density.den_matrix(3, 3)
    P = 10 ** 7
    pref = Decimal(1)
    pref_err = Decimal(0)
    for s in (2, 3, 4):
        z, ze = density._zeta_decimal(s, 1e-12)
        inv, inv_err = density._inv_with_error(z, ze)
        pref_err = pref_err * inv + pref * inv_err + pref_err * inv_err
        pref *= inv
    prod = Decimal(1)
    for p in density.sieve_primes(P):
        p5 = p ** 5
        prod *= Decimal(p5 + p ** 3 + p ** 2 - 1) / Decimal(p5)
    # |delta_p| <= 1.5 p^-2, so the log tail is below 2 * 1.5 / P
    tail = Decimal(3) / Decimal(P)
    intro_value = float(pref * prod)
    intro_err = float(pref * prod * (tail.exp() - 1) + pref_err * prod) + 1e-15
    ok_b = abs(d33.value - intro_value) <= 1e-6
    ok = ok_a and ok_b and abs(d33.value - intro_value) <= (
        d33.abs_error_bound + intro_err)
    _report(9, ok, f"euler {ep.value:.6f} = den(2,3) {ref.value:.6f} "
                   f"(within {combined:.1e}); den(3,3) {d33.value:.8f} vs "
                   f"intro form {intro_value:.8f}", t0)


def test_criterion_10_polynomial_suite():
    t0 = time.time()
    psi12 = polys.psi_poly(12)
    expected = (-1,) + (-2,) * 9 + (-1, 1) + (2,) * 10 + (1,) * 12
    ok = psi12 == expected
    coeffs_ok = True
    for k in range(2, 101):
        psi = polys.psi_poly(k)  # raises DivisionInexact on any failure
        if not set(psi) <= {-2, -1, 0, 1, 2}:
            coeffs_ok = False
    ident_ok = all(
        polys.poly_eval(polys.h_poly(m), q) == genff.gen_count(m, 2, q)
        and polys.poly_eval(polys.f_poly(m), q) == genff.gen_count(m, 3, q)
        for q in (2, 3, 4, 5) for m in range(2, 6))
    ok = ok and coeffs_ok and ident_ok
    _report(10, ok, f"psi_12 coefficient-exact: {psi12 == expected}; "
                    f"psi_k exact and in -2..2 for k <= 100: {coeffs_ok}; "
                    f"h_m(q), f_m(q) = orbit counts: {ident_ok}", t0)


def test_criterion_11_property_suites():
    t0 = time.time()
    shape2z = shape_over_Z([(2, 1)])
    # the closure verdicts are shared with test_genz's seeded suite
    pairs = m2z_pairs_with_closure_verdicts()
    det_ok = len(pairs) == 10_000 and all(
        genz.det_commutator_test(A, B) == generates for A, B, generates in pairs)

    struct_ok = True
    f2 = ffalg.make_field(2)
    f3 = ffalg.make_field(3)
    sh22 = shape_over_field(f2, [(2, 1, 1)])
    sh23 = shape_over_field(f3, [(2, 1, 1)])
    sh32 = shape_over_field(f2, [(3, 1, 1)])
    for a in itertools.product(range(2), repeat=4):
        for b in itertools.product(range(2), repeat=4):
            if genff.generates_structural(f2, [a, b], 2) != \
                    genff.generates(sh22, [(a,), (b,)]):
                struct_ok = False
    mats2 = list(itertools.product(range(2), repeat=4))  # the k = 3 dataset
    for a in mats2:
        for b in mats2:
            for c in mats2:
                if genff.generates_structural(f2, [a, b, c], 2) != \
                        genff.generates(sh22, [(a,), (b,), (c,)]):
                    struct_ok = False
    for a in itertools.product(range(3), repeat=4):
        for b in itertools.product(range(3), repeat=4):
            if genff.generates_structural(f3, [a, b], 2) != \
                    genff.generates(sh23, [(a,), (b,)]):
                struct_ok = False
    gen_pairs = set(f2_generating_pairs(3))
    codes = [tuple((c >> i) & 1 for i in range(9)) for c in range(512)]
    for a in range(512):
        # diagonal pairs span a commutative subalgebra and never generate
        if genff.generates_structural(f2, [codes[a], codes[a]], 3):
            struct_ok = False
        for b in range(a + 1, 512):
            if genff.generates_structural(f2, [codes[a], codes[b]], 3) != \
                    ((a, b) in gen_pairs):
                struct_ok = False

    ineq_ok = True
    for n in (2, 3):
        for q in (2, 3, 4, 5):
            for m in range(1, 8):
                g = genff.g_closed_form(m, n, q)
                if g < genff.lower_bound(m, n, q):
                    ineq_ok = False
                dim = n * n
                ng = q ** (dim * m) - g
                if ng * ng > dim ** (2 * m) * q ** (2 * dim * m - m):
                    ineq_ok = False

    thread_ok = (
        genz.zero_one_census(2, threads=2) == genz.zero_one_census(2)
        and genff.brute_count(2, 3, 2, threads=2) == 129024
        and sampler.mc_density(shape2z, 2, sampler.BoxModel(20, 7, 400),
                               threads=3)
        == sampler.mc_density(shape2z, 2, sampler.BoxModel(20, 7, 400)))

    ok = det_ok and struct_ok and ineq_ok and thread_ok
    _report(11, ok, f"det test = closure on 10^4 pairs: {det_ok}; "
                    f"structural = closure on brute datasets: {struct_ok}; "
                    f"bound inequalities: {ineq_ok}; "
                    f"thread invariance: {thread_ok}", t0)
