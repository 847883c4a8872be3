import io
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest

import algen
from algen import cli, ffalg, genff
from algen.cli import main
from algen.errors import TooLarge
from algen.polys import f_poly, h_poly, poly_eval


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_count_verify(capsys):
    doc = run_json(capsys, "count", "--k", "2", "--n", "2", "--q", "2", "--verify")
    assert doc["value"] == "96" and doc["brute"] == doc["formula"] == "96"
    assert doc["config"]["subcommand"] == "count"


def test_count_values_are_decimal_strings(capsys):
    doc = run_json(capsys, "count", "--k", "2", "--n", "3", "--q", "2")
    assert doc["value"] == "129024"
    doc = run_json(capsys, "count", "--k", "9", "--n", "3", "--q", "5")
    assert int(doc["value"]) > 2 ** 53


def test_thresholds(capsys):
    doc = run_json(capsys, "thresholds", "--n", "3", "--m", "769")
    assert doc["r"] == 3 and doc["lower"] == 768


def test_thresholds_at_a_4300_digit_m(capsys):
    # one closed-form product per k keeps the 3570 steps to r fast; the
    # h_k polynomials are the oracle for the two bounds
    m = 10 ** 4299
    t0 = time.perf_counter()
    doc = run_json(capsys, "thresholds", "--n", "2", "--m", str(m))
    assert time.perf_counter() - t0 < 5
    assert doc["r"] == 3571
    assert int(doc["lower"]) == poly_eval(h_poly(3570), 2) < m
    assert m <= int(doc["upper"]) == poly_eval(h_poly(3571), 2)


def test_density_matrix(capsys):
    doc = run_json(capsys, "density", "--kind", "matrix", "--n", "2", "--k", "3")
    assert abs(doc["value"] - 0.5057390380239776) < 1e-9
    assert doc["method"] == "exact-zeta"
    assert doc["error_bound"] > 0
    # --eps reaches the zeta factors, and the config echoes the eps used
    coarse = run_json(capsys, "density", "--kind", "matrix", "--n", "2",
                      "--k", "3", "--eps", "0.001")
    assert coarse["config"]["eps"] == 0.001 and doc["config"]["eps"] == 1e-10
    assert 1e-4 < coarse["error_bound"] < 2e-3
    assert abs(coarse["value"] - doc["value"]) <= coarse["error_bound"]


def test_poly(capsys):
    doc = run_json(capsys, "poly", "--family", "f", "--k", "2", "--eval", "2")
    assert doc["value"] == 768
    doc = run_json(capsys, "poly", "--family", "phi", "--k", "3", "--mod-p", "2")
    assert doc["verdict_mod_p"] == "irreducible"


def test_construct_checkgen_roundtrip(capsys, tmp_path):
    doc = run_json(capsys, "construct", "--what", "m2z16")
    assert doc["certified_index"] == "1"
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc["tuple"]))
    rep = run_json(capsys, "checkgen", "--input", str(path))
    assert rep["generates"] is True and rep["index"] == "1"
    assert rep["bad_primes"] == []


def test_checkgen_identity_tuple(capsys, tmp_path):
    tup = {"k": 1, "elements": [[{"n": 2, "entries": [1, 0, 0, 1]}]]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tup))
    rep = run_json(capsys, "checkgen", "--input", str(path))
    assert rep["generates"] is False and rep["index"] == "0"


def test_checkgen_remark_pair(capsys, tmp_path):
    tup = {"k": 2, "elements": [
        [{"n": 3, "entries": [0, 0, 0, 0, 0, 0, 0, 1, 1]}],
        [{"n": 3, "entries": [0, 0, 1, 1, 0, 1, 0, 0, 1]}],
    ]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tup))
    rep = run_json(capsys, "checkgen", "--input", str(path))
    assert rep["generates"] is False and rep["index"] == "9"
    assert rep["bad_primes"] == [3]


def test_checkgen_mixed_block_sizes(capsys, tmp_path):
    # slots arrive as [M_2, M_1]; the shape is inferred with slots sorted
    tup = {"k": 2, "elements": [
        [{"n": 2, "entries": [0, 1, 0, 0]}, {"n": 1, "entries": [1]}],
        [{"n": 2, "entries": [0, 0, 1, 0]}, {"n": 1, "entries": [0]}],
    ]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tup))
    rep = run_json(capsys, "checkgen", "--input", str(path))
    assert rep["config"]["blocks"] == [[1, 1], [2, 1]]
    assert rep["generates"] is True


def test_checkgen_bigint_entries(capsys, tmp_path):
    big = str(2 ** 70)  # decimal-string encoding above 2^53
    tup = {"k": 2, "elements": [
        [{"n": 2, "entries": [0, big, 0, 0]}],
        [{"n": 2, "entries": [0, 0, 1, 0]}],
    ]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tup))
    rep = run_json(capsys, "checkgen", "--input", str(path))
    assert rep["generates"] is False
    assert int(rep["index"]) % 2 == 0 and 2 in rep["bad_primes"]


def test_exhaustive(capsys):
    doc = run_json(capsys, "exhaustive", "--polys",
                   '[{"1,0": 1}, {"0,1": 1}]', "--N", "20")
    num, den = doc["density_exact"].split("/")
    assert int(den) == 41 ** 2
    assert abs(doc["density"] - int(num) / int(den)) < 1e-12


_BIG70 = "1180591620717411303424"  # 2^70


@pytest.mark.parametrize("polys", [
    f'[{{"1,0": {_BIG70}}}, {{"0,1": 1}}]',
    f'[{{"1,0": 1}}, {{"0,1": {_BIG70}}}]',
], ids=["row-constant", "last-axis"])
def test_exhaustive_stdout_past_int64(capsys, polys):
    # 2^70 x makes row constants past 2^62; 2^70 y makes last-axis values
    # past int64, which go to object arrays
    code, out = run_cli(capsys, "exhaustive", "--polys", polys, "--N", "300")
    assert code == 0
    assert out == ('{"config": {"N": 300, "polys": ' + json.dumps(polys)
                   + ', "polys_file": null, "subcommand": "exhaustive"}, '
                   '"density": 0.40436765125235, '
                   '"density_exact": "146058/361201"}\n')
    # the count, point by point
    (a,), (b,) = (f.values() for f in json.loads(polys))
    box = range(-300, 301)
    assert sum(math.gcd(a * x, b * y) == 1 for x in box for y in box) == 146058


def test_mc(capsys):
    doc = run_json(capsys, "mc", "--n", "2", "--k", "2", "--N", "10",
                   "--samples", "200", "--seed", "5")
    assert doc["trials"] == 200
    assert 0 <= doc["hits"] <= 200


def test_census(capsys):
    doc = run_json(capsys, "census", "--n", "2")
    assert doc["gen_mod2"] == 96 and doc["fail_over_Z"] == 0


def test_reproducibility_byte_identical(capsys):
    args = ["mc", "--n", "2", "--k", "3", "--N", "50",
            "--samples", "300", "--seed", "42"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    _, out3 = run_cli(capsys, "density", "--kind", "matrix", "--n", "3", "--k", "2")
    _, out4 = run_cli(capsys, "density", "--kind", "matrix", "--n", "3", "--k", "2")
    assert out3 == out4


def test_threads_do_not_change_results(capsys):
    a = run_json(capsys, "census", "--n", "2", "--threads", "1")
    b = run_json(capsys, "census", "--n", "2", "--threads", "2")
    assert (a["gen_mod2"], a["fail_over_Z"]) == (b["gen_mod2"], b["fail_over_Z"])


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "count", "--k", "2", "--n", "2", "--q", "6")
    assert code == 2  # not a prime power
    code, _ = run_cli(capsys, "count", "--k", "4", "--n", "3", "--q", "3", "--brute")
    assert code == 3  # enumeration cap
    # the formula refuses n above the enumeration limit, and counts that a
    # bound proves longer than the digit limit, before it evaluates anything;
    # 3^4000000 brute states and 2000001^800 grid points are refused on bit
    # lengths, neither built nor printed (both pass the 4300-digit limit)
    monomial = json.dumps([{",".join(["1"] * 800): 1}])
    for argv in (("count", "--k", "2", "--n", "9", "--q", "2"),
                 ("count", "--k", "3000", "--n", "3", "--q", "1000003"),
                 ("count", "--k", "1000000", "--n", "3", "--q", "2", "--m", "2"),
                 ("count", "--k", "1000000", "--n", "2", "--q", "3", "--brute"),
                 ("exhaustive", "--polys", monomial, "--N", "1000000")):
        t0 = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert time.perf_counter() - t0 < 1, argv
    code, _ = run_cli(capsys, "exhaustive", "--polys", "not json", "--N", "2")
    assert code == 2
    for P in ("-5", "0", "1"):  # no primes to sieve
        code, out = run_cli(capsys, "density", "--kind", "matrix", "--n", "3",
                            "--k", "2", "--P", P)
        assert code == 2 and out == "", P
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_mc_huge_half_width_decides_without_factoring(capsys):
    # the closure index decides; its large cofactors are never factored
    doc = run_json(capsys, "mc", "--n", "2", "--k", "2",
                   "--N", str(2 ** 63 - 1), "--samples", "50")
    assert doc["estimate_exact"] == "0/1" and doc["trials"] == 50


def test_bad_inputs_exit_2(capsys, monkeypatch, tmp_path):
    code, _ = run_cli(capsys, "mc", "--n", "2", "--k", "2",
                      "--N", str(2 ** 63), "--samples", "5")
    assert code == 2  # 2N+1 draws would exceed 2^64
    for k in ("0", "-1"):
        code, out = run_cli(capsys, "mc", "--n", "3", "--k", k, "--N", "5",
                            "--samples", "10")
        assert code == 2 and out == ""  # a tuple needs an element
    code, _ = run_cli(capsys, "exhaustive", "--polys",
                      '[{"1,0": 1}, {"0,1": 1}]', "--N", "-1")
    assert code == 2
    for cap in ("abc", "-5", "0"):
        monkeypatch.setenv("ALGEN_ENUM_CAP", cap)
        code, out = run_cli(capsys, "count", "--k", "2", "--n", "2", "--q", "2",
                            "--brute")
        assert code == 2 and out == "", cap
    monkeypatch.delenv("ALGEN_ENUM_CAP")
    # unreadable files and entries that are not integers
    missing = str(tmp_path / "missing.json")
    for argv in (["exhaustive", "--polys", '[{"1": "abc"}]', "--N", "2"],
                 ["exhaustive", "--polys-file", missing, "--N", "2"],
                 ["exhaustive", "--polys-file", str(tmp_path), "--N", "2"],
                 ["checkgen", "--input", missing]):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
    # checkgen on stdin: JSON that is not a tuple object, and n = true
    for text in ("5", "null", '"tuple"', '{"k": 1, "elements": [5]}',
                 '{"k": 1, "elements": [[{"n": true, "entries": [1]}]]}'):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out = run_cli(capsys, "checkgen")
        assert code == 2 and out == "", text


def test_count_k_below_one_exits_2(capsys):
    # the closed form names the tuple length k, as the command line does
    for argv in (["--k", "0"], ["--k", "-1"], ["--k", "0", "--n", "3"],
                 ["--k", "0", "--m", "2"]):
        assert main(["count", "--n", "2", "--q", "2", *argv]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: k must be >= 1\n", argv


def test_threads_below_one_exits_2(capsys):
    commands = (["mc", "--n", "2", "--k", "2", "--N", "5", "--samples", "3"],
                ["census", "--n", "2"],
                ["count", "--k", "2", "--n", "2", "--q", "2"],
                ["count", "--k", "2", "--n", "2", "--q", "2", "--brute"])
    for argv in commands:
        for threads in ("0", "-3"):
            assert main([*argv, "--threads", threads]) == 2
            cap = capsys.readouterr()
            assert cap.out == "", argv
            assert cap.err == "error: --threads must be >= 1\n", argv
        assert run_json(capsys, *argv, "--threads", "1")["config"]["threads"] == 1


def test_non_finite_eps_exits_2(capsys):
    # zn at k = n and matrix at n = k = 2 are exactly 0 and need no zeta
    # value, so 1e-30 (too small for zeta(2)) is refused by the others only
    kinds = [(["--kind", "zeta", "--s", "2"], True),
             (["--kind", "zn", "--k", "3"], True),
             (["--kind", "zn", "--k", "2", "--n", "2"], False),
             (["--kind", "matrix", "--n", "2", "--k", "2"], False)]
    for kind, needs_zeta in kinds:
        for eps in ("nan", "inf", "-inf", "0") + ("1e-30",) * needs_zeta:
            code, out = run_cli(capsys, "density", *kind, f"--eps={eps}")
            assert code == 2 and out == "", (kind, eps)


def test_checkgen_probable_prime_index_exits_3(capsys, tmp_path):
    # the index is (2^89 - 1)^2; its cofactor passes is_prime only as a
    # probable prime, so no bad-prime list is certified
    p = str(2 ** 89 - 1)
    tup = {"k": 2, "elements": [
        [{"n": 2, "entries": [0, p, 0, 0]}],
        [{"n": 2, "entries": [0, 0, 1, 0]}],
    ]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tup))
    code, out = run_cli(capsys, "checkgen", "--input", str(path))
    assert code == 3 and out == ""


def test_config_echoes_every_option(capsys, tmp_path):
    polys = '[{"1": 1}]'
    path = tmp_path / "t.json"
    path.write_text('{"k": 1, "elements": [[{"n": 1, "entries": [1]}]]}')
    cases = [
        (["count", "--k", "2", "--n", "2", "--q", "3"],
         {"k": 2, "m": 1, "mode": "formula", "n": 2, "q": 3, "s": 1,
          "subcommand": "count", "threads": 1}),
        (["density", "--kind", "zn", "--k", "3", "--n", "2"],
         {"P": 100000, "eps": 1e-10, "k": 3, "kind": "zn", "n": 2, "s": 2,
          "subcommand": "density"}),
        (["density", "--kind", "zeta"],
         {"P": 100000, "eps": 1e-09, "k": 3, "kind": "zeta", "n": 2, "s": 2,
          "subcommand": "density"}),
        (["mc", "--n", "2", "--k", "2", "--N", "5", "--samples", "3"],
         {"N": 5, "k": 2, "m": 1, "n": 2, "samples": 3, "seed": 42,
          "subcommand": "mc", "threads": 1}),
        (["exhaustive", "--polys", polys, "--N", "2"],
         {"N": 2, "polys": polys, "polys_file": None,
          "subcommand": "exhaustive"}),
        (["checkgen", "--input", str(path)],
         {"blocks": [[1, 1]], "input": str(path), "subcommand": "checkgen"}),
        (["construct", "--what", "twogen"],
         {"n": 2, "q": 2, "s": 1, "subcommand": "construct", "what": "twogen"}),
        (["census", "--n", "2"],
         {"n": 2, "subcommand": "census", "threads": 1}),
        (["thresholds", "--n", "2", "--m", "3"],
         {"m": 3, "n": 2, "subcommand": "thresholds"}),
        (["poly", "--family", "f", "--k", "2"],
         {"eval": None, "family": "f", "k": 2, "mod_p": None,
          "subcommand": "poly"}),
    ]
    for argv, config in cases:
        assert run_json(capsys, *argv)["config"] == config, argv


def test_config_big_integers_are_decimal_strings(capsys):
    big = 2 ** 63 - 1
    doc = run_json(capsys, "mc", "--n", "2", "--k", "2", "--N", str(big),
                   "--samples", "5")
    assert doc["config"]["N"] == str(big) and doc["config"]["samples"] == 5
    doc = run_json(capsys, "poly", "--family", "f", "--k", "2",
                   "--eval", str(-2 ** 53))
    assert doc["config"]["eval"] == str(-2 ** 53)


def _run_subprocess(*argv):
    src = os.path.dirname(os.path.dirname(algen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "algen.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=20)


def test_count_non_prime_power_q_exits_2_promptly():
    # (10^9 + 7)(10^9 + 9): trial division up to its square root would hang
    res = _run_subprocess("count", "--k", "2", "--n", "2",
                          "--q", str((10 ** 9 + 7) * (10 ** 9 + 9)),
                          "--formula")
    assert res.returncode == 2 and res.stdout == ""
    assert "not a prime power" in res.stderr


def test_count_probable_prime_q_exits_3():
    # the least strong pseudoprime to the twelve bases is not a field size
    res = _run_subprocess("count", "--k", "2", "--n", "2",
                          "--q", "318665857834031151167461", "--formula")
    assert res.returncode == 3 and res.stdout == ""
    assert "probable prime" in res.stderr


_PAST_STR_LIMIT = {
    "count-power": ["count", "--k", "2", "--n", "2", "--q", "1000003",
                    "--m", "1000"],
    "count-power-long": ["count", "--k", "2", "--n", "2", "--q", "1000003",
                         "--m", "100000"],
    "count-closed-form": ["count", "--k", "3000", "--n", "3", "--q", "1000003"],
    "poly-eval": ["poly", "--family", "f", "--k", "3000", "--eval", "1000003"],
    # r = 1588, but f_1588(2) has 4301 digits
    "thresholds-upper": ["thresholds", "--n", "3", "--m", str(10 ** 4299)],
    "checkgen-index": ["checkgen"],
}


@pytest.mark.parametrize("case", sorted(_PAST_STR_LIMIT))
def test_results_past_the_int_str_limit_exit_3(case, tmp_path):
    # Python refuses to print integers of more than 4300 digits; the CLI
    # refuses them before (exit 3), and the power count stops early
    argv = list(_PAST_STR_LIMIT[case])
    if case == "checkgen-index":
        # an element of M_1(Z)^3 whose closure has index 2^42001
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"k": 1, "elements": [[
            {"n": 1, "entries": [0]}, {"n": 1, "entries": [str(2 ** 14000)]},
            {"n": 1, "entries": [str(2 ** 14001)]}]]}))
        argv += ["--input", str(path)]
    t0 = time.perf_counter()
    res = _run_subprocess(*argv)
    assert time.perf_counter() - t0 < 5
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("refused: ") and "Traceback" not in res.stderr


def test_poly_eval_refused_before_the_work(capsys):
    # f_20000(10^6 + 3) has about 10^6 digits: building it took 24 s
    t0 = time.perf_counter()
    res = _run_subprocess("poly", "--family", "f", "--k", "20000",
                          "--eval", "1000003")
    assert time.perf_counter() - t0 < 2
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == "refused: a result has more than 4300 decimal digits\n"
    # f_80(10^6 + 3) has 4270 digits, just under the limit: it prints
    doc = run_json(capsys, "poly", "--family", "f", "--k", "80",
                   "--eval", "1000003")
    assert doc["value"] == str(poly_eval(f_poly(80), 1000003))
    assert len(doc["value"]) > 4250
    # the early refusal only ever refuses values past the limit
    limit = sys.get_int_max_str_digits()
    refused = 0
    for fam, x, k in itertools.product((f_poly, h_poly), (-1000003, 2, 3, 97),
                                       range(2, 140, 3)):
        poly = fam(k)
        try:
            cli._refuse_long_value(poly, x)
        except TooLarge:
            refused += 1
            assert abs(poly_eval(poly, x)) >= 10 ** limit, (fam, x, k)
    assert refused > 10


def test_power_count_with_a_vanishing_factor_is_zero(capsys):
    # more copies than gen_{2,2}(q) (16 for q = 2, about 10^30 for
    # q = 10^6 + 3): a factor of the product vanishes, so the count is 0
    # and no size refusal may come first
    doc = run_json(capsys, "count", "--k", "2", "--n", "2", "--q", "2",
                   "--m", "100000")
    assert doc["value"] == "0"
    doc = run_json(capsys, "count", "--k", "2", "--n", "2", "--q", "1000003",
                   "--m", str(10 ** 40))
    assert doc["value"] == "0"


def test_construct_twogen_over_a_huge_prime_field(capsys):
    # the field's elements are scanned lazily for a primitive root
    doc = run_json(capsys, "construct", "--what", "twogen", "--n", "2",
                   "--q", str(2 ** 61 - 1))
    assert doc["field"] == {"p": str(2 ** 61 - 1), "s": 1,
                            "q": str(2 ** 61 - 1), "modulus": None}
    assert doc["generators"][1] == {"n": 2, "entries": [0, 1, 1, 0]}


def test_count_brute_power_from_orbit_sizes():
    # 256^16 m-tuples of coordinate pairs of M_2(F_2): counted from the
    # sizes of the 16 orbits of generating pairs, never enumerated, so
    # only the 256 coordinate pairs meet the enumeration cap
    res = _run_subprocess("count", "--k", "2", "--n", "2", "--q", "2",
                          "--m", "16", "--verify")
    assert res.returncode == 0, res.stderr
    prod = 1
    for i in range(16):
        prod *= 96 - 6 * i
    assert json.loads(res.stdout)["value"] == str(prod)


def test_count_brute_power_at_the_paper_scale(capsys):
    # |Gen_2(M_3(F_2)^2)| = 129024 (129024 - 168): every pair of M_3(F_2)
    # decided and keyed by its orbit against the closed form
    doc = run_json(capsys, "count", "--k", "2", "--n", "3", "--q", "2",
                   "--m", "2", "--verify")
    assert doc["brute"] == doc["formula"] == "16625516544" == str(129024 * 128856)


def test_count_brute_power_over_f2_itself(capsys):
    # D = 1: each of the 4 pairs of F_2 generates it and is its own orbit,
    # so 3 copies take 3! e_3(1, 1, 1, 1) = 24 triples
    doc = run_json(capsys, "count", "--k", "2", "--n", "1", "--q", "2",
                   "--m", "3", "--verify")
    assert doc["brute"] == doc["formula"] == "24"


def test_count_brute_power_beyond_the_orbit_count(capsys):
    # m = 4 was refused for its 256^4 states.  M_2(F_2)^m needs more than
    # two generators from m = 17 on, one copy more than the 16 orbits
    base = ("count", "--k", "2", "--n", "2", "--q", "2", "--m")
    brute = run_json(capsys, *base, "4", "--brute")
    assert brute["value"] == run_json(capsys, *base, "4", "--formula")["value"]
    assert brute["value"] == "56609280"
    doc = run_json(capsys, *base, "17", "--verify")
    assert doc["brute"] == doc["formula"] == "0"
    res = _run_subprocess(*base, "1000000000", "--brute")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["value"] == "0"


def test_count_k1_formula_needs_no_sweep(capsys):
    # one matrix generates a commutative algebra, so no single n x n
    # matrix, n >= 2, generates: g = 0 without evaluating the identity or
    # the 2^24-subspace sweep of M_5(F_2); --verify checks the rule on a
    # shape the brute count can reach
    t0 = time.perf_counter()
    doc = run_json(capsys, "count", "--k", "1", "--n", "5", "--q", "2", "--m", "2")
    assert doc["value"] == "0"
    assert time.perf_counter() - t0 < 5
    doc = run_json(capsys, "count", "--k", "1", "--n", "2", "--q", "2", "--s",
                   "2", "--m", "2", "--verify")
    assert doc["brute"] == doc["formula"] == "0"


def test_formula_counts_every_n_and_extension_degree(capsys):
    # counts the parent refused: n = 4 (136192 * |PGL_4(F_2)|), its
    # falling factorial, n = 1 (q^k), and extension blocks over F_q, one of
    # them the 14442624 that --brute sweeps in about 10 s
    pgl4 = 2745630720 // 136192
    assert pgl4 == ffalg.group_orders(4, 2)[1]
    t0 = time.perf_counter()
    for argv, want in ((("--n", "4", "--q", "2"), 2745630720),
                       (("--n", "4", "--q", "2", "--m", "2"),
                        2745630720 * (2745630720 - pgl4)),
                       (("--n", "1", "--q", "7"), 49),
                       (("--n", "2", "--q", "4", "--s", "2"), 4007669760),
                       (("--n", "2", "--q", "2", "--s", "3"), 14442624)):
        doc = run_json(capsys, "count", "--k", "2", *argv)
        assert doc == {"config": doc["config"], "method": "formula",
                       "value": str(want)}, argv
    assert time.perf_counter() - t0 < 1


def test_formula_mode_never_sweeps(capsys, monkeypatch):
    # formula counts go through count_gen_power_formula alone
    def refuse(*args, **kwargs):
        raise AssertionError("formula mode called brute_count")

    monkeypatch.setattr(genff, "brute_count", refuse)
    for k, n, q, s, m in itertools.product((1, 2, 3), (1, 2, 3, 4), (2, 3, 4),
                                           (1, 2), (1, 2)):
        doc = run_json(capsys, "count", "--k", str(k), "--n", str(n), "--q",
                       str(q), "--s", str(s), "--m", str(m))
        assert doc["value"] == str(genff.count_gen_power_formula(k, n, q, s, m))


def test_count_brute_power_needs_no_group_sweep(capsys):
    # orbit keys come from the tuples themselves, so |GL_1(F_10007)| =
    # 10006 no longer meets a cap: only the 10007 coordinate tuples do
    base = ("count", "--k", "1", "--n", "1", "--q", "10007", "--m", "2")
    brute = run_json(capsys, *base, "--brute")
    assert brute["value"] == "100130042" == str(10007 * 10006)
    assert brute["value"] == run_json(capsys, *base, "--formula")["value"]


def test_commands_run_with_numpy_blocked():
    # algen has no runtime dependency: with every import of numpy refused,
    # the sampling, grid and density commands still succeed
    src = os.path.dirname(os.path.dirname(algen.__file__))
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import algen.cli\n"
        "for argv in (['mc', '--n', '2', '--k', '2', '--N', '5',"
        " '--samples', '20'],\n"
        "             ['exhaustive', '--polys', '[{\"1,0\": 1}, {\"0,1\": 1}]',"
        " '--N', '20'],\n"
        "             ['density', '--kind', 'matrix', '--n', '2', '--k', '2']):\n"
        "    assert algen.cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n")
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("\n") == 3


def test_import_loads_no_dataclasses_inspect_or_typing():
    # the records are namedtuples, so the CLI's import stays light; -S
    # keeps site from importing typing itself
    src = os.path.dirname(os.path.dirname(algen.__file__))
    res = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "import algen.cli\n"
         "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_records_check_their_fields_and_are_read_only():
    from fractions import Fraction

    from algen import density, genz, polys, sampler
    from algen.errors import BadParams, DivergentTail, ShapeMismatch

    with pytest.raises(BadParams, match=r"^half-width and sample count must be >= 0$"):
        sampler.BoxModel(-1, 0)
    with pytest.raises(ShapeMismatch, match=r"^shape needs at least one block$"):
        genff.AlgebraShape(())
    with pytest.raises(DivergentTail, match=r"^tail exponent must exceed 1$"):
        density.EulerProductSpec(lambda p: 1, 10, 1.0, 0.0)
    with pytest.raises(AssertionError):
        sampler.DensityEstimate(3, 2, Fraction(3, 2), 0.0)
    records = [
        density.DensityValue(0.5, 1e-9, None, density.EXACT_ZETA),
        density.EulerProductSpec(lambda p: 1, 10, 2.0, 0.0),
        genff.shape_over_Z([(2, 1)]),
        genz.hnf([[2, 1], [0, 3]]),
        genz.generates_Z(genff.shape_over_Z([(2, 1)]), [((1, 0, 0, 0),)]),
        polys.min_generators(2, 16),
        sampler.BoxModel(5, 1),
        sampler.DensityEstimate(1, 2, Fraction(1, 2), 0.5),
    ]
    for rec in records:
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1
    assert records[2].rank == 4 and records[3].pivots() == (2, 3)
    assert records[3].index == 6 and records[4].index == 0
    assert records[5].r == 2 and records[6].samples == 1


def _run_traced(code: str):
    """Run code in a fresh interpreter after installing the benchmark's
    tracer, t, on the algen under test; exit 0 is asserted."""
    src = os.path.dirname(os.path.dirname(algen.__file__))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    prelude = (
        "import json, sys\n"
        f"sys.path[:0] = [{perfbench!r}, {src!r}]\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
    )
    res = subprocess.run([sys.executable, "-c", prelude + code],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res


def test_benchmark_tracer_installs():
    # tracer.install looks each wrapped name up by getattr with no default
    # (FqEchelon.insert, genff.mat_mul, ...): renaming one of them makes it
    # raise, and perfbench/run.py --trace 1 with it
    res = _run_traced("import algen\nprint(algen.__file__)\n")
    src = os.path.dirname(os.path.dirname(algen.__file__))
    assert res.stdout.strip().startswith(src)


def _traced_calls(*argv):
    """Run one command with the benchmark's tracer installed; its stdout
    lines and the calls counted per traced layer."""
    res = _run_traced(
        "import algen.cli\n"
        f"algen.cli.main({list(argv)!r})\n"
        "print(json.dumps({k: v['calls'] for k, v in t.summary().items()}))\n"
    )
    out = res.stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def test_benchmark_tracer_sees_the_closure_layers():
    # perfbench/tracer.py wraps algen's layers by attribute name from
    # outside src/; a refactor that renames or bypasses a traced layer
    # fails here instead of zeroing a per-layer metric
    out, calls = _traced_calls("count", "--k", "2", "--n", "2", "--q", "4",
                               "--brute")
    assert json.loads(out[0])["value"] == "46080"
    assert calls["genff.fq_closure"] == 43
    assert calls["cli"] == 1


def test_benchmark_tracer_sees_the_census_f2_screen():
    # the census decides one pair per symmetry class over F_2, each through
    # _f2_generates, which the tracer counts as genff.f2_closure
    out, calls = _traced_calls("census", "--n", "2", "--threads", "1")
    assert json.loads(out[0])["gen_mod2"] == 96
    classes = sum(1 for _ in genff.f2_pair_classes(2, 0, 16))
    assert calls["genff.f2_closure"] == classes == 49


def test_benchmark_tracer_sees_the_mc_power_screen():
    # the mod-2 screen of mc --m 2 decides each sample by the table closure
    # of _generates_generic (genff.fq_closure), none by _f2_generates
    out, calls = _traced_calls("mc", "--n", "2", "--m", "2", "--k", "3",
                               "--N", "5", "--samples", "20")
    assert json.loads(out[0])["trials"] == 20
    assert calls["genff.fq_closure"] == 20
    assert calls["genff.f2_closure"] == 0
