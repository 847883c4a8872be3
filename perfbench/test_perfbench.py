"""Tests of the benchmark's own oracles, checks, speed probe and tracer.

    python3 -m pytest perfbench -q
"""

import math
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import oracles
import run
import speedprobe
import tracer
import workloads


def test_box_coprime_count_matches_brute_gcd():
    for N in range(0, 13):
        brute = sum(1 for x in range(-N, N + 1) for y in range(-N, N + 1)
                    if math.gcd(x, y) == 1)
        assert oracles.box_coprime_count(N) == brute


def test_mobius_small_values():
    assert oracles.mobius_upto(12)[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
                                           -1, 0]


def test_closed_forms_give_the_papers_counts():
    assert oracles.g2(2, 2) == 96
    assert oracles.g2(3, 2) == 2688
    assert oracles.g3(2, 2) == 129024
    assert oracles.g3(2, 2) // oracles.pgl_order(3, 2) == 768


def test_pgl_orders():
    assert [oracles.pgl_order(2, 2), oracles.pgl_order(2, 4),
            oracles.pgl_order(3, 2)] == [6, 60, 168]


def test_g2_matches_brute_count_of_noncommuting_pairs_over_f2():
    # Over F_2 a pair generates M_2 iff it has no common invariant line
    # and does not commute; count that by brute force.
    def mul(a, b):
        return tuple((a[2 * i] * b[j] + a[2 * i + 1] * b[2 + j]) % 2
                     for i in range(2) for j in range(2))

    def fixes(a, v):
        w = ((a[0] * v[0] + a[1] * v[1]) % 2, (a[2] * v[0] + a[3] * v[1]) % 2)
        return w in ((0, 0), v)

    mats = [tuple((c >> i) & 1 for i in range(4)) for c in range(16)]
    lines = [(1, 0), (0, 1), (1, 1)]
    count = sum(1 for a in mats for b in mats
                if mul(a, b) != mul(b, a)
                and not any(fixes(a, v) and fixes(b, v) for v in lines))
    assert count == oracles.g2(2, 2)


def test_accelerated_euler_product_matches_the_direct_one():
    fast, fast_err = oracles.den_m3_k3()
    slow, slow_err = oracles.direct_euler_m3_k3(10 ** 4)
    assert fast_err < 1e-12
    assert slow <= fast + fast_err
    assert fast <= slow + slow_err


def test_den_m3_k2_matches_its_euler_product():
    # 1/(zeta(2)^2 zeta(3)) = prod_p (1 - p^-3) / zeta(2)^2; the factors
    # past B lose a relative 1 - exp(-1/(2 B^2)) at most.
    B = 10 ** 4
    prod = math.exp(math.fsum(math.log1p(-p ** -3.0)
                              for p in oracles.primes_upto(B)))
    assert abs(prod / oracles.ZETA2 ** 2 - oracles.den_m3_k2()) < 1 / B ** 2


def test_psi_divisor_divides_the_numerator():
    for k in range(2, 40):
        num = oracles.psi_numerator(k)
        div = oracles.psi_divisor(k)
        # synthetic division by a monic divisor
        rem = list(num)
        for i in range(len(rem) - len(div), -1, -1):
            c = rem[i + len(div) - 1]
            for j, d in enumerate(div):
                rem[i + j] -= c * d
        assert not any(rem), k


def test_checks_reject_wrong_outputs():
    (unit,) = workloads.census(0).units
    assert unit.check({"gen_mod2": 129024, "fail_over_Z": 9132}) == []
    assert unit.check({"gen_mod2": 129024, "fail_over_Z": 9131})
    ff = workloads.ffcount(0).units
    assert ff[2].check({"value": "45120"}) == []
    assert ff[2].check({"value": "46080"})
    dens = workloads.densities(0).units
    assert dens[2].check({"value": math.pi ** 2 / 6, "error_bound": 1e-13}) == []
    assert dens[2].check({"value": math.pi ** 2 / 6 + 1e-12,
                          "error_bound": 1e-13})
    assert dens[3].check({"density_exact": "9732704/16008001"}) == []
    assert dens[3].check({"density_exact": "9732705/16008001"})


def test_montecarlo_pooled_check_is_four_sigma():
    wl = workloads.montecarlo(0)
    trials = workloads.MC_CHUNKS * workloads.MC_SAMPLES
    rho = oracles.den_m3_k2()
    sigma = math.sqrt(rho * (1 - rho) / trials)
    near = round(rho * trials) // workloads.MC_CHUNKS
    assert wl.pooled([{"hits": near}] * workloads.MC_CHUNKS) == []
    far = int((rho + 5 * sigma) * trials) // workloads.MC_CHUNKS + 1
    assert wl.pooled([{"hits": far}] * workloads.MC_CHUNKS)


def test_property_check_flags_a_mismatch():
    samples = [(1, 0), (1, 1), (1, 2)]
    good = [["1", True, True], ["6", False, False], ["0", False, False]]
    assert workloads.property_problems(samples, good) == []
    bad = [["3", True, True]] + good[1:]
    assert workloads.property_problems(samples, bad)


def test_slowdown_drops_the_slowest_share():
    ref = speedprobe.REF_KERNEL_S
    # one interrupted sample in ten is dropped
    samples = [2 * ref] * 9 + [1000 * ref]
    assert math.isclose(speedprobe.slowdown(samples), 2.0)
    assert math.isclose(speedprobe.slowdown([3 * ref]), 3.0)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speedprobe.SpeedProbe()
    probe.start()
    end = time.perf_counter() + 20 * speedprobe.PERIOD_S
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert len(probe.samples) >= 5
    assert all(0 < s < 1 for s in probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_layer_summary_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a
    # child [5, 6]; outer lengths add 0.5 of tracer bookkeeping each
    layers = ["a", "b"]
    names = [0, 1, 1, 0]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    outer = [10.5, 2.5, 4.5, 1.5]
    s = tracer.layer_summary(layers, names, parents, starts, ends, outer)
    assert s["a"]["calls"] == 2 and s["b"]["calls"] == 2
    assert math.isclose(s["a"]["self_s"], (10 - 2.5 - 4.5) + 1)
    assert math.isclose(s["b"]["self_s"], 2 + (4 - 1.5))


def test_tracer_wraps_module_attributes():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    t = tracer.Tracer()
    t.span(mod, "leaf", "leaf")
    t.span(mod, "outer", "outer", after=lambda args, r: t.counts.update(["o"]))
    t.count(mod, "leaf", "leaf.calls")
    assert [mod.outer(i) for i in range(3)] == [2, 4, 6]
    s = t.summary()
    assert s["outer"]["calls"] == 3 and s["leaf"]["calls"] == 3
    assert t.counts == {"o": 3, "leaf.calls": 3}
    assert 0 <= s["outer"]["self_s"] <= s["outer"]["total_s"]


def test_import_split_reads_importtime_output():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       438 |       1175 | site",
        "import time:      5000 |     150000 |     numpy",
        "import time:       900 |     170000 |   algen",
        "import time:      7015 |     216050 | algen.cli",
    ])
    numpy_s, algen_s = run.import_split(text)
    assert numpy_s == 0.15
    assert math.isclose(algen_s, 0.06605)


def test_run_refuses_a_tree_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
