"""The four workloads: CLI commands, and the checks on their JSON output.

Each unit is one `algen` command line, run in a fresh interpreter.  Each
check compares the output with a value from oracles.py, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

MC_N, MC_K, MC_CHUNKS, MC_SAMPLES = 200, 2, 4, 1000
PROPERTY_SAMPLES = 24


@dataclass
class Unit:
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    name: str
    units: list[Unit]
    # Whole passes over all units that every run makes, however long it is.
    min_passes: int
    # Passes stop here even when --seconds is not used up, so that a run of
    # a workload with long commands stays as long on a fast machine.
    max_passes: int | None = None
    # Checks over the outputs of all units of one pass together.
    pooled: Callable[[list[dict]], list[str]] = lambda docs: []
    # (seed, index) Monte-Carlo samples for the Z / F_p property check.
    property_samples: list = field(default_factory=list)


def _expect(doc: dict, key: str, want) -> list[str]:
    got = doc.get(key)
    return [] if got == want else [f"{key} = {got!r}, expected {want!r}"]


def _within(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label} = {got!r} is {abs(got - want):.3g} from {want!r}, "
            f"beyond {tol:.3g}"]


def _printed(v: float) -> float:
    """Rounding of a value the CLI prints with 15 significant digits."""
    return 1e-15 * abs(v)


# -- census -----------------------------------------------------------------

def census(seed: int) -> Workload:
    """census --n 3 has no inputs to draw; the seed changes nothing."""
    def check(doc):
        return (_expect(doc, "gen_mod2", oracles.g3(2, 2))
                + _expect(doc, "fail_over_Z", oracles.CENSUS3_FAIL_OVER_Z))
    return Workload("census", [Unit(["census", "--n", "3", "--threads", "1"],
                                    check)], min_passes=2, max_passes=2)


# -- montecarlo --------------------------------------------------------------

def montecarlo(seed: int) -> Workload:
    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in range(MC_CHUNKS)]

    def check(doc):
        errs = _expect(doc, "trials", MC_SAMPLES)
        hits = doc.get("hits", -1)
        if not 0 <= hits <= MC_SAMPLES:
            return errs + [f"hits = {hits!r} outside [0, {MC_SAMPLES}]"]
        frac = Fraction(hits, MC_SAMPLES)
        return errs + _expect(doc, "estimate_exact",
                              f"{frac.numerator}/{frac.denominator}")

    def pooled(docs):
        hits = sum(d.get("hits", 0) for d in docs)
        trials = MC_CHUNKS * MC_SAMPLES
        rho = oracles.den_m3_k2()
        sigma = math.sqrt(rho * (1 - rho) / trials)
        return _within(f"pooled estimate {hits}/{trials}", hits / trials,
                       rho, 4 * sigma)

    units = [Unit(["mc", "--n", "3", "--k", str(MC_K), "--N", str(MC_N),
                   "--samples", str(MC_SAMPLES), "--seed", str(s),
                   "--threads", "1"], check) for s in seeds]
    picks = [(rng.choice(seeds), rng.randrange(MC_SAMPLES))
             for _ in range(PROPERTY_SAMPLES)]
    return Workload("montecarlo", units, min_passes=3, pooled=pooled,
                    property_samples=picks)


def property_problems(samples, decided) -> list[str]:
    """A tuple generates M_3(F_p) exactly when its Z-closure has a non-zero
    index that p does not divide."""
    errs = []
    for (seed, index), (zindex, gen2, gen3) in zip(samples, decided):
        zindex = int(zindex)
        for p, gen in ((2, gen2), (3, gen3)):
            if gen != (zindex != 0 and zindex % p != 0):
                errs.append(f"sample {index} of seed {seed}: index {zindex} "
                            f"but generates mod {p} is {gen}")
    if len(decided) != len(samples):
        errs.append(f"{len(decided)} of {len(samples)} samples decided")
    return errs


# -- ffcount -----------------------------------------------------------------

def ffcount(seed: int) -> Workload:
    """Brute counts over F_q; fixed inputs, the seed changes nothing."""
    g96 = oracles.g2(2, 2)

    def count(args, want):
        return Unit(["count"] + args + ["--threads", "1"],
                    lambda doc: _expect(doc, "value", str(want)))

    pgl_ratio = oracles.pgl_order(2, 4) // oracles.pgl_order(2, 2)
    units = [
        count(["--k", "2", "--n", "2", "--q", "3", "--verify"], oracles.g2(2, 3)),
        count(["--k", "2", "--n", "2", "--q", "4", "--brute"], oracles.g2(2, 4)),
        # pairs of M_2(F_4) that generate it over F_2: all generating pairs
        # except the conjugates of generating pairs of M_2(F_2)
        count(["--k", "2", "--n", "2", "--q", "2", "--s", "2", "--brute"],
              oracles.g2(2, 4) - pgl_ratio * g96),
        count(["--k", "2", "--n", "2", "--q", "2", "--m", "2", "--brute"],
              g96 * (g96 - oracles.pgl_order(2, 2))),
        count(["--k", "3", "--n", "2", "--q", "2", "--verify"], oracles.g2(3, 2)),
    ]
    return Workload("ffcount", units, min_passes=2, max_passes=2)


# -- densities ---------------------------------------------------------------

BOX_N = 2000
ZETA_EPS = 1e-12
PSI_K = 100
THRESHOLD_M = 769


def densities(seed: int) -> Workload:
    rng = random.Random(seed)
    # prime bounds drawn near 10^6, so the sieve size varies with the seed
    P2 = 10 ** 6 - rng.randrange(1000)
    P3 = 10 ** 6 - rng.randrange(1000)

    def certified(label, want, want_err):
        def check(doc):
            v, bound = doc.get("value", math.nan), doc.get("error_bound", 0.0)
            return _within(label, v, want, bound + want_err + _printed(v))
        return check

    box_want = Fraction(oracles.box_coprime_count(BOX_N), (2 * BOX_N + 1) ** 2)

    def box(doc):
        return _expect(doc, "density_exact",
                       f"{box_want.numerator}/{box_want.denominator}")

    def thresholds(doc):
        pgl3 = oracles.pgl_order(3, 2)
        return (_expect(doc, "r", 3)
                + _expect(doc, "lower", oracles.g3(2, 2) // pgl3)
                + _expect(doc, "upper", oracles.g3(3, 2) // pgl3))

    def psi(doc):
        coeffs = [int(c) for c in doc.get("coeffs", [])]
        product = oracles.poly_mul(coeffs, oracles.psi_divisor(PSI_K))
        if product != oracles.psi_numerator(PSI_K):
            return [f"psi_{PSI_K} times d_{PSI_K} is not x^(3k-2) + phi_k"]
        return []

    k3_ref, k3_err = oracles.den_m3_k3()
    units = [
        Unit(["density", "--kind", "matrix", "--n", "3", "--k", "2",
              "--P", str(P2)],
             certified("den_matrix(3, 2)", oracles.den_m3_k2(), 1e-16)),
        Unit(["density", "--kind", "matrix", "--n", "3", "--k", "3",
              "--P", str(P3)],
             certified("den_matrix(3, 3)", k3_ref, k3_err)),
        Unit(["density", "--kind", "zeta", "--s", "2", "--eps", str(ZETA_EPS)],
             certified("zeta(2)", oracles.ZETA2, 1e-16)),
        Unit(["exhaustive", "--polys", '[{"1,0": 1}, {"0,1": 1}]',
              "--N", str(BOX_N)], box),
        Unit(["thresholds", "--n", "3", "--m", str(THRESHOLD_M)], thresholds),
        Unit(["poly", "--family", "psi", "--k", str(PSI_K)], psi),
    ]
    return Workload("densities", units, min_passes=3)


WORKLOADS = {"census": census, "montecarlo": montecarlo,
             "ffcount": ffcount, "densities": densities}
