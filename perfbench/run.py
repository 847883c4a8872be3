"""Benchmark of the algen command line, one workload per run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every algen command runs in a fresh interpreter, one process at a time,
with --threads 1, so lazy tables and caches start cold as they do for a
user of the CLI.

Times are reference seconds: each measured time is divided by how much
slower than its reference speed the machine ran at that moment, as a
fixed kernel timed in the same process tells it (speedprobe.py).  The
machine this was written on runs the same code up to 1.7 times slower
in bursts of a few seconds.  The raw times go to the results file and
to stdout beside the metrics.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json:
  wall_s       sum over the workload's commands of the median over the
               passes of the time of main(argv), kernel samples taken
               out, in reference seconds;
  setup_s      median, over every interpreter start in the run, of the
               reference seconds from spawning the interpreter to the
               end of `import algen.cli`;
  peak_rss_mb  largest per-command median of the peak resident set.
Passes repeat until --seconds is used up, with at least the workload's
minimum and at most its maximum number of whole passes.

--trace 1 runs each command once with the layers of algen wrapped from
outside (tracer.py) and reports the per-layer metrics, their times in
reference seconds too.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output passed its check;
commands that crash or print no JSON count in `failed`.
Per-run details go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speedprobe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")
# Set-up samples: a few starts before every pass and after the last, so
# they spread over the run like the passes do.
PROBES_PER_PASS = 2
PROBES_AFTER = 6
CHILD_TIMEOUT = 150


class ChildFailed(Exception):
    pass


def spawn(spec: dict, importtime: bool = False) -> dict:
    """Run child.py in a fresh interpreter and return its record, with
    setup_s measured from just before the spawn."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [CHILD, json.dumps(dict(spec, src=SRC))]
    # numpy's OpenBLAS starts a thread per CPU when it is imported; on a
    # machine with two vCPUs that start-up measures the other CPU, not
    # algen.  No workload calls BLAS, so one thread changes no result.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(lines[-1])
    rec["setup_raw_s"] = rec["ready"] - t_spawn - rec["setup_kernel_s"]
    rec["setup_slowdown"] = speedprobe.slowdown(rec.pop("setup_kernel"))
    rec["setup_s"] = rec["setup_raw_s"] / rec["setup_slowdown"]
    if "t0" in rec:
        rec["unit_raw_s"] = rec["t1"] - rec["t0"] - rec["probe_s"]
        rec["unit_slowdown"] = speedprobe.slowdown(rec.pop("unit_kernel"))
        rec["unit_s"] = rec["unit_raw_s"] / rec["unit_slowdown"]
    rec["stderr"] = proc.stderr
    return rec


def run_unit(unit: workloads.Unit, spans: str | None = None):
    """One command in a fresh interpreter: (record, parsed output, problems)."""
    try:
        rec = spawn({"mode": "unit", "argv": unit.argv, "spans": spans})
    except ChildFailed as exc:
        return None, None, [f"{unit.argv}: {exc}"]
    if rec["rc"] != 0:
        return rec, None, [f"{unit.argv}: exit {rec['rc']}: {rec['err'].strip()}"]
    try:
        doc = json.loads(rec["out"])
    except json.JSONDecodeError:
        return rec, None, [f"{unit.argv}: output is not JSON"]
    return rec, doc, [f"{unit.argv}: {p}" for p in unit.check(doc)]


def check_pass(wl: workloads.Workload, results) -> tuple[int, list[str]]:
    """Failed commands and output problems of one pass.  A command that
    fails counts in `failed`; the checks speak of the outputs there are."""
    failed = 0
    problems = []
    for _, doc, probs in results:
        if doc is None:
            failed += 1
            sys.stderr.write("".join(f"command failed: {p}\n" for p in probs))
        else:
            problems += probs
    if not failed:
        problems += wl.pooled([doc for _, doc, _ in results])
    return failed, problems


def probe_setups(count: int) -> list[dict]:
    return [spawn({"mode": "probe"}) for _ in range(count)]


def measure(wl: workloads.Workload, seconds: float) -> dict:
    start = time.perf_counter()
    setups, passes, failed, problems = [], [], 0, []
    while True:
        setups += probe_setups(PROBES_PER_PASS)
        t_pass = time.perf_counter()
        results = [run_unit(u) for u in wl.units]
        pass_s = time.perf_counter() - t_pass
        f, probs = check_pass(wl, results)
        failed += f
        problems += probs
        passes.append([rec for rec, _, _ in results])
        elapsed = time.perf_counter() - start
        if len(passes) == wl.max_passes or (
                len(passes) >= wl.min_passes and elapsed + pass_s > seconds):
            break
    setups += probe_setups(PROBES_AFTER)
    outputs = {}
    for recs in passes:
        for i, rec in enumerate(recs):
            if rec is not None and rec["rc"] == 0:
                outputs.setdefault(i, set()).add(rec["out"])
    problems += [f"{wl.units[i].argv}: output differs between passes"
                 for i, outs in outputs.items() if len(outs) > 1]
    if wl.property_samples:
        decided = spawn({"mode": "property", "n": 3, "k": workloads.MC_K,
                         "N": workloads.MC_N,
                         "samples": wl.property_samples})["samples"]
        problems += workloads.property_problems(wl.property_samples, decided)

    unit_s, unit_raw_s, unit_slowdowns, unit_rss = [], [], [], []
    for i in range(len(wl.units)):
        recs = [p[i] for p in passes if p[i] is not None and p[i]["rc"] == 0]
        setups += recs
        if recs:
            unit_s.append([r["unit_s"] for r in recs])
            unit_raw_s.append([r["unit_raw_s"] for r in recs])
            unit_slowdowns.append([r["unit_slowdown"] for r in recs])
            unit_rss.append(statistics.median(r["maxrss_kb"] for r in recs))
    metrics = {
        "wall_s": sum(statistics.median(ts) for ts in unit_s),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": max(unit_rss, default=0) / 1024,
    }
    raw = {"wall_s": sum(statistics.median(ts) for ts in unit_raw_s),
           "setup_s": statistics.median(r["setup_raw_s"] for r in setups)}
    detail = {"passes": len(passes), "unit_seconds": unit_s,
              "unit_raw_seconds": unit_raw_s,
              "unit_slowdowns": unit_slowdowns,
              "setup_seconds": [r["setup_s"] for r in setups],
              "setup_raw_seconds": [r["setup_raw_s"] for r in setups],
              "unit_maxrss_kb": unit_rss, "raw": raw}
    return {"attempted": len(passes) * len(wl.units), "failed": failed,
            "problems": problems, "metrics": metrics, "detail": detail}


def import_split(stderr: str) -> tuple[float, float]:
    """(numpy, rest of algen) import seconds from -X importtime output."""
    numpy_us = 0
    algen_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        mod = name.strip()
        if mod == "numpy" and not numpy_us:
            numpy_us = int(cum)
        if depth == 0 and (mod == "algen" or mod.startswith("algen.")):
            algen_us += int(cum)
    return numpy_us / 1e6, max(algen_us - numpy_us, 0) / 1e6


# Counters kept by tracer.install, reported as 0 where no call reaches them.
COUNTS = ("ffalg.mat_mul.calls", "ffalg.echelon_insert.calls",
          "genz.echelon_add.full_rank_calls", "density.sieve.primes")


def scaled_import_split(rec: dict) -> tuple[float, ...]:
    return tuple(s / rec["setup_slowdown"] for s in import_split(rec["stderr"]))


def trace(wl: workloads.Workload) -> dict:
    splits = [scaled_import_split(spawn({"mode": "probe"}, importtime=True))
              for _ in range(PROBES_PER_PASS + PROBES_AFTER)]
    layers, counts, wall, results = {}, {}, 0.0, []
    for i, unit in enumerate(wl.units):
        spans = os.path.join(OUT, f"{wl.name}.unit{i}.spans")
        rec, doc, probs = run_unit(unit, spans)
        results.append((rec, doc, probs))
        if rec is None:
            continue
        wall += rec["unit_s"]
        for layer, agg in rec["layers"].items():
            tot = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            tot["calls"] += agg["calls"]
            tot["self_s"] += agg["self_s"] / rec["unit_slowdown"]
        for key, v in rec["counts"].items():
            counts[key] = counts.get(key, 0) + v
    failed, problems = check_pass(wl, results)

    values = {"trace.wall_s": wall,
              "setup.numpy_import_s": statistics.median(s[0] for s in splits),
              "setup.algen_import_s": statistics.median(s[1] for s in splits)}
    for layer, agg in layers.items():
        values[f"{layer}.calls"] = agg["calls"]
        values[f"{layer}.self_s"] = agg["self_s"]
    for key in COUNTS:
        values[key] = counts.get(key, 0)
    closures = values.get("genz.closure.calls", 0)
    values["genz.closure.generating_share"] = (
        counts.get("genz.closure.generating", 0) / closures if closures else 0.0)
    return {"attempted": len(wl.units), "failed": failed,
            "problems": problems, "metrics": values,
            "detail": {"layers": layers, "counts": counts}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Ending by SIGTERM unwinds through subprocess.run, which kills and
    # reaps the command's interpreter.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "algen", "cli.py")):
        sys.stderr.write(f"no algen sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        res = trace(wl) if args.trace else measure(wl, args.seconds)
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark could not run algen: {exc}\n")
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 2
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(OUT, f"{wl.name}{suffix}.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "metrics": metrics,
                   "problems": res["problems"], "detail": res["detail"]},
                  fh, indent=1)
    for p in res["problems"]:
        sys.stderr.write(f"check failed: {p}\n")
    for name, v in res["detail"].get("raw", {}).items():
        print(f"{wl.name} {name} before rescaling {v:.6g} s")
    for name, m in metrics.items():
        v = m["value"]
        print(f"{wl.name} {name} {v if isinstance(v, int) else f'{v:.6g}'} "
              f"{m['unit']}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
