"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads census]

Runs run.py once per (workload, seed), one run at a time, and prints for
each metric the median, the quartiles from statistics.quantiles(n=4) and
their distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    report = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["run_s"] = took
            with open(os.path.join(HERE, "results", f"{wl}.json")) as fh:
                res["detail"] = json.load(fh)["detail"]
            runs.append(res)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in res["metrics"].items())
                + f" ({took:.0f} s)", flush=True)
        report[wl] = {"runs": runs, "metrics": {}}
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: failed share {sorted(shares)}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[wl]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{wl} {m['name']}: median {med:.4f} {m['unit']}, "
                  f"quartiles {q1:.4f}..{q3:.4f}, spread {spread:.3f} "
                  f"(bound {m['bound']})")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"spread-{int(time.time())}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
