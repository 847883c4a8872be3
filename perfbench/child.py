"""One fresh interpreter of the benchmark: import algen.cli, run one job.

Usage: python3 child.py '<json spec>'.  The spec's "mode" is one of

  probe     import algen.cli and stop (a set-up sample);
  unit      run algen.cli.main(argv) once with stdout and stderr captured,
            traced when the spec names a span file;
  property  decide a list of Monte-Carlo samples over Z, F_2 and F_3.

The last line of stdout is one JSON record.  Times are perf_counter
readings, which on Linux share CLOCK_MONOTONIC with the parent, so the
parent can time set-up from before the spawn to "ready".  The record also
carries the speed kernel's samples (speedprobe.py): SETUP_CALLS calls
just before and just after the import, and in unit mode one call every
speedprobe.PERIOD_S seconds while the command runs.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import speedprobe

SETUP_CALLS = 100


def main() -> int:
    spec = json.loads(sys.argv[1])
    before = speedprobe.time_kernel(SETUP_CALLS)
    import algen.cli

    ready = time.perf_counter()
    after = speedprobe.time_kernel(SETUP_CALLS)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(algen.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"algen imported from {algen.cli.__file__}, "
                         f"not from {src}\n")
        return 2
    rec = {"ready": ready, "setup_kernel_s": sum(before),
           "setup_kernel": before + after}
    if spec["mode"] == "unit":
        rec.update(run_unit(spec, after))
    elif spec["mode"] == "property":
        rec["samples"] = decide_samples(spec)
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(rec) + "\n")
    return 0


def run_unit(spec, after: list[float]) -> dict:
    """The command's times, and the kernel samples around and inside it."""
    import algen.cli

    tracer = None
    if spec.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    probe = speedprobe.SpeedProbe()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        probe.start()
        t0 = time.perf_counter()
        try:
            rc = algen.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        finally:
            t1 = time.perf_counter()
            probe.stop()
    rec = {"t0": t0, "t1": t1, "rc": rc, "out": out.getvalue(),
           "err": err.getvalue(), "probe_s": sum(probe.samples),
           "unit_kernel": after + probe.samples}
    if tracer is not None:
        tracer.dump(spec["spans"])
        rec["layers"] = tracer.summary()
        rec["counts"] = dict(tracer.counts)
    return rec


def decide_samples(spec) -> list:
    """For each (seed, index): the Z-closure index of the sample, and
    whether its reduction generates M_n(F_2) and M_n(F_3)."""
    from algen import ffalg, genff, genz, sampler

    n, k, N = spec["n"], spec["k"], spec["N"]
    shape = genff.shape_over_Z([(n, 1)])
    fshapes = {p: genff.shape_over_field(ffalg.make_field(p), [(n, 1, 1)])
               for p in (2, 3)}
    out = []
    for seed, index in spec["samples"]:
        t = sampler.sample_tuple(shape, k, sampler.BoxModel(N, seed), index)
        row = [str(genz.closure_lattice(shape, t).index)]
        for p, fshape in fshapes.items():
            tp = [tuple(tuple(x % p for x in mat) for mat in elem) for elem in t]
            row.append(genff.generates(fshape, tp))
        out.append(row)
    return out


if __name__ == "__main__":
    sys.exit(main())
