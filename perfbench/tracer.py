"""Span tracing of algen from outside: module attributes are wrapped.

Nothing under src/ knows about it.  Each wrapped callable records one
span (layer, parent span, start, end) in flat arrays, so a traced census
with a million spans stays around 30 MB; the spans are written out when
the process ends.  A layer's self time is the length of its spans minus
the part covered by their child spans.

Calls reach a wrapper only through the attribute that is replaced: a
name bound with ``from module import name`` is a second attribute and is
wrapped on its own (``genff.mat_mul``, ``density.phi_poly``).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def span(self, owner, attr: str, layer: str, before=None, after=None):
        """Replace owner.attr by a wrapper that records a span per call.

        before(args) runs ahead of the span and after(args, result) behind
        it; both feed counters and stay out of the layer's time.  The span
        covers the call alone; its outer length also covers the wrapper's
        own bookkeeping, which is taken out of the parent's self time.
        """
        fn = getattr(owner, attr)
        lid = self._layer_id(layer)
        names, parents, starts, ends, outer = (
            self.names, self.parents, self.starts, self.ends, self.outer)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            if before is not None:
                before(args)
            i = len(names)
            names.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            outer.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
                outer[i] = t1 - t_in
            if after is not None:
                after(args, result)
                outer[i] = clock() - t_in
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str):
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per layer: calls, total (inclusive) and self seconds."""
        return layer_summary(self.layers, self.names, self.parents,
                             self.starts, self.ends, self.outer)

    def dump(self, path: str) -> None:
        header = {"layers": self.layers, "spans": len(self.names),
                  "arrays": ["names:i", "parents:i", "starts:d", "ends:d",
                             "outer:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends,
                        self.outer):
                arr.tofile(fh)


def layer_summary(layers, names, parents, starts, ends, outer) -> dict:
    """Self time of a span is its length minus the outer lengths of its
    children, so the tracer's own cost lands in no layer."""
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += outer[i]
    out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for layer in layers}
    for i in range(n):
        rec = out[layers[names[i]]]
        rec["calls"] += 1
        rec["total_s"] += dur[i]
        rec["self_s"] += dur[i] - covered[i]
    return out


def install(tracer: Tracer) -> None:
    """Wrap the layers of algen that the benchmark reports on."""
    import algen.cli as cli
    from algen import density, ffalg, genff, genz, polys, sampler

    counters = tracer.counts
    tracer.span(cli, "main", "cli")

    tracer.span(genff, "_f2_generates", "genff.f2_closure")
    tracer.span(genff, "_generates_generic", "genff.fq_closure")
    tracer.count(ffalg, "mat_mul", "ffalg.mat_mul.calls")
    tracer.count(genff, "mat_mul", "ffalg.mat_mul.calls")
    tracer.count(ffalg.FqEchelon, "insert", "ffalg.echelon_insert.calls")

    def closure_done(args, lat):
        if lat.rank == lat.D and lat.index == 1:
            counters["genz.closure.generating"] += 1

    def add_start(args):
        ech = args[0]
        if len(ech.rows) == ech.D:
            counters["genz.echelon_add.full_rank_calls"] += 1

    tracer.span(genz, "closure_lattice", "genz.closure", after=closure_done)
    tracer.span(genz._ZEchelon, "add", "genz.echelon_add", before=add_start)
    tracer.span(genz._ZEchelon, "canonical_basis", "genz.hnf")
    tracer.span(genz, "factor_index", "genz.factor")

    tracer.span(sampler, "sample_tuple", "sampler.sample")
    tracer.span(sampler, "exhaustive_poly_density", "sampler.box_grid")

    def sieved(args, primes):
        counters["density.sieve.primes"] += len(primes)

    tracer.span(density, "sieve_primes", "density.sieve", after=sieved)
    tracer.span(density, "den_matrix", "density.euler")
    tracer.span(density, "euler_product", "density.euler")
    tracer.span(density, "_zeta_decimal", "density.zeta")
    tracer.span(density, "phi_poly", "polys")
    for name in ("min_generators", "f_poly", "h_poly", "phi_poly", "psi_poly"):
        tracer.span(polys, name, "polys")
