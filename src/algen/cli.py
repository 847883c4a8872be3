"""Command-line entry point with JSON input and output.

Every run embeds its full configuration in the output, big integers are
serialized as decimal strings, and floats carry 15 significant digits
next to explicit error bounds, so outputs are byte-reproducible and
machine-checkable.

Exit codes: 0 success, 2 validation error, 3 enumeration cap or
factorization failure, 1 internal mismatch.

The nine subcommands and their options are written once, in the table
_SUBCOMMANDS.  main() reads a canonical argv straight from the table
(_parse): the subcommand, then exact flags, each at most once, with
values that convert and lie in their choices.  build_parser() builds the
argparse tree of the same table, and every argv that _parse declines
goes to it unchanged, so help, abbreviations, --opt=value, repeats and
every error keep argparse's own text and exit code.  argparse is
imported only then: a canonical command loads none of argparse,
gettext and locale, which took about 3 ms of each short command.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from . import density, ffalg, genff, genz, polys, sampler
from .errors import (
    AlgenError,
    InvalidJSON,
    ResourceError,
    TooLarge,
    ValidationError,
)

_BIG = 2 ** 53


def _enc_str(v: int) -> str:
    """v in decimal; TooLarge past Python's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(v) >= 10 ** limit:
        raise TooLarge(f"a result has more than {limit} decimal digits")
    return str(v)


def _refuse_long_value(poly, x: int) -> None:
    """_enc_str's refusal of poly(x), raised before evaluating it when a
    lower bound proves the value too long.  For poly of degree D with
    (|x| - 1) |c_D| > 2 max_{i<D} |c_i|, the tail sums to less than
    |c_D| |x|^D / 2, so |poly(x)| > |c_D| |x|^D / 2, which is at least
    2^(bits(c_D) - 2 + D (bits(x) - 1))."""
    limit = sys.get_int_max_str_digits()
    if not limit or not poly:
        return
    *low, top = map(abs, poly)
    if (abs(x) - 1) * top <= 2 * max(low, default=0):
        return
    bits = top.bit_length() - 2 + len(low) * (abs(x).bit_length() - 1)
    if bits >= (10 ** limit).bit_length():
        raise TooLarge(f"a result has more than {limit} decimal digits")


def _enc_int(v: int):
    return v if -_BIG < v < _BIG else _enc_str(v)


def _dec_int(v) -> int:
    if not isinstance(v, bool) and isinstance(v, (int, str)):
        try:
            return int(v)
        except ValueError:
            pass
    raise InvalidJSON(f"expected an integer, got {v!r}")


def _enc_float(v: float) -> float:
    return float(format(float(v), ".15g"))


def encode_matrix(n: int, entries, ctx: ffalg.FieldCtx | None = None) -> dict:
    """Shared matrix encoding; extension-field entries become coefficient
    vectors, everything else flattens to plain integers."""
    if ctx is not None and ctx.s > 1:
        ser = [list(ctx.coeffs(e)) for e in entries]
    else:
        ser = [_enc_int(int(e)) for e in entries]
    return {"n": n, "entries": ser}


def decode_matrix(obj) -> tuple[int, tuple[int, ...]]:
    try:
        n = _dec_int(obj["n"])
        entries = tuple(_dec_int(e) for e in obj["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidJSON(f"bad matrix object: {exc}") from exc
    if len(entries) != n * n:
        raise InvalidJSON(f"matrix claims n={n} but has {len(entries)} entries")
    return n, entries


def encode_tuple_Z(shape: genff.AlgebraShape, t) -> dict:
    sizes = shape.slot_sizes()
    return {
        "k": len(t),
        "elements": [[encode_matrix(n, mat) for mat, n in zip(elem, sizes)]
                     for elem in t],
    }


def decode_tuple_Z(obj):
    """Parse a tuple JSON object; returns (shape, tuple).

    The shape is inferred from the slot sizes of the first element; slots
    are sorted by matrix size (a factor permutation, which does not change
    generation) and equal sizes merged into one block multiplicity.
    """
    try:
        k = _dec_int(obj["k"])
        elements = obj["elements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidJSON(f"bad tuple object: {exc}") from exc
    if not isinstance(elements, list) or len(elements) != k:
        raise InvalidJSON("elements must be a list of length k")
    if k == 0:
        raise InvalidJSON("checkgen needs the shape; supply at least one element")
    if not all(isinstance(elem, list) for elem in elements):
        raise InvalidJSON("each element must be a list of matrix objects")
    decoded = [[decode_matrix(m) for m in elem] for elem in elements]
    sizes = [n for n, _e in decoded[0]]
    for elem in decoded:
        if [n for n, _e in elem] != sizes:
            raise InvalidJSON("elements disagree on slot sizes")
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    blocks = []
    for i in order:
        if blocks and blocks[-1][0] == sizes[i]:
            blocks[-1][1] += 1
        else:
            blocks.append([sizes[i], 1])
    shape = genff.shape_over_Z([(n, m) for n, m in blocks])
    t = tuple(tuple(elem[i][1] for i in order) for elem in decoded)
    return shape, t


def _read_json(path: str | None, text: str | None, what: str):
    """Parse the JSON in the file at path, or else in text; an unreadable
    file or malformed JSON is a validation error."""
    try:
        if path:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise InvalidJSON(f"cannot read the {what} file: {exc}") from exc
    except ValueError as exc:
        raise InvalidJSON(f"bad {what} JSON: {exc}") from exc


def _emit(config: dict, payload: dict) -> None:
    doc = {"config": config}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def _density_payload(dv: density.DensityValue) -> dict:
    return {
        "value": _enc_float(dv.value),
        "error_bound": _enc_float(dv.abs_error_bound),
        "P": dv.P,
        "method": dv.method,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args, config: dict) -> int:
    digits = sys.get_int_max_str_digits()
    if args.mode in ("brute", "verify"):
        brute = genff.brute_count(args.k, args.n, args.q, s=args.s, m=args.m,
                                  threads=args.threads, max_digits=digits)
    if args.mode in ("formula", "verify"):
        formula = genff.count_gen_power_formula(
            args.k, args.n, args.q, args.s, args.m, max_digits=digits)
    # tuple counts are big-integer quantities: always decimal strings
    if args.mode == "brute":
        _emit(config, {"method": "brute", "value": _enc_str(brute)})
    elif args.mode == "formula":
        _emit(config, {"method": "formula", "value": _enc_str(formula)})
    else:
        if brute != formula:
            _emit(config, {"error": "oracle mismatch", "brute": _enc_str(brute),
                           "formula": _enc_str(formula)})
            return 1
        _emit(config, {"method": "verify", "value": _enc_str(brute),
                       "brute": _enc_str(brute), "formula": _enc_str(formula)})
    return 0


def _cmd_density(args, config: dict) -> int:
    eps = args.eps
    if eps is None:
        eps = density.ZETA_EPS if args.kind == "zeta" else density.PRODUCT_EPS
    config["eps"] = eps
    if args.kind == "zeta":
        dv = density.zeta_value(args.s, eps)
    elif args.kind == "zn":
        dv = density.den_Zn(args.k, args.n, eps)
    elif args.kind == "matrix":
        dv = density.den_matrix(args.n, args.k, args.P, eps)
    else:
        raise ValidationError(f"unknown density kind {args.kind}")
    _emit(config, _density_payload(dv))
    return 0


def _cmd_mc(args, config: dict) -> int:
    shape = genff.shape_over_Z([(args.n, args.m)])
    box = sampler.BoxModel(args.N, args.seed, args.samples)
    est = sampler.mc_density(shape, args.k, box, threads=args.threads)
    _emit(config, {
        "hits": est.hits,
        "trials": est.trials,
        "estimate": _enc_float(est.estimate),
        "estimate_exact": f"{est.estimate.numerator}/{est.estimate.denominator}",
        "ci95_halfwidth": _enc_float(est.ci95_halfwidth),
    })
    return 0


def _load_polys(args):
    if not args.polys_file and args.polys is None:
        raise ValidationError("need --polys or --polys-file")
    data = _read_json(args.polys_file, args.polys, "polynomial")
    if not isinstance(data, list):
        raise InvalidJSON("polynomial input must be a list of term maps")
    out = []
    for poly in data:
        if not isinstance(poly, dict):
            raise InvalidJSON("each polynomial is a map of exponent "
                              "vectors (comma-separated) to coefficients")
        terms = {}
        for key, coeff in poly.items():
            try:
                exps = tuple(int(x) for x in key.split(","))
            except ValueError as exc:
                raise InvalidJSON(f"bad exponent vector {key!r}") from exc
            terms[exps] = _dec_int(coeff)
        out.append(terms)
    return out


def _cmd_exhaustive(args, config: dict) -> int:
    frac = sampler.exhaustive_poly_density(_load_polys(args), args.N)
    _emit(config, {
        "density": _enc_float(frac),
        "density_exact": f"{frac.numerator}/{frac.denominator}",
    })
    return 0


def _cmd_checkgen(args, config: dict) -> int:
    obj = _read_json(args.input, None if args.input else sys.stdin.read(),
                     "tuple")
    if isinstance(obj, dict) and "tuple" in obj:
        obj = obj["tuple"]
    shape, t = decode_tuple_Z(obj)
    config["blocks"] = [[n, m] for n, _s, m in shape.blocks]
    rep = genz.generates_Z(shape, t)
    _emit(config, {
        "generates": rep.generates,
        "index": _enc_str(rep.index),
        "bad_primes": list(rep.bad_primes),
    })
    return 0


def _cmd_construct(args, config: dict) -> int:
    if args.what == "m2z16":
        x, y = genz.construct_M2Z16()
        shape = genff.shape_over_Z([(2, 16)])
        _emit(config, {"tuple": encode_tuple_Z(shape, (x, y)),
                       "certified_index": "1"})
        return 0
    if args.what == "twogen":
        ext, A, B = genff.two_generators_ext(args.n, args.q, args.s)
        _emit(config, {
            "field": {"p": _enc_int(ext.p), "s": ext.s, "q": _enc_int(ext.q),
                      "modulus": list(ext.modulus) if ext.modulus else None},
            "generators": [encode_matrix(args.n, A, ext),
                           encode_matrix(args.n, B, ext)],
        })
        return 0
    raise ValidationError(f"unknown construction {args.what}")


def _cmd_census(args, config: dict) -> int:
    gen, fail = genz.zero_one_census(args.n, threads=args.threads)
    _emit(config, {"gen_mod2": _enc_int(gen), "fail_over_Z": _enc_int(fail)})
    return 0


def _cmd_thresholds(args, config: dict) -> int:
    rep = polys.min_generators(args.n, args.m)
    _emit(config, {"r": rep.r, "lower": _enc_int(rep.lower),
                   "upper": _enc_int(rep.upper)})
    return 0


def _cmd_poly(args, config: dict) -> int:
    fam = {"f": polys.f_poly, "h": polys.h_poly,
           "phi": polys.phi_poly, "psi": polys.psi_poly}[args.family]
    poly = fam(args.k)
    payload = {"coeffs": [_enc_int(c) for c in poly],
               "degree": polys.poly_degree(poly)}
    if args.eval is not None:
        _refuse_long_value(poly, args.eval)
        payload["value"] = _enc_int(polys.poly_eval(poly, args.eval))
    if args.mod_p is not None:
        payload["verdict_mod_p"] = polys.is_irreducible_mod_p(poly, args.mod_p)
    _emit(config, payload)
    return 0


# ---------------------------------------------------------------------------
# The command line: one table, read directly or through argparse
# ---------------------------------------------------------------------------

# An option that must be given.
_REQUIRED = object()

# Per subcommand: its help, its handler and its options in help order.  An
# option is (flag, type, default[, help]); type is int, float, None for
# the text itself, or the tuple of allowed words.  A tuple of flags is an
# exclusive group that stores the chosen flag's name into the dest
# standing in the type's place.
_SUBCOMMANDS = {
    "count": ("count generating tuples over F_q", _cmd_count, (
        ("--k", int, _REQUIRED), ("--n", int, _REQUIRED),
        ("--q", int, _REQUIRED), ("--s", int, 1), ("--m", int, 1),
        (("--brute", "--formula", "--verify"), "mode", "formula"),
        ("--threads", int, 1))),
    "density": ("density formulas with error bounds", _cmd_density, (
        ("--kind", ("zeta", "zn", "matrix"), _REQUIRED),
        ("--s", int, 2, "zeta argument"), ("--k", int, 3), ("--n", int, 2),
        ("--P", int, 10 ** 5),
        ("--eps", float, None, "accuracy of each zeta value (default 1e-9 "
                               "for zeta, 1e-10 for zn and matrix)"))),
    "mc": ("Monte-Carlo density of generating tuples", _cmd_mc, (
        ("--n", int, _REQUIRED), ("--m", int, 1), ("--k", int, _REQUIRED),
        ("--N", int, _REQUIRED), ("--samples", int, _REQUIRED),
        ("--seed", int, 42), ("--threads", int, 1))),
    "exhaustive": ("exact box density of a polynomial system", _cmd_exhaustive, (
        ("--polys", None, None, 'JSON list of {"e1,e2,...": coeff} maps'),
        ("--polys-file", None, None), ("--N", int, _REQUIRED))),
    "checkgen": ("certify a tuple generates over Z", _cmd_checkgen, (
        ("--input", None, None, "tuple JSON file (default: stdin)"),)),
    "construct": ("explicit generator constructions", _cmd_construct, (
        ("--what", ("m2z16", "twogen"), _REQUIRED), ("--n", int, 2),
        ("--q", int, 2), ("--s", int, 1))),
    "census": ("{0,1} pair census for M_n", _cmd_census, (
        ("--n", int, _REQUIRED), ("--threads", int, 1))),
    "thresholds": ("minimal generators of M_n(Z)^m", _cmd_thresholds, (
        ("--n", int, _REQUIRED), ("--m", int, _REQUIRED))),
    "poly": ("the f/h/phi/psi polynomial families", _cmd_poly, (
        ("--family", ("f", "h", "phi", "psi"), _REQUIRED),
        ("--k", int, _REQUIRED), ("--eval", int, None),
        ("--mod-p", int, None))),
}


def _parse(argv) -> dict | None:
    """vars() of build_parser().parse_args(argv) for a canonical argv:
    a subcommand, then each option at most once as its exact flag and a
    value that converts and lies in its choices, every required option,
    and at most one flag of a group.  A value may start with "-" only as
    "-" and ASCII digits, which argparse reads as a negative number on
    every Python >= 3.10.  Any other argv returns None and is left to
    argparse, whose help, errors and exit codes stay its own."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, fn, options = _SUBCOMMANDS[argv[0]]
    opts = {"subcommand": argv[0]}
    flags, groups = {}, {}
    for flag, kind, default, *_ in options:
        if type(flag) is tuple:
            opts[kind] = default
            groups.update(dict.fromkeys(flag, (kind, flag)))
        else:
            dest = flag[2:].replace("-", "_")
            opts[dest] = default
            flags[flag] = dest, kind
    opts["fn"] = fn
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag in seen:
            return None
        seen.add(flag)
        if flag in groups:
            dest, group = groups[flag]
            if group in seen:
                return None
            seen.add(group)
            opts[dest] = flag[2:]
            continue
        if flag not in flags:
            return None
        dest, kind = flags[flag]
        value = next(tokens, None)
        if value is None or value[:1] == "-" and not (
                value[1:].isascii() and value[1:].isdigit()):
            return None
        if type(kind) is tuple:
            if value not in kind:
                return None
        elif kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        opts[dest] = value
    if _REQUIRED in opts.values():
        return None
    return opts


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the same table: the reference for _parse, and
    the parser of every argv that _parse declines."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="algen",
        description="Exact counting, certification, and densities for "
                    "generating tuples of matrix algebras.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_, fn, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kind, default, *text in options:
            if type(flag) is tuple:
                group = p.add_mutually_exclusive_group()
                for f in flag:
                    group.add_argument(f, dest=kind, action="store_const",
                                       const=f[2:], default=default)
                continue
            choices = kind if type(kind) is tuple else None
            required = default is _REQUIRED
            p.add_argument(flag, type=None if choices else kind,
                           choices=choices, required=required,
                           default=None if required else default,
                           help=text[0] if text else None)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    opts = _parse(argv)
    if opts is None:
        opts = vars(build_parser().parse_args(argv))
    args = SimpleNamespace(**opts)
    config = {key: _enc_int(v) if type(v) is int else v
              for key, v in opts.items() if key != "fn"}
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValidationError("--threads must be >= 1")
        return args.fn(args, config)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 3
    except AlgenError as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
