"""The hand-written argparse tree of algen's command line, kept as the
reference that tests compare the table-built parser and the direct parse
of algen.cli against."""

import argparse

from algen import cli


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="algen",
        description="Exact counting, certification, and densities for "
                    "generating tuples of matrix algebras.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("count", help="count generating tuples over F_q")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--s", type=int, default=1)
    c.add_argument("--m", type=int, default=1)
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--brute", dest="mode", action="store_const",
                      const="brute", default="formula")
    mode.add_argument("--formula", dest="mode", action="store_const",
                      const="formula")
    mode.add_argument("--verify", dest="mode", action="store_const",
                      const="verify")
    c.add_argument("--threads", type=int, default=1)
    c.set_defaults(fn=cli._cmd_count)

    d = sub.add_parser("density", help="density formulas with error bounds")
    d.add_argument("--kind", choices=["zeta", "zn", "matrix"], required=True)
    d.add_argument("--s", type=int, default=2, help="zeta argument")
    d.add_argument("--k", type=int, default=3)
    d.add_argument("--n", type=int, default=2)
    d.add_argument("--P", type=int, default=10 ** 5)
    d.add_argument("--eps", type=float,
                   help="accuracy of each zeta value (default 1e-9 for zeta, "
                        "1e-10 for zn and matrix)")
    d.set_defaults(fn=cli._cmd_density)

    m = sub.add_parser("mc", help="Monte-Carlo density of generating tuples")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--m", type=int, default=1)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--N", type=int, required=True)
    m.add_argument("--samples", type=int, required=True)
    m.add_argument("--seed", type=int, default=42)
    m.add_argument("--threads", type=int, default=1)
    m.set_defaults(fn=cli._cmd_mc)

    e = sub.add_parser("exhaustive", help="exact box density of a polynomial system")
    e.add_argument("--polys", help="JSON list of {\"e1,e2,...\": coeff} maps")
    e.add_argument("--polys-file")
    e.add_argument("--N", type=int, required=True)
    e.set_defaults(fn=cli._cmd_exhaustive)

    g = sub.add_parser("checkgen", help="certify a tuple generates over Z")
    g.add_argument("--input", help="tuple JSON file (default: stdin)")
    g.set_defaults(fn=cli._cmd_checkgen)

    w = sub.add_parser("construct", help="explicit generator constructions")
    w.add_argument("--what", choices=["m2z16", "twogen"], required=True)
    w.add_argument("--n", type=int, default=2)
    w.add_argument("--q", type=int, default=2)
    w.add_argument("--s", type=int, default=1)
    w.set_defaults(fn=cli._cmd_construct)

    z = sub.add_parser("census", help="{0,1} pair census for M_n")
    z.add_argument("--n", type=int, required=True)
    z.add_argument("--threads", type=int, default=1)
    z.set_defaults(fn=cli._cmd_census)

    t = sub.add_parser("thresholds", help="minimal generators of M_n(Z)^m")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t.set_defaults(fn=cli._cmd_thresholds)

    p = sub.add_parser("poly", help="the f/h/phi/psi polynomial families")
    p.add_argument("--family", choices=["f", "h", "phi", "psi"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eval", type=int)
    p.add_argument("--mod-p", dest="mod_p", type=int)
    p.set_defaults(fn=cli._cmd_poly)

    return ap
