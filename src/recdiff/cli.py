"""Command-line interface.

Subcommands: analyze, count, scan, collisions, matveev, independence,
heights, bounds, problem1.  Reports are stable-ordered structured text
(sorted-key JSON) or CSV; identical invocations produce byte-identical
output apart from the timestamp header, which --no-header suppresses.

Exit codes: 0 success, 1 usage error, 2 CutoffUnsafe, 3 PrecisionExhausted,
4 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from decimal import Decimal, localcontext
from fractions import Fraction

from . import asymptotics, counting, heights, matveev
from .counting import _parse_x_int
from .errors import (
    CutoffUnsafe,
    InvalidBelowThreshold,
    InvalidParameters,
    InvalidRecurrence,
    MalformedConfig,
    NoDominantRoot,
    PrecisionExhausted,
    RootNotLargerThanOne,
    UnsupportedDegree,
)
from .heights import AlgebraicNumber
from .independence import multiplicative_independence
from .intervals import midpoint_float
from .quadratic import QuadraticElement, quadratic_roots
from .recurrences import load_sequence
from .spectral import _CHECK_BOUND, analyze_sequence

USAGE_ERROR, CUTOFF_EXIT, PRECISION_EXIT, INVALID_EXIT = 1, 2, 3, 4

INVALID_INPUT_ERRORS = (
    MalformedConfig, InvalidRecurrence, NoDominantRoot, RootNotLargerThanOne,
    UnsupportedDegree, InvalidBelowThreshold, InvalidParameters,
    ValueError, ZeroDivisionError, OverflowError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, "%s: error: %s\n" % (self.prog, message))


def _real(v: float) -> str:
    return "%.12g" % v


def _constant(q: Fraction) -> str:
    """``_real(float(q))``; from q's digits when float(q) overflows."""
    try:
        return _real(float(q))
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 12
            return format((Decimal(q.numerator) / q.denominator).normalize(), ".12g")


def _emit(args, text: str):
    header = ""
    if not args.no_header:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        header = "# recdiff %s generated %s\n" % (args.command, stamp)
    payload = header + text
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_report(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _parse_algebraic(spec: str) -> AlgebraicNumber:
    """Number spec: integer, p/q, 'phi', or 'sqrt(N)'."""
    spec = spec.strip()
    if spec == "phi":
        plus, _ = quadratic_roots(1, -1, -1)
        return AlgebraicNumber.from_quadratic(plus, "phi")
    if spec.startswith("sqrt(") and spec.endswith(")"):
        d = int(spec[5:-1])
        return AlgebraicNumber.from_quadratic(QuadraticElement.make(0, 1, d), spec)
    return AlgebraicNumber.from_rational(Fraction(spec), spec)


def _root_entry(root):
    return {
        "re": _real(midpoint_float(root.box.re)),
        "im": _real(midpoint_float(root.box.im)),
        "radius": _real(root.box.width_float() / 2),
        "multiplicity": root.multiplicity,
        "is_real": root.is_real,
        "min_poly": list(root.min_poly),
    }


def _analysis_report(seq):
    analysis = analyze_sequence(seq)
    cert, env = analysis.certificate, analysis.envelope
    return {
        "name": seq.name,
        "order": seq.order,
        "coefficients": list(seq.coefficients),
        "initial_terms": list(seq.initial_terms),
        "roots": [_root_entry(r) for r in analysis.spectrum.roots],
        "dominant": {
            "index": cert.root_index,
            "modulus": _real(midpoint_float(cert.modulus())),
            "sigma": cert.sigma,
            "margin_lower": _real(float(cert.margin_lower)),
            "min_poly": list(cert.min_poly),
        },
        "envelope": {
            "c_lower": _constant(env.c_lower),
            "c_upper": _constant(env.c_upper),
            "alpha_prime": _constant(env.alpha_prime),
            "a_prime": _constant(env.a_prime),
            "n0": env.n0,
            "verified_to": env.verified_to,
        },
        "binet_check_bound": _CHECK_BOUND,
        "precision_bits": analysis.spectrum.precision_bits,
    }


def _cmd_analyze(args):
    report = {"sequences": [_analysis_report(load_sequence(args.seq_u))]}
    if args.seq_v:
        report["sequences"].append(_analysis_report(load_sequence(args.seq_v)))
    _emit(args, _json_report(report))
    return 0


def _collision_report(scan, key):
    """The collision records under ``key`` plus the N_emp/M_emp witnesses."""
    return {
        key: [{"c": rec.c, "representations": [list(p) for p in rec.representations],
               "max_n": rec.max_n, "max_m": rec.max_m} for rec in scan.records],
        "N_emp": scan.n_emp, "M_emp": scan.m_emp,
    }


def _cmd_count(args):
    seq_u = load_sequence(args.seq_u)
    seq_v = load_sequence(args.seq_v)
    x = _parse_x_int(args.x)
    scan = counting.find_collisions(seq_u, seq_v, x) if args.collisions else None
    fast = scan.count if scan else None
    if args.oracle:
        if args.n_cap is None or args.m_cap is None:
            fast = fast or counting.count_T_S(seq_u, seq_v, x)
        n_cap = args.n_cap if args.n_cap is not None else 3 * fast.n_cut
        m_cap = args.m_cap if args.m_cap is not None else 3 * fast.m_cut
        result = counting.brute_force_oracle(seq_u, seq_v, x, n_cap, m_cap)
    else:
        result = fast or counting.count_T_S(seq_u, seq_v, x)
    report = {
        "x": result.x, "T": result.T, "S": result.S,
        "n_cut": result.n_cut, "m_cut": result.m_cut,
        "gap_margin": result.gap_margin, "method": result.method,
    }
    if scan:
        report.update(_collision_report(scan, "collisions"))
    _emit(args, _json_report(report))
    return 0


def _cmd_collisions(args):
    seq_u = load_sequence(args.seq_u)
    seq_v = load_sequence(args.seq_v)
    x = _parse_x_int(args.x)
    scan = counting.find_collisions(seq_u, seq_v, x)
    report = {"x": x, "T": scan.count.T, "S": scan.count.S}
    report.update(_collision_report(scan, "records"))
    _emit(args, _json_report(report))
    return 0


def _cmd_scan(args):
    seq_u = load_sequence(args.seq_u)
    seq_v = load_sequence(args.seq_v)
    grid = [_parse_x_int(tok) for tok in args.x_grid.split(",") if tok.strip()]
    report = asymptotics.ratio_table(seq_u, seq_v, grid, oracle=args.oracle)
    if args.output == "csv":
        lines = ["x,T,S,main,T_ratio,S_ratio,grid,excess"]
        for r in report.rows:
            lines.append(",".join([
                str(r.x), str(r.T), str(r.S), _real(r.main),
                _real(r.t_ratio), _real(r.s_ratio),
                "" if r.grid_count is None else str(r.grid_count),
                str(r.excess)]))
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _json_report({
            "pair": report.pair,
            "k1": None if report.k1 is None else _real(report.k1),
            "k2": None if report.k2 is None else _real(report.k2),
            "rows": [{
                "x": r.x, "T": r.T, "S": r.S, "main": _real(r.main),
                "T_ratio": _real(r.t_ratio), "S_ratio": _real(r.s_ratio),
                "grid": r.grid_count, "excess": r.excess} for r in report.rows],
        }))
    return 0


def _cmd_matveev(args):
    inp = matveev.MatveevInput(args.t, args.D, args.B, tuple(args.A))
    bound = matveev.matveev_lower_bound(inp)
    _emit(args, _json_report({
        "t": args.t, "D": args.D, "B": args.B, "A": list(args.A),
        "log_lambda_lower_bound": _real(bound)}))
    return 0


def _cmd_independence(args):
    alpha = _parse_algebraic(args.alpha)
    beta = _parse_algebraic(args.beta)
    result = multiplicative_independence(alpha, beta)
    _emit(args, _json_report({
        "alpha": args.alpha, "beta": args.beta,
        "h_alpha": "%.12f" % midpoint_float(heights.log_height(alpha)),
        "h_beta": "%.12f" % midpoint_float(heights.log_height(beta)),
        "status": result.status,
        "n": result.n, "m": result.m, "certificate": result.certificate}))
    return 0


def _cmd_heights(args):
    alpha = _parse_algebraic(args.alpha)
    beta = _parse_algebraic(args.beta)
    h_alpha = heights.log_height(alpha)
    h_beta = heights.log_height(beta)
    probe = heights.height_constant_probe(alpha, beta, args.range)
    lines = [
        "# h(alpha) = %.12f" % midpoint_float(h_alpha),
        "# h(beta) = %.12f" % midpoint_float(h_beta),
        "# C0_emp = %.12f (empirical)" % probe.c0_emp,
        "# argmin = (%d, %d)" % probe.argmin,
        "n,m,height,ratio",
    ]
    for n, m, h, ratio in probe.rows:
        lines.append("%d,%d,%.12f,%.12f" % (n, m, h, ratio))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_bounds(args):
    seq_u = load_sequence(args.seq_u)
    seq_v = load_sequence(args.seq_v)
    eb = matveev.effective_upper_bounds(analyze_sequence(seq_u), analyze_sequence(seq_v))
    width = max(len(rec.name) for rec in eb.ledger)
    lines = ["# effective upper-bound ledger (%s vs %s)" % (seq_u.name, seq_v.name)]
    for rec in eb.ledger:
        flag = "" if rec.rigorous else "   [non-rigorous]"
        lines.append("%-*s  %s%s" % (width, rec.name, _real(rec.value), flag))
    lines.append("")
    lines.append(_json_report({
        "c0": _real(eb.c0),
        "rigorous": eb.rigorous,
        "n_max": {"P": _real(eb.n_bound.P), "Q": _real(eb.n_bound.Q),
                  "R": _real(eb.n_bound.R)},
        "m_max": {"P": _real(eb.m_bound.P), "Q": _real(eb.m_bound.Q),
                  "R": _real(eb.m_bound.R)},
    }))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_problem1(args):
    result = counting.count_real_power_pairs(args.alpha, args.beta, args.x,
                                             args.precision)
    _emit(args, _json_report({
        "alpha": result.alpha, "beta": result.beta, "x": str(result.x),
        "T": result.T, "pairs": [list(p) for p in result.pairs],
        "n_cut": result.n_cut, "m_cut": result.m_cut,
        "precision_bits": result.precision_bits}))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="recdiff",
                     description="Counting integers representable as "
                                 "differences of linear recurrence sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--no-header", action="store_true",
                       help="suppress the timestamp header")

    p = sub.add_parser("analyze", help="root/Binet/envelope certificates")
    p.add_argument("--seq-u", required=True)
    p.add_argument("--seq-v", default=None)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="exact T(x) and S(x)")
    p.add_argument("--seq-u", required=True)
    p.add_argument("--seq-v", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle instead of the fast counter")
    p.add_argument("--n-cap", type=int, default=None)
    p.add_argument("--m-cap", type=int, default=None)
    p.add_argument("--collisions", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("collisions", help="values with multiple representations")
    p.add_argument("--seq-u", required=True)
    p.add_argument("--seq-v", required=True)
    p.add_argument("--x", required=True)
    common(p)
    p.set_defaults(func=_cmd_collisions)

    p = sub.add_parser("scan", help="asymptotic ratio table over an x grid")
    p.add_argument("--seq-u", required=True)
    p.add_argument("--seq-v", required=True)
    p.add_argument("--x-grid", required=True, help="e.g. 1e3,1e6,1e9,1e12")
    p.add_argument("--output", choices=("csv", "structured"), default="csv")
    p.add_argument("--oracle", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("matveev", help="evaluate the linear-form lower bound")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--A", type=float, action="append", required=True)
    common(p)
    p.set_defaults(func=_cmd_matveev)

    p = sub.add_parser("independence", help="multiplicative independence check")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    common(p)
    p.set_defaults(func=_cmd_independence)

    p = sub.add_parser("heights", help="height probe over a power-quotient grid")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--range", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_heights)

    p = sub.add_parser("bounds", help="effective upper-bound ledger")
    p.add_argument("--seq-u", required=True)
    p.add_argument("--seq-v", required=True)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("problem1", help="real-base explorer (|alpha^n - beta^m| <= x)")
    p.add_argument("--alpha", default="pi")
    p.add_argument("--beta", default="e")
    p.add_argument("--x", required=True)
    p.add_argument("--precision", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_problem1)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "count" and not args.oracle and \
                (args.n_cap is not None or args.m_cap is not None):
            parser.error("--n-cap and --m-cap need --oracle")
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except CutoffUnsafe as exc:
        print("cutoff unsafe: %s" % exc, file=sys.stderr)
        return CUTOFF_EXIT
    except PrecisionExhausted as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return PRECISION_EXIT
    except INVALID_INPUT_ERRORS as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return INVALID_EXIT


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
