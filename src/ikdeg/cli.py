"""Command-line front end: verification suites, single sums, and census sweeps.

Exit codes: 0 full pass, 1 any verification failure, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd

from . import suites
from .charsum import (
    DEFAULT_BUDGET,
    galois_orbits,
    inverted_kloosterman_brute,
    orbit_bounds,
    scaled_ik_at_p,
    scaled_ik_values,
)
from .cyclo import change_conductor, embed_all
from .errors import BudgetExceeded, IKDegError, InvalidParameters
from .ff import Field, get_field, is_prime
from .galois import degree_of, min_poly
from .padic import case_report, exact_valuation


CSV_FIELDS = [
    "p",
    "k_ext",
    "q",
    "n",
    "b",
    "degree",
    "predicted_degree_bound",
    "degree_matches",
    "bound1_lhs",
    "bound1_rhs",
    "bound2_lhs",
    "bound2_rhs",
    "case_label",
    "predicted_val",
    "observed_val",
]


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def census_record(F: Field, n: int, j: int, degree: int, observed, bounds: tuple) -> dict:
    """The census row of b = g^j, keyed by CSV_FIELDS.

    degree and, over F_p, observed (the valuation of z_j - z_(j-n-1), the
    case analysis's difference with a = g) are exact invariants of the
    Galois orbit of z_j = scaled_ik_at_p(F, n, b); bounds is its own
    bounds_check reading (orbit_bounds).
    """
    p = F.p
    b = F.pow_of_generator(j)
    bound = (p - 1) // gcd(n + 1, p - 1)
    case_label, pred, obs = "", None, None
    if F.k == 1:
        rep = case_report(p, n, b.coeffs[0], F.generator.coeffs[0], observed)
        case_label, pred, obs = rep.case_label, rep.predicted_valuation, rep.observed_valuation
    row = (
        p, F.k, F.q, n, b.serialize(), degree, bound,
        (degree == bound) if F.k == 1 else "n/a",  # degree_matches
        *bounds,
        case_label, pred, obs,
    )
    return dict(zip(CSV_FIELDS, row))


def _emit(records, fmt, out):
    if fmt == "csv":
        lines = [",".join(CSV_FIELDS)]
        for r in records:
            lines.append(",".join(_fmt_cell(r[f]) for f in CSV_FIELDS))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        import json  # only here: it costs every other command its import time

        rows = [
            {f: (r[f] if not isinstance(r[f], float) else float(f"{r[f]:.12g}")) for f in CSV_FIELDS}
            for r in records
        ]
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:  # table
        cells = [[_fmt_cell(r[f]) for f in CSV_FIELDS] for r in records]
        widths = [
            max(len(CSV_FIELDS[i]), *(len(row[i]) for row in cells)) if cells else len(CSV_FIELDS[i])
            for i in range(len(CSV_FIELDS))
        ]
        lines = ["  ".join(f.ljust(w) for f, w in zip(CSV_FIELDS, widths))]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_b(F: Field, raw: str):
    try:
        if ":" in raw:
            coords = [int(c) for c in raw.split(":")]
        else:
            coords = [int(raw)] + [0] * (F.k - 1)
    except ValueError:
        raise InvalidParameters(f"b must be an integer or c0:c1:..., got {raw!r}") from None
    b = F.elt(coords)
    if b.is_zero():
        raise InvalidParameters("b must be nonzero")
    return b


def _first(*values):
    """The first value that was given (is not None)."""
    return next(v for v in values if v is not None)


def cmd_verify(args) -> int:
    if args.suite == "all":
        ok, lines = suites.run_all()
    elif args.suite == "identity":
        ok, lines = suites.identity_suite(args.p, args.n, args.budget)
    elif args.suite == "degree":
        if args.p is not None and not is_prime(args.p):
            raise InvalidParameters(f"{args.p} is not prime")
        p_max = _first(args.p, args.p_max, suites.DEGREE_P_MAX)
        n_max = _first(args.n, args.n_max, suites.DEGREE_N_MAX)
        ok, lines = suites.degree_suite(p_max, n_max)
    elif args.suite == "stickelberger":
        p_max = _first(args.p_max, suites.STICKELBERGER_PRIMES[-1])
        primes = [q for q in suites.STICKELBERGER_PRIMES if q <= p_max]
        ok, lines = suites.stickelberger_suite(primes if args.p is None else [args.p])
    elif args.suite == "cases":
        ok, lines = suites.cases_suite()
    else:  # bounds
        ok, lines = suites.bounds_suite()
    if not lines:
        raise InvalidParameters("empty parameter range")
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_census(args) -> int:
    p_lo = args.p
    p_hi = _first(args.p_max, p_lo)
    n_lo = _first(args.n, 1)
    n_hi = _first(args.n_max, n_lo)
    k = _first(args.k, 1)
    primes = [p for p in range(p_lo, p_hi + 1) if is_prime(p)]
    if not primes or n_hi < n_lo:
        raise InvalidParameters("empty parameter range")
    records = []
    for F in [get_field(p, k) for p in primes]:
        q1 = F.q - 1
        for n in range(n_lo, n_hi + 1):
            # each value once, in dlog order; orbit_bounds checks that they
            # form Galois orbits, the classes of j mod orbits, so each exact
            # invariant is read once per orbit, on its representative
            values = scaled_ik_values(F, n)
            bounds = orbit_bounds(F, n, values)
            orbits = galois_orbits(F, n)[2]
            degrees = [degree_of(values[r]) for r in range(orbits)]
            observed = [None] * orbits
            if F.k == 1:
                observed = [
                    exact_valuation(values[r] - values[(r - n - 1) % q1]) for r in range(orbits)
                ]
            records += [
                census_record(F, n, j, degrees[j % orbits], observed[j % orbits], bounds[j])
                for j in range(q1)
            ]
    _emit(records, args.format, args.out)
    return 0


def cmd_sum(args) -> int:
    import json  # only here, as in _emit

    F = get_field(args.p, _first(args.k, 1))
    b = _parse_b(F, args.b)
    n = args.n
    q = F.q
    value, scale, code = None, 1, 0  # value is scale * IK, at conductor p
    if args.path in ("brute", "both"):
        value = inverted_kloosterman_brute(F, n, b, args.budget)
        print(f"brute IK_{n}({q}, {b.serialize()}) = {json.dumps(value.to_dict())}")
    if args.path in ("formula", "both"):
        z_p = scaled_ik_at_p(F, n, b)
        wide = change_conductor(z_p, F.p * (q - 1))
        print(
            f"formula {q * (q - 1)}*IK_{n}({q}, {b.serialize()}) = "
            f"{json.dumps(wide.reduced().to_dict())}"
        )
        if value is None:
            value, scale = z_p, q * (q - 1)
        else:
            agree = q * (q - 1) * value == z_p
            print(f"paths agree: {agree}")
            code = 0 if agree else 1
    embeddings, err = embed_all(value)  # one error bound serves every j
    for j, c in embeddings.items():
        c /= scale
        print(f"embedding j={j}: {c.real:.12g}{c.imag:+.12g}i (err <= {err:.3g})")
    poly = min_poly(value)  # asserts that its degree is the orbit size
    label = "IK" if scale == 1 else f"{scale}*IK"
    print(f"degree({label}) = {poly.degree}")
    print(f"minpoly({label}) = {list(poly.coeffs)}")
    return code


class _Parser(argparse.ArgumentParser):
    """Exact option names only; main() prints a parse error as one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InvalidParameters(" ".join(message.splitlines()))


def _int_options(parser, flags: str):
    """Integer options; a pair joined by "|" excludes each other."""
    for option in flags.split():
        group = parser.add_mutually_exclusive_group() if "|" in option else parser
        for flag in option.split("|"):
            group.add_argument(flag, type=int, default=DEFAULT_BUDGET if flag == "--budget" else None)


def build_parser(command=None):
    """The parser of every command. Given the command word that starts
    the arguments, a command other than verify leaves out the suite
    parsers; every command name stays registered."""
    ap = _Parser(prog="ikdeg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.set_defaults(func=cmd_verify)
    if command in (None, "verify"):
        suite = pv.add_subparsers(dest="suite", required=True)  # each reads only its own options
        for name, flags in (
            ("identity", "--p --n --budget"),
            ("degree", "--p|--p-max --n|--n-max"),  # --p and --n are maxima
            ("stickelberger", "--p|--p-max"),
            ("cases", ""),
            ("bounds", ""),
            ("all", ""),
        ):
            _int_options(suite.add_parser(name), flags)

    pc = sub.add_parser("census", help="parameter-sweep census")
    _int_options(pc, "--p --p-max --k --n --n-max")
    pc.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    pc.add_argument("--out", type=str)
    pc.set_defaults(func=cmd_census)

    ps = sub.add_parser("sum", help="one inverted Kloosterman sum")
    _int_options(ps, "--p --k --n --budget")
    ps.add_argument("--b", type=str)
    ps.add_argument("--path", choices=["brute", "formula", "both"], default="formula")
    ps.set_defaults(func=cmd_sum)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if args.command == "sum":
            if args.p is None or args.n is None or args.b is None:
                raise InvalidParameters("sum needs --p, --n, and --b")
        if args.command == "census" and args.p is None:
            raise InvalidParameters("census needs --p")
        for name in ("k", "n", "n_max"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise InvalidParameters(f"--{name.replace('_', '-')} must be >= 1")
        return args.func(args)
    except (InvalidParameters, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the field is too large to compute in", file=sys.stderr)
        return 2
    except IKDegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
