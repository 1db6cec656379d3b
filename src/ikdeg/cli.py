"""Command-line front end: verification suites, single sums, and census sweeps.

Exit codes: 0 full pass, 1 any verification failure, 2 invalid parameters.
"""

import contextlib
import os
import sys
from types import SimpleNamespace

from . import suites
from .charsum import galois_orbits, ik_formula, inverted_kloosterman_brute, orbit_bounds, scaled_ik_values
from .cyclo import embed_all
from .errors import CheckFailed, InvalidParameters
from .ff import Field, check_field_fits, get_field, is_prime
from .galois import degree_bound, degree_of, min_poly
from .padic import case_analysis


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


def census_record(F: Field, n: int, j: int, degree: int, report, bounds: tuple) -> tuple:
    """The census row of b = g^j, in CSV_FIELDS order.

    degree and, over F_p, report (the case_analysis of the orbit's
    representative g^r with a = g; None over F_q, q > p) are exact
    invariants of the Galois orbit of z_j = scaled_ik_at_p(F, n, b): the
    report's label, predicted and observed valuation are those of b's own
    case_analysis. bounds is b's own bounds_check reading (orbit_bounds).
    """
    p = F.p
    b = F.pow_of_generator(j)
    bound = degree_bound(p, n)
    case_label, pred, obs = "", None, None
    if report is not None:
        case_label, pred, obs = report.case_label, report.predicted_valuation, report.observed_valuation
    return (
        p, F.k, F.q, n, b.serialize(), degree, bound,
        (degree == bound) if F.k == 1 else "n/a",  # degree_matches
        *bounds,
        case_label, pred, obs,
    )


def _emit(records, fmt, out):
    if fmt == "csv":
        lines = [",".join(CSV_FIELDS)] + [",".join(map(_fmt_cell, r)) for r in records]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        import json  # only here: it costs every other command its import time

        rows = [
            {f: (v if not isinstance(v, float) else float(f"{v:.12g}")) for f, v in zip(CSV_FIELDS, r)}
            for r in records
        ]
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:  # table
        cells = [list(map(_fmt_cell, r)) for r in records]
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
        ok, lines = suites.identity_suite(args.p, args.n)
    elif args.suite == "degree":
        p_max = _first(args.p_max, suites.DEGREE_P_MAX)
        ok, lines = suites.degree_suite(p_max, _first(args.n_max, suites.DEGREE_N_MAX))
    elif args.suite == "divisibility":
        ok, lines = suites.divisibility_suite()
    elif args.suite == "stickelberger":
        ok, lines = suites.stickelberger_suite(suites.STICKELBERGER_PRIMES if args.p is None else [args.p])
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
    check_field_fits(p_hi, k)  # the largest field, before is_prime reads the range
    primes = [p for p in range(p_lo, p_hi + 1) if is_prime(p)]
    if not primes or n_hi < n_lo:
        raise InvalidParameters("empty parameter range")
    records = []
    for p in primes:
        F = get_field(p, k)
        q1 = F.q - 1
        for n in range(n_lo, n_hi + 1):
            # each value once, in dlog order; orbit_bounds checks that they
            # form Galois orbits, the classes of j mod orbits, so each exact
            # invariant is read once per orbit, on its representative
            values = scaled_ik_values(F, n)
            bounds = orbit_bounds(F, n, values)
            orbits = galois_orbits(F, n)[2]
            degrees = [degree_of(values[r]) for r in range(orbits)]
            reports = [None] * orbits
            if F.k == 1:
                g = F.generator.coeffs[0]
                reports = [case_analysis(F.p, n, pow(g, r, F.p), g) for r in range(orbits)]
            records += [
                census_record(F, n, j, degrees[j % orbits], reports[j % orbits], bounds[j])
                for j in range(q1)
            ]
        F.release_tables()
    _emit(records, args.format, args.out)
    return 0


def _value_json(z) -> str:
    """json.dumps(z.to_dict()): str of a list of ints is its JSON, so sum
    need not import json."""
    d = z.to_dict()
    return f'{{"m": {d["m"]}, "coeffs": {d["coeffs"]}}}'


def cmd_sum(args) -> int:
    F = get_field(args.p, _first(args.k, 1))
    b = _parse_b(F, args.b)
    n = args.n
    q = F.q
    value, code = None, 0  # IK_n(q, b) at conductor p, canonical, whatever the path
    if args.path in ("brute", "both"):
        value = inverted_kloosterman_brute(F, n, b).reduced()
        print(f"brute IK_{n}({q}, {b.serialize()}) = {_value_json(value)}")
    if args.path in ("formula", "both"):
        formula = ik_formula(F, n, b)
        print(f"formula IK_{n}({q}, {b.serialize()}) = {_value_json(formula)}")
        if value is not None:
            code = 0 if value == formula else 1
            print(f"paths agree: {code == 0}")
        value = formula
    try:
        embeddings, err = embed_all(value)  # one error bound serves every j
    except OverflowError:
        raise InvalidParameters(
            f"the embeddings of IK_{n}({q}, {b.serialize()}) lie past the float range"
        ) from None
    for j, c in embeddings.items():
        print(f"embedding j={j}: {c.real:.12g}{c.imag:+.12g}i (err <= {err:.3g})")
    poly = min_poly(value)  # checks that it vanishes at z; its degree is the orbit size
    print(f"degree(IK) = {len(poly) - 1}")
    print(f"minpoly(IK) = {list(poly)}")
    return code


# The grammar, as in README's option table: each command (a verify suite is
# "verify <suite>") and the options it reads; the order of the words is the
# order of the choices in errors.
COMMANDS = {
    "verify identity": "--p --n",
    "verify degree": "--p-max --n-max",
    "verify divisibility": "",
    "verify stickelberger": "--p",
    "verify cases": "",
    "verify bounds": "",
    "verify all": "",
    "census": "--p --p-max --k --n --n-max --format --out",
    "sum": "--p --k --n --b --path",
}
# An option's value: one of its choices, any text, or else an integer.
CHOICES = {"--format": ("csv", "json", "table"), "--path": ("brute", "formula", "both")}
TEXT = ("--b", "--out")
DEFAULTS = {"--format": "csv", "--path": "formula"}
HELP = ("-h", "--help")


def _usage(words) -> str:
    """The usage line of each command that starts with these words."""
    prefix, lines = "".join(f"{w} " for w in words), []
    for command, options in COMMANDS.items():
        if f"{command} ".startswith(prefix):
            line = ["usage: ikdeg", command]
            for option in options.split():
                line.append(f"[{option} {'|'.join(CHOICES.get(option, [option[2:].upper()]))}]")
            lines.append(" ".join(line))
    return "\n".join(lines) + "\n"


def _is_flag(token: str) -> bool:
    """As argparse reads a token: "-", a negative number or text with a
    space is a value, anything else that starts with "-" an option."""
    number = token[1:].replace(".", "", 1).isdigit() and token[-1] != "."
    return token[:1] == "-" and token != "-" and not number and " " not in token


def parse_args(argv):
    """The namespace of argv: command, suite, and one attribute per option
    (its value, its default, or None); or None once -h has printed usage.

    It accepts what argparse accepted (--p=5, negative integers, the last
    of a repeated option) and raises InvalidParameters with argparse's
    wording, on one line.
    """
    words = []
    while " ".join(words) not in COMMANDS:
        i, dest = len(words), "suite" if words else "command"
        names = list(dict.fromkeys(c.split()[i] for c in COMMANDS if c.split()[:i] == words))
        if i == len(argv):
            raise InvalidParameters(f"the following arguments are required: {dest}")
        if argv[i] in HELP:
            sys.stdout.write(_usage(words))
            return None
        if argv[i] not in names:
            choices = ", ".join(map(repr, names))
            raise InvalidParameters(f"argument {dest}: invalid choice: {argv[i]!r} (choose from {choices})")
        words.append(argv[i])
    reads = set(COMMANDS[" ".join(words)].split())
    given, extras = {}, []
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token in HELP:
            sys.stdout.write(_usage(words))
            return None
        flag, eq, value = token.partition("=")
        if flag not in reads:
            extras.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise InvalidParameters(f"argument {flag}: expected one argument")
        if flag in CHOICES:
            if value not in CHOICES[flag]:
                choices = ", ".join(map(repr, CHOICES[flag]))
                raise InvalidParameters(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        elif flag not in TEXT:
            try:
                value = int(value)
            except ValueError:
                raise InvalidParameters(f"argument {flag}: invalid int value: {value!r}") from None
        given[flag] = value
    if extras:
        raise InvalidParameters(" ".join(f"unrecognized arguments: {' '.join(extras)}".splitlines()))
    flags = {f for options in COMMANDS.values() for f in options.split()}
    return SimpleNamespace(
        command=words[0],
        suite=words[1] if len(words) > 1 else None,
        **{f[2:].replace("-", "_"): given.get(f, DEFAULTS.get(f)) for f in flags},
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        if args is None:  # -h printed usage
            return 0
        if args.command == "sum":
            if args.p is None or args.n is None or args.b is None:
                raise InvalidParameters("sum needs --p, --n, and --b")
        if args.command == "census" and args.p is None:
            raise InvalidParameters("census needs --p")
        for name in ("k", "n", "n_max"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise InvalidParameters(f"--{name.replace('_', '-')} must be >= 1")
        return {"verify": cmd_verify, "census": cmd_census, "sum": cmd_sum}[args.command](args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the field is too large to compute in", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """The `ikdeg` command, `python -m ikdeg` and `python -m ikdeg.cli`:
    main() on sys.argv, then flush stdout and stderr and exit with its
    code at once (os._exit). No interpreter teardown runs, so none of its
    errors (a MemoryError, a flush that fails) can pass main and change
    the code, and none of its collections costs time. A stream that
    cannot be written exits 2 with one `io error:` line, unless main
    already exited 2 with its own line."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            if code != 2:
                code = 2
                with contextlib.suppress(OSError):
                    sys.stderr.write(f"io error: {exc}\n")
                    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
