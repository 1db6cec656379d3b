"""Named verification suites backing `ikdeg verify` and the acceptance tests.

Each suite returns (ok, lines); failures carry full reproduction
parameters.
"""

from __future__ import annotations

from math import gcd

from .charsum import DEFAULT_BUDGET, bounds_check, ik_formula_scaled, inverted_kloosterman_brute
from .cyclo import change_conductor
from .errors import BudgetExceeded, InvalidParameters
from .ff import get_field, is_prime
from .galois import ik_degree
from .padic import run_case_analysis, stickelberger_check

IDENTITY_PRIMES = (3, 5, 7, 11, 13)
IDENTITY_NS = (1, 2, 3)
DEGREE_P_MAX = 31
DEGREE_N_MAX = 8
EXTENSION_FIELDS = ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3))  # q = 4, 9, 25, 8, 27
EXTENSION_NS = (1, 2)
STICKELBERGER_PRIMES = (3, 5, 7, 11, 13, 17, 19)
CASE_I_PAIRS = ((7, 1), (11, 1), (11, 3), (13, 1), (13, 3))
CASE_II_PAIRS = ((5, 5), (7, 7))
CASE_III_PAIRS = ((3, 6), (5, 13))
BOUND_SLACK = 1e-6


def _primes_upto(n):
    return [p for p in range(2, n + 1) if is_prime(p)]


def identity_suite(p=None, n=None, budget=DEFAULT_BUDGET):
    """Oracle equivalence: q(q-1) * brute == formula, exact."""
    primes = list(IDENTITY_PRIMES) if p is None else [p]
    ns = list(IDENTITY_NS) if n is None else [n]
    for pp in primes:
        if not is_prime(pp):
            raise InvalidParameters(f"{pp} is not prime")
    if all((pp - 1) ** nn > budget for pp in primes for nn in ns):
        raise BudgetExceeded(f"budget {budget} skips every identity case")
    lines = []
    ok = True
    for pp in primes:
        F = get_field(pp)
        for nn in ns:
            if (pp - 1) ** nn > budget:
                lines.append(f"identity p={pp} n={nn}: skipped (budget)")
                continue
            bad = []
            for b in F.units():
                brute = inverted_kloosterman_brute(F, nn, b, budget)
                formula = ik_formula_scaled(F, nn, b)
                scaled_brute = change_conductor(formula.scale * brute.value, formula.value.m)
                if scaled_brute != formula.value:
                    bad.append(b.serialize())
            if bad:
                ok = False
                lines.append(f"identity p={pp} n={nn}: FAIL at b in {bad}")
            else:
                lines.append(f"identity p={pp} n={nn}: ok ({pp - 1} values of b)")
    return ok, lines


def degree_suite(p_max=DEGREE_P_MAX, n_max=DEGREE_N_MAX):
    """deg IK_n(p, b) == (p-1)/gcd(n+1, p-1) for prime fields."""
    ok = True
    lines = []
    for p in _primes_upto(p_max):
        F = get_field(p)
        for n in range(1, n_max + 1):
            expected = (p - 1) // gcd(n + 1, p - 1)
            bad = [
                b.serialize() for b in F.units() if ik_degree(F, n, b) != expected
            ]
            if bad:
                ok = False
                lines.append(f"degree p={p} n={n}: FAIL (want {expected}) at b in {bad}")
        lines.append(f"degree p={p} n=1..{n_max}: ok")
    return ok, lines


def divisibility_suite(fields=EXTENSION_FIELDS, ns=EXTENSION_NS):
    """deg IK_n(q, b) divides (p-1)/gcd(n+1, p-1); equality not asserted."""
    ok = True
    lines = []
    for p, k in fields:
        F = get_field(p, k)
        for n in ns:
            bound = (p - 1) // gcd(n + 1, p - 1)
            bad = [
                b.serialize()
                for b in F.units()
                if bound % ik_degree(F, n, b) != 0
            ]
            if bad:
                ok = False
                lines.append(f"divisibility q={F.q} n={n}: FAIL at b in {bad}")
            else:
                lines.append(f"divisibility q={F.q} n={n}: ok (divides {bound})")
    return ok, lines


def bounds_suite(slack=BOUND_SLACK):
    """Both estimates hold at every embedding for every sum in the
    identity, degree, and divisibility grids."""
    ok = True
    lines = []
    grids = []
    for p in IDENTITY_PRIMES:
        grids.extend((p, 1, n) for n in IDENTITY_NS)
    for p in _primes_upto(DEGREE_P_MAX):
        grids.extend((p, 1, n) for n in range(1, DEGREE_N_MAX + 1))
    for p, k in EXTENSION_FIELDS:
        grids.extend((p, k, n) for n in EXTENSION_NS)
    checked = 0
    for p, k, n in grids:
        F = get_field(p, k)
        for b in F.units():
            report = bounds_check(F, n, b)
            checked += 1
            if not report.ok(slack):
                ok = False
                lines.append(f"bounds q={F.q} n={n} b={b.serialize()}: FAIL {report}")
    lines.append(f"bounds: {'ok' if ok else 'FAIL'} ({checked} sums, slack {slack})")
    return ok, lines


def stickelberger_suite(primes=STICKELBERGER_PRIMES):
    """v_pi(G(omega^-m)) == m for 0 <= m <= p-2."""
    ok = True
    lines = []
    for p in primes:
        if not is_prime(p):
            raise InvalidParameters(f"{p} is not prime")
        bad = []
        for m in range(p - 1):
            predicted, observed, good = stickelberger_check(p, m)
            if not good:
                bad.append((m, predicted, observed))
        if bad:
            ok = False
            lines.append(f"stickelberger p={p}: FAIL at {bad}")
        else:
            lines.append(f"stickelberger p={p}: ok (m = 0..{p - 2})")
    return ok, lines


def cases_suite():
    """Main-term valuations for Cases I/II/III, plus exact-zero stabilized
    differences."""
    ok = True
    lines = []
    for label, pairs in (("I", CASE_I_PAIRS), ("II", CASE_II_PAIRS), ("III", CASE_III_PAIRS)):
        for p, n in pairs:
            g1 = gcd(n + 1, p - 1)
            bad = []
            count = 0
            for a in range(1, p):
                for b in range(1, p):
                    rep = run_case_analysis(p, n, b, a)
                    if pow(a, g1, p) == 1:
                        if rep.case_label != "stabilized" or not rep.ok:
                            bad.append((a, b, "stabilized", rep.ok))
                        continue
                    count += 1
                    if rep.case_label != label or not rep.ok:
                        bad.append(
                            (a, b, rep.case_label, rep.predicted_valuation, rep.observed_valuation)
                        )
            if bad:
                ok = False
                lines.append(f"cases {label} p={p} n={n}: FAIL at {bad}")
            else:
                lines.append(f"cases {label} p={p} n={n}: ok ({count} (a, b) pairs)")
    return ok, lines


def run_all():
    ok = True
    lines = []
    for suite in (identity_suite, degree_suite, divisibility_suite,
                  stickelberger_suite, cases_suite, bounds_suite):
        good, sub = suite()
        ok = ok and good
        lines.extend(sub)
    lines.append(f"all suites: {'ok' if ok else 'FAIL'}")
    return ok, lines
