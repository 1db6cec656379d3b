"""Named verification suites backing `ikdeg verify` and the acceptance tests.

Each suite returns (ok, lines); failures carry full reproduction
parameters.
"""

from math import gcd

from .charsum import bound_errors, ik_formula, inverted_kloosterman_brute, orbit_bounds, scaled_ik_values
from .ff import get_field, is_prime
from .galois import degree_bound, ik_degree
from .padic import case_analysis, stickelberger_check

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


def _primes_upto(n):
    return [p for p in range(2, n + 1) if is_prime(p)]


def identity_suite(p=None, n=None):
    """The two routes agree: count == Gauss-sum formula, exact, in
    Z[zeta_p], for every b, read both ways off the count: per b
    (inverted_kloosterman_brute) and as the kept value q(q-1) * IK that
    the census and the other suites read (scaled_ik_values)."""
    primes = list(IDENTITY_PRIMES) if p is None else [p]
    ns = list(IDENTITY_NS) if n is None else [n]
    lines = []
    ok = True
    for pp in primes:
        F = get_field(pp)
        for nn in ns:
            values = scaled_ik_values(F, nn)
            bad = []
            for b in F.units():
                formula = ik_formula(F, nn, b)
                brute = inverted_kloosterman_brute(F, nn, b)
                if brute != formula or values[F.dlog(b)] != pp * (pp - 1) * formula:
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
        p_ok = True
        for n in range(1, n_max + 1):
            expected = degree_bound(p, n)
            bad = [b.serialize() for b in F.units() if ik_degree(F, n, b) != expected]
            if bad:
                p_ok = False
                lines.append(f"degree p={p} n={n}: FAIL (want {expected}) at b in {bad}")
        if p_ok:
            lines.append(f"degree p={p} n=1..{n_max}: ok")
        ok = ok and p_ok
    return ok, lines


def divisibility_suite(fields=EXTENSION_FIELDS, ns=EXTENSION_NS):
    """deg IK_n(q, b) divides (p-1)/gcd(n+1, p-1); equality not asserted."""
    ok = True
    lines = []
    for p, k in fields:
        F = get_field(p, k)
        for n in ns:
            bound = degree_bound(p, n)
            bad = [b.serialize() for b in F.units() if bound % ik_degree(F, n, b) != 0]
            if bad:
                ok = False
                lines.append(f"divisibility q={F.q} n={n}: FAIL at b in {bad}")
            else:
                lines.append(f"divisibility q={F.q} n={n}: ok (divides {bound})")
    return ok, lines


def _verdict(lhs, rhs, delta):
    """True when lhs + delta <= rhs, False when lhs - delta > rhs, and None
    (undecided) otherwise: lhs is within delta of the exact maximum."""
    if lhs + delta <= rhs:
        return True
    return False if lhs - delta > rhs else None


def bounds_suite():
    """Both estimates hold at every embedding for every sum in the degree
    and divisibility grids (the identity grid lies inside the first). The
    floats decide only outside the proven error delta of every reading
    (charsum.bound_errors); a verdict within it is an undecided FAIL."""
    ok = True
    lines = []
    grids = [(p, 1, n) for p in _primes_upto(DEGREE_P_MAX) for n in range(1, DEGREE_N_MAX + 1)]
    grids += [(p, k, n) for p, k in EXTENSION_FIELDS for n in EXTENSION_NS]
    checked = 0
    for p, k, n in grids:
        F = get_field(p, k)
        values = scaled_ik_values(F, n)
        bounds = orbit_bounds(F, n, values)  # bounds_check(F, n, g^j) at j
        deltas = bound_errors(F, n, values)
        for b in F.units():
            lhs1, rhs1, lhs2, rhs2 = bounds[F.dlog(b)]
            checked += 1
            verdicts = [_verdict(*v) for v in zip((lhs1, lhs2), (rhs1, rhs2), deltas) if v[0] is not None]
            if all(verdicts):
                continue
            ok = False
            line = f"bounds q={F.q} n={n} b={b.serialize()}: FAIL ({lhs1} vs {rhs1}, {lhs2} vs {rhs2})"
            if False not in verdicts:
                line += f", undecided within the float error {max(filter(None, deltas)):.3g}"
            lines.append(line)
    lines.append(f"bounds: {'ok' if ok else 'FAIL'} ({checked} sums, decided outside the proven float error)")
    return ok, lines


def stickelberger_suite(primes=STICKELBERGER_PRIMES):
    """v_pi(G(omega^-m)) == m for 0 <= m <= p-2."""
    ok = True
    lines = []
    for p in primes:
        get_field(p)  # refuses a p that is not prime, p < 2 among them
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
                    rep = case_analysis(p, n, b, a)
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
