"""Acceptance gate: seven go/no-go checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import time

from ikdeg import (
    CycInt,
    embed_complex,
    equivariance_check,
    gauss_sum,
    get_field,
    mult_char,
    suites,
    teichmuller,
)
from oracles import default_precision


def _report(name, ok, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)")
    assert ok, name


def test_criterion_1_identity():
    t0 = time.time()
    ok, _ = suites.identity_suite()
    _report("1 identity: brute force equals Gauss-sum formula", ok, time.time() - t0)


def test_criterion_2_degree():
    t0 = time.time()
    ok, _ = suites.degree_suite()
    _report("2 degree: (p-1)/gcd(n+1, p-1) over prime fields", ok, time.time() - t0)


def test_criterion_3_divisibility():
    t0 = time.time()
    ok, _ = suites.divisibility_suite()
    _report("3 divisibility: extension-field degree divides the prime bound", ok, time.time() - t0)


def test_criterion_4_bounds():
    t0 = time.time()
    ok, lines = suites.bounds_suite()
    assert lines[-1].startswith("bounds: ok (1328 sums, ")
    _report("4 bounds: both archimedean estimates at every embedding", ok, time.time() - t0)


def test_criterion_5_stickelberger():
    t0 = time.time()
    ok, _ = suites.stickelberger_suite()
    _report("5 stickelberger: v_pi of Gauss sums", ok, time.time() - t0)


def test_criterion_6_cases():
    t0 = time.time()
    ok, _ = suites.cases_suite()
    _report("6 cases: main-term valuations I/II/III + stabilized zeros", ok, time.time() - t0)


def test_criterion_7_invariants():
    t0 = time.time()
    ok = True

    # Gauss-sum norm identity and character orthogonality
    for p in (3, 5, 7, 11, 13):
        F = get_field(p)
        q1 = p - 1
        dneg1 = F.dlog(F.elt(-1))
        for m in range(1, q1):
            lhs = gauss_sum(F, m) * gauss_sum(F, q1 - m)
            rhs = CycInt.monomial(p * q1, p * ((-m * dneg1) % q1)) * CycInt.from_int(p * q1, p)
            ok = ok and lhs == rhs
            total = CycInt.zero(q1)
            for x in F.units():
                total = total + mult_char(F, m, x)
            ok = ok and total.is_zero()

    # Galois equivariance over all a for p <= 13
    for p in (3, 5, 7, 11, 13):
        F = get_field(p)
        for n in (1, 2):
            for a in range(1, p):
                for b in (F.one, F.generator):
                    ok = ok and equivariance_check(F, n, b, a)

    # Teichmuller multiplicativity
    for p in (5, 7, 11, 13):
        prec = default_precision(p)
        for a in range(1, p):
            for b in range(1, p):
                ok = ok and teichmuller(p, a, prec) * teichmuller(p, b, prec) == teichmuller(
                    p, (a * b) % p, prec
                )

    # embedding ring-map spot checks
    for m in (5, 7, 12):
        x = CycInt(m, [((3 * i) % 7) - 3 for i in range(m)])
        y = CycInt(m, [((5 * i) % 11) - 5 for i in range(m)])
        ex, _ = embed_complex(x, 1)
        ey, _ = embed_complex(y, 1)
        exy, err = embed_complex(x * y, 1)
        ok = ok and abs(exy - ex * ey) < max(1e-8, 10 * err)

    _report("7 invariants: norms, orthogonality, equivariance, lifts, embeddings", ok, time.time() - t0)
