"""Test-only oracles: second routes that no ikdeg command runs.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from ikdeg.charsum import _brute_counts
from ikdeg.cyclo import CycInt
from ikdeg.padic import _exponent_split


def default_precision(p: int) -> int:
    """The pi-digit count at which the tests run the truncated p-adic route."""
    return 4 * (p - 1) + 8


def brute_distribution(F, n: int, b) -> dict:
    """The nonzero counts of charsum._brute_counts, keyed by s.coeffs."""
    zero, by_log = _brute_counts(F, n, b)
    dist = {F.zero.coeffs: zero}
    for c, count in enumerate(by_log):
        dist[F.pow_of_generator(c).coeffs] = count
    return {s: count for s, count in dist.items() if count}


def teichmuller_residue(z: CycInt, p: int, g: int) -> CycInt:
    """z in Z[zeta_m], m | p(p-1), with zeta_{p-1} replaced by the integer
    g, in Z[zeta_p], through the CRT split of exponents. With T = g mod p
    this differs from the p-adic embedding of z (zeta_{p-1} -> T) by a
    multiple of p."""
    a_mul, b_mul = _exponent_split(z.m, p)
    out = [0] * p
    for e, c in enumerate(z.coeffs):
        if c:
            out[e * a_mul % p] += c * pow(g, e * b_mul % (p - 1), p)
    return CycInt(p, out)


def _trim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_divmod(a, b) -> tuple:
    """(quotient, remainder) of a by b over Z, as ascending coefficient
    tuples with no zero on top (zero is ()). Every elimination step must
    divide exactly by b's leading coefficient."""
    rem, deg = list(a), len(b) - 1
    quo = [0] * max(len(rem) - deg, 0)
    for top in range(len(rem) - 1, deg - 1, -1):
        q, r = divmod(rem[top], b[-1])
        assert r == 0, "division not exact over Z"
        quo[top - deg] = q
        for i, bc in enumerate(b):
            rem[top - deg + i] -= q * bc
    return _trim(quo), _trim(rem)


def poly_eval(coeffs, x):
    """The polynomial with these ascending coefficients at x, by Horner's
    rule; x may be an int or a CycInt."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
