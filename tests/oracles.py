"""Test-only oracles: second routes that no ikdeg command runs.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from decimal import Decimal, localcontext
from functools import lru_cache

from ikdeg.charsum import _brute_counts
from ikdeg.cyclo import CycInt, power, prime_factors
from ikdeg.ff import _pmod, _pmulmod, _ptrim
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


def _add_rotations(acc: list, row: list, shifts) -> list:
    """acc[i] plus row[i - d] for each d in shifts, with 0 <= d < len(row):
    the counting route's step by hand, one addition per shift and nonzero
    entry of row."""
    q1 = len(row)
    acc = list(acc)
    nonzero = [(i, r) for i, r in enumerate(row) if r]
    for d in shifts:
        for i, r in nonzero:
            acc[(i + d) % q1] += r
    return acc


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


DIGITS = 50  # the decimal oracle's working precision


@lru_cache(maxsize=None)
def _decimal_roots(m: int) -> tuple:
    """(cos, sin) of 2 pi e/m for e = 0 .. m-1 as Decimals, good to about
    DIGITS digits: pi by the decimal module's own series recipe, then the
    Taylor series of cos and sin."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        pi, last, t, n, na, d, da = Decimal(3), 0, Decimal(3), 1, 0, 0, 24
        while pi != last:
            last = pi
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            pi += t
        out = []
        for e in range(m):
            x = 2 * pi * e / m
            cos, sin, term, k = Decimal(0), Decimal(0), Decimal(1), 0
            while term:  # term = x^k / k!
                if k % 2 == 0:
                    cos += term if k % 4 == 0 else -term
                else:
                    sin += term if k % 4 == 1 else -term
                k += 1
                term = term * x / k
                if abs(term) < Decimal(10) ** -(DIGITS + 8):
                    break
            out.append((cos, sin))
    return tuple(out)


def decimal_embedding(z: CycInt, j: int) -> tuple:
    """z at e^(2 pi i j/m) as (real, imaginary) Decimals, good to about
    DIGITS digits of sum |c|: the reference for the float embeddings."""
    roots = _decimal_roots(z.m)
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        re = sum(c * roots[j * e % z.m][0] for e, c in enumerate(z.coeffs) if c)
        im = sum(c * roots[j * e % z.m][1] for e, c in enumerate(z.coeffs) if c)
    return Decimal(re), Decimal(im)


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


def _pgcd(a, b, p):
    """A gcd of a and b in F_p[t], up to a unit."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)  # _pmod divides by a monic polynomial
        a, b = b, _pmod(a, [c * inv % p for c in b], p)
    return a


def is_irreducible(f, p: int) -> bool:
    """Rabin's test for a monic f of degree k >= 1 over F_p: f divides
    x^(p^k) - x, and x^(p^(k/l)) - x is prime to f for each prime l | k."""
    k = len(f) - 1

    def frobenius_minus_x(m):  # x^(p^m) - x mod f
        t = [0, 1]
        for _ in range(m):
            t = power(_pmod(t, f, p), p, [1], lambda a, b: _pmulmod(a, b, f, p))
        t = t + [0] * (2 - len(t))
        return _pmod([t[0], t[1] - 1] + t[2:], f, p)

    if frobenius_minus_x(k):
        return False
    return all(len(_pgcd(frobenius_minus_x(k // ell), f, p)) == 1 for ell in prime_factors(k))
