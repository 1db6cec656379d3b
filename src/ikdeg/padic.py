"""Truncated pi-adic arithmetic in Z_p[pi], pi^(p-1) = -p.

Digits are stored base p against powers of pi, with the single carry
rule p = -pi^(p-1): a carry of c at position i contributes -c at
position i + p - 1. Teichmuller lifts, the p-adic zeta_p pinned by
zeta - 1 = pi mod pi^2, Stickelberger valuation checks, and the
main-term case analysis for differences of Galois conjugates live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import kernels
from .charsum import CharSpec, gauss_sum, scaled_ik_at_p
from .cyclo import CycInt
from .errors import (
    DegenerateIndex,
    DegenerateParameters,
    InvalidParameters,
    PrecisionExhausted,
    PrecisionMismatch,
    PrecisionTooLow,
    UnsupportedConductor,
    ZeroParameter,
)
from .ff import get_field, is_prime


def default_precision(p: int) -> int:
    """Default pi-digit count; covers every in-scope predicted valuation."""
    return 4 * (p - 1) + 8


class PadicElt:
    """An element of Z_p[pi]/(pi^N), N = prec, as N base-p digits."""

    __slots__ = ("p", "prec", "digits")

    def __init__(self, p, prec, digits, _normalized=False):
        self.p = p
        self.prec = prec
        if _normalized:
            self.digits = tuple(digits)
        else:
            self.digits = self._normalize(p, prec, list(digits))

    @staticmethod
    def _normalize(p, prec, work):
        # one ascending pass: carries land strictly higher (at i + p - 1)
        work = work[:prec] + [0] * max(0, prec - len(work))
        for i in range(prec):
            c = work[i]
            d = c % p
            carry = (c - d) // p
            work[i] = d
            if carry and i + p - 1 < prec:
                work[i + p - 1] -= carry
        return tuple(work)

    @classmethod
    def zero(cls, p, prec):
        return cls(p, prec, [0] * prec, _normalized=True)

    @classmethod
    def one(cls, p, prec):
        return cls.from_int(p, prec, 1)

    @classmethod
    def from_int(cls, p, prec, c):
        return cls(p, prec, [c] + [0] * (prec - 1))

    @classmethod
    def monomial(cls, p, prec, e, c=1):
        digits = [0] * prec
        if e < prec:
            digits[e] = c
        return cls(p, prec, digits)

    @property
    def pi_valuation(self):
        """v_pi: index of the first nonzero digit, or None when >= prec."""
        for i, d in enumerate(self.digits):
            if d:
                return i
        return None

    def _check(self, other):
        if self.p != other.p or self.prec != other.prec:
            raise PrecisionMismatch("mismatched prime or truncation order")

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicElt.from_int(self.p, self.prec, other)
        self._check(other)
        return PadicElt(
            self.p, self.prec, [a + b for a, b in zip(self.digits, other.digits)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicElt.from_int(self.p, self.prec, other)
        self._check(other)
        return PadicElt(
            self.p, self.prec, [a - b for a, b in zip(self.digits, other.digits)]
        )

    def __neg__(self):
        return PadicElt(self.p, self.prec, [-d for d in self.digits])

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicElt(self.p, self.prec, [d * other for d in self.digits])
        self._check(other)
        prod = kernels.linear_convolve(list(self.digits), list(other.digits))
        return PadicElt(self.p, self.prec, prod[: self.prec])

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers not supported")
        result = PadicElt.one(self.p, self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, PadicElt)
            and other.p == self.p
            and other.prec == self.prec
            and other.digits == self.digits
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.digits))

    def __repr__(self):
        return f"PadicElt(p={self.p}, prec={self.prec}, digits={list(self.digits)})"


@lru_cache(maxsize=None)
def teichmuller(p: int, a: int, prec: int) -> PadicElt:
    """The (p-1)-th root of unity congruent to a mod pi (x <- x^p iteration)."""
    if not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")
    if prec < 1:
        raise PrecisionTooLow("need at least 1 digit")
    if a % p == 0:
        raise ZeroParameter("Teichmuller lift of zero is undefined")
    x = PadicElt.from_int(p, prec, a % p)
    for _ in range(prec + 2):
        y = x**p
        if y == x:
            return x
        x = y
    raise AssertionError("Teichmuller iteration did not converge")  # unreachable


@lru_cache(maxsize=None)
def zeta_p_padic(p: int, prec: int) -> PadicElt:
    """The p-th root of unity with zeta - 1 = pi mod pi^2.

    Lifted by Newton's step z <- z - r/(p z^(p-1)) = z + z*r/pi^(p-1),
    r = z^p - 1 (p = -pi^(p-1), and z^p = 1 to first order), which
    roughly doubles the number of correct digits. Dividing r by pi^(p-1)
    is a shift of its digits, exact below pi^(prec-p+1): the digits the
    result certifies (any z with z^p = 1 mod pi^prec is pinned only mod
    pi^(prec-p+1)).
    """
    if not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")
    if prec < 2 * (p - 1):
        raise PrecisionTooLow("need at least 2(p-1) digits")
    one = PadicElt.one(p, prec)
    z = one + PadicElt.monomial(p, prec, 1)
    for _ in range(prec):
        r = z**p - one
        v = r.pi_valuation
        if v is None:
            break
        assert v - (p - 1) >= 2, "Newton's step needs z^p = 1 mod pi^(p+1)"
        z = z + z * PadicElt(p, prec, r.digits[p - 1 :])
    else:
        raise AssertionError("zeta_p lift did not converge")  # unreachable
    assert z**p == one
    assert (z - one).pi_valuation == 1 and (z - one).digits[1] == 1
    return z


@lru_cache(maxsize=None)
def _embed_table(p: int, prec: int):
    """The powers zeta_p^alpha (alpha < p) and T^beta (beta < p-1), T the
    Teichmuller lift of the canonical generator of F_p^*."""
    g = get_field(p).generator.coeffs[0] if p > 2 else 1
    z = zeta_p_padic(p, prec)
    t = teichmuller(p, g, prec)
    zpow = [PadicElt.one(p, prec)]
    for _ in range(p - 1):
        zpow.append(zpow[-1] * z)
    tpow = [PadicElt.one(p, prec)]
    for _ in range(max(p - 2, 0)):
        tpow.append(tpow[-1] * t)
    return tuple(zpow), tuple(tpow)


def embed_cyclotomic(z: CycInt, p: int, prec: int) -> PadicElt:
    """Map Z[zeta_m], m | p(p-1), into Z_p[pi]/(pi^prec).

    zeta_p goes to the pinned p-adic root of unity, zeta_{p-1} to the
    Teichmuller lift T of the canonical generator of F_p^*. Coefficients
    are grouped by the CRT split e -> (alpha, beta) of the exponent; each
    row sum_alpha c * zeta_p^alpha is accumulated as raw digits,
    normalised once and multiplied by T^beta (a conductor-p value has only
    the row beta = 0 and needs no product).
    """
    big_m = p * (p - 1)
    if big_m % z.m != 0:
        raise UnsupportedConductor(f"conductor {z.m} does not divide {big_m}")
    step = big_m // z.m
    zpow, tpow = _embed_table(p, prec)
    a_mul = pow(p - 1, -1, p)
    b_mul = pow(p, -1, p - 1) if p > 2 else 0
    rows: dict[int, list[int]] = {}
    for e, c in enumerate(z.coeffs):
        if c:
            exp = e * step
            row = rows.setdefault((exp * b_mul) % (p - 1), [0] * prec)
            for i, d in enumerate(zpow[(exp * a_mul) % p].digits):
                if d:
                    row[i] += c * d
    out = None
    for beta, raw in rows.items():
        term = PadicElt(p, prec, raw)
        if beta:
            term = term * tpow[beta]
        out = term if out is None else out + term
    return PadicElt.zero(p, prec) if out is None else out


def _certified_valuation(x: PadicElt) -> int:
    # zeta_p_padic(p, prec) is exact only mod pi^(prec-p+1): higher digits are uncertified
    exact = x.prec - x.p + 1
    v = x.pi_valuation
    if v is None or v >= exact:
        raise PrecisionExhausted(f"no nonzero digit below {exact} (prec {x.prec})")
    return v


def sigma_digit_sum(m: int, p: int) -> int:
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def stickelberger_check(p: int, m: int, prec: int | None = None):
    """Compare v_pi(G(omega^-m)) with the base-p digit sum of m.

    Returns (predicted, observed, ok).
    """
    if not 0 <= m <= p - 2:
        raise InvalidParameters("need 0 <= m <= p-2")
    if prec is None:
        prec = default_precision(p)
    g = gauss_sum(CharSpec(get_field(p), m))
    observed = _certified_valuation(embed_cyclotomic(g, p, prec))
    predicted = sigma_digit_sum(m, p)
    return predicted, observed, predicted == observed


def valuation_formulas(p: int, n: int, m: int):
    """(V(m), W(m)) for the character-term valuations; W = (p-1)*V."""
    if not 1 <= m <= p - 2:
        raise DegenerateIndex("need 1 <= m <= p-2")
    if ((n + 1) * m) % (p - 1) == 0:
        raise DegenerateIndex("(p-1) divides (n+1)m")
    t = (-(n + 1) * m) % (p - 1)
    w = (n + 1) * m + 2 * t
    return Fraction(w, p - 1), w


@dataclass(frozen=True)
class CaseReport:
    p: int
    n: int
    b: int
    a: int
    case_label: str  # "I" | "II" | "III" | "trivial" | "stabilized"
    h: int | None
    k: int | None  # Case I only
    m_star: int | None  # Case I only
    predicted_valuation: int | None
    observed_valuation: int | None
    boundary_flagged: bool
    ok: bool


@lru_cache(maxsize=4096)
def _embedded_scaled_ik(p: int, n: int, b: int, prec: int) -> PadicElt:
    # the conductor-p value: a single embedding row, one normalisation
    return embed_cyclotomic(scaled_ik_at_p(get_field(p), n, b), p, prec)


def _exact_difference_zero(p, n, b, a):
    F = get_field(p)
    b2 = (b * pow(a, -(n + 1), p)) % p
    return scaled_ik_at_p(F, n, b) == scaled_ik_at_p(F, n, b2)


def case_analysis(p: int, n: int, b: int, a: int, prec: int | None = None) -> CaseReport:
    """Predicted vs observed main-term valuation of the scaled conjugate
    difference p(p-1) * (IK_n(b) - IK_n(b a^-(n+1)))."""
    if not is_prime(p):
        raise InvalidParameters(f"{p} is not prime")
    if n < 1:
        raise DegenerateParameters("dimension n must be >= 1")
    b %= p
    a %= p
    if b == 0 or a == 0:
        raise ZeroParameter("b and a must be units of F_p")
    if prec is None:
        prec = default_precision(p)
    if prec < 2 * (p - 1):
        raise PrecisionTooLow("need at least 2(p-1) digits")

    g1 = gcd(n + 1, p - 1)
    if (n + 1) % (p - 1) == 0:
        ok = _exact_difference_zero(p, n, b, a)
        return CaseReport(p, n, b, a, "trivial", None, None, None, None, None, False, ok)
    if pow(a, g1, p) == 1:
        ok = _exact_difference_zero(p, n, b, a)
        return CaseReport(
            p, n, b, a, "stabilized", None, None, None, None, None, False, ok
        )

    boundary = 2 * (p - 1) == n + 1
    k = None
    m_star = None
    if p - 1 > n + 1:
        label = "I"
        h = (p - 2) // (n + 1)  # p-1 = k + (n+1)h with 1 <= k <= n+1
        k = (p - 1) - (n + 1) * h
        m_star = max(
            m for m in range(1, h + 1) if pow(a, ((n + 1) * m) % (p - 1), p) != 1
        )
        predicted = valuation_formulas(p, n, m_star)[1]
    elif 2 * (p - 1) > n + 1:
        label = "II"
        h = (n + 1) % (p - 1)
        predicted = valuation_formulas(p, n, 1)[1]
    else:
        # boundary p-1 = (n+1)/2 handled as Case III by convention
        label = "III"
        h = (n + 1) % (p - 1)
        predicted = valuation_formulas(p, n, 1)[1]

    b2 = (b * pow(a, -(n + 1), p)) % p
    # the embedding is a ring map, so embed each conjugate once and subtract
    diff = _embedded_scaled_ik(p, n, b, prec) - _embedded_scaled_ik(p, n, b2, prec)
    observed = _certified_valuation(diff)
    return CaseReport(
        p, n, b, a, label, h, k, m_star, predicted, observed, boundary, observed == predicted
    )


def run_case_analysis(p: int, n: int, b: int, a: int) -> CaseReport:
    """case_analysis with the retry contract: double the precision on
    exhaustion, up to 32(p-1) digits."""
    prec = default_precision(p)
    while True:
        try:
            return case_analysis(p, n, b, a, prec)
        except PrecisionExhausted:
            prec *= 2
            if prec > 32 * (p - 1):
                raise
