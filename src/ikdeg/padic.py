"""pi-adic valuations in Z[zeta_p], exact and truncated.

Both checks of the paper's p-adic side read v_pi exactly off the p
integer coefficients of a value in Z[zeta_p] (`exact_valuation`):
Q_p(zeta_p) is totally ramified with uniformiser lambda = zeta_p - 1, so
no p-adic embedding and no precision is needed. The main-term case
analysis reads differences of Galois conjugates. The Stickelberger check
sums the Gauss sum's p - 1 terms straight into Z[zeta_p] with zeta_{p-1}
replaced by the integer g, which is congruent mod p to its p-adic
embedding (T = g mod p, T the Teichmuller lift). The two differ by
valuation at least p - 1, so a reading below p - 1 is v_pi of the Gauss
sum, and a reading of p - 1 or more is only a lower bound.

The truncated arithmetic in Z_p[pi], pi^(p-1) = -p, is the independent
second route, and only the tests' oracles run on it. Digits are stored
base p against powers of pi, with the single carry rule p = -pi^(p-1): a
carry of c at position i contributes -c at position i + p - 1.
Teichmuller lifts and the p-adic zeta_p pinned by zeta - 1 = pi mod pi^2
live here too.
"""

import operator
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import gcd

from . import kernels
from .charsum import scaled_ik_at_p
from .cyclo import CycInt, power
from .errors import (
    DegenerateIndex,
    DegenerateParameters,
    InvalidParameters,
    PrecisionMismatch,
    PrecisionTooLow,
    UnsupportedConductor,
    VanishingDifference,
    WrongConductor,
    ZeroParameter,
)
from .ff import Field, get_field, is_prime


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
        return power(self, e, PadicElt.one(self.p, self.prec), operator.mul)

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
    g = get_field(p).generator.coeffs[0]
    z = zeta_p_padic(p, prec)
    t = teichmuller(p, g, prec)
    zpow = [PadicElt.one(p, prec)]
    for _ in range(p - 1):
        zpow.append(zpow[-1] * z)
    tpow = [PadicElt.one(p, prec)]
    for _ in range(p - 2):
        tpow.append(tpow[-1] * t)
    return tuple(zpow), tuple(tpow)


def _exponent_split(m: int, p: int):
    """(a, b) with zeta_m^e = zeta_p^(e a mod p) * zeta_{p-1}^(e b mod p-1),
    for m | p(p-1): the CRT split of exponents."""
    big_m = p * (p - 1)
    if big_m % m != 0:
        raise UnsupportedConductor(f"conductor {m} does not divide {big_m}")
    step = big_m // m
    return step * pow(p - 1, -1, p) % p, step * pow(p, -1, p - 1) % (p - 1)


def embed_cyclotomic(z: CycInt, p: int, prec: int) -> PadicElt:
    """Map Z[zeta_m], m | p(p-1), into Z_p[pi]/(pi^prec).

    zeta_p goes to the pinned p-adic root of unity, zeta_{p-1} to the
    Teichmuller lift T of the canonical generator of F_p^*. Coefficients
    are grouped by the CRT split e -> (alpha, beta) of the exponent; each
    row sum_alpha c * zeta_p^alpha is accumulated as raw digits,
    normalised once and multiplied by T^beta (a conductor-p value has only
    the row beta = 0 and needs no product).
    """
    a_mul, b_mul = _exponent_split(z.m, p)
    zpow, tpow = _embed_table(p, prec)
    rows: dict[int, list[int]] = {}
    for e, c in enumerate(z.coeffs):
        if c:
            row = rows.setdefault((e * b_mul) % (p - 1), [0] * prec)
            for i, d in enumerate(zpow[(e * a_mul) % p].digits):
                if d:
                    row[i] += c * d
    out = None
    for beta, raw in rows.items():
        term = PadicElt(p, prec, raw)
        if beta:
            term = term * tpow[beta]
        out = term if out is None else out + term
    return PadicElt.zero(p, prec) if out is None else out


def exact_valuation(z: CycInt) -> int | None:
    """v_pi(z) for z in Z[zeta_p], p prime, exactly; None when z = 0.

    The canonical coefficients (CycInt.canonical) of every representative
    have support 0 .. p-2. A Taylor shift at zeta = 1 + lambda would write
    z = sum_(k <= p-2) d_k lambda^k with integers d_k; lambda = zeta - 1
    is a uniformiser (v_pi(lambda) = 1, v_pi(p) = p-1), so v_pi(z) is the
    least of the term valuations (p-1) v_p(d_k) + k. Dividing out the
    common factor p^t of the coefficients adds t(p-1). Afterwards they
    are not all 0 mod p, and the shift is unitriangular, so some d_k is
    a unit mod p: the least valuation is the first k < p-1 with d_k != 0
    mod p. d_k is the remainder of the k-th synthetic division by
    (x - 1), whose quotient is the running sums from the top. O(p(t + k))
    additions, no precision.
    """
    p = z.m
    if not is_prime(p):
        raise WrongConductor(f"conductor {p} is not prime")
    d = z.canonical()[:-1]
    common = gcd(*d)
    if not common:
        return None
    t = 0
    while common % p == 0:
        common //= p
        t += 1
    scale = p**t
    rest = [c // scale % p for c in reversed(d)]  # top coefficient first
    v = t * (p - 1)
    while True:
        rest = list(accumulate(rest))
        if rest.pop() % p:
            return v
        v += 1


def sigma_digit_sum(m: int, p: int) -> int:
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def _gauss_residue(F: Field, m: int, t: int) -> CycInt:
    """G(omega^-m) over the prime field F with zeta_{p-1} replaced by the
    integer t, in Z[zeta_p].

    Term j of G is omega^-m(g^j) psi(g^j) = zeta_{p-1}^(-mj) zeta_p^(g^j),
    g the generator of F_p^*, so the reading is sum_j t^(-mj) zeta_p^(g^j),
    each coefficient reduced mod p: p - 1 steps, no list of p(p-1) slots.
    """
    p = F.p
    step = pow(t, -m % (p - 1), p)
    out = [0] * p
    c = 1
    for (x,) in F._pow_table:  # the coordinates of g^j, j = 0 .. p-2
        out[x] += c
        c = c * step % p
    return CycInt(p, out)


def stickelberger_check(p: int, m: int):
    """Compare v_pi(G(omega^-m)) with the base-p digit sum of m.

    Returns (predicted, observed, ok). observed is read exactly off the
    Gauss sum with zeta_{p-1} replaced by the generator g of F_p
    (_gauss_residue), which is congruent to G mod p. A reading below
    p - 1 is therefore v_pi(G); a reading of p - 1 or more (None for a
    zero value) is only a lower bound, and the check fails.
    """
    if not 0 <= m <= p - 2:
        raise InvalidParameters("need 0 <= m <= p-2")
    F = get_field(p)
    observed = exact_valuation(_gauss_residue(F, m, F.generator.coeffs[0]))
    predicted = sigma_digit_sum(m, p)
    ok = observed == predicted and observed < p - 1
    return predicted, observed, ok


def valuation_formulas(p: int, n: int, m: int) -> int:
    """W(m) = (n+1)m + 2t, t = -(n+1)m mod p-1: the predicted pi-adic
    valuation of the character term for omega^(-m)."""
    if not 1 <= m <= p - 2:
        raise DegenerateIndex("need 1 <= m <= p-2")
    if ((n + 1) * m) % (p - 1) == 0:
        raise DegenerateIndex("(p-1) divides (n+1)m")
    t = (-(n + 1) * m) % (p - 1)
    return (n + 1) * m + 2 * t


# case_label is "I", "II", "III", "trivial" or "stabilized"; k and m_star
# are set in Case I only.
CaseReport = namedtuple(
    "CaseReport",
    "p n b a case_label h k m_star predicted_valuation observed_valuation"
    " boundary_flagged ok",
)


@lru_cache(maxsize=4096)
def _embedded_scaled_ik(p: int, n: int, b: int, prec: int) -> PadicElt:
    # the truncated route's conductor-p value, for the oracles: one embedding row
    return embed_cyclotomic(scaled_ik_at_p(get_field(p), n, b), p, prec)


@lru_cache(maxsize=4096)
def _case_class(p: int, n: int, a: int):
    """The fields of a CaseReport that depend only on (p, n, a), a a unit
    mod p: (case_label, h, k, m_star, predicted_valuation, boundary_flagged)."""
    if (n + 1) % (p - 1) == 0:
        return "trivial", None, None, None, None, False
    if pow(a, gcd(n + 1, p - 1), p) == 1:
        return "stabilized", None, None, None, None, False
    k = m_star = None
    if p - 1 > n + 1:
        label = "I"
        h = (p - 2) // (n + 1)  # p-1 = k + (n+1)h with 1 <= k <= n+1
        k = (p - 1) - (n + 1) * h
        m_star = max(
            m for m in range(1, h + 1) if pow(a, ((n + 1) * m) % (p - 1), p) != 1
        )
        predicted = valuation_formulas(p, n, m_star)
    else:
        # Case II, or III from 2(p-1) <= n+1 on; the boundary
        # p-1 = (n+1)/2 is handled as Case III by convention
        label = "II" if 2 * (p - 1) > n + 1 else "III"
        h = (n + 1) % (p - 1)
        predicted = valuation_formulas(p, n, 1)
    return label, h, k, m_star, predicted, 2 * (p - 1) == n + 1


def case_analysis(p: int, n: int, b: int, a: int) -> CaseReport:
    """Predicted vs observed main-term valuation of the scaled conjugate
    difference p(p-1) * (IK_n(b) - IK_n(b a^-(n+1))): the one case
    reading, which verify cases and the census call.

    The observed valuation is read exactly in Z[zeta_p] (exact_valuation);
    the other fields depend only on (p, n, a) (_case_class). A difference
    that is zero in Case I, II or III raises VanishingDifference.
    """
    F = get_field(p)  # InvalidParameters unless p is prime
    if n < 1:
        raise DegenerateParameters("dimension n must be >= 1")
    b %= p
    a %= p
    if b == 0 or a == 0:
        raise ZeroParameter("b and a must be units of F_p")

    b2 = (b * pow(a, -(n + 1), p)) % p
    observed = exact_valuation(scaled_ik_at_p(F, n, b) - scaled_ik_at_p(F, n, b2))
    label, h, k, m_star, predicted, boundary = _case_class(p, n, a)
    if predicted is None:  # trivial or stabilized: the difference must vanish
        return CaseReport(p, n, b, a, label, h, k, m_star, None, None, False, observed is None)
    if observed is None:
        raise VanishingDifference(
            f"Case {label} difference is zero at p={p} n={n} b={b} a={a}"
        )
    return CaseReport(
        p, n, b, a, label, h, k, m_star, predicted, observed, boundary, observed == predicted
    )


def run_case_analysis(p: int, n: int, b: int, a: int) -> CaseReport:
    """case_analysis under a second name, which the tests call; the
    benchmark tracer spans both names."""
    return case_analysis(p, n, b, a)
