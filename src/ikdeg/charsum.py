"""Characters, Gauss sums, and Kloosterman sums (classical and inverted).

Two routes to the inverted sum are provided: naive enumeration over
(q-1)^n tuples, and the exact Gauss-sum formula computed entirely in
Z[zeta_{p(q-1)}]. Identities involving 1/(q(q-1)) are kept in scaled
form so that everything stays inside a ring with decidable equality.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .cyclo import CycInt, lower_conductor, embed_complex
from .errors import BudgetExceeded, CharAtZero, ZeroParameter
from .ff import Field, FieldElt

DEFAULT_BUDGET = 2_000_000


class CharSpec:
    """Multiplicative character chi = omega^(-m_index), omega(g^j) = zeta_{q-1}^j."""

    __slots__ = ("field", "m_index")

    def __init__(self, field: Field, m_index: int):
        self.field = field
        self.m_index = m_index % max(field.q - 1, 1)

    def is_trivial(self):
        return self.m_index == 0

    def __eq__(self, other):
        return (
            isinstance(other, CharSpec)
            and other.field is self.field
            and other.m_index == self.m_index
        )

    def __hash__(self):
        return hash((id(self.field), self.m_index))

    def __repr__(self):
        return f"CharSpec(q={self.field.q}, omega^-{self.m_index})"


@dataclass(frozen=True)
class SumValue:
    """An exact sum; `value` equals `scale` times the mathematical quantity."""

    value: CycInt
    scale: int


def _trace_table(F: Field):
    tbl = F._cache.get("trace_table")
    if tbl is None:
        tbl = {e.coeffs: F.trace(e) for e in F.elements()}
        F._cache["trace_table"] = tbl
    return tbl


def additive_char(F: Field, x) -> CycInt:
    """psi(x) = zeta_p^Tr(x), at conductor p."""
    return CycInt.monomial(F.p, F.trace(x))


def mult_char(c: CharSpec, x) -> CycInt:
    """chi(x) = zeta_{q-1}^(-m_index * dlog x), at conductor q-1."""
    F = c.field
    x = F.elt(x)
    if x.is_zero():
        raise CharAtZero("multiplicative character at zero")
    q1 = max(F.q - 1, 1)
    return CycInt.monomial(q1, (-c.m_index * F.dlog(x)) % q1)


def gauss_sum(c: CharSpec) -> CycInt:
    """G(chi) = sum over x != 0 of chi(x) psi(x), at conductor p(q-1)."""
    F = c.field
    key = ("gauss", c.m_index)
    cached = F._cache.get(key)
    if cached is not None:
        return cached
    p, q1 = F.p, max(F.q - 1, 1)
    big_m = p * q1
    tr = _trace_table(F)
    out = [0] * big_m
    for j in range(F.q - 1 if F.q > 2 else 1):
        # zeta_{q-1} = zeta_M^p, zeta_p = zeta_M^(q-1)
        e = (p * ((-c.m_index * j) % q1) + q1 * tr[F.pow_of_generator(j).coeffs]) % big_m
        out[e] += 1
    g = CycInt(big_m, out)
    F._cache[key] = g
    return g


def _enumeration_guard(F: Field, n: int, b, budget: int) -> FieldElt:
    if n < 1:
        raise ZeroParameter("dimension n must be >= 1")
    b = F.elt(b)
    if b.is_zero():
        raise ZeroParameter("parameter b must be nonzero")
    if (F.q - 1) ** n > budget:
        raise BudgetExceeded(f"(q-1)^n = {(F.q - 1) ** n} exceeds budget {budget}")
    return b


def _brute_distribution(F: Field, n: int, b) -> dict:
    """Count unit tuples by s = x_1 + ... + x_n + b/(x_1 ... x_n), keyed by s.coeffs."""
    q1 = max(F.q - 1, 1)
    units = [F.pow_of_generator(j) for j in range(q1)]
    b_over = [b * units[-j % q1] for j in range(q1)]  # b / g^j
    dist: dict = {}
    for js in itertools.product(range(q1), repeat=n):
        s = b_over[sum(js) % q1]
        for j in js:
            s = s + units[j]
        dist[s.coeffs] = dist.get(s.coeffs, 0) + 1
    return dist


def kloosterman_brute(F: Field, n: int, b, budget: int = DEFAULT_BUDGET) -> SumValue:
    """K_n(q, b) by direct enumeration of the n free coordinates."""
    b = _enumeration_guard(F, n, b, budget)
    tr = _trace_table(F)
    counts = [0] * F.p
    for s, count in _brute_distribution(F, n, b).items():
        counts[tr[s]] += count
    return SumValue(CycInt(F.p, counts), 1)


def inverted_kloosterman_brute(
    F: Field, n: int, b, budget: int = DEFAULT_BUDGET
) -> SumValue:
    """IK_n(q, b) by direct enumeration; the empty sum is 0."""
    b = _enumeration_guard(F, n, b, budget)
    tr = _trace_table(F)
    counts = [0] * F.p
    for s, count in _brute_distribution(F, n, b).items():
        if any(s):
            counts[tr[F.elt(s).inverse().coeffs]] += count
    return SumValue(CycInt(F.p, counts), 1)


def _relabel(z: CycInt, p: int, s: int) -> CycInt:
    """rho_s on Z[zeta_{p(q-1)}]: zeta_{q-1} -> zeta_{q-1}^s, zeta_p fixed.

    On exponents it is e -> k*e mod p(q-1), with k = s mod q-1 and
    k = 1 mod p. It is a ring endomorphism of the group ring
    Z[x]/(x^(p(q-1)) - 1) for every s, even when gcd(s, q-1) > 1:
    exponents that collide just add their coefficients.
    """
    big_m = z.m
    q1 = big_m // p
    k = 1 + p * ((s - 1) * pow(p, -1, q1) % q1)
    out = [0] * big_m
    for e, c in enumerate(z.coeffs):
        if c:
            out[k * e % big_m] += c
    return CycInt(big_m, out)


def _character_terms(F: Field, n: int) -> list[CycInt]:
    """Per-character b-independent factors of the scaled Gauss-sum formula.

    Entry m-1 holds chi^(n+1)(-1) * G(chi^-(n+1))^2 * G(chi)^(n+1) for
    chi = omega^(-m), m = 1 .. q-2, at conductor p(q-1). Term m is the
    image of term 1 under rho_m (see _relabel), since
    G(omega^(-m)) = rho_m(G(omega^(-1))) and rho_m rho_s = rho_(ms): one
    Gauss sum and one product are built, and every term relabels the
    exponents of the first.
    """
    key = ("ikterms", n)
    cached = F._cache.get(key)
    if cached is not None:
        return cached
    p, q1 = F.p, F.q - 1
    terms = []
    if q1 > 1:
        g = gauss_sum(CharSpec(F, 1))
        base = _relabel(g * g, p, -(n + 1)) * g ** (n + 1)
        base = base.shifted(p * ((-(n + 1) * F.dlog(F.elt(-1))) % q1))  # chi^(n+1)(-1)
        terms = [_relabel(base, p, m) for m in range(1, q1)]
    F._cache[key] = terms
    return terms


def ik_formula_scaled(F: Field, n: int, b) -> SumValue:
    """q(q-1) * IK_n(q, b), exactly, via the Gauss-sum identity."""
    if n < 1:
        raise ZeroParameter("dimension n must be >= 1")
    b = F.elt(b)
    if b.is_zero():
        raise ZeroParameter("parameter b must be nonzero")
    p, q, q1 = F.p, F.q, F.q - 1
    total = [0] * (p * q1)
    total[0] = -(q1 ** (n + 1)) + (-1) ** (n + 1)
    if q > 2:
        db = F.dlog(b)
        for m, term in enumerate(_character_terms(F, n), start=1):
            # chi^(-1)(b) = zeta_{q-1}^(m * dlog b): rotate by e into the sum
            e, c = p * ((m * db) % q1), term.coeffs
            total = list(map(operator.add, total, c[-e:] + c[:-e]))
    return SumValue(CycInt(p * q1, total), q * q1)


def scaled_ik_at_p(F: Field, n: int, b) -> CycInt:
    """The scaled inverted sum rewritten at conductor p (it lies in Z[zeta_p])."""
    b = F.elt(b)
    key = ("ik_at_p", n, b.coeffs)
    cached = F._cache.get(key)
    if cached is None:
        cached = lower_conductor(ik_formula_scaled(F, n, b).value, F.p)
        F._cache[key] = cached
    return cached


def s1_identity_check(F: Field, n: int) -> bool:
    """Recompute the u = 0 slice of the orthogonality split in scaled form
    and compare it with -(q-1)^(n+1)."""
    if n < 1:
        raise ZeroParameter("dimension n must be >= 1")
    p, q1 = F.p, max(F.q - 1, 1)
    big_m = p * q1
    tr = _trace_table(F)
    lam_sum = CycInt.zero(big_m)
    for lam in F.units():
        lam_sum = lam_sum + CycInt.monomial(big_m, q1 * tr[lam.inverse().coeffs])
    chi_sum = CycInt.zero(big_m)
    for mi in range(q1):
        inner = [0] * big_m
        for j in range(F.q - 1 if F.q > 2 else 1):
            inner[(p * ((-mi * j) % q1)) % big_m] += 1
        chi_sum = chi_sum + CycInt(big_m, inner) ** (n + 1)
    return lam_sum * chi_sum == CycInt.from_int(big_m, -(q1 ** (n + 1)))


@dataclass(frozen=True)
class EmbeddingBound:
    j: int
    bound1_lhs: float
    bound1_rhs: float
    bound1_margin: float
    bound2_lhs: float | None
    bound2_rhs: float | None
    bound2_margin: float | None


@dataclass(frozen=True)
class BoundReport:
    q: int
    n: int
    b: str
    second_applicable: bool
    embeddings: tuple[EmbeddingBound, ...]

    def ok(self, slack: float = 1e-6) -> bool:
        for e in self.embeddings:
            if e.bound1_lhs > e.bound1_rhs + slack:
                return False
            if e.bound2_lhs is not None and e.bound2_lhs > e.bound2_rhs + slack:
                return False
        return True

    @property
    def bound1_lhs_max(self):
        return max(e.bound1_lhs for e in self.embeddings)

    @property
    def bound2_lhs_max(self):
        if not self.second_applicable:
            return None
        return max(e.bound2_lhs for e in self.embeddings)


def bounds_check(F: Field, n: int, b) -> BoundReport:
    """Numeric check of both estimates at every complex embedding."""
    b = F.elt(b)
    if b.is_zero():
        raise ZeroParameter("parameter b must be nonzero")
    z = scaled_ik_at_p(F, n, b)
    q = F.q
    second = (n + 1) % F.p != 0
    rhs1 = float(q) ** ((n + 1) / 2)
    rhs2 = 2 * n * float(q) ** (n / 2) if second else None
    shift1 = (q - 1) ** n / q
    shift2 = ((q - 1) ** n - (-1) ** n * (q + 1)) / q if second else None
    rows = []
    for j in range(1, F.p) if F.p > 2 else [1]:
        c, _err = embed_complex(z, j)
        ik = c / (q * (q - 1))
        lhs1 = abs(ik + shift1)
        lhs2 = abs(ik + shift2) if second else None
        rows.append(
            EmbeddingBound(
                j,
                lhs1,
                rhs1,
                rhs1 - lhs1,
                lhs2,
                rhs2,
                (rhs2 - lhs2) if second else None,
            )
        )
    return BoundReport(q, n, b.serialize(), second, tuple(rows))
