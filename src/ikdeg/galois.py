"""Galois orbits, algebraic degree, and minimal polynomials in Q(zeta_p).

Q(zeta_p)/Q is Galois with group F_p^*, so the degree of an element is
the size of its conjugate orbit; no factorization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charsum import scaled_ik_at_p
from .cyclo import CycInt, IntPoly, galois_apply
from .errors import NonIntegerCoefficients, WrongConductor, ZeroParameter
from .ff import Field, is_prime


@dataclass(frozen=True)
class OrbitReport:
    base: CycInt
    conjugates: tuple[CycInt, ...]  # indexed by a = 1 .. p-1
    distinct_count: int
    stabilizer_order: int


def _require_prime_conductor(z: CycInt) -> int:
    if not is_prime(z.m):
        raise WrongConductor(f"conductor {z.m} is not prime")
    return z.m


def conjugate_set(z: CycInt) -> OrbitReport:
    """All sigma_a images of z for a in F_p^*, with distinctness counts."""
    p = _require_prime_conductor(z)
    conjugates = tuple(galois_apply(z, a) for a in range(1, p))
    distinct = len({c.canonical() for c in conjugates})
    assert (p - 1) % distinct == 0
    return OrbitReport(z, conjugates, distinct, (p - 1) // distinct)


def degree_of(z: CycInt) -> int:
    """Degree of z over Q (orbit size under Gal(Q(zeta_p)/Q))."""
    return conjugate_set(z).distinct_count


def min_poly(z: CycInt) -> IntPoly:
    """Monic minimal polynomial of z over Q, from the orbit product."""
    p = _require_prime_conductor(z)
    orbit = []
    seen = set()
    for c in conjugate_set(z).conjugates:
        key = c.canonical()
        if key not in seen:
            seen.add(key)
            orbit.append(c)
    # expand prod (x - c) with CycInt coefficients
    coeffs = [CycInt.from_int(p, 1)]
    for c in orbit:
        nxt = [CycInt.zero(p) for _ in range(len(coeffs) + 1)]
        for i, a in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - c * a
        coeffs = nxt
    out = []
    for a in coeffs:
        if not a.is_rational():
            raise NonIntegerCoefficients("orbit product is not rational (bug)")
        out.append(a.as_int())
    poly = IntPoly(out)
    assert poly.is_monic() and poly.degree == len(orbit)
    value = poly(z)
    assert value.is_zero(), "minimal polynomial does not vanish at z (bug)"
    return poly


def equivariance_check(F: Field, n: int, b, a: int) -> bool:
    """sigma_a(IK_n(q, b)) == IK_n(q, b * a^-(n+1)), checked exactly in
    scaled form at conductor p."""
    b = F.elt(b)
    if b.is_zero():
        raise ZeroParameter("parameter b must be nonzero")
    if a % F.p == 0:
        raise ZeroParameter("Galois index a must be a unit of F_p")
    a %= F.p
    lifted = F.elt(a)
    b2 = b * lifted ** (-(n + 1))
    lhs = galois_apply(scaled_ik_at_p(F, n, b), a)
    rhs = scaled_ik_at_p(F, n, b2)
    return lhs == rhs


def ik_degree(F: Field, n: int, b) -> int:
    """Degree of IK_n(q, b); scaling by q(q-1) preserves orbit distinctness."""
    return degree_of(scaled_ik_at_p(F, n, b))


__all__ = [
    "OrbitReport",
    "conjugate_set",
    "degree_of",
    "min_poly",
    "equivariance_check",
    "ik_degree",
]
