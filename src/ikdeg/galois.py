"""Galois orbits, algebraic degree, and minimal polynomials in Q(zeta_p).

Q(zeta_p)/Q is Galois with group F_p^*, so the degree of an element is
the size of its conjugate orbit, (p-1) over the order of its stabiliser;
no factorization is needed.
"""

from math import gcd

from .charsum import _check_ik_args, scaled_ik_at_p
from .cyclo import CycInt, galois_apply, prime_conductor
from .errors import CheckFailed, InvalidParameters
from .ff import Field


def conjugate_set(z: CycInt) -> tuple[CycInt, ...]:
    """The images sigma_a(z) for a = 1 .. p-1, in that order."""
    p = prime_conductor(z)
    return tuple(galois_apply(z, a) for a in range(1, p))


def degree_of(z: CycInt) -> int:
    """Degree of z over Q (orbit size under Gal(Q(zeta_p)/Q)), read off
    the stabiliser.

    Representatives of one element differ by a constant vector, and
    sigma_a moves coefficient e to a*e mod p but fixes index 0, so
    sigma_a(z) = z iff c_(a*e mod p) = c_e for every e. The degree is
    (p-1) over the number of such a. Each a with c_a = c_1 (the case
    e = 1) is tested e by e, stopping at the first mismatch; no conjugate
    is built or reduced.
    """
    p = prime_conductor(z)
    c = z.coeffs
    fixing = sum(
        all(c[a * e % p] == x for e, x in enumerate(c)) for a in range(1, p) if c[a] == c[1]
    )
    return (p - 1) // fixing


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise CheckFailed(f"{a} is not divisible by {b} (bug)")
    return q


def min_poly(z: CycInt) -> tuple:
    """Monic minimal polynomial of z over Q, by Newton's identities, as its
    ascending coefficients.

    With d = deg z and h = (p-1)/d, each conjugate appears h times among
    the sigma_a(z), so the power sums over the orbit are
    s_k = Tr(z^k)/h, where Tr(sum c_i zeta^i) = (p-1) c_0 - sum_(i>=1) c_i.
    Then e_k = (1/k) sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i. The powers cost
    d - 1 products, where expanding the orbit product costs about d^2/2.
    """
    p = prime_conductor(z)
    d = degree_of(z)
    h = (p - 1) // d
    powers = [z]
    for _ in range(d - 1):
        powers.append(powers[-1] * z)
    power_sums = [0] + [_exact_div(p * w.coeffs[0] - sum(w.coeffs), h) for w in powers]
    e = [1]
    for k in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * power_sums[i] for i in range(1, k + 1))
        e.append(_exact_div(acc, k))
    # prod (x - c) over the orbit = sum_k (-1)^k e_k x^(d-k)
    poly = tuple([(-1) ** k * e[k] for k in range(d, -1, -1)])
    # poly(z) as a linear combination of the powers already held: no product
    value = [0] * p
    value[0] = poly[0]
    for c, w in zip(poly[1:], powers):
        value = [v + c * x for v, x in zip(value, w.coeffs)]
    if not CycInt(p, value).is_zero():
        raise CheckFailed("minimal polynomial does not vanish at z (bug)")
    return poly


def equivariance_check(F: Field, n: int, b, a: int) -> bool:
    """sigma_a(IK_n(q, b)) == IK_n(q, b * a^-(n+1)), checked exactly in
    scaled form at conductor p."""
    b = _check_ik_args(F, n, b)
    if a % F.p == 0:
        raise InvalidParameters("Galois index a must be a unit of F_p")
    a %= F.p
    lifted = F.elt(a)
    b2 = b * lifted ** (-(n + 1))
    lhs = galois_apply(scaled_ik_at_p(F, n, b), a)
    rhs = scaled_ik_at_p(F, n, b2)
    return lhs == rhs


def degree_bound(p: int, n: int) -> int:
    """(p-1)/gcd(n+1, p-1): the degree of IK_n(p, b) for every b in F_p^*.
    Over F_q, q = p^k, the degree of IK_n(q, b) divides it."""
    return (p - 1) // gcd(n + 1, p - 1)


def ik_degree(F: Field, n: int, b) -> int:
    """Degree of IK_n(q, b); scaling by q(q-1) preserves orbit distinctness."""
    return degree_of(scaled_ik_at_p(F, n, b))


__all__ = [
    "conjugate_set",
    "degree_of",
    "min_poly",
    "equivariance_check",
    "ik_degree",
    "degree_bound",
]
