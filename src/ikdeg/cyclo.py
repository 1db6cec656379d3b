"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are held in a group-ring representation: a length-m integer
vector of coefficients on zeta_m^0 .. zeta_m^(m-1), i.e. Z[x]/(x^m - 1).
Multiplication is plain cyclic convolution; reduction modulo the m-th
cyclotomic polynomial happens lazily, on equality tests and output.
"""

import operator
from functools import lru_cache, reduce
from itertools import repeat
from math import cos, gcd, pi, sin

from . import kernels
from .errors import CheckFailed, InvalidParameters


def poly_rem(c, f) -> list:
    """c mod f over Z for a monic f, as exactly len(f) - 1 ascending
    coefficients (a shorter c, such as every product in F_p[t]/(t), is its
    own remainder). Only f's nonzero lower terms touch the remainder
    (Phi_930 has 73 of 241)."""
    deg = len(f) - 1
    rem = list(c) + [0] * (deg - len(c))
    if len(rem) > deg:
        terms = [(i - deg, fc) for i, fc in enumerate(f[:deg]) if fc]
        for top in range(len(rem) - 1, deg - 1, -1):
            q = rem[top]
            if q:
                for i, fc in terms:
                    rem[top + i] -= q * fc
        del rem[deg:]
    return rem


def subtract_top(c) -> tuple:
    """The canonical coefficients at a prime conductor p = len(c): c less
    its last entry in every place, since Phi_p = 1 + x + ... + x^(p-1)."""
    return tuple(map(operator.sub, c, repeat(c[-1])))


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise CheckFailed(f"{a} is not divisible by {b} (bug)")
    return q


def power(x, e: int, one, mul):
    """x**e for e >= 0 by square-and-multiply in the ring with product mul
    and identity one. It starts from x, not from one, so e >= 1 costs
    floor(log2 e) + popcount(e) - 1 products."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """The m-th cyclotomic polynomial's coefficients, ascending, as
    Phi_rad(x^(m/rad)).

    rad is the product of the primes dividing m, and
    Phi_rad = prod over d | rad of (x^d - 1)^mu(rad/d). Phi_rad has degree
    phi(rad), so the product is taken as a power series mod x^(phi(rad)+1):
    each factor, or its inverse -(1 + x^d + x^(2d) + ...), is one
    O(phi(rad)) shift-and-add pass.
    """
    if m < 1:
        raise InvalidParameters("conductor must be positive")
    primes = prime_factors(m)
    rad, deg = 1, 1
    for ell in primes:
        rad, deg = rad * ell, deg * (ell - 1)
    factors = [(rad, 1)]  # (d, mu(rad/d)) for each d | rad
    for ell in primes:
        factors += [(d // ell, -mu) for d, mu in factors]
    c = [1] + [0] * deg
    for d, mu in factors:
        if mu == 1:  # times x^d - 1
            c = [-v for v in c[:d]] + [u - v for u, v in zip(c, c[d:])]
        else:  # times -(1 + x^d + x^(2d) + ...)
            for i in range(d, deg + 1):
                c[i] += c[i - d]
            c = [-v for v in c]
    step = m // rad
    out = [0] * (deg * step + 1)
    out[::step] = c
    return tuple(out)


class CycInt:
    """An exact element of Z[zeta_m] in the group-ring representation."""

    __slots__ = ("m", "coeffs", "_canon")

    def __init__(self, m, coeffs=()):
        if m < 1:
            raise InvalidParameters("conductor must be positive")
        c = list(coeffs)
        if len(c) > m:
            raise InvalidParameters(f"{len(c)} coefficients for conductor {m}: at most {m}")
        self.m = m
        self.coeffs = tuple(c + [0] * (m - len(c)))
        self._canon = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, m, c):
        return cls(m, [c])

    @classmethod
    def monomial(cls, m, e, c=1):
        z = [0] * m
        z[e % m] = c
        return cls(m, z)

    # -- canonical form ------------------------------------------------

    def canonical(self):
        """Coefficients reduced mod Phi_m, supported on 0..phi(m)-1."""
        if self._canon is None:
            m, c = self.m, self.coeffs
            phi = cyclotomic_poly(m)
            if len(phi) == m:  # m prime
                self._canon = subtract_top(c)
            else:
                rem = poly_rem(c, phi)
                self._canon = tuple(rem + [0] * (m - len(rem)))
        return self._canon

    def reduced(self):
        """A copy in canonical form."""
        z = CycInt(self.m, self.canonical())
        z._canon = z.coeffs
        return z

    def is_zero(self):
        return all(c == 0 for c in self.canonical())

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise InvalidParameters(f"conductors {self.m} and {other.m} differ")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycInt(self.m, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.m, [c * other for c in self.coeffs])
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(
            self.m, kernels.cyclic_convolve(list(self.coeffs), list(other.coeffs))
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise InvalidParameters("negative powers are not defined in Z[zeta_m]")
        return power(self, e, CycInt.from_int(self.m, 1), operator.mul)

    def shifted(self, e):
        """Multiplication by the monomial zeta_m^e (a cyclic rotation)."""
        e %= self.m
        return CycInt(self.m, self.coeffs[-e:] + self.coeffs[:-e] if e else self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.m != other.m:
            return False
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.m, self.canonical()))

    def __repr__(self):
        c = self.canonical()
        terms = [
            (f"{v}" if i == 0 else (f"z^{i}" if v == 1 else f"{v}*z^{i}"))
            for i, v in enumerate(c)
            if v != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"CycInt(m={self.m}: {body})"

    # -- serialization --------------------------------------------------

    def to_dict(self):
        return {"m": self.m, "coeffs": list(self.canonical())}


def map_exponents(z: CycInt, k: int, big_m: int) -> CycInt:
    """The group-ring map zeta_m -> zeta_M^k: coefficient e moves to k*e mod M.

    It is a ring map Z[x]/(x^m - 1) -> Z[x]/(x^M - 1) when M divides k*m;
    exponents that collide add their coefficients.
    """
    out = [0] * big_m
    for e, c in enumerate(z.coeffs):
        if c:
            out[k * e % big_m] += c
    return CycInt(big_m, out)


def prime_conductor(z: CycInt) -> int:
    """z's conductor, which must be prime."""
    if prime_factors(z.m) != [z.m]:
        raise InvalidParameters(f"conductor {z.m} is not prime")
    return z.m


def galois_apply(z: CycInt, a: int) -> CycInt:
    """Apply zeta_m -> zeta_m^a; requires gcd(a, m) = 1."""
    if gcd(a, z.m) != 1:
        raise InvalidParameters(f"gcd({a}, {z.m}) != 1")
    return map_exponents(z, a, z.m)


def change_conductor(z: CycInt, big_m: int) -> CycInt:
    """Re-embed z into Z[zeta_M] for a multiple conductor M."""
    if big_m % z.m != 0:
        raise InvalidParameters(f"{z.m} does not divide {big_m}")
    return map_exponents(z, big_m // z.m, big_m)


def lower_conductor(z: CycInt, d: int) -> CycInt:
    """Rewrite z in Z[zeta_d] when m = d*r with gcd(d, r) = 1.

    Raises InvalidParameters when the split is not coprime or the element
    does not actually lie in the subring.
    """
    m = z.m
    if m == d:
        return z.reduced()
    if d < 1 or m % d != 0:
        raise InvalidParameters(f"{d} does not divide conductor {m}")
    r = m // d
    if gcd(d, r) != 1:
        raise InvalidParameters(f"conductor split {d}*{r} is not coprime")
    a_mul = pow(r, -1, d) if d > 1 else 0
    b_mul = pow(d, -1, r) if r > 1 else 0
    # zeta_m^e = zeta_d^(e*r^-1 mod d) * zeta_r^(e*d^-1 mod r)
    rows = [[0] * r for _ in range(d)]
    for e, c in enumerate(z.coeffs):
        if c:
            rows[(e * a_mul) % d][(e * b_mul) % r] += c
    # reduce in zeta_r, then each column, a polynomial in zeta_d, mod Phi_d:
    # column beta is the coefficient of zeta_r^beta
    rows = [poly_rem(row, cyclotomic_poly(r)) for row in rows]
    cols = [poly_rem(col, cyclotomic_poly(d)) for col in zip(*rows)]
    if any(map(any, cols[1:])):
        raise InvalidParameters(f"element is not in Z[zeta_{d}]")
    return CycInt(d, cols[0])


@lru_cache(maxsize=None)
def _complex_roots(m: int) -> tuple:
    """e^(2*pi*i*e/m) for e = 0 .. m-1. cmath.exp(2j*pi*e/m) takes exactly
    these cos and sin, as its argument has real part 0."""
    return tuple(complex(cos(x), sin(x)) for x in (2 * pi * e / m for e in range(m)))


def _root_row(m: int, j: int) -> tuple:
    """e^(2*pi*i*j*e/m) for e = 0 .. m-1, read off the table of roots."""
    roots = _complex_roots(m)
    return tuple([roots[j * e % m] for e in range(m)])


def _evaluate(coeffs, row) -> complex:
    # ascending e, plain left-to-right additions from 0j, so the floats are
    # those of adding the nonzero c * root one at a time: a partial sum that
    # starts at +0.0 is never -0.0, so a zero term leaves it unchanged.
    # (sum() is faster, but newer Pythons may compensate its additions.)
    return reduce(operator.add, map(operator.mul, coeffs, row), 0j)


def embedding_error(m: int, bound) -> float:
    """delta = 2^-31 * B: the proven float error of every embedding that
    _evaluate reads off the table of roots at a conductor m < 2^20, for
    B = S/s + |h| as below. Raises InvalidParameters when m >= 2^20, where
    the proof stops.

    A reading of z = sum c_e zeta_m^e at row j, scaled by s > 0 and
    shifted by a float h, is r = fl(fl(sum_e c_e w_(je)) / s) + h, or its
    absolute value, with w_k the table's e^(2 pi i k/m); its exact value is
    R = z(zeta_m^j)/s + h, or its absolute value. embed_all and
    embed_complex read s = 1 and h = 0. Let u = 2^-53, S >= sum |c_e| and
    B = S/s + |h|. Each table root is within 2^-46 of its true value (its
    argument takes at most three roundings, under 2^-48, and cos and sin
    are within an ulp); each product c_e w adds at most 2u per part (int to
    float, one rounding); the recursive sum of m terms adds at most
    sqrt(2) gamma_(m-1) sum |c_e w| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1, per part,
    gamma_k = ku/(1 - ku) < 1.001 * 2^-33 for m < 2^20); division, the
    addition of h and abs add at most 6uB. So |r - R| < 2^-31 B = delta
    for every reading. The terms add up to under 2^-32 B, so delta also
    covers a few more roundings of size u B, such as those of comparing
    r + delta with a float bound near B.
    """
    if m >= 2**20:
        raise InvalidParameters(f"the float error bound needs a conductor below 2^20, not {m}")
    return bound * 2.0**-31


def embed_all(z: CycInt):
    """Every complex embedding of z in one pass: ({j: value}, error_bound)
    over j coprime to m, ascending. The bound, embedding_error of
    sum |c|, is the same for every j, so it is computed once."""
    m, c = z.m, z.coeffs
    err = embedding_error(m, sum(map(abs, c)))  # first: it refuses m >= 2^20
    # each row is built, read and dropped: O(m) memory at a wide conductor
    # such as p(q-1)
    return {j: _evaluate(c, _root_row(m, j)) for j in range(m) if gcd(j, m) == 1}, err


def embed_complex(z: CycInt, j: int):
    """Evaluate z at e^(2*pi*i*j/m); returns (value, error_bound). One
    embedding of embed_all, with the same floats."""
    if gcd(j, z.m) != 1:
        raise InvalidParameters(f"gcd({j}, {z.m}) != 1")
    err = embedding_error(z.m, sum(map(abs, z.coeffs)))
    return _evaluate(z.coeffs, _root_row(z.m, j)), err
