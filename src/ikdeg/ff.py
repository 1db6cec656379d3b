"""Finite fields F_q (q = p^k) with trace, generator, and discrete logs.

Elements carry their coordinates in the power basis of the modulus root.
The discrete-log table is built once at construction, so downstream
character evaluations are O(1) lookups. Designed for desk-scale q.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from itertools import chain

from .cyclo import power, prime_factors
from .errors import FieldMismatch, InvalidParameters, InversionOfZero, LogOfZero


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over F_p (coefficient lists, ascending) ----------


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, mod, p)


def _pmod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        if c:
            f = (c * inv_lead) % p
            for i, mc in enumerate(mod):
                a[top - dm + i] = (a[top - dm + i] - f * mc) % p
    return _ptrim(a[:dm])


def _ppowmod(a, e, mod, p):
    return power(_pmod(a, mod, p), e, [1], lambda x, y: _pmulmod(x, y, mod, p))


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(coeffs, p):
    """Irreducibility of a degree-k polynomial over F_p."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    x = [0, 1]
    # x^(p^k) == x mod f
    t = x
    for _ in range(k):
        t = _ppowmod(t, p, coeffs, p)
    if _ptrim(list(t)) != [0, 1]:
        return False
    for ell in prime_factors(k):
        t = x
        for _ in range(k // ell):
            t = _ppowmod(t, p, coeffs, p)
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(diff, coeffs, p)
        if len(g) - 1 != 0:
            return False
    return True


def default_modulus(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k mod p, by integer encoding
    of the lower coefficients (most-significant coordinate last), as its
    ascending coefficients."""
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        lower = []
        c = code
        for _ in range(k):
            lower.append(c % p)
            c //= p
        coeffs = lower + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElt:
    """Element of a Field, as a vector of k residues mod p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElt) or other.field is not self.field:
            raise FieldMismatch("operands belong to different fields")

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        self._check(other)
        return FieldElt(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        self._check(other)
        return FieldElt(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FieldElt(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        self._check(other)
        return FieldElt(self.field, self.field._mul_raw(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise InversionOfZero("inverse of zero")
        F = self.field
        return F.pow_of_generator(-F.dlog_table[self.coeffs] % (F.q - 1))

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.elt(other)
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        F = self.field
        if self.is_zero():
            if e > 0:
                return self
            if e == 0:
                return F.one
            raise InversionOfZero("negative power of zero")
        j = F.dlog_table[self.coeffs]
        return F.pow_of_generator((j * e) % (F.q - 1))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElt)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"FieldElt({self.coeffs} over F_{self.field.q})"

    def serialize(self) -> str:
        return ":".join(str(c) for c in self.coeffs)


class Field:
    """The finite field F_{p^k}, immutable after construction."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise InvalidParameters(f"{p} is not prime")
        if k < 1:
            raise InvalidParameters("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = default_modulus(p, k)
        self._cache: dict = {}
        self.generator = self._find_generator()
        self._build_dlog()

    # -- element constructors ------------------------------------------

    def elt(self, value) -> FieldElt:
        """Coerce: int -> prime-subfield scalar; sequence -> coordinates."""
        if isinstance(value, FieldElt):
            if value.field is not self:
                raise FieldMismatch("element from another field")
            return value
        if isinstance(value, int):
            return FieldElt(self, [value] + [0] * (self.k - 1))
        coeffs = list(value)
        if len(coeffs) != self.k:
            raise InvalidParameters(f"expected {self.k} coordinates")
        return FieldElt(self, coeffs)

    def from_encoding(self, code: int) -> FieldElt:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(code % self.p)
            code //= self.p
        return FieldElt(self, coeffs)

    @property
    def zero(self):
        return self.elt(0)

    @property
    def one(self):
        return self.elt(1)

    def elements(self):
        """All elements in canonical (integer-encoding) order."""
        return (self.from_encoding(i) for i in range(self.q))

    def units(self):
        """All nonzero elements in canonical order."""
        return (self.from_encoding(i) for i in range(1, self.q))

    # -- generator and discrete logs -------------------------------------

    def _pad(self, red):
        return tuple(red + [0] * (self.k - len(red)))

    def _mul_raw(self, a, b):
        return self._pad(_pmulmod(a, b, self.modulus, self.p))

    def _pow_raw(self, a, e):
        return self._pad(_ppowmod(a, e, self.modulus, self.p))

    def _find_generator(self) -> FieldElt:
        one = tuple([1] + [0] * (self.k - 1))
        order = self.q - 1
        factors = prime_factors(order)
        for code in range(1, self.q):
            cand = self.from_encoding(code).coeffs
            if all(self._pow_raw(cand, order // ell) != one for ell in factors):
                return FieldElt(self, cand)
        raise AssertionError("no generator found")  # unreachable

    def _build_dlog(self):
        """dlog_table maps the coordinates of g^j to j; _pow_table[j] holds
        them. A step multiplies by g on coordinate lists by Horner's rule in
        alpha, t -> alpha*t + g_s*acc, where alpha*t shifts t up and folds
        its top coordinate back through the monic modulus. g comes early in
        encoding order, so it has few coordinates: one fused pass per step
        when g = alpha + c."""
        p, k = self.p, self.k
        low = self.modulus[:k]  # alpha^k = -(low part)
        *rest, lead = _ptrim(list(self.generator.coeffs))
        rest.reverse()
        self.dlog_table = {}
        self._pow_table = []
        acc = [1] + [0] * (k - 1)
        for j in range(self.q - 1):
            coords = tuple(acc)
            self.dlog_table[coords] = j
            self._pow_table.append(coords)
            t = acc if lead == 1 else [lead * a % p for a in acc]
            for c in rest:
                top = t[-1]
                t = [(c * a + x - top * m) % p for a, x, m in zip(acc, chain((0,), t), low)]
            acc = t

    def pow_of_generator(self, j: int) -> FieldElt:
        return FieldElt(self, self._pow_table[j % (self.q - 1)])

    def _log_one_minus_powers(self) -> list:
        """dlog(1 - g^c) for c = 1 .. q-2, read off coordinates with no
        FieldElt built: 1 - g^c = -1 * (g^c - 1)."""
        p, q1 = self.p, self.q - 1
        neg_one = self.dlog(self.elt(-1))
        return [
            (self.dlog_table[((g[0] - 1) % p,) + g[1:]] + neg_one) % q1
            for g in self._pow_table[1:]
        ]

    def dlog(self, x: FieldElt) -> int:
        x = self.elt(x)
        if x.is_zero():
            raise LogOfZero("discrete log of zero")
        return self.dlog_table[x.coeffs]

    def _frobenius_trace(self, coeffs) -> int:
        """x + x^p + ... + x^(p^(k-1)), as a residue mod p."""
        acc = list(coeffs)
        t = coeffs
        for _ in range(self.k - 1):
            t = self._pow_raw(t, self.p)
            acc = [(a + c) % self.p for a, c in zip(acc, t)]
        assert all(c == 0 for c in acc[1:]), "trace not in prime field"
        return acc[0]

    @cached_property
    def _basis_traces(self):
        """Tr(alpha^i) for i < k, alpha the root of the modulus."""
        return [self._frobenius_trace([int(i == j) for j in range(self.k)]) for i in range(self.k)]

    def trace(self, x: FieldElt) -> int:
        """Tr(x) as a residue mod p. The trace is F_p-linear, so it is read
        off the traces of the basis powers alpha^i."""
        return self._trace_coords(self.elt(x).coeffs)

    def _trace_coords(self, coeffs) -> int:
        """Tr of the element with these coordinates, with no FieldElt built."""
        return sum(map(operator.mul, coeffs, self._basis_traces)) % self.p

    def _trace_of_power(self, j: int) -> int:
        """Tr(g^j), with no FieldElt built."""
        return self._trace_coords(self._pow_table[j % (self.q - 1)])

    def __repr__(self):
        if self.k == 1:
            return f"Field(F_{self.p})"
        return f"Field(F_{self.q} = F_{self.p}[t]/{self.modulus})"


@lru_cache(maxsize=None)
def _field(p: int, k: int) -> Field:
    return Field(p, k)


def get_field(p: int, k: int = 1) -> Field:
    """Construction cache; Field instances are immutable and shareable.

    The cache is keyed on (p, k) as given here, so get_field(7),
    get_field(7, 1) and get_field(7, k=1) are one Field.
    """
    return _field(p, k)


get_field.cache_info = _field.cache_info

