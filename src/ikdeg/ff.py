"""Finite fields F_q (q = p^k) with trace, generator, and discrete logs.

Elements carry their coordinates in the power basis of the modulus root.
The discrete-log table is built once at construction, so downstream
character evaluations are O(1) lookups. Designed for desk-scale q.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import IntPoly
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


def prime_factors(n: int) -> list[int]:
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
    result = [1]
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _pmulmod(base, base, mod, p)
    return result


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


def default_modulus(p: int, k: int) -> IntPoly:
    """Smallest monic irreducible of degree k mod p, by integer encoding
    of the lower coefficients (most-significant coordinate last)."""
    if k == 1:
        return IntPoly([0, 1])
    for code in range(p**k):
        lower = []
        c = code
        for _ in range(k):
            lower.append(c % p)
            c //= p
        coeffs = lower + [1]
        if _is_irreducible(coeffs, p):
            return IntPoly(coeffs)
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

    def encoding(self) -> int:
        """Canonical integer encoding: sum of c_i * p^i."""
        p = self.field.p
        out = 0
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

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
        return F.pow_of_generator(-F.dlog_table[self.coeffs] % max(F.q - 1, 1))

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
        if F.q == 2:
            return self  # the unit group is trivial
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

    def __init__(self, p: int, k: int = 1, modulus: IntPoly | None = None):
        if not is_prime(p):
            raise InvalidParameters(f"{p} is not prime")
        if k < 1:
            raise InvalidParameters("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = default_modulus(p, k)
        elif not isinstance(modulus, IntPoly):
            modulus = IntPoly(modulus)
        mc = [c % p for c in modulus.coeffs]
        if len(mc) - 1 != k or mc[-1] != 1:
            raise InvalidParameters("modulus must be monic of degree k")
        if k > 1 and not _is_irreducible(mc, p):
            raise InvalidParameters("modulus is reducible mod p")
        self.modulus = IntPoly(mc)
        self._mod_coeffs = mc
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

    def _mul_raw(self, a, b):
        red = _pmulmod(a, b, self._mod_coeffs, self.p)
        return tuple(red + [0] * (self.k - len(red)))

    def _pow_raw(self, a, e):
        result = tuple([1] + [0] * (self.k - 1))
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            e >>= 1
            if e:
                base = self._mul_raw(base, base)
        return result

    def _find_generator(self) -> FieldElt:
        one = tuple([1] + [0] * (self.k - 1))
        order = self.q - 1
        if order == 1:
            return self.one
        factors = prime_factors(order)
        for code in range(1, self.q):
            cand = self.from_encoding(code).coeffs
            if all(self._pow_raw(cand, order // ell) != one for ell in factors):
                return FieldElt(self, cand)
        raise AssertionError("no generator found")  # unreachable

    def _build_dlog(self):
        self.dlog_table = {}
        self._pow_table = []
        acc = tuple([1] + [0] * (self.k - 1))
        g = self.generator.coeffs
        for j in range(max(self.q - 1, 1)):
            self.dlog_table[acc] = j
            self._pow_table.append(FieldElt(self, acc))
            acc = self._mul_raw(acc, g)

    def pow_of_generator(self, j: int) -> FieldElt:
        return self._pow_table[j % max(self.q - 1, 1)]

    def dlog(self, x: FieldElt) -> int:
        x = self.elt(x)
        if x.is_zero():
            raise LogOfZero("discrete log of zero")
        return self.dlog_table[x.coeffs]

    def trace(self, x: FieldElt) -> int:
        """Tr(x) = x + x^p + ... + x^(p^(k-1)), as a residue mod p."""
        x = self.elt(x)
        acc = x
        t = x
        for _ in range(self.k - 1):
            t = FieldElt(self, self._pow_raw(t.coeffs, self.p))
            acc = acc + t
        assert all(c == 0 for c in acc.coeffs[1:]), "trace not in prime field"
        return acc.coeffs[0]

    def __repr__(self):
        if self.k == 1:
            return f"Field(F_{self.p})"
        return f"Field(F_{self.q} = F_{self.p}[t]/{self.modulus.coeffs})"


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


# -- module-level convenience aliases -------------------------------------


def trace(F: Field, x) -> int:
    return F.trace(x)


def primitive_root(F: Field) -> FieldElt:
    return F.generator


def dlog(F: Field, x) -> int:
    return F.dlog(x)
