"""Finite fields F_q (q = p^k) with trace, generator, and discrete logs.

The modulus is the first monic irreducible of degree k in encoding order,
found by trial division by the monic polynomials of degree at most k/2.
Elements carry their coordinates in the power basis of its root alpha.
The generator is the first unit in encoding order whose (q-1)/l-th powers,
taken with cyclo.power, all differ from 1. The discrete-log table is built
once at construction, so downstream character evaluations are O(1)
lookups. Traces are F_p-linear and read off the Tr(alpha^i), which
Newton's identities give from the modulus. Designed for desk-scale q.
"""

import operator
import os
from functools import cached_property, lru_cache
from itertools import chain

from .cyclo import poly_rem, power, prime_factors
from .errors import CheckFailed, InvalidParameters


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


# -- memory ------------------------------------------------------------


def _address_space() -> int:
    """The bytes of this process's address space (VmSize), which
    RLIMIT_AS caps; 0 where /proc/self/statm is missing. A raw read: it
    runs once per checked table."""
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
    except OSError:
        return 0
    try:
        return int(os.read(fd, 64).split()[0]) * os.sysconf("SC_PAGE_SIZE")
    finally:
        os.close(fd)


# A need below this is not checked: it is built in milliseconds, and if it
# does not fit, the MemoryError that follows is as quick and main reports
# it in one line. Fields up to q of about 4 600 and censuses up to p of
# about 130 stay below it and pay nothing for the check's import and reads.
_UNCHECKED_BYTES = 1 << 20


def check_fits(subject: str, need: int, purpose: str) -> None:
    """Raise InvalidParameters unless need more bytes fit beside the
    address space the process holds: in the address-space limit
    (RLIMIT_AS) when one is set, else in physical memory. The message
    reads "<subject> needs about ... GiB for <purpose> beside ...". Every
    table that grows with q is checked here before it is built."""
    if need < _UNCHECKED_BYTES:
        return
    import resource  # only here: a need below _UNCHECKED_BYTES skips it

    held = _address_space()
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    where = "the address-space limit"
    if limit == resource.RLIM_INFINITY:
        limit, where = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), "physical memory"
    if held + need > limit:
        raise InvalidParameters(
            f"{subject} needs about {need / 2**30:.3g} GiB for {purpose} "
            f"beside the {held / 2**30:.3g} GiB in use, over {where} of {limit / 2**30:.3g} GiB"
        )


# Bytes a discrete-log entry costs: its coordinate tuple, shared by
# dlog_table and _pow_table, its log, the list slot and the dict's share,
# a resize included. Measured as the growth of VmPeak (/proc/self/status)
# over get_field(p, k), over q-1 (CPython 3.11, x86-64): at most 218 at
# k = 1 (primes up to 3*10^6), 253 at 1187^2, 250 at 3^13 and 317 at 2^22.
# Each reading is below _ENTRY_BYTES plus, per coordinate, a tuple slot
# and, once p - 1 passes the cached small ints, an int of its own.
_ENTRY_BYTES = 184


def check_field_fits(p: int, k: int) -> None:
    """Raise InvalidParameters unless the discrete-log table of F_(p^k),
    q-1 entries, fits in memory (check_fits). It runs before is_prime,
    whose trial division alone takes minutes at p near 10^18. Past 2^64
    entries nothing fits; the power stops there, so a huge k costs
    nothing."""
    if p < 2:
        return  # is_prime refuses it at once
    entries = min(p ** min(k, 64), 2**64) - 1
    subject = f"q = {p}" if k == 1 else f"q = {p}^{k}"
    per_entry = _ENTRY_BYTES + k * (8 if p <= 257 else 40)
    check_fits(subject, entries * per_entry, "a discrete-log table of q - 1 entries")


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
                out[i + j] += ai * bj
    return _pmod(out, mod, p)


def _pmod(a, mod, p):
    """a mod the monic mod, over F_p."""
    return _ptrim([c % p for c in poly_rem(a, mod)])


def _digits(code: int, p: int, d: int) -> list:
    """The d base-p digits of code, least significant first: the encoding
    of coordinates and of lower coefficients."""
    out = []
    for _ in range(d):
        code, c = divmod(code, p)
        out.append(c)
    return out


def default_modulus(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k mod p, by integer encoding
    of the lower coefficients, as its ascending coefficients. A reducible
    f has a monic factor of degree at most k/2, so trial division by those
    decides."""
    factors = [_digits(c, p, d) + [1] for d in range(1, k // 2 + 1) for c in range(p**d)]
    for code in range(p**k):
        f = _digits(code, p, k) + [1]
        if all(_pmod(f, g, p) for g in factors):
            return tuple(f)
    raise CheckFailed("no irreducible polynomial found")  # unreachable


class FieldElt:
    """Element of a Field, as a vector of k residues mod p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElt) or other.field is not self.field:
            raise InvalidParameters("operands belong to different fields")

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
            raise InvalidParameters("inverse of zero")
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
            raise InvalidParameters("negative power of zero")
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
    """The finite field F_{p^k}.

    p, k, q, the modulus, the generator and the discrete-log table are fixed
    at construction. _cache grows as charsum reads the field: it keeps each
    power G^e of the Gauss sum, each n's tuple of scaled values and each
    n's two rows of tuple counts, and the traces of the basis are computed
    on first use.
    """

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise InvalidParameters("extension degree must be >= 1")
        check_field_fits(p, k)
        if not is_prime(p):
            raise InvalidParameters(f"{p} is not prime")
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
                raise InvalidParameters("element from another field")
            return value
        if isinstance(value, int):
            return FieldElt(self, [value] + [0] * (self.k - 1))
        coeffs = list(value)
        if len(coeffs) != self.k:
            raise InvalidParameters(f"expected {self.k} coordinates")
        return FieldElt(self, coeffs)

    def from_encoding(self, code: int) -> FieldElt:
        return FieldElt(self, _digits(code, self.p, self.k))

    @property
    def zero(self):
        return self.elt(0)

    @property
    def one(self):
        return self.elt(1)

    def units(self):
        """All nonzero elements in canonical order."""
        return (self.from_encoding(i) for i in range(1, self.q))

    # -- generator and discrete logs -------------------------------------

    def _pad(self, red):
        return tuple(red + [0] * (self.k - len(red)))

    def _mul_raw(self, a, b):
        return self._pad(_pmulmod(a, b, self.modulus, self.p))

    def _find_generator(self) -> FieldElt:
        one = tuple([1] + [0] * (self.k - 1))
        order = self.q - 1
        factors = prime_factors(order)
        for code in range(1, self.q):
            cand = self.from_encoding(code).coeffs
            if all(power(cand, order // ell, one, self._mul_raw) != one for ell in factors):
                return FieldElt(self, cand)
        raise CheckFailed("no generator found")  # unreachable

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
            raise InvalidParameters("discrete log of zero")
        return self.dlog_table[x.coeffs]

    @cached_property
    def _basis_traces(self):
        """Tr(alpha^i) for i < k, alpha the root of the modulus
        x^k + c_(k-1) x^(k-1) + ... + c_0: the power sums s_i of its roots,
        by Newton's identities s_0 = k and
        s_i = -(i c_(k-i) + sum over 0 < j < i of c_(k-j) s_(i-j))."""
        p, k, c = self.p, self.k, self.modulus
        s = [k % p]
        for i in range(1, k):
            s.append(-(i * c[k - i] + sum(c[k - j] * s[i - j] for j in range(1, i))) % p)
        return s

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
    """Construction cache: one Field per (p, k), shared by every caller, so
    the values charsum keeps in its _cache serve them all.

    The cache is keyed on (p, k) as given here, so get_field(7),
    get_field(7, 1) and get_field(7, k=1) are one Field.
    """
    return _field(p, k)


get_field.cache_info = _field.cache_info

