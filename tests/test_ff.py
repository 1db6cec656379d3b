import pytest

from ikdeg import get_field
from ikdeg.errors import (
    FieldMismatch,
    InvalidParameters,
    InversionOfZero,
    LogOfZero,
)
from ikdeg.ff import Field


def test_prime_field_arithmetic():
    F = get_field(5)
    assert (F.elt(3) * F.elt(4)).coeffs == (2,)
    assert F.elt(2).inverse().coeffs == (3,)
    assert (F.elt(1) - F.elt(3)).coeffs == (3,)


def test_one_field_object_per_field():
    assert get_field(7) is get_field(7, 1) is get_field(7, k=1)
    assert get_field(3, 2) is get_field(3, k=2)
    assert get_field(3, 2) is not get_field(3)


def test_extension_field_reduction():
    F4 = get_field(2, 2)  # F_2[t]/(t^2 + t + 1)
    assert F4.modulus == (1, 1, 1)
    t = F4.from_encoding(2)
    assert (t * t).coeffs == (1, 1)  # t^2 = t + 1


def test_pow_negative_exponents():
    F = get_field(7)
    x = F.elt(3)
    assert x ** (-1) == x.inverse()
    assert x**0 == F.one
    assert x ** (7 - 2) == x.inverse()
    # arbitrary-precision exponent
    assert x ** (10**30) == x ** (10**30 % 6)


def test_inversion_of_zero():
    F = get_field(5)
    with pytest.raises(InversionOfZero):
        F.zero.inverse()
    with pytest.raises(InversionOfZero):
        F.zero ** (-2)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        get_field(5).elt(1) + get_field(7).elt(1)


def test_trace_examples():
    assert get_field(7).trace(get_field(7).elt(3)) == 3
    F4 = get_field(2, 2)
    assert F4.trace(F4.from_encoding(2)) == 1  # t + t^2 = 1
    F9 = get_field(3, 2)
    assert F9.modulus == (1, 0, 1)  # t^2 + 1
    assert F9.trace(F9.from_encoding(3)) == 0  # t + t^3 = 0


def test_trace_linearity_and_frobenius():
    F = get_field(2, 3)
    for x in [F.zero, *F.units()]:
        for y in [F.zero, *F.units()]:
            assert F.trace(x + y) == (F.trace(x) + F.trace(y)) % F.p
        assert F.trace(x**F.p if not x.is_zero() else x) == F.trace(x)
    F9 = get_field(3, 2)
    for x in [F9.zero, *F9.units()]:
        for c in range(3):
            assert F9.trace(F9.elt(c) * x) == (c * F9.trace(x)) % 3


def test_trace_equals_frobenius_sum():
    """Oracle: x + x^p + ... + x^(p^(k-1)), by the field's own arithmetic."""
    # q = 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125
    for p, k in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (5, 3)):
        F = get_field(p, k)
        for x in [F.zero, *F.units()]:
            acc, t = x, x
            for _ in range(k - 1):
                t = t**p
                acc = acc + t
            assert all(c == 0 for c in acc.coeffs[1:])
            assert F.trace(x) == acc.coeffs[0], (F.q, x)


def test_trace_table_needs_k_squared_frobenius_powers():
    """The trace is F_p-linear: a table of every trace takes the k basis
    traces, each a sum of k-1 Frobenius powers, and no power per element."""
    F = Field(2, 12)  # fresh, not the shared get_field instance
    calls = []
    pow_raw = F._pow_raw

    def counted(a, e):
        calls.append(e)
        return pow_raw(a, e)

    F._pow_raw = counted
    table = {x.coeffs: F.trace(x) for x in [F.zero, *F.units()]}
    assert len(table) == 4096
    assert len(calls) <= 12**2
    assert sum(table.values()) == 2048  # Tr is onto F_2, so half the elements have trace 1


def test_primitive_roots():
    assert get_field(5).generator.coeffs == (2,)
    assert get_field(7).generator.coeffs == (3,)
    assert get_field(2).generator.coeffs == (1,)


def test_generator_order():
    for p, k in [(3, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3)]:
        F = get_field(p, k)
        g = F.generator
        seen = set()
        acc = F.one
        for _ in range(F.q - 1):
            seen.add(acc.coeffs)
            acc = acc * g
        assert len(seen) == F.q - 1


def test_dlog_examples_and_roundtrip():
    F5 = get_field(5)
    assert F5.dlog(F5.elt(1)) == 0
    assert F5.dlog(F5.elt(4)) == 2
    F7 = get_field(7)
    assert F7.dlog(F7.elt(6)) == 3
    for F in (F5, F7, get_field(3, 2)):
        for x in F.units():
            assert F.pow_of_generator(F.dlog(x)) == x
        for j in range(F.q - 1):
            assert F.dlog(F.generator**j) == j % (F.q - 1)


def test_log_of_zero():
    with pytest.raises(LogOfZero):
        get_field(5).dlog(get_field(5).zero)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        Field(4)
    with pytest.raises(InvalidParameters):
        Field(5, 0)
    with pytest.raises(InvalidParameters):
        get_field(5).elt([1, 2])

