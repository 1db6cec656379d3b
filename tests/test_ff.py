import pytest

from ikdeg import dlog, get_field, primitive_root, trace
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
    assert F4.modulus.coeffs == (1, 1, 1)
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
    assert trace(get_field(7), get_field(7).elt(3)) == 3
    F4 = get_field(2, 2)
    assert trace(F4, F4.from_encoding(2)) == 1  # t + t^2 = 1
    F9 = get_field(3, 2)
    assert F9.modulus.coeffs == (1, 0, 1)  # t^2 + 1
    assert trace(F9, F9.from_encoding(3)) == 0  # t + t^3 = 0


def test_trace_linearity_and_frobenius():
    F = get_field(2, 3)
    for x in F.elements():
        for y in F.elements():
            assert F.trace(x + y) == (F.trace(x) + F.trace(y)) % F.p
        assert F.trace(x**F.p if not x.is_zero() else x) == F.trace(x)
    F9 = get_field(3, 2)
    for x in F9.elements():
        for c in range(3):
            assert F9.trace(F9.elt(c) * x) == (c * F9.trace(x)) % 3


def test_primitive_roots():
    assert primitive_root(get_field(5)).coeffs == (2,)
    assert primitive_root(get_field(7)).coeffs == (3,)
    assert primitive_root(get_field(2)).coeffs == (1,)


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
    assert dlog(F5, F5.elt(1)) == 0
    assert dlog(F5, F5.elt(4)) == 2
    F7 = get_field(7)
    assert dlog(F7, F7.elt(6)) == 3
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
        Field(2, 2, modulus=[0, 0, 1])  # t^2 is reducible
    with pytest.raises(InvalidParameters):
        get_field(5).elt([1, 2])


def test_custom_modulus():
    # F_9 with the other irreducible t^2 + t + 2
    F = Field(3, 2, modulus=[2, 1, 1])
    t = F.from_encoding(3)
    assert (t * t).coeffs == (1, 2)  # t^2 = -t - 2 = 2t + 1
