import hashlib
import re

import pytest

from ikdeg import get_field
from ikdeg.errors import InvalidParameters
from ikdeg import ff
from ikdeg.ff import Field, default_modulus, is_prime
from oracles import is_irreducible

# (p, k) -> (generator coordinates, sha256 prefix of repr(_pow_table)) for
# every prime below 200 and the extension fields listed last, recorded when
# the modulus came from Rabin's irreducibility test and the traces from
# Frobenius powers, which the tables must not depend on.
FIELD_PINS = {
    (2, 1): ((1,), "2f89a856b49d7814"),
    (3, 1): ((2,), "c2ed2b5e4dd6fe50"),
    (5, 1): ((2,), "4ad0de0906a2bd01"),
    (7, 1): ((3,), "6345fb9ce813b2d7"),
    (11, 1): ((2,), "5cfb4cfea693b141"),
    (13, 1): ((2,), "8114403a14877d17"),
    (17, 1): ((3,), "4f055e44f621c241"),
    (19, 1): ((2,), "cefd776869fbba89"),
    (23, 1): ((5,), "dee5ccf030c80811"),
    (29, 1): ((2,), "a58c6168030f7ba9"),
    (31, 1): ((3,), "0ac61caedbe10b68"),
    (37, 1): ((2,), "9a3fad5eb222e25d"),
    (41, 1): ((6,), "1fa7db5d8d581ef6"),
    (43, 1): ((3,), "e086f0ad0dc61089"),
    (47, 1): ((5,), "266b5f96591d4f78"),
    (53, 1): ((2,), "778fcf9ecc6b8574"),
    (59, 1): ((2,), "6181b38d199f2997"),
    (61, 1): ((2,), "7b23de6f60551840"),
    (67, 1): ((2,), "b96dd76eda2dfd55"),
    (71, 1): ((7,), "565e085473fca609"),
    (73, 1): ((5,), "02476228c934fd49"),
    (79, 1): ((3,), "dd5a98c12b611e64"),
    (83, 1): ((2,), "d59b94c834ad7b48"),
    (89, 1): ((3,), "7f343df7e70f568f"),
    (97, 1): ((5,), "99c0b3da1f2e1486"),
    (101, 1): ((2,), "57f8c1f8183a4bea"),
    (103, 1): ((5,), "ddb59ce98cda4d25"),
    (107, 1): ((2,), "dd1be297ec310d17"),
    (109, 1): ((6,), "c70b72faa8182512"),
    (113, 1): ((3,), "0f761fd1dfa86c3e"),
    (127, 1): ((3,), "e331e0edbe503443"),
    (131, 1): ((2,), "ff14a18015cce9c5"),
    (137, 1): ((3,), "95f9c226494698ff"),
    (139, 1): ((2,), "98d4440644518973"),
    (149, 1): ((2,), "47aee61a5e6b51ff"),
    (151, 1): ((6,), "9ac94ffdfdb97ca7"),
    (157, 1): ((5,), "4b5fda7203185924"),
    (163, 1): ((2,), "cc93395c02c866c7"),
    (167, 1): ((5,), "e0cfe9456d879b00"),
    (173, 1): ((2,), "9368efcab954328e"),
    (179, 1): ((2,), "14110c525a910bfb"),
    (181, 1): ((2,), "3c9251e7f7eaccf3"),
    (191, 1): ((19,), "ae3f011e810eea08"),
    (193, 1): ((5,), "a3a5ca9da8a86c41"),
    (197, 1): ((2,), "6ce051c402684692"),
    (199, 1): ((3,), "d38404e3ebda5afe"),
    (2, 2): ((0, 1), "bca024473d52745c"),
    (2, 3): ((0, 1, 0), "ad3ed61863c8fcde"),
    (2, 4): ((0, 1, 0, 0), "f688417111948e58"),
    (2, 5): ((0, 1, 0, 0, 0), "222eb6acc579d169"),
    (2, 6): ((0, 1, 0, 0, 0, 0), "9339394bfe0df0bc"),
    (2, 7): ((0, 1, 0, 0, 0, 0, 0), "68a8d1293a5b8f3d"),
    (2, 8): ((1, 1, 0, 0, 0, 0, 0, 0), "239610aff953fab6"),
    (2, 9): ((1, 1, 1, 0, 0, 0, 0, 0, 0), "fd0f5b8c1e1a0101"),
    (2, 10): ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0), "032b5202f15656ee"),
    (2, 11): ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "b8bfbe54adb1ce6d"),
    (2, 12): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "7ed07fda22b8bc02"),
    (2, 13): ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "e3c586f9b247a7c8"),
    (2, 14): ((1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "951cd8b0f6c52509"),
    (2, 15): ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "74b47721e129d83e"),
    (2, 16): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "39c9d6b0e623c856"),
    (3, 2): ((1, 1), "2d5fee6964b9e095"),
    (3, 3): ((0, 1, 0), "c1c4bc2026f39bd1"),
    (3, 4): ((0, 1, 0, 0), "68e9ded85552d04d"),
    (3, 5): ((0, 1, 0, 0, 0), "0f7e397ecc5e960f"),
    (3, 6): ((0, 1, 0, 0, 0, 0), "5b340385a9add92e"),
    (3, 7): ((2, 1, 0, 0, 0, 0, 0), "92d6b33fc538e763"),
    (3, 8): ((2, 0, 1, 1, 0, 0, 0, 0), "508fc45f784a1eef"),
    (3, 9): ((0, 1, 0, 0, 0, 0, 0, 0, 0), "c8554016a84b99ae"),
    (5, 2): ((1, 1), "db7ac3f55fdf2326"),
    (5, 3): ((4, 1, 0), "ae6c300baf655ddc"),
    (5, 4): ((1, 1, 0, 0), "ee8be7731dd96656"),
    (5, 5): ((0, 2, 0, 0, 0), "65a9059a11547e6c"),
    (7, 2): ((2, 1), "f3e22498be721a5a"),
    (7, 3): ((1, 3, 0), "32eac510c5980074"),
    (7, 4): ((5, 1, 0, 0), "418db6882c8812b1"),
    (11, 2): ((4, 1), "6a55f2a6c36df89a"),
    (11, 3): ((0, 1, 0), "0e26caa3f788ef86"),
    (13, 2): ((2, 1), "9a915b7e7da96e90"),
    (13, 3): ((2, 1, 0), "827b3f61863eaeee"),
    (31, 2): ((4, 1), "df9752b8cbc5f9dd"),
    (101, 2): ((1, 1), "cf44f6682622907e"),
}


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
    with pytest.raises(InvalidParameters, match="^inverse of zero$"):
        F.zero.inverse()
    with pytest.raises(InvalidParameters, match="^negative power of zero$"):
        F.zero ** (-2)


def test_field_mismatch():
    with pytest.raises(InvalidParameters, match="^operands belong to different fields$"):
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


def _frobenius_sum(x):
    """Oracle: x + x^p + ... + x^(p^(k-1)), by the field's own arithmetic."""
    F = x.field
    acc, t = x, x
    for _ in range(F.k - 1):
        t = t**F.p
        acc = acc + t
    return acc


def test_trace_equals_frobenius_sum():
    # q = 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 256, 243, 2197
    fields = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (5, 3))
    for p, k in fields + ((2, 8), (3, 5), (13, 3)):
        F = get_field(p, k)
        for x in [F.zero, *F.units()]:
            acc = _frobenius_sum(x)
            assert all(c == 0 for c in acc.coeffs[1:])
            assert F.trace(x) == acc.coeffs[0], (F.q, x)


def test_trace_table_takes_no_field_power(monkeypatch):
    """The trace is F_p-linear and Newton's identities give the k basis
    traces from the modulus, so a table of every trace multiplies no field
    elements once the field is built. Every product in F_p[t]/(f), through
    Field._mul_raw or not, is a call of ff._pmulmod."""
    F = Field(2, 12)  # fresh, not the shared get_field instance
    calls = []
    pmulmod = ff._pmulmod

    def counted(*args):
        calls.append(args)
        return pmulmod(*args)

    monkeypatch.setattr(ff, "_pmulmod", counted)
    table = {x.coeffs: F.trace(x) for x in [F.zero, *F.units()]}
    assert len(table) == 4096
    assert calls == []
    assert sum(table.values()) == 2048  # Tr is onto F_2, so half the elements have trace 1


def test_is_prime_matches_a_sieve():
    n_max = 10**5
    sieve = [False, False] + [True] * (n_max - 1)
    for d in range(2, int(n_max**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [n for n in range(-30, n_max + 1) if is_prime(n)] == [n for n in range(n_max + 1) if sieve[n]]


@pytest.mark.parametrize("p, k", list(FIELD_PINS), ids=[f"{p}^{k}" for p, k in FIELD_PINS])
def test_default_modulus_is_the_first_irreducible(p, k):
    """Rabin's test is the oracle; the lower coefficients are the base-p
    digits of an integer code, least significant first."""
    for code in range(p**k):
        f = [code // p**i % p for i in range(k)] + [1]
        if is_irreducible(f, p):
            break
    assert default_modulus(p, k) == tuple(f)


@pytest.mark.parametrize("p, k", list(FIELD_PINS), ids=[f"{p}^{k}" for p, k in FIELD_PINS])
def test_field_tables_match_pins(p, k):
    F = Field(p, k)  # fresh, so the large tables are not kept
    generator, digest = FIELD_PINS[p, k]
    assert F.generator.coeffs == generator
    assert hashlib.sha256(repr(F._pow_table).encode()).hexdigest()[:16] == digest
    assert len(F.dlog_table) == F.q - 1
    for i in range(k):
        x = F.elt([int(i == j) for j in range(k)])  # alpha^i
        acc = _frobenius_sum(x)
        assert F._basis_traces[i] == F.trace(x) == acc.coeffs[0]
        assert all(c == 0 for c in acc.coeffs[1:])


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
    with pytest.raises(InvalidParameters, match="^discrete log of zero$"):
        get_field(5).dlog(get_field(5).zero)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        Field(4)
    with pytest.raises(InvalidParameters):
        Field(5, 0)
    with pytest.raises(InvalidParameters):
        get_field(5).elt([1, 2])



def test_a_table_too_large_is_refused_before_the_prime_is_tested(monkeypatch):
    # is_prime's trial division at p near 10^18, the modulus search and the
    # table itself would each run for minutes; a huge k costs no power
    def untested(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(ff, "is_prime", untested)
    cases = ((10**18 + 3, 1, "1000000000000000003"), (2, 30, "2^30"), (3, 40, "3^40"), (2, 10**9, "2^1000000000"))
    for p, k, q in cases:
        want = rf"^q = {re.escape(q)} needs about [\d.e+]+ GiB for a discrete-log table of q - 1 entries beside "
        with pytest.raises(InvalidParameters, match=want):
            Field(p, k)


def test_a_need_below_one_mib_is_not_checked(monkeypatch):
    import resource

    monkeypatch.setattr(resource, "getrlimit", lambda which: (0, 0))  # nothing fits
    ff.check_fits("q = 7", ff._UNCHECKED_BYTES - 1, "a table")
    with pytest.raises(InvalidParameters, match="^q = 7 needs about 0.000977 GiB for a table beside "):
        ff.check_fits("q = 7", ff._UNCHECKED_BYTES, "a table")
