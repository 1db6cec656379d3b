import cmath
import math
import random
import struct
import sys
from functools import lru_cache

import pytest

from ikdeg import (
    CycInt,
    change_conductor,
    cyclotomic_poly,
    embed_all,
    embed_complex,
    galois_apply,
    get_field,
    lower_conductor,
    scaled_ik_at_p,
)
from ikdeg import kernels
from ikdeg.errors import InvalidParameters
from ikdeg.cyclo import _complex_roots, poly_rem
from ikdeg.ff import is_prime
from oracles import poly_divmod, poly_eval


def test_cyclotomic_poly_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)


@lru_cache(maxsize=None)
def _divided_cyclotomic(m):
    """Oracle: x^m - 1 divided exactly by Phi_d for every proper divisor d."""
    num = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, _divided_cyclotomic(d))
            assert rem == ()
    return num


def test_cyclotomic_poly_matches_division():
    ms = list(range(1, 301)) + [p * (p - 1) for p in range(2, 32) if is_prime(p)]
    for m in ms:
        assert cyclotomic_poly(m) == _divided_cyclotomic(m), m


def test_zeta_is_root_of_cyclotomic_poly():
    for m in range(1, 201):
        assert poly_eval(cyclotomic_poly(m), CycInt.zeta(m)).is_zero()


def test_arithmetic_examples():
    z3 = CycInt.zeta(3)
    assert z3 + galois_apply(z3, 2) == CycInt.from_int(3, -1)
    z4 = CycInt.zeta(4)
    assert z4 * z4 == CycInt.from_int(4, -1)
    z5 = CycInt.zeta(5)
    one = CycInt.from_int(5, 1)
    prod = (one + z5) * (one + galois_apply(z5, 4))
    # 2 + z + z^4 reduces to 1 - z^2 - z^3
    assert prod.canonical() == (1, 0, -1, -1, 0)


def test_conductor_mismatch():
    with pytest.raises(InvalidParameters, match="^conductors 3 and 4 differ$"):
        CycInt.zeta(3) + CycInt.zeta(4)
    with pytest.raises(InvalidParameters, match="^4 does not divide 6$"):
        change_conductor(CycInt.zeta(4), 6)


def test_canonicalization_idempotent():
    z = CycInt(12, [3, -1, 4, 1, -5, 9, 2, 6, 5, -3, 5, 8])
    assert z.reduced().reduced() == z.reduced()
    assert z.reduced().canonical() == z.canonical()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 9, 12, 31, 60])
def test_canonical_is_the_remainder_mod_phi(m):
    # prime conductors subtract the top coefficient; the rest divide by Phi_m
    rng = random.Random(m)
    for _ in range(20):
        c = [rng.randint(-(10**30), 10**30) for _ in range(m)]
        rem = poly_divmod(c, cyclotomic_poly(m))[1]
        assert CycInt(m, c).canonical() == rem + (0,) * (m - len(rem))


def test_galois_examples():
    z = CycInt(7, [1, 2, 3, 4, 5, 6, 0])
    assert galois_apply(z, 1) == z
    assert galois_apply(CycInt.zeta(3), 2).canonical() == (-1, -1, 0)
    z5 = CycInt.zeta(5) + galois_apply(CycInt.zeta(5), 4)
    assert galois_apply(z5, 2) == CycInt.zeta(5, 2) + CycInt.zeta(5, 3)


def test_galois_composition():
    rng = random.Random(7)
    for m in (5, 8, 12, 15):
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        z = CycInt(m, [rng.randrange(-5, 6) for _ in range(m)])
        for a in units:
            for b in units:
                assert galois_apply(galois_apply(z, a), b) == galois_apply(z, (a * b) % m)


def test_galois_noncoprime():
    with pytest.raises(InvalidParameters, match=r"^gcd\(2, 6\) != 1$"):
        galois_apply(CycInt.zeta(6), 2)


def test_embed_examples():
    v, err = embed_complex(CycInt.from_int(9, 5), 2)
    assert abs(v - 5) <= max(err, 1e-12)
    v, _ = embed_complex(CycInt.zeta(4), 1)
    assert abs(v - 1j) < 1e-12
    v, _ = embed_complex(CycInt.zeta(3) - CycInt.zeta(3, 2), 1)
    assert abs(v - 1j * math.sqrt(3)) < 1e-12
    with pytest.raises(InvalidParameters, match=r"^gcd\(3, 6\) != 1$"):
        embed_complex(CycInt.zeta(6), 3)


def test_embed_complex_matches_per_coefficient_exp():
    # the table of roots gives the same floats as one exp per coefficient
    rng = random.Random(5)
    for m in (3, 5, 7, 12, 31, 62, 930):
        for _ in range(4):
            z = CycInt(m, [rng.choice((0, 0, rng.randrange(-10**9, 10**9))) for _ in range(m)])
            for j in range(1, m):
                if math.gcd(j, m) != 1:
                    continue
                want = 0j
                for i, c in enumerate(z.coeffs):
                    if c:
                        want += c * cmath.exp(2j * cmath.pi * ((j * i) % m) / m)
                assert embed_complex(z, j)[0] == want, (m, j)


def _bits(v: complex) -> bytes:
    # bit for bit: tells -0.0 from 0.0, which == does not
    return struct.pack("<dd", v.real, v.imag)


@pytest.mark.parametrize("ms", [range(1, 201), (930, 10_100, 44_310, 160_400)], ids=["m<=200", "conductors"])
def test_complex_roots_are_cmath_exp_bit_for_bit(ms):
    # cos and sin in place of cmath.exp: the argument 2j*pi*e/m has real
    # part 0, so exp takes exactly these; the table is built uncached here
    for m in ms:
        roots = _complex_roots.__wrapped__(m)
        assert len(roots) == m
        for e, root in enumerate(roots):
            assert _bits(root) == _bits(cmath.exp(2j * cmath.pi * e / m)), (m, e)


def _assert_embed_all_is_embed_complex(z):
    # both equal, bit for bit, the plain ascending loop over nonzero terms
    m = z.m
    values, err = embed_all(z)
    assert list(values) == [j for j in range(m) if math.gcd(j, m) == 1]
    assert err == 8 * sum(abs(c) for c in z.coeffs) * sys.float_info.epsilon
    for j, v in values.items():
        want = 0j
        for i, c in enumerate(z.coeffs):
            if c:
                want += c * cmath.exp(2j * cmath.pi * ((j * i) % m) / m)
        one, one_err = embed_complex(z, j)
        assert _bits(v) == _bits(one) == _bits(want), (m, j)
        assert one_err == err


def test_embed_all_is_embed_complex_bit_for_bit_on_scaled_sums():
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        F = get_field(p)
        for n in range(1, 5):
            for b in range(1, p):
                _assert_embed_all_is_embed_complex(scaled_ik_at_p(F, n, b))
                checked += 1
    assert checked == 4 * (1 + 2 + 4 + 6 + 10 + 12)


def test_embed_all_is_embed_complex_bit_for_bit_on_random_values():
    rng = random.Random(7)
    for m in (3, 5, 7, 31):
        for _ in range(25):
            z = CycInt(m, [rng.choice((0, 0, rng.randrange(-10**12, 10**12))) for _ in range(m)])
            _assert_embed_all_is_embed_complex(z)
        _assert_embed_all_is_embed_complex(CycInt.zero(m))
        # cancelling terms: a partial sum returns to zero and must not turn -0.0
        _assert_embed_all_is_embed_complex(CycInt(m, [1, -1] + [0] * (m - 2)))


def test_wide_conductor_rows_are_not_kept():
    # a row is built per j and dropped, so one embedding at
    # p(q-1) = 131070 (q = 2^16) costs O(m), not phi(m) * m
    m = 2 * 3 * 5 * 17 * 257
    rng = random.Random(11)
    z = CycInt(m, [rng.randrange(-5, 6) if rng.random() < 0.001 else 0 for _ in range(m)])
    for j in (1, 7, m - 1):
        v, _ = embed_complex(z, j)
        want = 0j
        for i, c in enumerate(z.coeffs):
            if c:
                want += c * cmath.exp(2j * cmath.pi * ((j * i) % m) / m)
        assert _bits(v) == _bits(want), j
    _assert_embed_all_is_embed_complex(CycInt(514, [rng.randrange(-9, 10) for _ in range(514)]))


def test_embedding_norm_product_is_integer():
    rng = random.Random(11)
    for m in (3, 4, 5, 7, 12):
        z = CycInt(m, [rng.randrange(-3, 4) for _ in range(m)])
        prod = 1 + 0j
        for j in range(1, m + 1):
            if math.gcd(j, m) == 1:
                prod *= embed_complex(z, j)[0]
        assert abs(prod.imag) < 1e-6
        assert abs(prod.real - round(prod.real)) < 1e-6


def test_change_then_lower_roundtrip():
    rng = random.Random(3)
    for m, big in ((5, 15), (4, 12), (7, 21), (6, 30)):
        z = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
        up = change_conductor(z, big)
        assert lower_conductor(up, m) == z


def test_lower_conductor_rejects_outsiders():
    with pytest.raises(InvalidParameters, match=r"^element is not in Z\[zeta_5\]$"):
        lower_conductor(CycInt.zeta(15), 5)
    with pytest.raises(InvalidParameters, match=r"^conductor split 4\*2 is not coprime$"):
        lower_conductor(CycInt.zeta(8), 4)  # split 4*2 not coprime
    with pytest.raises(InvalidParameters, match="^4 does not divide conductor 15$"):
        lower_conductor(CycInt.zeta(15), 4)  # 4 does not divide 15


def test_pow_and_shift():
    z = CycInt.zeta(7)
    assert z**7 == CycInt.from_int(7, 1)
    w = CycInt(7, [1, -2, 0, 3, 0, 0, 1])
    assert w.shifted(3) == w * CycInt.zeta(7, 3)
    assert (w**3) == w * w * w


def test_poly_rem_of_x6_minus_1_by_x_minus_1():
    f = (-1, 0, 0, 0, 0, 0, 1)  # x^6 - 1
    assert poly_rem(f, (-1, 1)) == [0]
    assert poly_divmod(f, (-1, 1)) == ((1, 1, 1, 1, 1, 1), ())


@pytest.mark.parametrize("m", [4, 6, 9, 12, 15, 930])
def test_poly_rem_matches_exact_division(m):
    phi = cyclotomic_poly(m)
    rng = random.Random(m)
    for _ in range(5):
        c = [rng.randint(-(10**20), 10**20) for _ in range(2 * m)]
        rem = poly_divmod(c, phi)[1]
        assert poly_rem(c, phi) == list(rem) + [0] * (len(phi) - 1 - len(rem)), m


def test_poly_rem_pads_a_short_input():
    # Phi_15 has degree 8: a shorter input is its own remainder, padded out
    assert poly_rem([3, -1, 4], cyclotomic_poly(15)) == [3, -1, 4, 0, 0, 0, 0, 0]
    assert poly_rem([], cyclotomic_poly(12)) == [0, 0, 0, 0]


def test_serialization_roundtrip():
    z = CycInt(6, [2, 5, -1, 0, 0, 7])
    d = z.to_dict()
    assert d["m"] == 6 and len(d["coeffs"]) == 6
    assert CycInt(d["m"], d["coeffs"]) == z


def test_euler_phi():
    # deg Phi_m = phi(m)
    assert [len(cyclotomic_poly(m)) - 1 for m in (1, 2, 6, 12, 30)] == [1, 1, 2, 4, 8]


def test_pow_costs_log_plus_popcount_minus_one_products(monkeypatch):
    calls = []
    convolve = kernels.cyclic_convolve

    def counted(a, b):
        calls.append(len(a))
        return convolve(a, b)

    monkeypatch.setattr(kernels, "cyclic_convolve", counted)
    z = CycInt.zeta(7)
    for e, products in ((0, 0), (1, 0), (7, 4)):
        calls.clear()
        assert z**e == (CycInt.from_int(7, 1) if e % 7 == 0 else z)
        assert len(calls) == products, e
    calls.clear()
    w = (z + 2) ** 13  # 13 = 0b1101: three squarings, two products
    assert len(calls) == 5
    expected = CycInt.from_int(7, 1)
    for _ in range(13):
        expected = expected * (z + 2)
    assert w == expected
