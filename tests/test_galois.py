import random
from math import gcd

import pytest

from ikdeg import (
    CycInt,
    degree_of,
    get_field,
    ik_degree,
    inverted_kloosterman_brute,
    min_poly,
    scaled_ik_at_p,
)
from ikdeg.cyclo import galois_apply
from ikdeg.errors import InvalidParameters
from ikdeg.ff import is_prime
from ikdeg.galois import conjugate_set, equivariance_check
from ikdeg.suites import DEGREE_N_MAX, DEGREE_P_MAX, EXTENSION_FIELDS, EXTENSION_NS
from oracles import poly_eval


def test_conjugate_set_counts():
    z = CycInt.monomial(7, 1)
    conjugates = conjugate_set(z)
    assert len(conjugates) == 6
    assert conjugates[1] == CycInt.monomial(7, 2)  # sigma_2
    assert degree_of(z) == 6
    assert (7 - 1) // degree_of(z) == 1  # stabilizer order
    rational = CycInt.from_int(7, 5)
    assert degree_of(rational) == 1
    # z + z^-1 generates the real subfield: degree (p-1)/2
    half = CycInt.monomial(11, 1) + CycInt.monomial(11, 10)
    assert degree_of(half) == 5


def test_conjugate_set_requires_prime_conductor():
    with pytest.raises(InvalidParameters, match="^conductor 6 is not prime$"):
        conjugate_set(CycInt.monomial(6, 1))
    with pytest.raises(InvalidParameters, match="^conductor 12 is not prime$"):
        degree_of(CycInt.monomial(12, 1))


def _orbit_size(z):
    """Oracle: the number of distinct reduced conjugates."""
    return len({c.canonical() for c in conjugate_set(z)})


def _stabilised_value(p, h, rng):
    """A random representative, not canonical, whose coefficients are
    constant on the cosets of the subgroup of order h in F_p^*."""
    g = get_field(p).generator.coeffs[0]
    coset = {pow(g, j, p): j % ((p - 1) // h) for j in range(p - 1)}
    values = [rng.randint(-20, 20) for _ in range((p - 1) // h)]
    shift = rng.randint(-20, 20)  # adds shift * (1 + zeta + ... + zeta^(p-1)) = 0
    return CycInt(p, [rng.randint(-20, 20) + shift] + [values[coset[e]] + shift for e in range(1, p)])


def test_degree_of_matches_orbit_oracle():
    values = []
    for p in range(2, DEGREE_P_MAX + 1):
        if not is_prime(p):
            continue
        F = get_field(p)
        values += [scaled_ik_at_p(F, n, b) for n in range(1, DEGREE_N_MAX + 1) for b in F.units()]
        values += [CycInt.from_int(p, c) for c in (0, 1, -7)]  # rational values
        values += [CycInt(p, [5] + [2] * (p - 1)), CycInt(p, [3] * p)]  # 3 and 0, not canonical
        rng = random.Random(p)
        for h in (h for h in range(1, p) if (p - 1) % h == 0):
            for _ in range(3):
                z = _stabilised_value(p, h, rng)
                # one coefficient off the pattern: only sigma_1 still fixes it
                values += [z, z + CycInt.monomial(p, rng.randrange(1, p))]
    for p, k in EXTENSION_FIELDS:
        F = get_field(p, k)
        values += [scaled_ik_at_p(F, n, b) for n in EXTENSION_NS for b in F.units()]
    # at large p most a have c_a = c_1, so the test of each a must stop at
    # its first mismatch and still count every a that fixes z
    for p in (101, 211):
        F = get_field(p)
        values += [scaled_ik_at_p(F, n, b) for n in (1, 2) for b in (1, 2, 5, p - 1)]
    rng = random.Random(211)
    for h in (h for h in range(1, 211) if 210 % h == 0):
        z = _stabilised_value(211, h, rng)
        values += [z, z + CycInt.monomial(211, rng.randrange(1, 211))]
    degrees = set()
    for z in values:
        d = degree_of(z)
        assert d == _orbit_size(z), z
        degrees.add((z.m, d))
    assert (31, 1) in degrees and (31, 15) in degrees and (31, 30) in degrees
    assert {(101, 50), (101, 100), (211, 70), (211, 105)} <= degrees
    assert {(211, 210 // h) for h in range(1, 211) if 210 % h == 0} <= degrees
    for m in (1, 4, 6, 9, 12, 25):
        with pytest.raises(InvalidParameters, match=f"^conductor {m} is not prime$"):
            degree_of(CycInt.monomial(m, 1))


def test_min_poly_examples():
    # minimal polynomial of zeta_5 is the 5th cyclotomic polynomial
    assert min_poly(CycInt.monomial(5, 1)) == (1, 1, 1, 1, 1)
    # zeta_3: x^2 + x + 1
    assert min_poly(CycInt.monomial(3, 1)) == (1, 1, 1)
    # rational integer: x - 4
    assert min_poly(CycInt.from_int(7, 4)) == (-4, 1)
    # golden-ratio relative: zeta_5 + zeta_5^4 satisfies x^2 + x - 1
    assert min_poly(CycInt.monomial(5, 1) + CycInt.monomial(5, 4)) == (-1, 1, 1)


def test_min_poly_vanishes_and_is_minimal():
    for z in (
        CycInt(7, [1, 2, 0, 0, 0, 3, 0]),
        CycInt(11, [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
        CycInt(13, [5, -1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ):
        f = min_poly(z)
        assert poly_eval(f, z).is_zero()
        assert len(f) - 1 == degree_of(z)
        assert f[-1] == 1  # monic


def _orbit_product(z):
    """Oracle: prod (x - c) over the distinct conjugates c of z, expanded in Z[zeta_p]."""
    p = z.m
    orbit = {}
    for c in conjugate_set(z):
        orbit.setdefault(c.canonical(), c)
    coeffs = [CycInt.from_int(p, 1)]
    for c in orbit.values():
        nxt = [CycInt(p) for _ in range(len(coeffs) + 1)]
        for i, a in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - c * a
        coeffs = nxt
    out = []
    for a in coeffs:
        c = a.canonical()
        assert not any(c[1:]), a  # a rational integer
        out.append(c[0])
    return tuple(out)


def test_min_poly_matches_orbit_product():
    values = [CycInt.from_int(p, c) for p, c in ((2, 3), (3, 0), (7, -4), (31, 10**12))]
    values += [CycInt.monomial(p, 1) for p in (2, 3, 5, 13, 31)]
    for p in range(2, DEGREE_P_MAX + 1):
        if not is_prime(p):
            continue
        F = get_field(p)
        for n in range(1, DEGREE_N_MAX + 1):
            for b in sorted({1, p - 1}):
                # scale q(q-1), reduced; scale 1, as the counting route returns it
                values.append(scaled_ik_at_p(F, n, b))
                values.append(inverted_kloosterman_brute(F, n, b))
    for z in values:
        assert min_poly(z) == _orbit_product(z), z


def test_ik_degree_anchors():
    assert ik_degree(get_field(5), 1, 1) == 2
    assert ik_degree(get_field(7), 1, 1) == 3
    for b in get_field(5).units():
        assert ik_degree(get_field(5), 3, b) == 1  # 4 | n+1: rational


def test_ik_degree_matches_gcd_formula_grid():
    for p in (5, 7, 11):
        F = get_field(p)
        for n in (1, 2, 3, 4):
            want = (p - 1) // gcd(n + 1, p - 1)
            for b in F.units():
                assert ik_degree(F, n, b) == want


def test_min_poly_of_scaled_ik():
    # frozen oracle: 20 * IK_1(5, 1) has minimal polynomial x^2 + 20x - 400
    z = scaled_ik_at_p(get_field(5), 1, 1)
    assert min_poly(z) == (-400, 20, 1)


def test_equivariance_prime_and_extension():
    F7 = get_field(7)
    for a in range(1, 7):
        for b in F7.units():
            assert equivariance_check(F7, 1, b, a)
    F9 = get_field(3, 2)
    for a in (1, 2):
        for b in F9.units():
            assert equivariance_check(F9, 2, b, a)


def test_equivariance_consistency_with_galois_apply():
    F = get_field(11)
    z = scaled_ik_at_p(F, 2, 1)
    a = 2
    b2 = F.elt(1) * F.elt(a) ** (-3)
    assert galois_apply(z, a) == scaled_ik_at_p(F, 2, b2)


def test_equivariance_guards():
    F = get_field(5)
    with pytest.raises(InvalidParameters, match="^parameter b must be nonzero$"):
        equivariance_check(F, 1, F.zero, 2)
    with pytest.raises(InvalidParameters, match="^Galois index a must be a unit of F_p$"):
        equivariance_check(F, 1, F.one, 5)
