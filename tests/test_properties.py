"""Property-based tests (hypothesis, derandomized for reproducible runs)."""

import math

from hypothesis import given, settings, strategies as st

from ikdeg import (
    CycInt,
    PadicElt,
    change_conductor,
    embed_complex,
    galois_apply,
    gauss_sum,
    get_field,
    kernels,
    lower_conductor,
    mult_char,
    teichmuller,
)
from ikdeg.charsum import _relabel

settings.register_profile("fixed", settings(derandomize=True, max_examples=60, deadline=None))
settings.load_profile("fixed")

SMALL_PRIMES = (3, 5, 7, 11, 13)

coeff = st.integers(min_value=-10**6, max_value=10**6)


@given(st.lists(coeff, min_size=1, max_size=40), st.lists(coeff, min_size=1, max_size=40))
def test_linear_convolution_matches_schoolbook(a, b):
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    assert kernels.linear_convolve(a, b) == want


@given(st.integers(min_value=1, max_value=24), st.data())
def test_cyclic_convolution_commutative_and_matches_pure(m, data):
    a = data.draw(st.lists(coeff, min_size=m, max_size=m))
    b = data.draw(st.lists(coeff, min_size=m, max_size=m))
    ab = kernels.cyclic_convolve(a, b)
    assert ab == kernels.cyclic_convolve(b, a)
    want = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[(i + j) % m] += x * y
    assert ab == want


small_coeff = st.integers(min_value=-50, max_value=50)


@given(st.integers(min_value=1, max_value=20), st.data())
def test_cycint_ring_axioms(m, data):
    vec = st.lists(small_coeff, min_size=m, max_size=m)
    x = CycInt(m, data.draw(vec))
    y = CycInt(m, data.draw(vec))
    z = CycInt(m, data.draw(vec))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == CycInt.zero(m)


@given(st.sampled_from((5, 7, 12, 15)), st.data())
def test_galois_is_ring_automorphism(m, data):
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    a = data.draw(st.sampled_from(units))
    vec = st.lists(small_coeff, min_size=m, max_size=m)
    x = CycInt(m, data.draw(vec))
    y = CycInt(m, data.draw(vec))
    assert galois_apply(x + y, a) == galois_apply(x, a) + galois_apply(y, a)
    assert galois_apply(x * y, a) == galois_apply(x, a) * galois_apply(y, a)


# (p, q) for F_q; rho_s acts on the group ring at conductor p(q-1)
RHO_FIELDS = ((2, 4), (3, 3), (3, 9), (5, 5), (7, 7), (2, 16), (13, 13), (3, 27))


@given(st.sampled_from(RHO_FIELDS), st.data())
def test_relabel_is_multiplicative_and_composes(field, data):
    p, q = field
    q1 = q - 1
    m = p * q1
    vec = st.lists(small_coeff, min_size=m, max_size=m)
    x = CycInt(m, data.draw(vec))
    y = CycInt(m, data.draw(vec))
    shared = [s for s in range(q1) if math.gcd(s, q1) > 1]  # collide exponents; 0 is one
    s = data.draw(st.integers(-3 * q1, 3 * q1) | st.sampled_from(shared))
    t = data.draw(st.integers(-3 * q1, 3 * q1) | st.sampled_from(shared))
    # exact group-ring identities, coefficient for coefficient
    assert _relabel(x * y, p, s).coeffs == (_relabel(x, p, s) * _relabel(y, p, s)).coeffs
    assert _relabel(_relabel(x, p, t), p, s).coeffs == _relabel(x, p, s * t).coeffs
    assert _relabel(x, p, 1).coeffs == x.coeffs
    # zeta_p = zeta_m^(q-1) is fixed, zeta_{q-1} = zeta_m^p goes to its s-th power
    assert _relabel(CycInt.monomial(m, q1), p, s) == CycInt.monomial(m, q1)
    assert _relabel(CycInt.monomial(m, p), p, s) == CycInt.monomial(m, p * s)


@given(st.sampled_from(((3, 15), (5, 15), (4, 20), (7, 21))), st.data())
def test_conductor_roundtrip(pair, data):
    m, big = pair
    x = CycInt(m, data.draw(st.lists(small_coeff, min_size=m, max_size=m)))
    assert lower_conductor(change_conductor(x, big), m) == x


@given(st.sampled_from((3, 4, 5, 7, 9, 12)), st.data())
def test_embedding_is_ring_map(m, data):
    vec = st.lists(st.integers(min_value=-20, max_value=20), min_size=m, max_size=m)
    x = CycInt(m, data.draw(vec))
    y = CycInt(m, data.draw(vec))
    ex, _ = embed_complex(x, 1)
    ey, _ = embed_complex(y, 1)
    exy, err = embed_complex(x * y, 1)
    assert abs(exy - ex * ey) < max(1e-6, err * 10)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_field_arithmetic_properties(p, data):
    F = get_field(p)
    a = F.elt(data.draw(st.integers(min_value=0, max_value=p - 1)))
    b = F.elt(data.draw(st.integers(min_value=0, max_value=p - 1)))
    assert a * b == b * a
    assert (a + b) - b == a
    if not a.is_zero():
        assert a * a.inverse() == F.one
        assert F.pow_of_generator(F.dlog(a)) == a


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_mult_char_homomorphism(p, data):
    F = get_field(p)
    m = data.draw(st.integers(min_value=0, max_value=p - 2))
    x = F.elt(data.draw(st.integers(min_value=1, max_value=p - 1)))
    y = F.elt(data.draw(st.integers(min_value=1, max_value=p - 1)))
    assert mult_char(F, m, x * y) == mult_char(F, m, x) * mult_char(F, m, y)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_gauss_sum_norm_property(p, data):
    F = get_field(p)
    m = data.draw(st.integers(min_value=1, max_value=p - 2))
    q1 = p - 1
    dneg1 = F.dlog(F.elt(-1))
    lhs = gauss_sum(F, m) * gauss_sum(F, q1 - m)
    chi_neg1 = CycInt.monomial(p * q1, p * ((-m * dneg1) % q1))
    assert lhs == chi_neg1 * CycInt.from_int(p * q1, p)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_teichmuller_multiplicative(p, data):
    prec = 2 * (p - 1)
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    b = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert teichmuller(p, a, prec) * teichmuller(p, b, prec) == teichmuller(
        p, (a * b) % p, prec
    )


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_padic_ring_axioms(p, data):
    prec = 3 * (p - 1)
    digit = st.integers(min_value=-p * p, max_value=p * p)
    vec = st.lists(digit, min_size=prec, max_size=prec)
    x = PadicElt(p, prec, data.draw(vec))
    y = PadicElt(p, prec, data.draw(vec))
    z = PadicElt(p, prec, data.draw(vec))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x - x).pi_valuation is None


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_padic_valuation_additive_on_monomials(p, data):
    prec = 4 * (p - 1)
    i = data.draw(st.integers(min_value=0, max_value=prec // 2 - 1))
    j = data.draw(st.integers(min_value=0, max_value=prec // 2 - 1))
    c = data.draw(st.integers(min_value=1, max_value=p - 1))
    d = data.draw(st.integers(min_value=1, max_value=p - 1))
    x = PadicElt.monomial(p, prec, i, c)
    y = PadicElt.monomial(p, prec, j, d)
    assert (x * y).pi_valuation == i + j
