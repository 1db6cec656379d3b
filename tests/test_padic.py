import random
from fractions import Fraction

import pytest

from ikdeg import (
    CycInt,
    PadicElt,
    case_analysis,
    default_precision,
    embed_cyclotomic,
    get_field,
    ik_formula_scaled,
    run_case_analysis,
    scaled_ik_at_p,
    stickelberger_check,
    teichmuller,
    valuation_formulas,
    zeta_p_padic,
)
from ikdeg.errors import (
    DegenerateIndex,
    InvalidParameters,
    PrecisionExhausted,
    PrecisionMismatch,
    PrecisionTooLow,
    UnsupportedConductor,
    ZeroParameter,
)


def test_carry_rule():
    # p = -pi^(p-1): the constant p normalizes to -1 at position p-1
    x = PadicElt.from_int(5, 12, 5)
    assert x.digits[:6] == (0, 0, 0, 0, 4, 0)  # -1 = p-1 with carry -1 upward
    # check against (-pi^4) directly: 5 + pi^4 must vanish
    assert (x + PadicElt.monomial(5, 12, 4)).pi_valuation is None


def test_arithmetic_and_valuation():
    p, prec = 7, 20
    a = PadicElt.monomial(p, prec, 3, 2)
    b = PadicElt.monomial(p, prec, 5, 4)
    assert (a * b).pi_valuation == 8
    assert (a + b).pi_valuation == 3
    assert (a - a).pi_valuation is None
    assert (a**3).pi_valuation == 9
    assert PadicElt.zero(p, prec).pi_valuation is None


def test_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        PadicElt.zero(5, 10) + PadicElt.zero(5, 11)
    with pytest.raises(PrecisionMismatch):
        PadicElt.zero(5, 10) * PadicElt.zero(7, 10)


def test_teichmuller():
    # frozen oracle: teich(5, 2) at prec 8 is congruent to 7 mod 25
    t = teichmuller(5, 2, 8)
    assert t.digits == (2, 0, 0, 0, 4, 0, 0, 0)
    assert t ** 4 == PadicElt.one(5, 8)
    # multiplicativity: teich(a) teich(b) == teich(ab)
    for p in (5, 7, 11):
        prec = default_precision(p)
        for a in range(1, p):
            for b in range(1, p):
                assert teichmuller(p, a, prec) * teichmuller(p, b, prec) == teichmuller(
                    p, (a * b) % p, prec
                )
    with pytest.raises(ZeroParameter):
        teichmuller(5, 0, 8)


def test_zeta_p_padic():
    for p in (3, 5, 7, 11):
        prec = default_precision(p)
        z = zeta_p_padic(p, prec)
        assert z**p == PadicElt.one(p, prec)
        assert z != PadicElt.one(p, prec)
        d = z - PadicElt.one(p, prec)
        assert d.pi_valuation == 1 and d.digits[1] == 1
    with pytest.raises(PrecisionTooLow):
        zeta_p_padic(7, 5)
    with pytest.raises(InvalidParameters):
        zeta_p_padic(6, 40)


def _digit_by_digit_zeta(p, prec):
    """Oracle: lift zeta_p one pi-digit per power; adding c*pi^k moves
    zeta^p - 1 at level pi^(p-1+k) by the unit coefficient -c."""
    one = PadicElt.one(p, prec)
    z = one + PadicElt.monomial(p, prec, 1)
    while True:
        r = z**p - one
        v = r.pi_valuation
        if v is None:
            return z
        z = z + PadicElt.monomial(p, prec, v - (p - 1), r.digits[v])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_zeta_newton_lift_matches_digit_by_digit(p):
    for prec in (2 * (p - 1), default_precision(p)):
        z = zeta_p_padic(p, prec)
        assert z**p == PadicElt.one(p, prec)
        # only the digits below prec-p+1 are pinned by z^p = 1 mod pi^prec
        exact = prec - p + 1
        assert z.digits[:exact] == _digit_by_digit_zeta(p, prec).digits[:exact]


def test_embed_cyclotomic_is_ring_map():
    p, prec = 7, default_precision(7)
    m = p * (p - 1)
    x = CycInt(m, [1 if i % 5 == 0 else 0 for i in range(m)])
    y = CycInt.zeta(m, 11) - CycInt.from_int(m, 3)
    ex, ey = embed_cyclotomic(x, p, prec), embed_cyclotomic(y, p, prec)
    assert embed_cyclotomic(x + y, p, prec) == ex + ey
    assert embed_cyclotomic(x * y, p, prec) == ex * ey
    # zeta_p factor goes to the pinned root of unity
    assert embed_cyclotomic(CycInt.zeta(p), p, prec) == zeta_p_padic(p, prec)
    with pytest.raises(UnsupportedConductor):
        embed_cyclotomic(CycInt.zeta(4), 7, prec)


def _per_term_embedding(z, p, prec):
    """Oracle: one PadicElt per nonzero coefficient, c * zeta_p^alpha * T^beta,
    folded with PadicElt addition."""
    big_m = p * (p - 1)
    step = big_m // z.m
    g = get_field(p).generator.coeffs[0] if p > 2 else 1
    zeta, t = zeta_p_padic(p, prec), teichmuller(p, g, prec)
    a_mul = pow(p - 1, -1, p)
    b_mul = pow(p, -1, p - 1) if p > 2 else 0
    out = PadicElt.zero(p, prec)
    for e, c in enumerate(z.coeffs):
        if c:
            exp = e * step
            term = zeta ** ((exp * a_mul) % p) * t ** ((exp * b_mul) % (p - 1))
            out = out + term * c
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_embed_matches_per_term_oracle(p):
    rng = random.Random(p)
    for prec in (2 * (p - 1), default_precision(p)):
        for m in (1, p, p - 1, p * (p - 1)):
            for bits in (3, 64, 200):
                coeffs = [
                    rng.randint(-(2**bits), 2**bits) if rng.random() < 0.6 else 0
                    for _ in range(m)
                ]
                z = CycInt(m, coeffs)
                assert embed_cyclotomic(z, p, prec) == _per_term_embedding(z, p, prec)
        assert embed_cyclotomic(CycInt.zero(p), p, prec) == PadicElt.zero(p, prec)


def test_embed_at_conductor_p_equals_embed_at_p_times_q1():
    # The two representatives differ by a multiple of Phi_p(zeta_p), and the
    # truncated root of unity z has z^p = 1 mod pi^prec, so Phi_p(z) = 0 only
    # mod pi^(prec-1): the embeddings agree in every digit below the top one.
    for p, n, b in ((5, 1, 2), (7, 1, 3), (7, 5, 1), (11, 2, 4), (13, 3, 6), (3, 6, 2)):
        F = get_field(p)
        wide = ik_formula_scaled(F, n, b).value
        assert wide.m == p * (p - 1)
        z_p = scaled_ik_at_p(F, n, b)
        assert z_p.m == p
        for prec in (2 * (p - 1), default_precision(p)):
            lhs = embed_cyclotomic(wide, p, prec).digits
            rhs = embed_cyclotomic(z_p, p, prec).digits
            assert lhs[: prec - 1] == rhs[: prec - 1]


def test_embed_kills_cyclotomic_relation():
    # 1 + zeta_p + ... + zeta_p^(p-1) embeds to zero up to the precision
    # boundary: the truncated root of unity is only pinned mod pi^prec, and
    # the relation sum is annihilated by (zeta - 1), so residue can survive
    # in the top p-2 digits but no lower.
    p, prec = 5, default_precision(5)
    s = CycInt(p, [1] * p)
    v = embed_cyclotomic(s, p, prec).pi_valuation
    assert v is None or v >= prec - (p - 2)


def test_stickelberger_examples():
    assert stickelberger_check(5, 3) == (3, 3, True)
    for p in (3, 7, 11):
        for m in range(p - 1):
            predicted, observed, ok = stickelberger_check(p, m)
            assert ok and predicted == m
    with pytest.raises(InvalidParameters):
        stickelberger_check(5, 4)


def test_valuation_formulas():
    assert valuation_formulas(7, 1, 1) == (Fraction(5, 3), 10)
    assert valuation_formulas(7, 1, 2) == (Fraction(4, 3), 8)
    with pytest.raises(DegenerateIndex):
        valuation_formulas(7, 2, 2)  # (n+1)m = 6 divisible by p-1
    with pytest.raises(DegenerateIndex):
        valuation_formulas(7, 1, 0)


def test_case_i_anchor():
    rep = run_case_analysis(7, 1, 1, 3)
    assert rep.case_label == "I"
    assert (rep.h, rep.k, rep.m_star) == (2, 2, 2)
    assert rep.predicted_valuation == rep.observed_valuation == 8
    assert rep.ok and not rep.boundary_flagged


def test_case_ii_anchor():
    rep = run_case_analysis(5, 5, 1, 2)
    assert rep.case_label == "II"
    assert rep.predicted_valuation == rep.observed_valuation == 10
    assert rep.ok


def test_case_iii_anchor():
    rep = run_case_analysis(3, 6, 1, 2)
    assert rep.case_label == "III"
    assert rep.predicted_valuation == rep.observed_valuation == 9
    assert rep.ok


def test_trivial_and_stabilized():
    # (p-1) | (n+1): every conjugate difference is exactly zero
    rep = run_case_analysis(5, 3, 2, 3)
    assert rep.case_label == "trivial" and rep.ok
    # a^gcd(n+1, p-1) = 1 stabilizes without triviality: p=13, n=3, a=5 (5^4=1)
    rep = run_case_analysis(13, 3, 1, 5)
    assert rep.case_label == "stabilized" and rep.ok


def test_case_guards():
    with pytest.raises(ZeroParameter):
        case_analysis(7, 1, 0, 3)
    with pytest.raises(ZeroParameter):
        case_analysis(7, 1, 1, 7)
    with pytest.raises(InvalidParameters):
        case_analysis(6, 1, 1, 1)


def test_valuation_only_from_certified_digits():
    # zeta_p_padic(7, prec) is exact only mod pi^(prec-6): at prec 12 the
    # first nonzero digit (index 8) is not certified, at prec 15 it is
    for prec in (12, 14):
        with pytest.raises(PrecisionExhausted):
            case_analysis(7, 1, 1, 2, prec=prec)
    assert case_analysis(7, 1, 1, 2, prec=15).observed_valuation == 8
    assert run_case_analysis(7, 1, 1, 2).observed_valuation == 8


def test_explicit_precision_agrees_with_default():
    rep1 = case_analysis(7, 1, 2, 3)
    rep2 = case_analysis(7, 1, 2, 3, prec=default_precision(7) * 2)
    assert rep1.case_label == rep2.case_label
    assert rep1.observed_valuation == rep2.observed_valuation
