import pytest

from ikdeg import (
    CharSpec,
    CycInt,
    additive_char,
    bounds_check,
    change_conductor,
    gauss_sum,
    get_field,
    ik_formula_scaled,
    inverted_kloosterman_brute,
    kloosterman_brute,
    mult_char,
    s1_identity_check,
    scaled_ik_at_p,
)
from ikdeg.charsum import _character_terms
from ikdeg.errors import BudgetExceeded, CharAtZero, ZeroParameter


def test_additive_char():
    F = get_field(5)
    assert additive_char(F, F.elt(2)) == CycInt.zeta(5, 2)
    assert additive_char(F, F.zero) == CycInt.from_int(5, 1)
    F9 = get_field(3, 2)
    t = F9.from_encoding(3)
    assert additive_char(F9, t) == CycInt.from_int(3, 1)  # Tr(t) = 0


def test_mult_char_values_and_homomorphism():
    F = get_field(7)
    chi = CharSpec(F, 2)
    assert mult_char(chi, F.one) == CycInt.from_int(6, 1)
    for x in F.units():
        for y in F.units():
            assert mult_char(chi, x * y) == mult_char(chi, x) * mult_char(chi, y)
    with pytest.raises(CharAtZero):
        mult_char(chi, F.zero)


def test_gauss_sum_trivial_char():
    # G(chi_triv) = sum over units of psi(x) = -1
    for p, k in ((5, 1), (7, 1), (3, 2)):
        F = get_field(p, k)
        g = gauss_sum(CharSpec(F, 0))
        assert g == CycInt.from_int(g.m, -1)


def test_gauss_sum_norm():
    # |G(chi)|^2 = q for nontrivial chi: G(chi) G(chi-bar) = chi(-1) q
    for p, k in ((5, 1), (7, 1), (13, 1), (3, 2)):
        F = get_field(p, k)
        q1 = F.q - 1
        dneg1 = F.dlog(F.elt(-1))
        for m in range(1, q1):
            lhs = gauss_sum(CharSpec(F, m)) * gauss_sum(CharSpec(F, q1 - m))
            chi_neg1 = CycInt.monomial(F.p * q1, F.p * ((-m * dneg1) % q1))
            assert lhs == chi_neg1 * CycInt.from_int(F.p * q1, F.q)


def test_kloosterman_brute_examples():
    # K_1(5, 1) = sum_x zeta_5^(x + 1/x): x + 1/x takes values 2, 0, 0, 3
    F = get_field(5)
    kv = kloosterman_brute(F, 1, F.one)
    assert kv.scale == 1
    assert kv.value == CycInt(5, [2, 0, 1, 1, 0])


def test_inverted_vs_formula_small():
    # frozen anchor: q(q-1) IK_1(3, 1) = -6 and IK_1(3, 2) = 0
    F = get_field(3)
    v1 = ik_formula_scaled(F, 1, F.elt(1))
    assert v1.scale == 6
    assert v1.value == CycInt.from_int(6, -6)
    v2 = ik_formula_scaled(F, 1, F.elt(2))
    assert v2.value.is_zero()
    for b in F.units():
        brute = inverted_kloosterman_brute(F, 1, b)
        formula = ik_formula_scaled(F, 1, b)
        assert change_conductor(formula.scale * brute.value, formula.value.m) == formula.value


def test_formula_matches_brute_extension_field():
    F = get_field(2, 2)
    for b in F.units():
        brute = inverted_kloosterman_brute(F, 2, b)
        formula = ik_formula_scaled(F, 2, b)
        assert change_conductor(formula.scale * brute.value, formula.value.m) == formula.value


def test_scaled_ik_at_p_conductor():
    F = get_field(5)
    z = scaled_ik_at_p(F, 1, F.one)
    assert z.m == 5
    assert 20 * inverted_kloosterman_brute(F, 1, F.one).value == z
    # memoised per (n, b) on the field
    assert scaled_ik_at_p(F, 1, 1) is z
    assert scaled_ik_at_p(F, 2, 1) is not z


def test_s1_identity():
    for p, k in ((3, 1), (5, 1), (7, 1), (2, 2), (3, 2)):
        F = get_field(p, k)
        for n in (1, 2, 3):
            assert s1_identity_check(F, n)


def test_budget_and_zero_guards():
    F = get_field(13)
    with pytest.raises(BudgetExceeded):
        inverted_kloosterman_brute(F, 6, F.one, budget=1000)
    with pytest.raises(ZeroParameter):
        ik_formula_scaled(F, 1, F.zero)
    with pytest.raises(ZeroParameter):
        ik_formula_scaled(F, 0, F.one)
    with pytest.raises(ZeroParameter):
        kloosterman_brute(F, 1, F.zero)


def test_bounds_report():
    F = get_field(7)
    rep = bounds_check(F, 1, F.one)
    assert rep.q == 7 and rep.n == 1
    assert rep.second_applicable  # p does not divide n+1 = 2
    assert len(rep.embeddings) == 6
    assert rep.ok()
    assert rep.bound1_lhs_max <= 7.0**1.0 + 1e-9
    # second estimate inapplicable when p | n+1
    rep2 = bounds_check(get_field(3), 2, 1)
    assert not rep2.second_applicable
    assert rep2.bound2_lhs_max is None
    assert rep2.ok()


def _per_character_terms(F, n):
    """Oracle: every term from its own Gauss-sum powers (the kernel route)."""
    p, q1 = F.p, F.q - 1
    dneg1 = F.dlog(F.elt(-1)) if F.q > 2 else 0
    terms = []
    for m in range(1, q1):
        g_pow = gauss_sum(CharSpec(F, m)) ** (n + 1)
        g_sq = gauss_sum(CharSpec(F, (-m * (n + 1)) % q1))
        sign_exp = p * ((-m * (n + 1) * dneg1) % q1)  # chi^(n+1)(-1)
        terms.append(((g_sq * g_sq) * g_pow).shifted(sign_exp))
    return terms


RELABEL_FIELDS = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 19)] + [
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)
]


@pytest.mark.parametrize("p,k", RELABEL_FIELDS)
def test_character_terms_match_kernel_powers(p, k):
    F = get_field(p, k)
    for n in range(1, 9):
        got = _character_terms(F, n)
        want = _per_character_terms(F, n)
        assert len(got) == len(want) == F.q - 2
        # exact group-ring equality, not only equality mod Phi
        assert [t.coeffs for t in got] == [t.coeffs for t in want], (F.q, n)
