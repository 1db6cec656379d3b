import math
import random

import pytest

from ikdeg import (
    CycInt,
    PadicElt,
    case_analysis,
    embed_cyclotomic,
    exact_valuation,
    gauss_sum,
    get_field,
    ik_formula_scaled,
    run_case_analysis,
    scaled_ik_at_p,
    stickelberger_check,
    teichmuller,
    valuation_formulas,
    zeta_p_padic,
)
from ikdeg import kernels, padic
from ikdeg.cyclo import map_exponents
from ikdeg.errors import CheckFailed, IKDegError, InvalidParameters
from ikdeg.ff import is_prime
from ikdeg.padic import _embedded_scaled_ik, sigma_digit_sum
from ikdeg.suites import (
    CASE_I_PAIRS,
    CASE_II_PAIRS,
    CASE_III_PAIRS,
    DEGREE_N_MAX,
    DEGREE_P_MAX,
    STICKELBERGER_PRIMES,
    cases_suite,
    stickelberger_suite,
)
from oracles import default_precision, teichmuller_residue


def _certified_valuation(x):
    """Oracle: v_pi from the certified digits of a truncated embedding, None
    where they are all zero. zeta_p_padic(p, prec) is exact only mod
    pi^(prec-p+1), so higher digits are uncertified."""
    v = x.pi_valuation
    return v if v is not None and v < x.prec - x.p + 1 else None


def _oracle_case_valuation(p, n, b, a, prec):
    """The truncated route's certified v_pi of case_analysis's difference."""
    b2 = b * pow(a, -(n + 1), p) % p
    diff = _embedded_scaled_ik(p, n, b, prec) - _embedded_scaled_ik(p, n, b2, prec)
    return _certified_valuation(diff)


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
    with pytest.raises(InvalidParameters, match="^mismatched prime or truncation order$"):
        PadicElt.zero(5, 10) + PadicElt.zero(5, 11)
    with pytest.raises(InvalidParameters, match="^mismatched prime or truncation order$"):
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
    with pytest.raises(InvalidParameters, match="^Teichmuller lift of zero is undefined$"):
        teichmuller(5, 0, 8)


def test_zeta_p_padic():
    for p in (3, 5, 7, 11):
        prec = default_precision(p)
        z = zeta_p_padic(p, prec)
        assert z**p == PadicElt.one(p, prec)
        assert z != PadicElt.one(p, prec)
        d = z - PadicElt.one(p, prec)
        assert d.pi_valuation == 1 and d.digits[1] == 1
    with pytest.raises(InvalidParameters, match=r"^need at least 2\(p-1\) digits$"):
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
    with pytest.raises(InvalidParameters, match="^conductor 4 does not divide 42$"):
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
        wide = ik_formula_scaled(F, n, b)
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


def test_stickelberger_reading_is_the_digit_sum_up_to_43():
    for p in (q for q in range(2, 44) if is_prime(q)):
        for m in range(p - 1):
            assert stickelberger_check(p, m) == (sigma_digit_sum(m, p), m, True), (p, m)


@pytest.mark.parametrize("p", STICKELBERGER_PRIMES)
def test_stickelberger_reading_matches_truncated_oracle(p):
    F = get_field(p)
    prec = default_precision(p)
    for m in range(p - 1):
        G = gauss_sum(F, m)
        embedded = embed_cyclotomic(G, p, prec)
        assert stickelberger_check(p, m)[1] == _certified_valuation(embedded) == m
        # g in place of zeta_{p-1} moves the embedding by a multiple of p
        residue = teichmuller_residue(G, p, F.generator.coeffs[0])
        shift = _certified_valuation(embed_cyclotomic(residue, p, prec) - embedded)
        assert shift is None or shift >= p - 1


def test_sparse_reading_is_the_residue_of_the_wide_gauss_sum():
    # the O(p) reading equals the wide route (the p(p-1)-slot Gauss sum,
    # then zeta_{p-1} -> g through the CRT split) coefficient for coefficient
    for p in [q for q in range(2, 44) if is_prime(q)] + [101]:
        F = get_field(p)
        g = F.generator.coeffs[0]
        for m in range(p - 1):
            want = teichmuller_residue(gauss_sum(F, m), p, g)
            assert padic._gauss_residue(F, m, g).coeffs == want.coeffs, (p, m)


def _mutate_reading(monkeypatch, change):
    reading = padic._gauss_residue
    monkeypatch.setattr(padic, "_gauss_residue", lambda F, m, t: change(reading, F, m, t))


# each changes one piece of the reading sum_j t^(-mj) zeta_p^(g^j)
READING_MUTANTS = {
    "g+1": lambda reading, F, m, t: reading(F, m, t + 1),  # t + 1 for zeta_{p-1}
    # zeta_p^(0 * g^j): every term at zeta_p^0
    "zeta_p multiplier": lambda reading, F, m, t: map_exponents(reading(F, m, t), 0, F.p),
    "zeta_(p-1) multiplier": lambda reading, F, m, t: reading(F, 2 * m, t),  # t^(-2mj)
    "p*G": lambda reading, F, m, t: F.p * reading(F, m, t),
}


@pytest.mark.parametrize("change", READING_MUTANTS.values(), ids=READING_MUTANTS.keys())
def test_stickelberger_mutants_fail(monkeypatch, change):
    _mutate_reading(monkeypatch, change)
    ok, lines = stickelberger_suite()
    assert not ok
    assert all("FAIL" in line for line in lines), lines


def test_stickelberger_reading_of_p_times_gauss_sum_fails(monkeypatch):
    # p G is congruent to 0 mod p, so its reading says nothing below p - 1
    _mutate_reading(monkeypatch, READING_MUTANTS["p*G"])
    for p in STICKELBERGER_PRIMES:
        for m in range(p - 1):
            predicted, observed, ok = stickelberger_check(p, m)
            assert observed >= p - 1 and not ok, (p, m)


def test_valuation_formulas():
    assert valuation_formulas(7, 1, 1) == 10
    assert valuation_formulas(7, 1, 2) == 8
    with pytest.raises(InvalidParameters, match=r"^\(p-1\) divides \(n\+1\)m$"):
        valuation_formulas(7, 2, 2)  # (n+1)m = 6 divisible by p-1
    with pytest.raises(InvalidParameters, match="^need 1 <= m <= p-2$"):
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
    with pytest.raises(InvalidParameters, match="^b and a must be units of F_p$"):
        case_analysis(7, 1, 0, 3)
    with pytest.raises(InvalidParameters, match="^b and a must be units of F_p$"):
        case_analysis(7, 1, 1, 7)
    with pytest.raises(InvalidParameters):
        case_analysis(6, 1, 1, 1)


def test_cases_suite_lines_are_those_of_run_case_analysis():
    # the suite reads each difference off one tuple of values per (p, n);
    # the oracle runs the per-(b, a) case_analysis over the same pairs
    want = []
    for label, pairs in (("I", CASE_I_PAIRS), ("II", CASE_II_PAIRS), ("III", CASE_III_PAIRS)):
        for p, n in pairs:
            bad, count = [], 0
            for a in range(1, p):
                for b in range(1, p):
                    rep = run_case_analysis(p, n, b, a)
                    if pow(a, math.gcd(n + 1, p - 1), p) == 1:
                        if rep.case_label != "stabilized" or not rep.ok:
                            bad.append((a, b, "stabilized", rep.ok))
                        continue
                    count += 1
                    if rep.case_label != label or not rep.ok:
                        bad.append(
                            (a, b, rep.case_label, rep.predicted_valuation, rep.observed_valuation)
                        )
            head = f"cases {label} p={p} n={n}: "
            want.append(head + (f"FAIL at {bad}" if bad else f"ok ({count} (a, b) pairs)"))
    assert cases_suite() == (True, want)


def test_valuation_only_from_certified_digits():
    # zeta_p_padic(7, prec) is exact only mod pi^(prec-6): at prec 12 and 14
    # the first nonzero digit (index 8) is not certified, at prec 15 it is
    for prec, certified in ((12, None), (14, None), (15, 8)):
        assert _oracle_case_valuation(7, 1, 1, 2, prec) == certified
    assert run_case_analysis(7, 1, 1, 2).observed_valuation == 8


def test_explicit_precision_agrees_with_default():
    # the truncated route at twice its default precision certifies the exact reading
    rep = case_analysis(7, 1, 2, 3)
    assert rep.case_label == "I"
    assert _oracle_case_valuation(7, 1, 2, 3, 2 * default_precision(7)) == rep.observed_valuation


def test_default_precision_reaches_the_prediction():
    # Case III predicts W = (n+1) + 2t, which outgrows 32(p-1) digits as n
    # grows; without a prec the valuation is read exactly, at any height
    rep = run_case_analysis(3, 150, 1, 2)
    assert rep.case_label == "III"
    assert rep.ok and rep.predicted_valuation == rep.observed_valuation == 153


def test_pow_costs_log_plus_popcount_minus_one_products(monkeypatch):
    calls = []
    convolve = kernels.linear_convolve

    def counted(a, b):
        calls.append(len(a))
        return convolve(a, b)

    monkeypatch.setattr(kernels, "linear_convolve", counted)
    x = PadicElt.one(7, 20) + PadicElt.monomial(7, 20, 1)
    for e, products in ((0, 0), (1, 0), (7, 4)):
        calls.clear()
        y = x**e
        assert len(calls) == products, e
        expected = PadicElt.one(7, 20)
        for _ in range(e):
            expected = expected * x
        assert y == expected


def _agrees_with_padic_route(v, certified, p, prec):
    # certified digits give v exactly; none certified means v >= prec - p + 1
    if certified is not None:
        return v == certified
    return v is None or v >= prec - p + 1


def test_exact_valuation_matches_padic_route_on_degree_grid():
    pairs = 0
    for p in (q for q in range(2, DEGREE_P_MAX + 1) if is_prime(q)):
        F = get_field(p)
        prec = default_precision(p)
        for n in range(1, DEGREE_N_MAX + 1):
            for b in range(1, p):
                conjugates = {b * pow(a, -(n + 1), p) % p for a in range(1, p)} - {b}
                for b2 in sorted(conjugates):
                    v = exact_valuation(scaled_ik_at_p(F, n, b) - scaled_ik_at_p(F, n, b2))
                    # the embedding is a ring map, so the difference of the embeddings
                    # is the embedding of the difference
                    diff = _embedded_scaled_ik(p, n, b, prec) - _embedded_scaled_ik(p, n, b2, prec)
                    certified = _certified_valuation(diff)
                    assert _agrees_with_padic_route(v, certified, p, prec), (p, n, b, b2)
                    pairs += 1
    assert pairs == 12588


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_exact_valuation_matches_padic_route_on_random_values(p):
    rng = random.Random(p)
    certified_count = 0
    for prec in (2 * (p - 1), default_precision(p), 3 * default_precision(p)):
        values = [CycInt.zero(p), CycInt(p, [rng.randint(-9, 9)] * p)]  # zero, two ways
        for _ in range(40):
            scale = p ** rng.choice((0, 1, 2))
            coeffs = [scale * rng.randint(-50, 50) if rng.random() < 0.7 else 0 for _ in range(p)]
            coeffs[-1] = scale * rng.randint(1, 50)  # not the canonical representative
            z = CycInt(p, coeffs)
            values += [z, z + CycInt(p, [rng.randint(-99, 99)] * p)]
        for z in values:
            v = exact_valuation(z)
            certified = _certified_valuation(embed_cyclotomic(z, p, prec))
            assert _agrees_with_padic_route(v, certified, p, prec), (z, prec)
            certified_count += certified is not None
        assert exact_valuation(values[0]) is None and exact_valuation(values[1]) is None
    assert certified_count > 0
    with pytest.raises(InvalidParameters, match=f"^conductor {4 * p} is not prime$"):
        exact_valuation(CycInt.zeta(4 * p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_exact_valuation_on_lambda_adic_grid_matches_padic_route(p):
    # z = p^t * lambda^k * u with u a pi-adic unit (coefficient sum prime to
    # p) has v_pi(z) = t(p-1) + k; t = 1, 2 give valuations >= p-1
    rng = random.Random(100 + p)
    lam = CycInt(p, [-1, 1])
    prec = default_precision(p)
    units = [CycInt.from_int(p, 1), CycInt.from_int(p, p - 1), CycInt(p, [1] * min(2, p - 1))]
    while len(units) < 6:
        u = CycInt(p, [rng.randint(-20, 20) for _ in range(p)])
        if sum(u.coeffs) % p:
            units.append(u)
    checked = 0
    for t in range(3):
        for k in range(p - 1):
            for u in units:
                z = p**t * lam**k * u
                for rep in (z, z + CycInt(p, [rng.randint(-99, 99)] * p)):  # non-canonical
                    v = exact_valuation(rep)
                    assert v == t * (p - 1) + k, (t, k, rep)
                    assert _certified_valuation(embed_cyclotomic(rep, p, prec)) == v
                    checked += 1
    assert checked == 3 * (p - 1) * len(units) * 2
    for zero in (CycInt.zero(p), CycInt(p, [rng.randint(1, 9)] * p)):
        assert exact_valuation(zero) is None


def _taylor_shift_valuation(z):
    """Reference: the full Taylor shift at zeta = 1 + lambda (one Horner pass
    per lambda-digit d_k), then the least (p-1) v_p(d_k) + k over every k."""
    p = z.m
    d = [c - z.coeffs[-1] for c in z.coeffs[:-1]]
    for i in range(p - 2):
        for j in range(p - 3, i - 1, -1):
            d[j] += d[j + 1]
    terms = []
    for k, dk in enumerate(d):
        if dk:
            v = k
            while dk % p == 0:
                dk //= p
                v += p - 1
            terms.append(v)
    return min(terms, default=None)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_exact_valuation_closed_form_and_full_taylor_shift(p):
    # z = p^t * lambda^k * u, u a unit, t <= 3, k <= p-2: v_pi(z) = t(p-1) + k,
    # also where the truncated route would need many digits to certify it
    rng = random.Random(200 + p)
    lam = CycInt(p, [-1, 1])
    units = [CycInt.from_int(p, 1), CycInt.from_int(p, -1)]
    while len(units) < 5:
        u = CycInt(p, [rng.randint(-20, 20) for _ in range(p)])
        if sum(u.coeffs) % p:
            units.append(u)
    lam_k = CycInt.from_int(p, 1)
    for k in range(p - 1):
        for t in range(4):
            for u in units:
                z = p**t * lam_k * u + CycInt(p, [rng.randint(-99, 99)] * p)  # non-canonical
                v = exact_valuation(z)
                assert v == _taylor_shift_valuation(z) == t * (p - 1) + k, (t, k, z)
        lam_k = lam_k * lam
    for _ in range(200):
        scale = p ** rng.choice((0, 1, 2, 3))
        z = CycInt(p, [scale * rng.randint(-50, 50) if rng.random() < 0.7 else 0 for _ in range(p)])
        assert exact_valuation(z) == _taylor_shift_valuation(z), z
    for zero in (CycInt.zero(p), CycInt(p, [rng.randint(1, 9)] * p), CycInt(p, [p**3] * p)):
        assert exact_valuation(zero) is None


def _case_rows():
    """One Case I/II/III row for each (p, n) of the cases suite."""
    for p, n in CASE_I_PAIRS + CASE_II_PAIRS + CASE_III_PAIRS:
        a = next(a for a in range(2, p) if pow(a, math.gcd(n + 1, p - 1), p) != 1)
        yield p, n, 1 + (n % (p - 1)), a


@pytest.mark.parametrize("p,n,b,a", list(_case_rows()))
def test_explicit_precision_exhausts_exactly_where_padic_route_does(p, n, b, a):
    # at each precision the truncated route certifies the exact reading, or
    # no digit exactly where that reading is at least prec - p + 1
    exact = case_analysis(p, n, b, a).observed_valuation
    for prec in range(2 * (p - 1), exact + 2 * p):
        certified = exact if exact < prec - p + 1 else None
        assert _oracle_case_valuation(p, n, b, a, prec) == certified, prec


def test_zero_case_difference_raises_naming_the_row(monkeypatch):
    # b times the all-ones vector is zero in Z[zeta_p] whatever b is, so every
    # conjugate difference vanishes although no two representatives are equal
    monkeypatch.setattr(
        padic, "scaled_ik_at_p", lambda F, n, b: CycInt(F.p, [F.elt(b).coeffs[0]] * F.p)
    )
    for p, n, b, a in _case_rows():
        for analysis in (case_analysis, run_case_analysis):
            want = f"^Case (I|II|III) difference is zero at p={p} n={n} b={b} a={a}$"
            with pytest.raises(CheckFailed, match=want) as info:
                analysis(p, n, b, a)
            assert isinstance(info.value, IKDegError)
            assert f"p={p} n={n} b={b} a={a}" in str(info.value)
    # trivial and stabilized rows expect the zero difference
    assert run_case_analysis(5, 3, 2, 3).ok
    assert run_case_analysis(13, 3, 1, 5).ok
