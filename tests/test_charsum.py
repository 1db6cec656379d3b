import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from ikdeg import (
    CycInt,
    charsum,
    exact_valuation,
    ff,
    gauss_sum,
    get_field,
    inverted_kloosterman_brute,
    scaled_ik_at_p,
)
from ikdeg.charsum import (
    _brute_counts, _character_terms, _relabel, additive_char, bound_errors, bounds_check, galois_orbits,
    ik_formula, ik_formula_scaled, _check_fits, _count_rows, kloosterman_brute, mult_char, orbit_bounds, s1_identity_check,
    scaled_ik_values,
)
from ikdeg.cyclo import change_conductor, embed_complex, lower_conductor
from ikdeg.errors import CheckFailed, InvalidParameters
from ikdeg.ff import Field, is_prime
from ikdeg.suites import DEGREE_N_MAX, DEGREE_P_MAX, EXTENSION_FIELDS, EXTENSION_NS
from oracles import _add_rotations, brute_distribution

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_additive_char():
    F = get_field(5)
    assert additive_char(F, F.elt(2)) == CycInt.monomial(5, 2)
    assert additive_char(F, F.zero) == CycInt.from_int(5, 1)
    F9 = get_field(3, 2)
    t = F9.from_encoding(3)
    assert additive_char(F9, t) == CycInt.from_int(3, 1)  # Tr(t) = 0


def test_mult_char_values_and_homomorphism():
    F = get_field(7)
    assert mult_char(F, 2, F.one) == CycInt.from_int(6, 1)
    for x in F.units():
        for y in F.units():
            assert mult_char(F, 2, x * y) == mult_char(F, 2, x) * mult_char(F, 2, y)
    with pytest.raises(InvalidParameters, match="^multiplicative character at zero$"):
        mult_char(F, 2, F.zero)


def test_gauss_sum_trivial_char():
    # G(chi_triv) = sum over units of psi(x) = -1
    for p, k in ((5, 1), (7, 1), (3, 2)):
        F = get_field(p, k)
        kept = len(F._cache)
        g = gauss_sum(F, 0)
        assert g == CycInt.from_int(g.m, -1)
        assert gauss_sum(F, F.q - 1).coeffs == g.coeffs  # m is read mod q-1
        assert len(F._cache) == kept  # no Gauss sum is kept per m


def test_gauss_sum_norm():
    # |G(chi)|^2 = q for nontrivial chi: G(chi) G(chi-bar) = chi(-1) q
    for p, k in ((5, 1), (7, 1), (13, 1), (3, 2)):
        F = get_field(p, k)
        q1 = F.q - 1
        dneg1 = F.dlog(F.elt(-1))
        for m in range(1, q1):
            lhs = gauss_sum(F, m) * gauss_sum(F, q1 - m)
            chi_neg1 = CycInt.monomial(F.p * q1, F.p * ((-m * dneg1) % q1))
            assert lhs == chi_neg1 * CycInt.from_int(F.p * q1, F.q)


def _enumerated_distributions(F, n):
    """Oracle: {b.coeffs: brute_distribution(F, n, b)} by walking all (q-1)^n unit tuples.

    The sum of a tuple and the log of its product do not depend on b, so
    each tuple is walked once and b/(x_1 ... x_n) is added to the tallies.
    """
    q1 = max(F.q - 1, 1)
    units = [F.pow_of_generator(j) for j in range(q1)]
    tally = Counter()
    for js in itertools.product(range(q1), repeat=n):
        s = F.zero
        for j in js:
            s = s + units[j]
        tally[s, sum(js) % q1] += 1
    out = {}
    for b in F.units():
        b_over = [b * units[-j % q1] for j in range(q1)]  # b / g^j
        dist = Counter()
        for (s, j), count in tally.items():
            dist[(s + b_over[j]).coeffs] += count
        out[b.coeffs] = dict(dist)
    return out


def test_brute_distribution_matches_enumeration():
    grid = [(p, 1, n) for p in range(2, 14) if is_prime(p) for n in range(1, 7) if (p - 1) ** n <= 50_000]
    grid += [(p, k, n) for p, k in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)) for n in (1, 2, 3)]
    with_zero = 0
    for p, k, n in grid:
        F = get_field(p, k)
        want = _enumerated_distributions(F, n)
        for b in F.units():
            got = brute_distribution(F, n, b)
            assert got == want[b.coeffs], (F.q, n, b)
            with_zero += F.zero.coeffs in got  # the s = 0 count kloosterman_brute reads
    assert with_zero == 360


def test_brute_distribution_n1_is_linear_in_q():
    """For n = 1 the count is two cyclic convolutions of length q-1, near
    linear in q.

    At q = 65537 that is about a second with the field build; spreading
    every entry of each row would be about 4 q^2 = 1.7e10 additions.
    """
    script = (
        "from collections import Counter\n"
        "from ikdeg import get_field\n"
        "from oracles import brute_distribution\n"
        "F = get_field(65537)\n"
        "b = F.elt(3)\n"
        "want = Counter((x + b * x.inverse()).coeffs for x in F.units())\n"
        "assert brute_distribution(F, 1, b) == dict(want)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_kloosterman_brute_examples():
    # K_1(5, 1) = sum_x zeta_5^(x + 1/x): x + 1/x takes values 2, 0, 0, 3
    F = get_field(5)
    kv = kloosterman_brute(F, 1, F.one)
    assert kv.m == 5
    assert kv == CycInt(5, [2, 0, 1, 1, 0])


def test_inverted_vs_formula_small():
    # frozen anchor: q(q-1) IK_1(3, 1) = -6 and IK_1(3, 2) = 0
    F = get_field(3)
    v1 = ik_formula_scaled(F, 1, F.elt(1))
    assert v1.m == 3 * 2  # conductor p(q-1)
    assert v1 == CycInt.from_int(6, -6)
    v2 = ik_formula_scaled(F, 1, F.elt(2))
    assert v2.is_zero()
    for b in F.units():
        brute = inverted_kloosterman_brute(F, 1, b)
        formula = ik_formula_scaled(F, 1, b)
        assert change_conductor(6 * brute, formula.m) == formula


def test_formula_matches_brute_extension_field():
    F = get_field(2, 2)
    for b in F.units():
        brute = inverted_kloosterman_brute(F, 2, b)
        formula = ik_formula_scaled(F, 2, b)
        assert change_conductor(F.q * (F.q - 1) * brute, formula.m) == formula


def test_scaled_ik_at_p_conductor():
    F = get_field(5)
    z = scaled_ik_at_p(F, 1, F.one)
    assert z.m == 5
    assert 20 * inverted_kloosterman_brute(F, 1, F.one) == z
    # read off one tuple of values per n, kept on the field
    assert scaled_ik_at_p(F, 1, 1) is z
    assert scaled_ik_at_p(F, 2, 1) is not z


def test_s1_identity():
    for p, k in ((3, 1), (5, 1), (7, 1), (2, 2), (3, 2)):
        F = get_field(p, k)
        for n in (1, 2, 3):
            assert s1_identity_check(F, n)


def test_each_counting_step_is_the_oracles_addition():
    # the convolutions of step n + 1 take the kept rows of D_n to those of
    # D_(n+1), as the oracle's additions do
    fields = [(p, 1) for p in range(2, 32) if is_prime(p)]
    fields += [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]  # q = 4, 8, 9, 16, 25, 27
    for p, k in fields:
        F = get_field(p, k)
        q1 = F.q - 1
        neg_one = F.dlog(F.elt(-1))
        log_one_minus = F._log_one_minus_powers()
        _brute_counts(F, 0, F.one)  # keeps the rows of D_1 as ("counts", 0)
        for n in range(1, 7):
            zero_row, one_row = F._cache[("counts", n - 1)]
            from_one = [(c + n * e) % q1 for c, e in enumerate(log_one_minus, 1)]
            from_zero = [((n + 1) * c + n * neg_one) % q1 for c in range(q1)]
            want = (_add_rotations([0] * q1, one_row, from_zero), _add_rotations(zero_row, one_row, from_one))
            _brute_counts(F, n, F.one)
            assert F._cache[("counts", n)] == want, (F.q, n)


def test_count_rows_step_in_a_loop_from_the_largest_kept_n():
    # 1500 steps, past Python's recursion limit; the rows do not depend on
    # where the loop started, and every unit 1501-tuple is counted once:
    # the rows s = g^e are rotations of row s = 1
    fresh, halves = Field(5), Field(5)
    zero_row, one_row = _count_rows(fresh, 1500)
    _count_rows(halves, 750)
    assert ("counts", 1499) not in halves._cache
    assert _count_rows(halves, 1500) == (zero_row, one_row)
    assert sorted(key[1] for key in halves._cache) == list(range(1501))
    assert sum(zero_row) + 4 * sum(one_row) == 4**1501


def _fields_up_to(q_max):
    return [(p, k) for p in range(2, q_max + 1) if is_prime(p) for k in range(1, 9) if p**k <= q_max]


@pytest.mark.parametrize("p,k", _fields_up_to(256))
def test_count_equals_the_formula_coefficient_for_coefficient(p, k):
    # the census's values, read off the count, against the Gauss-sum
    # formula's reading of each b; F_2's gather reads two entries
    F = get_field(p, k)
    for n in range(1, 5):
        values = scaled_ik_values(F, n)
        assert len(values) == F.q - 1
        for j, z in enumerate(values):
            formula = F.q * (F.q - 1) * ik_formula(F, n, F.pow_of_generator(j))
            assert z.coeffs == z.canonical() == formula.coeffs, (F.q, n, j)


def test_check_fits_reads_the_address_space_limit_else_physical_memory(monkeypatch):
    import resource

    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    capped = {resource.RLIMIT_AS: (2**30, 2**30)}
    monkeypatch.setattr(resource, "getrlimit", lambda which: capped.get(which, unlimited))
    monkeypatch.setattr(ff, "_address_space", lambda: 0)
    prime = SimpleNamespace(p=4001, q=4001, k=1)
    _check_fits(prime, 2**50)  # 4000 values of 4001 coefficients at 32 + 20 bytes, 0.78 GiB
    _check_fits(SimpleNamespace(p=2, q=2**19, k=19), 2**60)  # 0.62 GiB: a value's own bytes, two ints a coefficient
    # the width of the ints counts: at 2^200 a coefficient costs 64 + 20 bytes
    for F, widest in ((prime, 2**200), (SimpleNamespace(p=2, q=2**20, k=20), 2**60)):  # 1.25 and 1.24 GiB
        with pytest.raises(InvalidParameters, match=r"over the address-space limit of 1 GiB$"):
            _check_fits(F, widest)
    # what the process already holds counts
    monkeypatch.setattr(ff, "_address_space", lambda: 2**30 * 3 // 10)
    with pytest.raises(InvalidParameters, match=r"beside the 0.3 GiB in use, over the address-space limit of 1 GiB$"):
        _check_fits(prime, 2**50)
    monkeypatch.setattr(ff, "_address_space", lambda: 0)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    _check_fits(prime, 2**200)
    side = int((physical / 52) ** 0.5)  # (q-1)p coefficients of 52 bytes just past physical memory
    with pytest.raises(InvalidParameters, match=r"over physical memory of "):
        _check_fits(SimpleNamespace(p=side + 2, q=side + 2, k=1), 2**50)


def test_check_fits_charges_the_values_of_a_census_at_every_n(monkeypatch):
    # the charge covers the values' ints as they widen with n: at
    # p = 1009, n = 4 the census grew VmPeak by 48.9 kB a value, above the
    # 37.3 kB that constants read at n = 1 charged
    charged = []
    monkeypatch.setattr(charsum, "check_fits", lambda subject, need, purpose: charged.append(need))
    F = Field(1009)
    for n in (1, 4):
        charsum.scaled_ik_values(F, n)
    assert [need / 1008 > 48_900 for need in charged] == [True, True]


def test_budget_and_zero_guards():
    F = get_field(13)
    with pytest.raises(InvalidParameters, match="^parameter b must be nonzero$"):
        ik_formula_scaled(F, 1, F.zero)
    with pytest.raises(InvalidParameters, match="^dimension n must be >= 1$"):
        ik_formula_scaled(F, 0, F.one)
    with pytest.raises(InvalidParameters, match="^parameter b must be nonzero$"):
        kloosterman_brute(F, 1, F.zero)
    with pytest.raises(InvalidParameters, match="^dimension n must be >= 1$"):
        inverted_kloosterman_brute(F, 0, F.one)


def test_bounds_report():
    F = get_field(7)
    lhs1, rhs1, lhs2, rhs2 = bounds_check(F, 1, F.one)
    assert rhs1 == 7.0**1.0  # q^((n+1)/2) for q = 7, n = 1
    assert lhs2 is not None and rhs2 is not None  # p does not divide n+1 = 2
    # lhs1 is the maximum over the six embeddings j = 1 .. p-1
    z = scaled_ik_at_p(F, 1, F.one)
    assert lhs1 == max(abs(embed_complex(z, j)[0] / (7 * 6) + 6 / 7) for j in range(1, 7))
    # both verdicts clear of the float error, delta = 2^-31 (S/scale + |shift|)
    delta1, delta2 = bound_errors(F, 1, scaled_ik_values(F, 1))
    spread = max(sum(map(abs, v.canonical())) for v in scaled_ik_values(F, 1)) / 42
    assert (delta1, delta2) == (2.0**-31 * (spread + 6 / 7), 2.0**-31 * (spread + 2))  # shifts 6/7 and 14/7
    assert lhs1 + delta1 <= rhs1 and lhs2 + delta2 <= rhs2
    assert lhs1 <= 7.0**1.0 + 1e-9
    # second estimate inapplicable when p | n+1
    F = get_field(3)
    lhs1, rhs1, lhs2, rhs2 = bounds_check(F, 2, 1)
    assert lhs2 is None and rhs2 is None
    delta1, delta2 = bound_errors(F, 2, scaled_ik_values(F, 2))
    assert delta2 is None and lhs1 + delta1 <= rhs1


# every prime p <= 61 with n <= 8 (p = 2 and p | n+1 among them), and
# extension fields with n <= 4
ORBIT_BOUNDS_CASES = [(p, 1, n) for p in range(2, 62) if is_prime(p) for n in range(1, 9)]
ORBIT_BOUNDS_CASES += [
    (p, k, n) for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)) for n in range(1, 5)
]


def _orbit_bounds_mismatches(cases):
    """(q, n, j) wherever orbit_bounds and bounds_check(F, n, g^j) differ as floats."""
    bad = []
    for p, k, n in cases:
        F = get_field(p, k)
        for j, got in enumerate(orbit_bounds(F, n, scaled_ik_values(F, n))):
            if got != bounds_check(F, n, F.pow_of_generator(j)):
                bad.append((F.q, n, j))
    return bad


def test_orbit_bounds_are_bounds_check_bit_for_bit():
    assert (2, 1, 1) in ORBIT_BOUNDS_CASES and (3, 1, 2) in ORBIT_BOUNDS_CASES  # p | n+1
    assert _orbit_bounds_mismatches(ORBIT_BOUNDS_CASES) == []
    # above p = 256 the root rows are built on use, not kept
    F = get_field(257)
    got = orbit_bounds(F, 1, scaled_ik_values(F, 1))
    for b in (1, 2, 3, 5, 100, 128, 200, 256):
        assert got[F.dlog(F.elt(b))] == bounds_check(F, 1, b), b


def test_orbit_bounds_window_has_teeth(monkeypatch):
    # with no window only the rows that tie an orbit's maximum estimate
    # are read, and the float maximum of some records of the census
    # sweep p = 3 .. 31, n = 1 .. 4 is lost
    monkeypatch.setattr(charsum, "_WINDOW", 0.0)
    assert _orbit_bounds_mismatches(
        [(p, k, n) for p, k, n in ORBIT_BOUNDS_CASES if 3 <= p <= 31 and k == 1 and n <= 4]
    )


def test_orbit_bounds_and_exact_valuation_read_any_representative():
    # z + c (1 + zeta + ... + zeta^(p-1)) is z for every integer c, and both
    # readers go through CycInt.canonical: the orbit check passes, the floats
    # are the same, and so are the census's valuations
    rng = random.Random(16)
    cases = [(p, 1, n) for p in (2, 3, 7, 13, 31) for n in (1, 2, 3)] + [(3, 2, 1), (5, 2, 2)]
    for p, k, n in cases:
        F = get_field(p, k)
        values = scaled_ik_values(F, n)
        shifted = [z + CycInt(p, [rng.randint(1, 99)] * p) for z in values]
        assert orbit_bounds(F, n, shifted) == orbit_bounds(F, n, values), (F.q, n)
        step, q1 = galois_orbits(F, n)[1], F.q - 1
        for j, (z, w) in enumerate(zip(values, shifted)):
            assert exact_valuation(w) == exact_valuation(z)
            other = (j - step) % q1
            assert exact_valuation(w - shifted[other]) == exact_valuation(z - values[other])


def test_orbit_check_names_both_b_of_a_value_off_its_orbit():
    # zeta^2 added to z_1 at p = 7, n = 1: sigma_3(z_1), with 3 the generator
    # and step = 2, is no longer z_5, while sigma_3(z_0) = z_4 still holds
    F = get_field(7)
    values = list(scaled_ik_values(F, 1))  # a copy: the kept tuple stays
    values[1] = values[1] + CycInt.monomial(7, 2)
    with pytest.raises(CheckFailed, match=r"^sigma_3\(IK_1\(7, 3\)\) is not IK_1\(7, 5\) \(bug\)$") as info:
        orbit_bounds(F, 1, values)
    assert str(info.value) == "sigma_3(IK_1(7, 3)) is not IK_1(7, 5) (bug)"


def test_orbit_bounds_refuses_p_past_its_error_bound_before_any_work():
    # the stub field has only p and q, and there are no values: any work
    # before the check would fail on them
    F = SimpleNamespace(p=2**20 + 7, q=2**20 + 7)
    with pytest.raises(InvalidParameters, match=r"^the window's error bound needs p < 2\^20$"):
        orbit_bounds(F, 1, None)


def _per_character_terms(F, n):
    """Oracle: every term from its own Gauss-sum powers (the kernel route)."""
    p, q1 = F.p, F.q - 1
    dneg1 = F.dlog(F.elt(-1)) if F.q > 2 else 0
    terms = []
    for m in range(1, q1):
        g_pow = gauss_sum(F, m) ** (n + 1)
        g_sq = gauss_sum(F, (-m * (n + 1)) % q1)
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
        term = _character_terms(F, n)
        got = [_relabel(term, p, m) for m in range(1, F.q - 1)]
        want = _per_character_terms(F, n)
        assert len(got) == len(want) == F.q - 2
        # exact group-ring equality, not only equality mod Phi
        assert [t.coeffs for t in got] == [t.coeffs for t in want], (F.q, n)


def test_scaled_ik_at_p_matches_lowered_formula():
    # the value read off term 1 equals the literal formula lowered to
    # conductor p, coefficient for coefficient (both are canonical)
    grid = [(p, 1, range(1, DEGREE_N_MAX + 1)) for p in range(2, DEGREE_P_MAX + 1) if is_prime(p)]
    grid += [(p, k, EXTENSION_NS) for p, k in EXTENSION_FIELDS]
    grid += [(2, k, range(1, 4)) for k in (1, 2, 3)]
    checked = 0
    for p, k, ns in grid:
        F = get_field(p, k)
        for n in ns:
            for b in F.units():
                z = scaled_ik_at_p(F, n, b)
                assert z.m == p
                assert z.coeffs == lower_conductor(ik_formula_scaled(F, n, b), p).coeffs, (F.q, n, b)
                checked += 1
    assert checked == 1328 + 3 + 3 * 3 + 7 * 3  # the two grids, then q = 2, 4, 8 with n <= 3
