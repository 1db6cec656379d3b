"""Each verify suite's failure path: a stubbed reading makes one case wrong,
the suite reports ok = False with a FAIL line that names the case, and
the matching `ikdeg verify` command exits 1."""

from ikdeg import CycInt, get_field, suites
from ikdeg.charsum import bound_errors, scaled_ik_values
from ikdeg.cli import main


def _verify(capsys, suite):
    code = main(["verify", suite])
    return code, capsys.readouterr().out.splitlines()


def test_identity_suite_fails_on_a_brute_sum_off_by_zeta(monkeypatch, capsys):
    real = suites.inverted_kloosterman_brute

    def off_by_zeta(F, n, b):
        z = real(F, n, b)
        return z + CycInt.monomial(z.m, 1) if (F.p, n, b.serialize()) == (5, 1, "2") else z

    monkeypatch.setattr(suites, "inverted_kloosterman_brute", off_by_zeta)
    assert suites.identity_suite(5, 1) == (False, ["identity p=5 n=1: FAIL at b in ['2']"])
    code, lines = _verify(capsys, "identity")
    assert code == 1 and "identity p=5 n=1: FAIL at b in ['2']" in lines


def test_identity_suite_fails_on_a_kept_value_off_by_zeta(monkeypatch, capsys):
    # the per-b count agrees with the formula; the tuple the census reads
    # does not, at one b
    real = suites.scaled_ik_values

    def off_by_zeta(F, n):
        values = real(F, n)
        if (F.p, n) != (5, 1):
            return values
        j = F.dlog(F.elt(2))
        wrong = values[j] + CycInt.monomial(5, 1)
        return values[:j] + (wrong,) + values[j + 1:]

    monkeypatch.setattr(suites, "scaled_ik_values", off_by_zeta)
    assert suites.identity_suite(5, 1) == (False, ["identity p=5 n=1: FAIL at b in ['2']"])
    code, lines = _verify(capsys, "identity")
    assert code == 1 and "identity p=5 n=1: FAIL at b in ['2']" in lines
    assert sum("FAIL" in line for line in lines) == 1


def test_degree_suite_prints_no_ok_for_a_prime_with_a_fail(monkeypatch, capsys):
    real = suites.ik_degree

    def wrong_at_7(F, n, b):
        return 1 if (F.p, n, b.serialize()) == (7, 2, "3") else real(F, n, b)

    monkeypatch.setattr(suites, "ik_degree", wrong_at_7)
    ok, lines = suites.degree_suite(7, 2)
    assert not ok
    assert lines == [
        "degree p=2 n=1..2: ok",
        "degree p=3 n=1..2: ok",
        "degree p=5 n=1..2: ok",
        "degree p=7 n=2: FAIL (want 2) at b in ['3']",
    ]
    code, lines = _verify(capsys, "degree")
    assert code == 1
    assert [line for line in lines if line.startswith("degree p=7 ")] == [
        "degree p=7 n=2: FAIL (want 2) at b in ['3']"
    ]


def test_divisibility_suite_fails_on_a_degree_that_does_not_divide(monkeypatch, capsys):
    real = suites.ik_degree

    def non_divisor_at_9(F, n, b):
        return 3 if (F.q, n, b.serialize()) == (9, 2, "0:1") else real(F, n, b)

    monkeypatch.setattr(suites, "ik_degree", non_divisor_at_9)
    ok, lines = suites.divisibility_suite()
    assert not ok
    assert "divisibility q=9 n=2: FAIL at b in ['0:1']" in lines
    code, lines = _verify(capsys, "all")
    assert code == 1
    assert "divisibility q=9 n=2: FAIL at b in ['0:1']" in lines
    assert lines[-1] == "all suites: FAIL"


def test_verify_divisibility_exits_1_on_a_fail(monkeypatch, capsys):
    real = suites.ik_degree

    def non_divisor_at_4(F, n, b):
        return 2 if (F.q, n, b.serialize()) == (4, 1, "1:0") else real(F, n, b)

    monkeypatch.setattr(suites, "ik_degree", non_divisor_at_4)
    code, lines = _verify(capsys, "divisibility")
    assert code == 1
    assert lines[0] == "divisibility q=4 n=1: FAIL at b in ['1:0']"
    assert len(lines) == 10 and all(line.endswith(")") for line in lines[1:])


def test_bounds_suite_fails_on_a_lhs_above_its_rhs(monkeypatch, capsys):
    real = suites.orbit_bounds
    F = get_field(7)
    j = F.dlog(F.elt(3))
    lhs1, rhs1, lhs2, rhs2 = real(F, 2, scaled_ik_values(F, 2))[j]
    delta = max(filter(None, bound_errors(F, 2, scaled_ik_values(F, 2))))
    assert delta < 1e-7
    # a reading far above its bound, one 5e-7 above it (inside the old fixed
    # slack of 1e-6, outside the float error) and one equal to it, which the
    # floats cannot decide
    for raised, tail in ((rhs1 + 1, ""), (rhs1 + 5e-7, ""), (rhs1, f", undecided within the float error {delta:.3g}")):

        def raised_at_7(F, n, values):
            bounds = list(real(F, n, values))
            if (F.q, n) == (7, 2):
                bounds[j] = (raised, rhs1, lhs2, rhs2)
            return bounds

        monkeypatch.setattr(suites, "orbit_bounds", raised_at_7)
        ok, lines = suites.bounds_suite()
        assert not ok
        assert [line for line in lines if "FAIL" in line] == [
            f"bounds q=7 n=2 b=3: FAIL ({raised} vs {rhs1}, {lhs2} vs {rhs2}){tail}",
            "bounds: FAIL (1328 sums, decided outside the proven float error)",
        ]
        code, lines = _verify(capsys, "bounds")
        assert code == 1 and lines[-1] == "bounds: FAIL (1328 sums, decided outside the proven float error)"


def test_cases_suite_fails_on_a_report_that_is_not_ok(monkeypatch, capsys):
    real = suites.case_analysis

    def wrong_at_7(p, n, b, a):
        rep = real(p, n, b, a)
        return rep._replace(ok=False) if (p, n, b, a) == (7, 1, 2, 3) else rep

    monkeypatch.setattr(suites, "case_analysis", wrong_at_7)
    ok, lines = suites.cases_suite()
    assert not ok
    assert "cases I p=7 n=1: FAIL at [(3, 2, 'I', 8, 8)]" in lines
    code, lines = _verify(capsys, "cases")
    assert code == 1 and "cases I p=7 n=1: FAIL at [(3, 2, 'I', 8, 8)]" in lines
