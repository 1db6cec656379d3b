import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ikdeg import CycInt, charsum, cli, ff, get_field, ik_degree, kernels
from ikdeg.charsum import bounds_check, ik_formula_scaled
from ikdeg.cyclo import lower_conductor
from ikdeg.cli import CSV_FIELDS, _fmt_cell, _value_json, main, parse_args
from ikdeg.errors import InvalidParameters
from ikdeg.padic import run_case_analysis

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "--p", "5", "--n", "1")
    assert code == 0
    assert "identity p=5 n=1: ok" in out


def test_verify_divisibility_prints_the_divisibility_lines_of_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "divisibility")
    assert code == 0
    _, everything, _ = run_cli(capsys, "verify", "all")
    want = [line for line in everything.splitlines() if line.startswith("divisibility ")]
    assert len(want) == 10 and out.splitlines() == want


# The three ways to start the CLI; each goes through cli.run().
ENTRY_POINTS = (
    ["-m", "ikdeg"],
    ["-m", "ikdeg.cli"],
    ["-c", "from ikdeg.cli import run; run()"],
)


def _run_child(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60, **kwargs
    )


def test_python_dash_m_entry_point():
    # every entry point prints the same bytes and exits with main()'s code
    for argv, code in (("sum --p 5 --n 1 --b 1", 0), ("sum --p 5 --n 1 --b 1 --k x", 2)):
        results = {
            (proc.returncode, proc.stdout, proc.stderr)
            for proc in (_run_child([*entry, *argv.split()]) for entry in ENTRY_POINTS)
        }
        assert len(results) == 1, results
        (got, out, err), = results
        assert got == code, err
        if code == 0:
            assert out.endswith("degree(IK) = 2\nminpoly(IK) = [-1, 1, 1]\n") and err == ""
        else:
            assert out == "" and err == "error: argument --k: invalid int value: 'x'\n"


def test_entry_point_writes_the_whole_census_file(tmp_path):
    # run() exits without the collector's teardown scan; the file is still whole
    target = tmp_path / "census.csv"
    proc = _run_child(["-m", "ikdeg", *CENSUS_PRIME.split(), "--out", str(target)], cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    data = target.read_bytes()
    ref = REFERENCE["census-prime"]
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (ref["sha256"], ref["bytes"])


def test_main_leaves_the_collector_alone(capsys):
    # main() touches no collector state; run() ends the process by os._exit
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "sum", "--p", "5", "--n", "1", "--b", "1")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_installed_command_goes_through_run():
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^ikdeg = "ikdeg\.cli:run"$', text, flags=re.M)


SKIPPED_MODULES = ("argparse", "gettext", "locale", "json", "dataclasses", "__future__", "cmath")


def test_cli_import_leaves_out_dataclasses():
    script = (
        "import sys\n"
        f"skipped = set({SKIPPED_MODULES!r})\n"
        "before = skipped & set(sys.modules)\n"
        "import ikdeg.cli\n"
        "assert skipped & set(sys.modules) <= before, skipped & set(sys.modules) - before\n"
    )
    proc = _run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_min_poly_check_exits_1_also_under_dash_o(flags):
    # every CycInt reads as nonzero, so min_poly's check that its polynomial
    # vanishes at z fails; -O strips asserts, and this check is not one
    script = "from ikdeg import cli, galois; galois.CycInt.is_zero = lambda self: False; cli.run()"
    proc = _run_child([*flags, "-c", script, *"sum --p 13 --n 2 --b 5".split()])
    assert proc.returncode == 1
    assert proc.stderr == "error: minimal polynomial does not vanish at z (bug)\n"


def test_sum_runs_without_json_or_argparse():
    script = (
        "import sys\n"
        "before = {'json', 'argparse'} & set(sys.modules)\n"
        "from ikdeg.cli import main\n"
        "assert main('sum --p 7 --n 2 --b 3 --path both'.split()) == 0\n"
        "assert {'json', 'argparse'} & set(sys.modules) <= before\n"
    )
    proc = _run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert "paths agree: True" in proc.stdout


def test_verify_stickelberger_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "stickelberger", "--p", "7")
    assert code == 0
    assert "stickelberger p=7: ok" in out


def test_verify_stickelberger_large_prime(capsys):
    # exact in Z[zeta_p]: no digit count grows with p
    code, out, _ = run_cli(capsys, "verify", "stickelberger", "--p", "101")
    assert (code, out) == (0, "stickelberger p=101: ok (m = 0..99)\n")


def test_verify_degree_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "degree", "--p-max", "7", "--n-max", "2")
    assert code == 0
    assert "degree p=7" in out


def test_invalid_prime_exits_2(capsys):
    # the prime is tested where its field is built (ff.Field), p < 2 included
    for argv, p in (
        ("verify identity --p 4", 4),
        ("verify stickelberger --p 4", 4),
        ("verify stickelberger --p 1", 1),
        ("sum --p 4 --n 1 --b 1", 4),
    ):
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {p} is not prime\n"), argv


def test_sum_both_paths(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "--p", "3", "--n", "1", "--b", "1", "--path", "both"
    )
    assert code == 0
    assert "paths agree: True" in out
    assert "degree(IK) = 1" in out
    # the value line is the json of the brute value
    want = charsum.inverted_kloosterman_brute(get_field(3), 1, 1).to_dict()
    assert out.splitlines()[0] == f"brute IK_1(3, 1) = {json.dumps(want)}"


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (31, 1)])
def test_sum_formula_line_is_the_wide_formula(capsys, p, k):
    # q = 2, 3, 4, 8, 9, 25, 27, 31: the line prints IK at conductor p, the
    # literal Gauss-sum formula at conductor p(q-1) lowered to p and
    # divided exactly by q(q-1)
    F = get_field(p, k)
    q, b = F.q, F.generator.serialize()
    for n in (1, 2):
        code, out, _ = run_cli(capsys, "sum", "--p", str(p), "--k", str(k), "--n", str(n), "--b", b)
        assert code == 0
        scaled = lower_conductor(ik_formula_scaled(F, n, F.generator), p).to_dict()
        assert scaled["m"] == p
        quotients = [divmod(c, q * (q - 1)) for c in scaled["coeffs"]]
        assert all(r == 0 for _, r in quotients)
        want = {"m": p, "coeffs": [c for c, _ in quotients]}
        assert out.splitlines()[0] == f"formula IK_{n}({q}, {b}) = {json.dumps(want)}"


def _after_the_value_lines(out):
    lines = out.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith("embedding ")):]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (31, 1), (3, 2), (2, 3)])
def test_every_path_prints_the_same_lines_for_ik(capsys, p, k, n):
    # one canonical value of IK_n(q, b), whichever route read it
    F = get_field(p, k)
    b = F.generator.serialize()
    outs = {}
    for path in ("brute", "formula", "both"):
        code, out, err = run_cli(capsys, *f"sum --p {p} --k {k} --n {n} --b {b} --path {path}".split())
        assert (code, err) == (0, ""), path
        outs[path] = out
    tails = {path: _after_the_value_lines(out) for path, out in outs.items()}
    assert tails["brute"] == tails["formula"] == tails["both"]
    assert len(tails["brute"]) == p - 1 + 2 and tails["brute"][-2].startswith("degree(IK) = ")
    assert tails["brute"][-1].startswith("minpoly(IK) = [")
    value = outs["brute"].splitlines()[0].split(" = ", 1)[1]
    assert outs["formula"].splitlines()[0] == f"formula IK_{n}({F.q}, {b}) = {value}"
    assert outs["both"].splitlines()[:3] == [
        f"brute IK_{n}({F.q}, {b}) = {value}", f"formula IK_{n}({F.q}, {b}) = {value}", "paths agree: True"
    ]


def test_a_remainder_in_the_formula_division_fails_sum_and_verify_identity(monkeypatch, capsys):
    # the kept constant off by one leaves coefficient 0 of q(q-1) * IK one
    # past a multiple of q(q-1)
    F = get_field(5)
    for n in (1, 2, 3):
        charsum.ik_formula(F, n, 1)
        term, rho0, const = F._cache[("formula", n)]
        monkeypatch.setitem(F._cache, ("formula", n), (term, rho0, const + 1))
    for argv in ("sum --p 5 --n 1 --b 2", "sum --p 5 --n 1 --b 2 --path both", "verify identity --p 5"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1, argv
        assert re.fullmatch(r"error: -?\d+ is not divisible by 20 \(bug\)\n", err), err
        assert "ok" not in out and "paths agree" not in out


coeff = st.integers(-(2**70), 2**70) | st.integers(-5, 5)


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 5, 7, 31, 4, 6, 12, 20, 156]), data=st.data())
def test_value_line_is_the_json_of_the_value(m, data):
    # prime and composite conductors, negative coefficients and ones past 2^64
    z = CycInt(m, data.draw(st.lists(coeff, min_size=m, max_size=m)))
    assert _value_json(z) == json.dumps(z.to_dict())


# Runs one CLI command in a fresh interpreter (so no value is cached) with
# the functions named in argv[1] stubbed out in every ikdeg module that binds them.
STUBBED_MAIN = """
import sys
from ikdeg import cli

def forbidden(*args, **kwargs):
    raise AssertionError("a command reached a stubbed route")

for name, module in list(sys.modules.items()):
    for attr in sys.argv[1].split(","):
        if name.split(".")[0] == "ikdeg" and attr in vars(module):
            setattr(module, attr, forbidden)
raise SystemExit(cli.main(sys.argv[2:]))
"""


def _run_stubbed(stubbed, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", STUBBED_MAIN, ",".join(stubbed), *argv.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        "census --p 5 --n 1 --n-max 2",
        "census --p 3 --k 2 --n 1",
        "sum --p 5 --n 2 --b 2 --path both",
        "verify identity --p 5",
        "verify degree --p-max 7 --n-max 2",
        "verify cases",
    ],
)
def test_commands_never_take_the_wide_route(argv):
    _run_stubbed(("lower_conductor", "ik_formula_scaled"), argv)


@pytest.mark.parametrize(
    "argv",
    [
        "census --p 3 --p-max 31 --n 1 --n-max 4",
        "verify cases",
        "verify degree --p-max 19",
        "verify stickelberger",
    ],
)
def test_census_and_suites_never_embed_or_build_conjugates(argv):
    # degrees and valuations are read exactly in Z[zeta_p]; no command
    # constructs a truncated p-adic element
    _run_stubbed(
        ("embed_cyclotomic", "zeta_p_padic", "teichmuller", "PadicElt", "conjugate_set"), argv
    )


def test_stickelberger_reads_no_wide_gauss_sum():
    # the reading sums G's p - 1 terms in Z[zeta_p]: no p(p-1)-slot Gauss
    # sum and no CRT split of its exponents
    out = _run_stubbed(("gauss_sum", "_exponent_split"), "verify stickelberger --p 31")
    assert out == "stickelberger p=31: ok (m = 0..29)\n"


def test_stickelberger_at_p_211_runs_in_64_mb_of_address_space():
    # the cap applies to the child only; a dense Gauss sum per m does not fit
    cap = 64 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "ikdeg.cli", "verify", "stickelberger", "--p", "211"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "stickelberger p=211: ok (m = 0..209)\n"


@pytest.fixture
def fresh_fields(monkeypatch):
    """Fresh fields, so nothing is cached from earlier tests; every ikdeg
    module that looks fields up gets the same ones. Maps (p, k) to each."""
    fields = {}

    def fresh_field(p, k):
        if (p, k) not in fields:
            fields[p, k] = ff.Field(p, k)
        return fields[p, k]

    monkeypatch.setattr(ff, "_field", fresh_field)
    return fields


def _count_calls(monkeypatch):
    """Record each map_exponents call as (m, M), each cyclic convolution by
    its length and each gauss_sum and _character_terms call."""
    calls = {"maps": [], "convolutions": [], "gauss_sum": [], "_character_terms": []}
    map_exponents, convolve = charsum.map_exponents, kernels.cyclic_convolve

    def counted_map(z, k, big_m):
        calls["maps"].append((z.m, big_m))
        return map_exponents(z, k, big_m)

    def counted_convolve(a, b):
        calls["convolutions"].append(len(a))
        return convolve(a, b)

    monkeypatch.setattr(charsum, "map_exponents", counted_map)
    monkeypatch.setattr(kernels, "cyclic_convolve", counted_convolve)
    for name in ("gauss_sum", "_character_terms"):
        original = getattr(charsum, name)

        def recorded(*args, name=name, original=original):
            calls[name].append(args[1:])
            return original(*args)

        monkeypatch.setattr(charsum, name, recorded)
    return calls


def test_census_reads_the_count_with_two_convolutions_per_p_and_n(fresh_fields, monkeypatch, capsys):
    calls = _count_calls(monkeypatch)
    code, out, _ = run_cli(capsys, *"census --p 3 --p-max 13 --n 1 --n-max 4".split())
    assert code == 0 and len(out.splitlines()) == 1 + 4 * (2 + 4 + 6 + 10 + 12)
    primes = (3, 5, 7, 11, 13)
    assert sorted(fresh_fields) == [(p, 1) for p in primes]
    # each n steps once from the rows of n - 1: two convolutions of length
    # p - 1, and over F_p the values are gathered off the row
    assert sorted(calls["convolutions"]) == sorted(p - 1 for p in primes for _ in range(2 * 4))
    assert calls["maps"] == calls["gauss_sum"] == calls["_character_terms"] == []


def test_verify_identity_reads_rho0_once_and_one_gauss_product_per_power(fresh_fields, monkeypatch, capsys):
    calls = _count_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "identity")
    assert code == 0 and len(out.splitlines()) == 5 * 3
    primes = (3, 5, 7, 11, 13)
    assert sorted(fresh_fields) == [(p, 1) for p in primes]
    # per (p, n): rho_0 maps conductor p(p-1) down to p once, and the
    # relabelling keeps it once
    maps = calls["maps"]
    assert sorted(big for m, big in maps if big < m) == sorted(p for p in primes for _ in range(3))
    assert sum(1 for m, big in maps if big == m) == 3 * len(primes)
    # per field: g^2 = g*g, then g^(n+1) = g^n * g for n = 2, 3, and one
    # product per n for term 1; the count beside it steps twice per n
    want = [length for p in primes for length in (p * (p - 1), p - 1) for _ in range(6)]
    assert sorted(calls["convolutions"]) == sorted(want)
    assert sorted(calls["gauss_sum"]) == [(1,)] * len(primes)
    assert len(calls["_character_terms"]) == 3 * len(primes)


@pytest.mark.parametrize(
    "argv",
    [
        "census --p 3 --p-max 13 --n 1 --n-max 3",
        "census --p 2 --p-max 3 --k 2 --n 1 --n-max 2",
        "verify degree --p-max 13",
        "verify cases",
        "verify divisibility",
        "verify bounds",
    ],
)
def test_the_census_and_count_suites_never_build_a_gauss_sum(fresh_fields, monkeypatch, capsys, argv):
    calls = _count_calls(monkeypatch)
    assert run_cli(capsys, *argv.split())[0] == 0
    assert calls["gauss_sum"] == calls["_character_terms"] == []


def test_fields_keep_only_gauss_powers_and_value_tuples(fresh_fields, capsys):
    for argv in ("census --p 3 --p-max 13 --n 1 --n-max 3", "verify all"):
        assert run_cli(capsys, *argv.split())[0] == 0
    assert len(fresh_fields) == 16  # primes up to 31 and the five extension fields
    for F in fresh_fields.values():
        assert F._cache
        for key in F._cache:
            assert key[0] in ("gauss_power", "values", "counts", "formula") and len(key) == 2, (F, key)
            if key[0] == "values":
                assert isinstance(charsum.scaled_ik_values(F, key[1]), tuple)
            if key[0] == "formula":  # term 1, rho_0(term 1) and the constant
                term, rho0, const = F._cache[key]
                assert (len(term), len(rho0), type(const)) == (F.p * (F.q - 1), F.p, int)


def test_a_census_holds_the_tables_of_one_field_at_a_time(fresh_fields, monkeypatch, capsys):
    # a field's count rows and values are released once its rows are built,
    # before the next field is looked up, and none is left at the end
    build, asked = ff._field, []

    def watched(p, k):
        asked.append((p, sorted(q for (q, _), F in fresh_fields.items() if F._cache)))
        return build(p, k)

    monkeypatch.setattr(ff, "_field", watched)
    assert run_cli(capsys, *"census --p 3 --p-max 31 --n 1 --n-max 3".split())[0] == 0
    assert sorted(fresh_fields) == [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    assert all(set(held) <= {p} for p, held in asked), asked
    assert [F._cache for F in fresh_fields.values()] == [{}] * 10


REFERENCE = json.loads((SRC.parent / "perfbench" / "reference.json").read_text())
CENSUS_PRIME = "census --p 3 --p-max 31 --n 1 --n-max 4"


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_benchmark_outputs_match_reference_digests(capsys, name):
    argv = CENSUS_PRIME if name == "census-prime" else name
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        REFERENCE[name]["sha256"], REFERENCE[name]["bytes"]
    )


# Outputs that perfbench does not gate: the sha256 and byte count of stdout.
PINNED_OUTPUTS = {
    "verify all": ("55e0bab3792f45ce5b3002a2cb8671e04a997a768df81eca6eba176214737f8a", 1857),
    "verify bounds": ("9f1141fd3c3c2a00587a4e93b326109d5d730062697fa4d505c1c6428c29652a", 63),
    "census --p 2 --p-max 7 --k 2 --n 1 --n-max 3": (
        "5b7db2a8d4fad2118a181839edc7f1f4bb6d21d082088d2bdc436ab857c3a100", 13716
    ),
}


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS))
def test_ungated_outputs_match_pinned_digests(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == PINNED_OUTPUTS[argv]


def test_sum_formula_degree(capsys):
    code, out, _ = run_cli(capsys, "sum", "--p", "5", "--n", "1", "--b", "1")
    assert code == 0
    assert "degree(IK) = 2" in out
    assert "minpoly(IK) = [-1, 1, 1]" in out


def test_sum_missing_args(capsys):
    code, _, err = run_cli(capsys, "sum", "--p", "5", "--n", "1")
    assert code == 2
    assert "sum needs" in err


def test_sum_zero_b(capsys):
    code, _, err = run_cli(capsys, "sum", "--p", "5", "--n", "1", "--b", "0")
    assert code == 2


@pytest.mark.parametrize("p,k", [(2, 12), (3, 7)])  # q = 4096, 2187
def test_sum_counts_what_the_count_limit_refused(capsys, p, k):
    code, out, err = run_cli(capsys, "sum", "--p", str(p), "--k", str(k), "--n", "2", "--b", "1", "--path", "both")
    assert (code, err) == (0, "")
    assert "paths agree: True" in out.splitlines()


def test_sum_counts_what_the_tuple_budget_refused(capsys):
    # (q-1)^n = 24 300 000 tuples, but 10 convolutions of length 30
    code, out, err = run_cli(capsys, "sum", "--p", "31", "--n", "5", "--b", "1", "--path", "both")
    assert (code, err) == (0, "")
    assert "paths agree: True" in out.splitlines()
    assert "degree(IK) = 5" in out.splitlines()


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "7", "--n", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 7  # header + 6 values of b
    for row in lines[1:]:
        cells = dict(zip(CSV_FIELDS, row.split(",")))
        assert cells["q"] == "7" and cells["degree"] == "3"
        assert cells["degree_matches"] == "true"
        assert cells["case_label"] == "I"
        assert cells["predicted_val"] == cells["observed_val"] == "8"


@pytest.mark.parametrize(
    "argv", ["--p 2 --p-max 13 --n 1 --n-max 6", "--p 3 --k 2 --n 1 --n-max 6", "--p 17 --n 3"]
)
def test_census_columns_match_case_analysis_and_bounds_check(capsys, argv):
    # the census reads each value once and derives every column from it;
    # each row must equal the per-b library calls it replaces
    code, out, _ = run_cli(capsys, "census", *argv.split())
    assert code == 0
    rows = [dict(zip(CSV_FIELDS, line.split(","))) for line in out.splitlines()[1:]]
    case_cols = ("case_label", "predicted_val", "observed_val")
    bound_cols = ("bound1_lhs", "bound1_rhs", "bound2_lhs", "bound2_rhs")
    for row in rows:
        F, n = get_field(int(row["p"]), int(row["k_ext"])), int(row["n"])
        b = F.elt([int(c) for c in row["b"].split(":")])
        assert row["degree"] == str(ik_degree(F, n, b))
        want = bounds_check(F, n, b)
        assert tuple(row[c] for c in bound_cols) == tuple(map(_fmt_cell, want))
        if F.k == 1:
            rep = run_case_analysis(F.p, n, b.coeffs[0], F.generator.coeffs[0])
            want = (rep.case_label, rep.predicted_valuation, rep.observed_valuation)
        else:
            want = ("", None, None)
        assert tuple(row[c] for c in case_cols) == tuple(map(_fmt_cell, want))
    opts = dict(zip(argv.split()[::2], map(int, argv.split()[1::2])))
    p_lo, k, n_lo = opts["--p"], opts.get("--k", 1), opts["--n"]
    primes = [p for p in range(p_lo, opts.get("--p-max", p_lo) + 1) if ff.is_prime(p)]
    assert len(rows) == sum(p**k - 1 for p in primes) * (opts.get("--n-max", n_lo) - n_lo + 1)


def test_census_bound_floats_are_read_per_record_not_per_orbit(capsys):
    # b = 1 and b = 13 lie in one Galois orbit at p = 17, n = 3, but their
    # maxima are read at different embeddings and round apart
    code, out, _ = run_cli(capsys, *"census --p 17 --n 3".split())
    assert code == 0
    lhs1 = {row["b"]: row["bound1_lhs"] for row in csv.DictReader(io.StringIO(out))}
    assert (lhs1["1"], lhs1["13"]) == ("50.0311540319", "50.0311540318")


def test_census_value_off_its_orbit_exits_1(monkeypatch, capsys):
    # the census reads its exact invariants once per Galois orbit, so it
    # first checks that the values form orbits
    def perturbed(F, n):
        values = list(charsum.scaled_ik_values(F, n))  # a copy: the kept tuple stays
        if (F.p, n) == (7, 2):
            z = values[F.dlog(3)]
            values[F.dlog(3)] = CycInt(z.m, [z.coeffs[0], z.coeffs[1] + 1, *z.coeffs[2:]])
        return tuple(values)

    monkeypatch.setattr(cli, "scaled_ik_values", perturbed)
    code, out, err = run_cli(capsys, *"census --p 5 --p-max 7 --n 1 --n-max 2".split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_census_off_orbit_value_names_both_b_and_writes_no_row(monkeypatch, capsys):
    # zeta^2 added to z_1 at p = 7, n = 1: the orbit check stops the census
    # before any row is written
    def perturbed(F, n):
        values = list(charsum.scaled_ik_values(F, n))  # a copy: the kept tuple stays
        values[1] = values[1] + CycInt.monomial(F.p, 2)
        return tuple(values)

    monkeypatch.setattr(cli, "scaled_ik_values", perturbed)
    code, out, err = run_cli(capsys, *"census --p 7 --n 1".split())
    assert (code, out) == (1, "")
    assert err == "error: sigma_3(IK_1(7, 3)) is not IK_1(7, 5) (bug)\n"


def test_census_case_iii_at_large_n(capsys):
    # W = 63 lies above the digits that 32(p-1) = 64 pi-digits of the
    # truncated route certify (those below 62); the exact reading has no cap
    code, out, _ = run_cli(capsys, "census", "--p", "3", "--n", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + 2 values of b
    for row in lines[1:]:
        cells = dict(zip(CSV_FIELDS, row.split(",")))
        assert cells["case_label"] == "III"
        assert cells["predicted_val"] == cells["observed_val"] == "63"


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert row["case_label"] == "trivial"
        assert row["degree"] == 1
        assert row["predicted_val"] is None


def test_census_extension_field(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--k", "2", "--n", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 25  # header + 24 units of F_25
    for row in lines[1:]:
        cells = dict(zip(CSV_FIELDS, row.split(",")))
        assert cells["degree_matches"] == "n/a"
        assert cells["case_label"] == ""


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.csv"
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--n", "1", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith(",".join(CSV_FIELDS))


def test_census_table_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "3", "--n", "1", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["p", "k_ext", "q"]


def test_census_requires_p(capsys):
    code, _, err = run_cli(capsys, "census")
    assert code == 2
    assert "census needs --p" in err


def test_census_empty_range(capsys):
    code, _, err = run_cli(capsys, "census", "--p", "8", "--p-max", "10", "--n", "1")
    assert code == 2
    assert "empty parameter range" in err


def test_out_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "census", "--p", "3", "--n", "1", "--out", str(tmp_path / "no" / "dir.csv")
    )
    assert code == 2
    assert "io error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--p", "5", "--n", "0", "--b", "1"],
        ["sum", "--p", "5", "--n", "1", "--b", "x"],
        ["sum", "--p", "5", "--k", "0", "--n", "1", "--b", "1"],
        ["census", "--p", "5", "--n", "0"],
        ["census", "--p", "3", "--k", "0", "--n", "1"],
        ["verify", "degree", "--n-max", "0"],
        ["verify", "degree", "--p-max", "1"],
        ["verify", "identity", "--p", "0"],
        ["verify", "identity", "--n", "0"],
        ["verify", "stickelberger", "--p", "0"],
        ["verify", "stickelberger", "--p", "5", "--precision", "0"],
        # (q-1)p = 10^10 coefficients, for the formula's term 1 and for the
        # census's values: refused before either is built
        ["sum", "--p", "100003", "--n", "1", "--b", "1"],
        ["census", "--p", "100003", "--n", "1"],
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _run_capped(argv, limit):
    """A child running the CLI on argv with its address space alone capped
    at limit bytes: (exit code, stdout, stderr, seconds)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = _run_child(["-m", "ikdeg", *argv.split()], preexec_fn=cap)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


TABLES_PAST_1_GIB = {
    "census --p 7001 --n 1": "2.38 GiB for 7000 values of 7001 coefficients",
    "sum --p 7001 --n 1 --b 1 --path formula": "14.2 GiB for the Gauss-sum formula's 49007000 coefficients",
}


@pytest.mark.parametrize("argv", list(TABLES_PAST_1_GIB))
def test_a_table_past_the_address_space_limit_is_refused_at_once(argv):
    # (q-1)p = 49 007 000 coefficients, charged per value by the census and
    # per int the formula holds: the child's 1 GiB address-space limit
    # refuses them, not physical memory, and it does so before building
    # any, which would take minutes
    code, out, err, seconds = _run_capped(argv, 2**30)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: q = 7001 needs about {TABLES_PAST_1_GIB[argv]} "
        r"beside the [\d.]+ GiB in use, over the address-space limit of 1 GiB\n",
        err,
    ), err
    assert seconds < 5


def test_a_formula_sum_past_the_address_space_limit_is_refused_before_term_1():
    # charged like a census table, at 54 bytes a coefficient, this sum passed
    # the check under 36 MiB and died of MemoryError while term 1 was built;
    # its growth is 165 bytes a coefficient, and the formula's charge 312
    code, out, err, seconds = _run_capped("sum --p 401 --n 1 --b 3 --path formula", 36 << 20)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: q = 401 needs about 0.0466 GiB for the Gauss-sum formula's 160400 coefficients "
        r"beside the [\d.]+ GiB in use, over the address-space limit of 0.0352 GiB\n",
        err,
    ), err
    assert seconds < 5


@pytest.mark.parametrize("argv,q", [("census --p 1223 --n 1", 1223), ("census --p 2 --k 16 --n 1", 65536)])
def test_a_census_past_the_address_space_limit_is_refused_after_its_field(argv, q):
    # the smallest prime field and the smallest 2^k whose census does not
    # fit in 64 MiB of address space although (q-1)p coefficients at 24
    # bytes each do: the estimate must charge each value and its record
    # beside the field and interpreter already held, or the census starts
    # and dies of MemoryError, at interpreter exit with exit code 1 at times
    code, out, err, seconds = _run_capped(argv, 64 << 20)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: q = {q} needs about [\d.]+ GiB for {q - 1} values of .* over the address-space limit of 0.0625 GiB\n",
        err,
    ), err
    assert seconds < 5


def test_a_census_whose_ints_widen_with_n_is_refused_before_its_values():
    # at n = 4 the values' ints are wider than at n = 1: charged at the
    # width of n = 1, this census passed the check under 60 MiB and died of
    # MemoryError while its values were built
    code, out, err, seconds = _run_capped("census --p 1009 --n 4", 60 << 20)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: q = 1009 needs about [\d.]+ GiB for 1008 values of 1009 coefficients "
        r"beside the [\d.]+ GiB in use, over the address-space limit of 0.0586 GiB\n",
        err,
    ), err
    assert seconds < 5


@pytest.mark.parametrize(
    "argv",
    [
        "sum --p 1000000000000000003 --n 1 --b 1",
        "verify identity --p 1000000000000000003",
        "census --p 1000000000000000003 --n 1",
        "sum --p 2 --k 30 --n 1 --b 1",
        "census --p 3 --k 40 --n 1",
    ],
)
def test_a_field_past_the_address_space_limit_is_refused_before_it_is_built(argv):
    # is_prime's trial division, the modulus search and the (q-1)-entry
    # discrete-log table each ran for minutes; the table is charged first
    code, out, err, seconds = _run_capped(argv, 2**30)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: q = \d+(\^\d+)? needs about [\d.e+]+ GiB for a discrete-log table of q - 1 entries "
        r"beside the [\d.]+ GiB in use, over the address-space limit of 1 GiB\n",
        err,
    ), err
    assert seconds < 5


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["verify stickelberger", CENSUS_PRIME])
def test_a_stdout_that_cannot_be_written_exits_2_with_one_line(argv):
    # buffered stdout: the small output fails only at the flush after main,
    # the census inside main; neither may fail again at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ikdeg", *argv.split()],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (2, "io error: [Errno 28] No space left on device\n")


def test_sum_at_n_1500_counts_in_a_loop_and_refuses_its_float_embeddings(capsys):
    # the count steps 1500 times in a loop (a recursion would pass Python's
    # limit of 1000 frames); IK is about 4^1500, past the float range
    code, out, err = run_cli(capsys, *"sum --p 5 --n 1500 --b 1 --path brute".split())
    assert code == 2
    assert err == "error: the embeddings of IK_1500(5, 1) lie past the float range\n"
    # the line the count printed when every n stepped from D_1 afresh
    assert out.startswith("brute IK_1500(5, 1) = {") and out.count("\n") == 1
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "d7aa480d0c9fce418e805ebc14de26f6147b65bc24325ae0db829d0327c42ad1", 2532
    )


# The options each command or verify suite reads; every other option must be
# rejected at parse time.
READS = {
    ("census",): ("--p", "--p-max", "--k", "--n", "--n-max", "--format", "--out"),
    ("sum",): ("--p", "--k", "--n", "--b", "--path"),
    ("verify", "identity"): ("--p", "--n"),
    ("verify", "degree"): ("--p-max", "--n-max"),
    ("verify", "divisibility"): (),
    ("verify", "stickelberger"): ("--p",),
    ("verify", "cases"): (),
    ("verify", "bounds"): (),
    ("verify", "all"): (),
}
# A well-formed value for every option any command ever took, so that a
# removed option (--precision, --budget) stays rejected.
VALUES = {
    "--p": "5", "--p-max": "7", "--k": "1", "--n": "1", "--n-max": "2", "--b": "1",
    "--budget": "100", "--precision": "40", "--format": "csv", "--out": "x.csv",
    "--path": "both",
}
INT_FLAGS = ("--p", "--p-max", "--k", "--n", "--n-max", "--budget", "--precision")
CHOICES = {
    ("census",): ("--format", ("csv", "json", "table")),
    ("sum",): ("--path", ("brute", "formula", "both")),
}
SUITES = tuple(c[1] for c in READS if c[0] == "verify")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def accepts(command, flag):
    try:
        parse_args([*command, flag, VALUES[flag]])
    except InvalidParameters:
        return False
    return True


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, reads in READS.items() for f in VALUES if f not in reads],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_unread_option_exits_2(command, flag):
    code, out, err = run_main([*command, flag, VALUES[flag]])
    assert code == 2
    assert out == ""
    assert err == f"error: unrecognized arguments: {flag} {VALUES[flag]}\n"


def test_each_command_accepts_exactly_what_it_reads():
    for command, reads in READS.items():
        assert {f for f in VALUES if accepts(command, f)} == set(reads), command
    assert sum(map(len, READS.values())) == 17


def test_unknown_command_names_every_command():
    with pytest.raises(InvalidParameters) as full:
        parse_args(["bogus"])
    assert str(full.value) == "argument command: invalid choice: 'bogus' (choose from 'verify', 'census', 'sum')"
    assert run_main(["bogus"]) == (2, "", f"error: {full.value}\n")


@pytest.mark.parametrize(
    "argv,want",
    [
        ("sum --p=5 --n=1 --b=1", {"p": 5, "n": 1, "b": "1"}),
        ("sum --p 5 --n 1 --b -3", {"b": "-3"}),
        ("census --p -5 --out -3.5", {"p": -5, "out": "-3.5"}),
        ("sum --p 3 --n 1 --b 1 --p 5 --path brute --path both", {"p": 5, "path": "both"}),
        ("verify degree --p-max 7 --p-max 11", {"p_max": 11, "p": None}),
        ("census --p 3", {"format": "csv", "out": None, "n": None}),
        ("verify identity", {"p": None, "n": None}),
    ],
)
def test_parser_reads_what_argparse_read(argv, want):
    # --opt=value, negative values and the last of a repeated option
    args = parse_args(argv.split())
    assert {name: getattr(args, name) for name in want} == want


@pytest.mark.parametrize(
    "argv,err",
    [
        (["sum", "--p"], "argument --p: expected one argument"),
        (["sum", "--p", "--n", "1"], "argument --p: expected one argument"),
        (["census", "--p", "x"], "argument --p: invalid int value: 'x'"),
        (["census", "--p", "3", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json', 'table')"),
        ([], "the following arguments are required: command"),
        (["verify"], "the following arguments are required: suite"),
        (["verify", "x"], "argument suite: invalid choice: 'x' "
         "(choose from 'identity', 'degree', 'divisibility', 'stickelberger', 'cases', 'bounds', 'all')"),
        (["sum", "--p", "5", "--x", "a\nb", "c\r\nd"], "unrecognized arguments: --x a b c d"),
    ],
)
def test_parse_error_is_one_line(argv, err):
    assert run_main(argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("command", [(), ("verify",), *READS], ids=" ".join)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_options_each_command_reads(command, flag):
    code, out, err = run_main([*command, flag])
    assert (code, err) == (0, "")
    under = [c for c in READS if c[: len(command)] == command]
    assert len(out.splitlines()) == len(under)
    assert set(re.findall(r"--[a-z-]+", out)) == {f for c in under for f in READS[c]}


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# any argument text but the help flags, which print help and exit 0
arg_text = st.text(max_size=8).filter(lambda v: v not in ("-h", "--help"))


@st.composite
def rejected_argv(draw):
    """A command plus one defect: an option it does not read (named or
    invented), a non-integer value for an integer option, or a bad choice."""
    command = draw(st.sampled_from(sorted(READS)))
    reads = READS[command]
    int_flags = [f for f in reads if f in INT_FLAGS]
    kinds = ["foreign"] + ["type"] * bool(int_flags)
    kinds += ["choice"] * (command in CHOICES or command[0] == "verify")
    kind = draw(st.sampled_from(kinds))
    if kind == "foreign":
        named = st.sampled_from([f for f in VALUES if f not in reads])
        invented = st.from_regex(r"--[a-z][a-z-]{0,10}", fullmatch=True)
        flag = draw((named | invented).filter(lambda f: f not in reads and f != "--help"))
        return [*command, flag, draw(arg_text)]
    if kind == "type":
        return [*command, draw(st.sampled_from(int_flags)), draw(arg_text.filter(_not_int))]
    if command[0] == "verify":
        return ["verify", draw(arg_text.filter(lambda v: v not in SUITES))]
    flag, choices = CHOICES[command]
    return [*command, flag, draw(arg_text.filter(lambda v: v not in choices))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rejected_argv())
def test_foreign_flag_bad_type_or_bad_choice_exits_2(argv):
    code, out, err = run_main(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _readme_cli_section():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_lines_parse():
    section = _readme_cli_section()
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = [ln.split("#", 1)[0] for block in blocks for ln in block.splitlines() if "ikdeg " in ln]
    assert len(lines) >= 7
    for line in lines:
        assert parse_args(shlex.split(line.split("ikdeg ", 1)[1])) is not None


def test_readme_option_table_matches_parser():
    rows = re.findall(r"^\| `([a-z ]+)` \| (.*) \|$", _readme_cli_section(), flags=re.M)
    assert {tuple(cmd.split()) for cmd, _ in rows} == set(READS)
    for cmd, options in rows:
        named = set(re.findall(r"--[a-z-]+", options))
        assert named == {f for f in VALUES if accepts(tuple(cmd.split()), f)}, cmd
