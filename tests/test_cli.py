import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ikdeg.cli import CSV_FIELDS, build_parser, main
from ikdeg.errors import InvalidParameters


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "--p", "5", "--n", "1")
    assert code == 0
    assert "identity p=5 n=1: ok" in out


def test_verify_identity_budget_skipping_everything_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "identity", "--budget", "0")
    assert code == 2
    assert out == ""
    assert err == "error: budget 0 skips every identity case\n"


def test_verify_identity_partial_budget_skip(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "--p", "13", "--budget", "100")
    assert code == 0
    assert out.splitlines() == [
        "identity p=13 n=1: ok (12 values of b)",
        "identity p=13 n=2: skipped (budget)",
        "identity p=13 n=3: skipped (budget)",
    ]


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ikdeg", "sum", "--p", "5", "--n", "1", "--b", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "degree(20*IK) = 2" in proc.stdout


def test_verify_stickelberger_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "stickelberger", "--p", "7")
    assert code == 0
    assert "stickelberger p=7: ok" in out


def test_verify_degree_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "degree", "--p", "7", "--n", "2")
    assert code == 0
    assert "degree p=7" in out


def test_invalid_prime_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "degree", "--p", "4")
    assert code == 2
    assert "error" in err


def test_sum_both_paths(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "--p", "3", "--n", "1", "--b", "1", "--path", "both"
    )
    assert code == 0
    assert "paths agree: True" in out
    assert "degree(IK) = 1" in out


def test_sum_formula_degree(capsys):
    code, out, _ = run_cli(capsys, "sum", "--p", "5", "--n", "1", "--b", "1")
    assert code == 0
    assert "degree(20*IK) = 2" in out
    assert "minpoly(20*IK) = [-400, 20, 1]" in out


def test_sum_missing_args(capsys):
    code, _, err = run_cli(capsys, "sum", "--p", "5", "--n", "1")
    assert code == 2
    assert "sum needs" in err


def test_sum_zero_b(capsys):
    code, _, err = run_cli(capsys, "sum", "--p", "5", "--n", "1", "--b", "0")
    assert code == 2


def test_sum_budget_exceeded(capsys):
    code, _, err = run_cli(
        capsys,
        "sum", "--p", "13", "--n", "6", "--b", "1", "--path", "brute", "--budget", "100",
    )
    assert code == 2
    assert "budget" in err


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
        ["verify", "degree", "--p", "5", "--n", "0"],
        ["verify", "degree", "--p-max", "1"],
        ["verify", "identity", "--p", "0"],
        ["verify", "identity", "--n", "0"],
        ["verify", "stickelberger", "--p-max", "2"],
        ["verify", "stickelberger", "--p", "5", "--precision", "0"],
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,pair",
    [
        (["verify", "stickelberger", "--p", "5", "--p-max", "3"], ("--p-max", "--p")),
        (["verify", "stickelberger", "--p-max", "3", "--p", "5"], ("--p", "--p-max")),
        (["verify", "degree", "--p", "5", "--p-max", "3", "--n", "1", "--n-max", "2"], ("--p-max", "--p")),
        (["verify", "degree", "--p", "5", "--n", "1", "--n-max", "2"], ("--n-max", "--n")),
        (["verify", "degree", "--n-max", "2", "--n", "1"], ("--n", "--n-max")),
    ],
)
def test_value_and_maximum_together_exits_2(capsys, argv, pair):
    # --p (--n) is the maximum itself, so giving --p-max (--n-max) as well
    # would silently drop one of the two
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: argument {pair[0]}: not allowed with argument {pair[1]}\n"


# The options each command or verify suite reads; every other option must be
# rejected at parse time.
READS = {
    ("census",): ("--p", "--p-max", "--k", "--n", "--n-max", "--format", "--out"),
    ("sum",): ("--p", "--k", "--n", "--b", "--budget", "--path"),
    ("verify", "identity"): ("--p", "--n", "--budget"),
    ("verify", "degree"): ("--p", "--p-max", "--n", "--n-max"),
    ("verify", "stickelberger"): ("--p", "--p-max"),
    ("verify", "cases"): (),
    ("verify", "bounds"): (),
    ("verify", "all"): (),
}
# A well-formed value for every option any command ever took.
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
        build_parser().parse_args([*command, flag, VALUES[flag]])
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
    assert sum(map(len, READS.values())) == 22


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
        build_parser().parse_args(shlex.split(line.split("ikdeg ", 1)[1]))


def test_readme_option_table_matches_parser():
    rows = re.findall(r"^\| `([a-z ]+)` \| (.*) \|$", _readme_cli_section(), flags=re.M)
    assert {tuple(cmd.split()) for cmd, _ in rows} == set(READS)
    for cmd, options in rows:
        named = set(re.findall(r"--[a-z-]+", options))
        assert named == {f for f in VALUES if accepts(tuple(cmd.split()), f)}, cmd
