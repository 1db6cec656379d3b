import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ikdeg.cli import CSV_FIELDS, main


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
