"""Every function defined in src/ikdeg is entered by some command.

A child process runs COMMANDS through cli.main under a sys.setprofile hook
and reports the functions of ikdeg (module functions, methods, properties
and cached functions, each by the code object in its own module's file)
that it never entered. Each of them must be in UNREACHED with its reason,
and each entry of UNREACHED must still be unreached, so the list only
shrinks: code that only the tests run cannot grow back unnoticed. No
function that ikdeg.__all__ exports may be among the unreached: the
package root is what the commands run, and the tests' oracles are
imported from their own modules.

Run as a script (`python tests/test_reachability.py OUT_DIR`, with src on
PYTHONPATH) it is that child and prints its report as JSON.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# (argv, exit code): every verify suite, censuses at k = 1 and 2 in each
# format, sum at q = 2, 9, 13 and 4096 on both paths, and the exit-2 paths.
# {out} is a scratch directory.
COMMANDS = (
    ("verify identity", 0),
    ("verify degree", 0),
    ("verify degree --p-max 7 --n-max 2", 0),
    ("verify divisibility", 0),
    ("verify stickelberger", 0),
    ("verify stickelberger --p 5", 0),
    ("verify cases", 0),
    ("verify bounds", 0),
    ("verify all", 0),
    ("census --p 3 --p-max 7 --n 1 --n-max 2", 0),
    ("census --p 3 --p-max 7 --n 1 --n-max 2 --format json", 0),
    ("census --p 3 --p-max 7 --n 1 --n-max 2 --format table", 0),
    ("census --p 2 --p-max 3 --k 2 --n 1 --n-max 2", 0),
    ("census --p 2 --p-max 3 --k 2 --n 1 --n-max 2 --format json", 0),
    ("census --p 2 --p-max 3 --k 2 --n 1 --n-max 2 --format table", 0),
    ("census --p 5 --out {out}/census.csv", 0),
    ("sum --p 2 --n 1 --b 1 --path both", 0),
    ("sum --p 3 --k 2 --n 2 --b 1:2 --path both", 0),
    ("sum --p 13 --n 2 --b 5 --path both", 0),
    ("sum --p 13 --n 1 --b 3", 0),
    ("sum --p 13 --n 1 --b 3 --path brute", 0),
    ("sum --p 2 --k 12 --n 2 --b 1 --path both", 0),
    ("-h", 0),
    ("verify -h", 0),
    ("sum --help", 0),
    ("sum --p 4 --n 1 --b 1", 2),  # not prime
    ("sum --p 5 --n 0 --b 1", 2),
    ("sum --p 5 --n 1 --b 0", 2),
    ("sum --p 5 --n 1 --b x", 2),
    ("sum --p 5 --n 1", 2),
    ("verify identity --p 4", 2),
    ("verify degree --p-max 1", 2),  # empty range
    ("verify stickelberger --p 4", 2),
    ("verify stickelberger --p 1", 2),  # not prime
    ("census", 2),
    ("census --p 8", 2),
    ("census --p 3 --out {out}", 2),  # a directory: not writable as a file
    ("bogus", 2),
    ("verify", 2),
    ("sum --p", 2),
    ("census --p x", 2),
    ("census --p 3 --format xml", 2),
    ("verify degree --p 7", 2),  # an option the suite does not read
    ("sum --p 5 --x 1", 2),
)

PINNED = "named by perfbench/tracer.py"
DUNDER = "a dunder: ==, hash() and repr() call it, and the tests use them"

# The functions no command enters, each with its reason. A helper's reason
# names its callers, each of which is itself in this list.
UNREACHED = {
    **dict.fromkeys(
        (
            "charsum.additive_char",
            "charsum.bounds_check",
            "charsum.ik_formula_scaled",
            "charsum.kloosterman_brute",
            "charsum.mult_char",
            "charsum.s1_identity_check",
            "cyclo.change_conductor",
            "cyclo.CycInt.__add__",
            "cyclo.CycInt.__neg__",
            "cyclo.CycInt.__pow__",
            "cyclo.CycInt.__rsub__",
            "cyclo.embed_complex",
            "cyclo.galois_apply",
            "cyclo.lower_conductor",
            "ff.FieldElt.__add__",
            "ff.FieldElt.__mul__",
            "ff.FieldElt.__neg__",
            "ff.FieldElt.__pow__",
            "ff.FieldElt.__sub__",
            "ff.FieldElt.__truediv__",
            "ff.FieldElt.inverse",
            "galois.conjugate_set",
            "galois.equivariance_check",
            "kernels.linear_convolve",
            "padic.PadicElt.__add__",
            "padic.PadicElt.__init__",
            "padic.PadicElt.__mul__",
            "padic.PadicElt.__neg__",
            "padic.PadicElt.__pow__",
            "padic.PadicElt.__sub__",
            "padic._embed_table",
            "padic._embedded_scaled_ik",
            "padic.embed_cyclotomic",
            "padic.run_case_analysis",
            "padic.teichmuller",
            "padic.zeta_p_padic",
        ),
        PINNED,
    ),
    **dict.fromkeys(
        (
            "cyclo.CycInt.__hash__",
            "cyclo.CycInt.__repr__",
            "ff.Field.__repr__",
            "ff.FieldElt.__eq__",
            "ff.FieldElt.__hash__",
            "ff.FieldElt.__repr__",
            "padic.PadicElt.__eq__",
            "padic.PadicElt.__hash__",
            "padic.PadicElt.__repr__",
        ),
        DUNDER,
    ),
    "ff.Field.one": "called by ff.FieldElt.__pow__",
    "ff.Field.trace": "called by charsum.additive_char, charsum.s1_identity_check",
    "ff.FieldElt._check": "called by ff.FieldElt.__add__, ff.FieldElt.__sub__, ff.FieldElt.__mul__",
    "cyclo.CycInt.from_int": "called by cyclo.CycInt.__pow__, cyclo.CycInt.__add__, charsum.ik_formula_scaled",
    "cyclo.CycInt.monomial": "called by charsum.additive_char, charsum.mult_char, charsum.s1_identity_check",
    "padic.PadicElt._check": "called by padic.PadicElt.__add__, padic.PadicElt.__sub__, padic.PadicElt.__mul__",
    "padic.PadicElt._normalize": "called by padic.PadicElt.__init__",
    "padic.PadicElt.from_int": "called by padic.teichmuller, padic.PadicElt.__add__",
    "padic.PadicElt.monomial": "called by padic.zeta_p_padic",
    "padic.PadicElt.one": "called by padic.zeta_p_padic, padic._embed_table, padic.PadicElt.__pow__",
    "padic.PadicElt.pi_valuation": "called by padic.zeta_p_padic",
    "padic.PadicElt.zero": "called by padic.embed_cyclotomic",
    "padic._exponent_split": "called by padic.embed_cyclotomic",
    "cli.run": "the console entry point: it exits the process, so the commands run cli.main",
    "ff.Field.zero": "the tests' and oracles' zero element",
}


def _unwrap(obj):
    """The function under a classmethod, staticmethod, property,
    cached_property or lru_cache."""
    for attr in ("__func__", "fget", "func", "__wrapped__"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            return _unwrap(inner)
    return obj


def _child(out_dir):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)  # before ikdeg is imported, so import-time calls count
    from ikdeg import cli

    codes = []
    for argv, want in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append((argv, cli.main(argv.format(out=out_dir).split()), want))
    sys.setprofile(None)
    defined = {}
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        mod = importlib.import_module("ikdeg" if path.stem == "__init__" else f"ikdeg.{path.stem}")
        objs = list(vars(mod).values())
        for cls in [o for o in objs if isinstance(o, type) and o.__module__ == mod.__name__]:
            objs += vars(cls).values()
        for obj in objs:
            fn = _unwrap(obj)
            code = getattr(fn, "__code__", None)
            if not isinstance(obj, type) and code is not None and code.co_filename == mod.__file__:
                defined[code] = f"{path.stem}.{fn.__qualname__}"
    unreached = sorted(name for code, name in defined.items() if code not in entered)
    return {"codes": codes, "defined": sorted(defined.values()), "unreached": unreached}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("out"))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _exported():
    """The functions ikdeg.__all__ names, as the report names them; a class
    counts by its own __init__."""
    import ikdeg

    out = []
    for name in ikdeg.__all__:
        obj = getattr(ikdeg, name)
        fn = _unwrap(vars(obj).get("__init__") if isinstance(obj, type) else obj)
        if hasattr(fn, "__code__"):
            out.append(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}")
    return out


def test_every_function_is_entered_by_a_command_or_allowlisted(report):
    assert [c for c in report["codes"] if c[1] != c[2]] == []
    unreached = set(report["unreached"])
    assert sorted(unreached - set(UNREACHED)) == [], "no command enters these"
    assert sorted(set(UNREACHED) - unreached) == [], "allowlisted, but reached or gone"
    assert len(report["defined"]) > len(UNREACHED)


def test_the_package_root_exports_only_what_a_command_enters(report):
    exported = _exported()
    assert sorted(set(exported) - set(report["defined"])) == []
    assert sorted(set(exported) & set(report["unreached"])) == [], "exported, but no command enters them"


def test_each_allowlist_reason_holds():
    tracer = {}
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), tracer)
    pinned = {f"{layer}.{name}" for layer, names in tracer["SPANNED"].items() for name in names}
    pinned |= {f"{layer}.{cls}.{op}" for (layer, cls), ops in tracer["COUNTED"].items() for op in ops}
    for name, reason in UNREACHED.items():
        attr = name.rsplit(".", 1)[1]
        if reason == PINNED:
            assert name in pinned, name
        elif reason == DUNDER:
            assert attr.startswith("__") and attr.endswith("__") and name not in pinned, name
        elif reason.startswith("called by "):
            callers = reason[len("called by "):].split(", ")
            assert all(c in UNREACHED for c in callers), name


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1])))
