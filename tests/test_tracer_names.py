"""Every name the benchmark tracer wraps or reads resolves in ikdeg.

perfbench/tracer.py names ikdeg functions, operators and caches as
strings. A rename in ikdeg would otherwise surface only in a traced
benchmark run; here it fails the test suite. The tracer is read, not
imported as a package, and not edited.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _tracer():
    # exec the source into a fresh module: no import path change, no bytecode written
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(mod))
    return mod


TRACER = _tracer()


def _missing(layer, name, check):
    try:
        check(importlib.import_module(f"ikdeg.{layer}"), name)
    except (ImportError, AttributeError, KeyError, AssertionError) as exc:
        return [f"{layer}.{name}: {exc!r}"]
    return []


def _callable(mod, name):
    assert callable(getattr(mod, name))


def _class_op(mod, name):
    cls_name, op = name.split(".")
    assert callable(vars(getattr(mod, cls_name))[op])  # the tracer reads the class dict


def _cache(mod, name):
    getattr(mod, name).cache_info()


def test_every_traced_name_resolves_in_ikdeg():
    missing = []
    for layer in TRACER.LAYERS:
        missing += _missing(layer, "__name__", getattr)
    for layer, names in TRACER.SPANNED.items():
        for name in names:
            missing += _missing(layer, name, _callable)
    for (layer, cls_name), ops in TRACER.COUNTED.items():
        for op in ops:
            missing += _missing(layer, f"{cls_name}.{op}", _class_op)
    missing += _missing("ff", "Field.__init__", _class_op)  # spanned as ff.Field
    for layer, name in TRACER.CACHES:
        missing += _missing(layer, name, _cache)
    assert not missing, missing


def test_tracer_installs_and_reports_in_a_fresh_process():
    # install() rebinds names across ikdeg, so it runs in its own interpreter
    script = (
        "import sys\n"
        "import ikdeg.cli\n"
        f"sys.path.insert(0, {str(TRACER_PATH.parent)!r})\n"
        "sys.dont_write_bytecode = True\n"
        "import tracer\n"
        "t = tracer.Tracer().install()\n"
        "assert ikdeg.cli.main(['sum', '--p', '5', '--n', '1', '--b', '2']) == 0\n"
        "assert ikdeg.cli.main('census --p 3 --p-max 7 --n 1 --n-max 2'.split()) == 0\n"
        "assert t.counts() and t.cache_info()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
