"""The error contract of src/ikdeg, read off its syntax trees.

errors.py defines three classes: the base IKDegError, InvalidParameters
(an argument the call does not accept; the CLI exits 2) and CheckFailed
(an exact check on the program's own values failed; the CLI exits 1).
Every raise in the library names one of the two concrete classes, except
the ValueError of kernels' cyclic convolution, which is arithmetic below
the library's arguments. No check is an assert, which `python -O` strips.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ikdeg"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_errors_defines_exactly_the_three_classes():
    body = _trees()["errors"].body
    docstring, *classes = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert all(isinstance(node, ast.ClassDef) for node in classes)
    assert [node.name for node in classes] == ["IKDegError", "InvalidParameters", "CheckFailed"]


def test_every_raise_names_a_concrete_class():
    others = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = "a bare raise" if exc is None else ast.unparse(exc)
                if name not in ("InvalidParameters", "CheckFailed"):
                    others.append((module, name))
    assert others == [("kernels", "ValueError")]


def test_no_assert_statement():
    asserts = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
