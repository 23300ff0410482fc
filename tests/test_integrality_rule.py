"""Integrality is decided in `exactnum.canonicalize` alone.

Every `Cyclotomic` is built through `canonicalize`, which stores an
integral coefficient as an int and refuses any other with
`NotAlgebraicIntegerError`; arithmetic on ints stays int.  A reader that
checks integrality again holds a second copy of that decision, so no
other code raises the error, and no module names the helpers that once
checked it again.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chartab").glob("*.py"))
RETIRED = ("is_algebraic_integer", "_require_integral", "_norm_coeff")


def _refusals(node):
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.Raise)
        and sub.exc is not None
        and "NotAlgebraicIntegerError" in ast.unparse(sub.exc)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_canonicalize_refuses_a_non_integer(path):
    tree = ast.parse(path.read_text())
    if path.name != "exactnum.py":
        assert not _refusals(tree)
        return
    (canonicalize,) = (f for f in tree.body if getattr(f, "name", None) == "canonicalize")
    assert len(_refusals(canonicalize)) == len(_refusals(tree)) > 0


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_reader_checks_integrality_again(path):
    text = path.read_text()
    for name in RETIRED:
        assert name not in text, f"{path.name} names {name!r}"
