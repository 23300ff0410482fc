"""The size-guard rule lives in `tables` alone.

`tables.count_past` decides when a count is too large to build and names
it ``at least 2^b``; every class and order guard calls it.  A module that
reads `DECIMAL_BELOW` or writes ``at least 2^`` itself holds a second
copy of the rule, which can drift from the first, and so does one that
compares a count with a ``*_LIMIT`` by hand.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chartab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_tables_decides_and_names_a_huge_count(path):
    if path.name == "tables.py":
        return
    text = path.read_text()
    for marker in ("DECIMAL_BELOW", "at least 2^"):
        assert marker not in text, f"{path.name} contains {marker!r}"


def test_the_rule_is_in_tables():
    assert "def count_past(" in (SOURCES[0].parent / "tables.py").read_text()


def _limit_names(node):
    for sub in ast.walk(node):
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if isinstance(name, str) and name.endswith("_LIMIT"):
            yield name


# tables holds the rule; the limits of stats bound bit estimates and the
# --kmax range, not counts
@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ("tables.py", "stats.py")], ids=lambda p: p.name
)
def test_no_limit_is_compared_by_hand(path):
    compared = [
        f"{path.name}:{node.lineno} compares {name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for name in _limit_names(operand)
    ]
    assert not compared
