"""Differential tests of the per-cell passes against their Python loops.

`cell_reference.py` keeps the loops as they stood before the passes moved
into C builtins; every fast pass must give the very same result.
"""

from __future__ import annotations

import sys
from itertools import repeat

import pytest
from cell_reference import (
    reference_dihedral_table,
    reference_extraspecial2_table,
    reference_histogram,
    reference_psl2_even_table,
    reference_table_json,
)

from chartab.cli import main
from chartab.exactnum import Cyclotomic
from chartab.oracle import builtin_perm_group, dixon_character_table
from chartab.stats import _histogram
from chartab.tables import (
    CharacterTable,
    ClassInfo,
    Dihedral,
    Extraspecial2,
    Product,
    Psl2Even,
    build_table,
    dihedral_table,
    extraspecial2_table,
    psl2_even_table,
    trivial_table,
)


@pytest.mark.parametrize("n", range(1, 12))
def test_dihedral_rows_match_the_reference(n):
    fast = dihedral_table(n)
    slow = reference_dihedral_table(n)
    assert fast.rows == slow.rows
    assert [v.key() for v in fast.palette] == [v.key() for v in slow.palette]
    assert fast.classes == slow.classes
    assert fast.character_names == slow.character_names
    assert fast == slow


@pytest.mark.parametrize("r", range(1, 11))
def test_psl2_rows_match_the_reference(r):
    fast = psl2_even_table(r)
    slow = reference_psl2_even_table(r)
    assert fast.rows == slow.rows
    assert [v.key() for v in fast.palette] == [v.key() for v in slow.palette]
    assert fast.classes == slow.classes
    assert fast.character_names == slow.character_names
    assert fast == slow


@pytest.mark.parametrize(
    "build, per_class",
    [(lambda: dihedral_table(9), 20), (lambda: psl2_even_table(9), 40)],
    ids=["dihedral(9)", "psl2even(9)"],
)
def test_cosine_rows_take_no_python_step_per_cell(build, per_class):
    build()  # warm the caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        t = build()
    finally:
        sys.setprofile(outer)
    # the per-cell loops made one call per cosine cell (over 60,000 here)
    assert calls < per_class * t.num_classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extraspecial_rows_match_the_reference(n):
    fast = extraspecial2_table(n)
    slow = reference_extraspecial2_table(n)
    assert fast.rows == slow.rows
    assert [v.key() for v in fast.palette] == [v.key() for v in slow.palette]
    assert fast == slow


# small parameters and those of the benchmark catalog's stats jobs
HISTOGRAM_SPECS = [
    *(Dihedral(n) for n in (1, 2, 3, 6, 7, 8, 9)),
    *(Extraspecial2(n) for n in (1, 2, 3, 4)),
    *(Psl2Even(r) for r in (1, 2, 3, 4, 5, 6, 7)),
    Product((Dihedral(2), Psl2Even(2))),
    Product((Extraspecial2(1), Extraspecial2(1), Dihedral(3))),
    pytest.param(
        lambda: dixon_character_table(builtin_perm_group(Psl2Even(3))), id="oracle-psl2even(3)"
    ),
]
NAMED_ROW = {Dihedral: "sign_rot", Extraspecial2: "faithful", Psl2Even: "steinberg"}


@pytest.mark.parametrize("spec", HISTOGRAM_SPECS, ids=repr)
def test_histogram_matches_the_reference(spec):
    t = spec() if callable(spec) else build_table(spec)
    one = [t.rows[t.character_index(NAMED_ROW.get(type(spec), t.character_names[-1]))]]
    for rows in (t.rows, one, []):
        fast = _histogram(t, zip(rows, repeat(1)))
        slow = reference_histogram(t, rows)
        assert [(v.key(), n, m) for v, n, m in fast] == [(v.key(), n, m) for v, n, m in slow]
    # a row of weight w counts as w copies of it
    weighted = [(row, 1 + i % 3) for i, row in enumerate(t.rows)]
    fast = _histogram(t, weighted)
    slow = reference_histogram(t, [row for row, w in weighted for _ in range(w)])
    assert [(v.key(), n, m) for v, n, m in fast] == [(v.key(), n, m) for v, n, m in slow]


def _odd_names_table() -> CharacterTable:
    one, neg = Cyclotomic.one(), Cyclotomic.from_rational(-1)
    return CharacterTable.from_values(
        group_name='C2 "quoted" \\ é',
        group_order=2,
        classes=(ClassInfo("1", 1, 1), ClassInfo('g"\\ß', 1, 2)),
        character_names=("tri\\vial", 'sígn "χ"'),
        characters=((one, one), (one, neg)),
    )


def _lines(text: str) -> list[str]:
    """The text split at each newline, a lossless split: pytest reports the
    first differing line of two lists at once, where its diff of two
    megabyte strings takes a minute."""
    return text.split("\n")


# the benchmark catalog's JSON table jobs
CATALOG_TABLES = [
    *(Dihedral(n) for n in (6, 7, 8)),
    *(Extraspecial2(n) for n in (2, 3)),
    *(Psl2Even(r) for r in (3, 4, 5, 6)),
]


@pytest.mark.parametrize("spec", CATALOG_TABLES, ids=repr)
def test_table_json_matches_the_reference_on_the_catalog(spec):
    t = build_table(spec)
    assert _lines(t.to_json_text()) == _lines(reference_table_json(t))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_table(Product((Dihedral(2), Psl2Even(2), Extraspecial2(1)))),
        lambda: dixon_character_table(builtin_perm_group(Psl2Even(2))),
        trivial_table,
        _odd_names_table,
        lambda: CharacterTable.from_values("none", 1, (ClassInfo("1", 1, 1),), (), ()),
        lambda: CharacterTable.from_values("empty", 1, (), ("a", "b"), ((), ())),
    ],
    ids=["product", "oracle", "trivial", "odd-names", "no-characters", "no-classes"],
)
def test_table_json_matches_the_reference(make):
    t = make()
    assert _lines(t.to_json_text()) == _lines(reference_table_json(t))


def test_table_command_prints_the_reference_json(capsys):
    assert main(["table", "psl2even", "3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert _lines(out) == _lines(reference_table_json(build_table(Psl2Even(3))) + "\n")
