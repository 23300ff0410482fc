"""Character-table builders: frozen small tables, counting lemmas, validation."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from validate_reference import reference_validate_table

import chartab.oracle
import chartab.stats
import chartab.tables
from chartab.exactnum import Cyclotomic, canonicalize, classify_value
from chartab.oracle import GroupTooLargeError, builtin_perm_group, dixon_character_table
from chartab.stats import char_stats, group_stats
from chartab.tables import (
    CharacterTable,
    ClassInfo,
    Dihedral,
    Extraspecial2,
    Family,
    InvalidParameterError,
    MalformedTableError,
    Product,
    Psl2Even,
    TableTooLargeError,
    build_table,
    count_past,
    describe_count,
    dihedral_table,
    extraspecial2_table,
    log2_floor,
    product_table,
    psl2_even_table,
    spec_class_count,
    spec_group_order,
    spec_to_json,
    trivial_table,
    validate_table,
)
from chartab.tables import _row_orthogonality_proved


def entry(t: CharacterTable, char: str, cls: str) -> Cyclotomic:
    return t.characters[t.character_index(char)][t.class_index(cls)]


# ---------------------------------------------------------------------------
# dihedral


def test_dihedral_order8_frozen():
    t = dihedral_table(2)
    assert t.group_name == "dihedral(2)"
    assert t.group_order == 8
    assert [c.name for c in t.classes] == ["1", "t^2", "t^1", "s", "st"]
    assert [c.size for c in t.classes] == [1, 1, 2, 2, 2]
    assert [c.element_order for c in t.classes] == [1, 2, 4, 2, 2]
    assert t.degrees == (1, 1, 1, 1, 2)
    row = t.characters[t.character_index("rot1")]
    assert [v.as_rational() for v in row] == [2, -2, 0, 0, 0]
    assert validate_table(t).ok


def test_dihedral_order16_classes_and_cosines():
    t = dihedral_table(3)
    assert [c.size for c in t.classes] == [1, 1, 2, 2, 2, 4, 4]
    assert [c.element_order for c in t.classes] == [1, 2, 8, 4, 8, 2, 2]
    # rot_h on the rotation t^k carries the pair zeta^(hk) + zeta^(-hk)
    root2 = canonicalize(8, {1: 1, 7: 1})
    assert entry(t, "rot1", "t^1") == root2
    assert entry(t, "rot1", "t^3") == -root2
    assert entry(t, "rot2", "t^1").is_zero
    assert entry(t, "rot3", "t^2").is_zero
    assert entry(t, "rot1", "s").is_zero
    assert validate_table(t).ok


def test_dihedral_n1_is_klein_four():
    t = dihedral_table(1)
    assert t.group_order == 4
    assert t.num_classes == 4
    assert all(c.size == 1 for c in t.classes)
    assert t.degrees == (1, 1, 1, 1)
    assert [v.as_rational() for v in t.characters[t.character_index("sign_refl")]] == [1, 1, -1, -1]
    assert validate_table(t).ok


def two_adic(h: int) -> int:
    return (h & -h).bit_length() - 1


@pytest.mark.parametrize("n", range(2, 7))
def test_dihedral_zero_counts(n):
    t = dihedral_table(n)
    half = 2 ** (n - 1)
    cell_total = 0
    elem_total = 0
    for h in range(1, half):
        row = t.characters[t.character_index(f"rot{h}")]
        cells = sum(1 for v in row if v.is_zero)
        elems = sum(c.size for c, v in zip(t.classes, row) if v.is_zero)
        # counts depend only on the 2-adic valuation of the label
        assert cells == 2 ** two_adic(h) + 2
        assert elems == 2 ** (two_adic(h) + 1) + 2**n
        cell_total += cells
        elem_total += elems
    assert cell_total == 2 ** (n - 2) * (n - 1) + 2**n - 2
    assert elem_total == 2 ** (n - 1) * (n - 1) + 2 ** (2 * n - 1) - 2**n


# ---------------------------------------------------------------------------
# extraspecial


def test_extraspecial_frozen_shape():
    t = extraspecial2_table(2)
    assert t.group_order == 32
    assert t.num_classes == 17
    assert t.degrees == (1,) * 16 + (4,)
    row = t.characters[t.character_index("faithful")]
    assert row[0].as_rational() == 4
    assert row[t.class_index("z")].as_rational() == -4
    # the faithful character vanishes off the center
    assert all(v.is_zero for v in row[2:])
    assert validate_table(t).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extraspecial_order_four_class_count(n):
    # plus type: the quadratic form is split, so 2**(2n-1) - 2**(n-1)
    # noncentral classes square to the central involution
    t = extraspecial2_table(n)
    quartic = [c for c in t.classes if c.element_order == 4]
    assert len(quartic) == 2 ** (2 * n - 1) - 2 ** (n - 1)
    assert all(c.size == 2 for c in quartic)


# ---------------------------------------------------------------------------
# psl2


def test_psl2_q2_is_symmetric_group_3():
    t = psl2_even_table(1)
    assert t.group_order == 6
    assert [(c.name, c.size, c.element_order) for c in t.classes] == [
        ("1", 1, 1),
        ("u", 3, 2),
        ("nonsplit1", 2, 3),
    ]
    assert t.degrees == (1, 2, 1)
    assert [v.as_rational() for v in t.characters[t.character_index("discrete1")]] == [1, -1, 1]
    assert validate_table(t).ok


def test_psl2_q4_frozen():
    t = psl2_even_table(2)
    assert t.group_order == 60
    assert [c.size for c in t.classes] == [1, 15, 20, 12, 12]
    assert [c.element_order for c in t.classes] == [1, 2, 3, 5, 5]
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    # discrete-series value on a nonsplit class is a negated cosine pair
    assert entry(t, "discrete1", "nonsplit1") == canonicalize(5, {1: -1, 4: -1})
    assert validate_table(t).ok


@pytest.mark.parametrize("r", [1, 2, 3])
def test_psl2_validates(r):
    assert validate_table(psl2_even_table(r)).ok


# ---------------------------------------------------------------------------
# products


def test_product_table_frozen_spots():
    t = product_table(dihedral_table(2), psl2_even_table(1))
    assert t.group_name == "dihedral(2) x psl2even(1)"
    assert t.group_order == 48
    assert t.num_classes == 15
    c = next(c for c in t.classes if c.name == "(t^1,nonsplit1)")
    assert (c.size, c.element_order) == (4, 12)
    assert entry(t, "rot1*steinberg", "(1,1)").as_rational() == 4
    assert entry(t, "rot1*steinberg", "(t^2,u)").is_zero
    assert entry(t, "rot1*trivial", "(t^2,u)").as_rational() == -2
    assert validate_table(t).ok


def test_product_value_can_recombine_to_root_of_unity():
    # zeta8 pairs from two factors multiply to a rational: (sqrt2)(sqrt2) = 2
    a = dihedral_table(3)
    t = product_table(a, a)
    v = entry(t, "rot1*rot1", "(t^1,t^1)")
    assert v.as_rational() == 2


def test_product_class_limit(monkeypatch):
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 100)
    a = extraspecial2_table(2)  # 17 classes
    with pytest.raises(TableTooLargeError) as exc:
        product_table(a, a)
    assert "289" in str(exc.value)


def test_product_class_limit_env(monkeypatch):
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 10)
    a = dihedral_table(2)
    with pytest.raises(TableTooLargeError):
        product_table(a, a)
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 25)
    assert product_table(a, a).num_classes == 25


@pytest.mark.parametrize(
    "spec",
    [Dihedral(5), Extraspecial2(2), Psl2Even(4), Product((Dihedral(2), Dihedral(2)))],
    ids=repr,
)
def test_build_table_class_limit_covers_every_spec(spec, monkeypatch):
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 10)
    with pytest.raises(TableTooLargeError) as exc:
        build_table(spec)
    assert f"{spec_class_count(spec)} classes" in str(exc.value)
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", spec_class_count(spec))
    assert build_table(spec).num_classes == spec_class_count(spec)


@pytest.mark.parametrize(
    "generate, family, param",
    [(dihedral_table, Dihedral, 5), (extraspecial2_table, Extraspecial2, 2),
     (psl2_even_table, Psl2Even, 4)],
    ids=["dihedral", "extraspecial2", "psl2even"],
)
def test_public_builders_check_their_own_guard(generate, family, param, monkeypatch):
    spec = family(param)
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 10)
    monkeypatch.setattr(chartab.oracle, "GROUP_LIMIT", 10)
    with pytest.raises(TableTooLargeError, match=rf"^table would have {spec_class_count(spec)} "):
        generate(param)
    for group in (spec, Product((Dihedral(1), spec))):
        with pytest.raises(GroupTooLargeError):
            builtin_perm_group(group)


def test_public_builders_refuse_a_huge_parameter_up_front():
    with pytest.raises(TableTooLargeError, match=r"would have 549755813891 classes"):
        dihedral_table(40)
    with pytest.raises(GroupTooLargeError):
        builtin_perm_group(Extraspecial2(20))


def test_product_guards_read_the_factors_off_their_parameters():
    # a count of 2^(10^9 - 1) would take 125 MB to build; the sum of the
    # factors' floor(log2) refuses first, and a lone factor keeps its line
    lines, orders = [], []
    tracemalloc.start()
    try:
        for spec in (Dihedral(10**9), Product((Dihedral(10**9),)),
                     Product((Dihedral(10**9), Product((Psl2Even(10**9),))))):
            with pytest.raises(TableTooLargeError) as exc:
                build_table(spec)
            lines.append(str(exc.value))
            with pytest.raises(GroupTooLargeError) as exc:
                builtin_perm_group(spec)
            orders.append(str(exc.value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert lines[0] == lines[1]
    assert lines[1].startswith("table would have at least 2^999999999 classes")
    assert lines[2].startswith("table would have at least 2^1999999999 classes")
    assert orders[0] == orders[1]
    assert orders[1] == "group would have at least 2^1000000001 elements, above the guard 200000"


def test_build_table_checks_a_single_family_once(monkeypatch):
    # the generator checks its own family; build_table does not check it again
    calls, real = [], chartab.tables.count_past

    def counting(b, count, limit):
        calls.append(b)
        return real(b, count, limit)

    monkeypatch.setattr(chartab.tables, "count_past", counting)
    build_table(Dihedral(5))
    assert calls == [log2_floor(Dihedral(5))]


def test_build_table_refuses_a_product_before_any_factor(monkeypatch):
    # each dihedral(1) factor has 4 classes, within the guard; the product's 16 are not
    def refuse(n):
        raise AssertionError(f"built the factor dihedral({n})")

    f = chartab.tables.FAMILIES[Dihedral]
    family = Family(f.kind, f.param, refuse, f.class_count, f.class_count_log2,
                    f.group_order, f.group_order_log2)
    monkeypatch.setitem(chartab.tables.FAMILIES, Dihedral, family)
    monkeypatch.setattr(chartab.tables, "CLASS_LIMIT", 10)
    with pytest.raises(TableTooLargeError, match=r"^table would have 16 classes, above the guard 10"):
        build_table(Product((Dihedral(1), Dihedral(1))))


def test_class_guard_names_a_huge_count_by_its_size():
    # 2^19999 + 3 classes: its 6021 decimal digits are past Python's
    # int-to-string limit, so the guard must not print them
    with pytest.raises(TableTooLargeError) as exc:
        build_table(Dihedral(20000))
    assert "would have at least 2^19999 classes" in str(exc.value)


# ---------------------------------------------------------------------------
# specs and dispatch


def test_build_table_dispatch():
    assert build_table(Dihedral(3)) == dihedral_table(3)
    assert build_table(Extraspecial2(1)) == extraspecial2_table(1)
    assert build_table(Psl2Even(2)) == psl2_even_table(2)
    p = Product((Dihedral(1), Psl2Even(1)))
    assert build_table(p) == product_table(dihedral_table(1), psl2_even_table(1))


def test_spec_counts_and_orders():
    assert spec_class_count(Dihedral(4)) == 11
    assert spec_group_order(Dihedral(4)) == 32
    assert spec_class_count(Extraspecial2(2)) == 17
    assert spec_class_count(Psl2Even(3)) == 9
    assert spec_group_order(Psl2Even(3)) == 504
    p = Product((Dihedral(2), Psl2Even(1)))
    assert spec_class_count(p) == 15
    assert spec_group_order(p) == 48


def test_spec_counts_and_orders_match_the_tables():
    for spec in [*(f(k) for f in (Dihedral, Extraspecial2, Psl2Even) for k in range(1, 5)),
                 Product((Extraspecial2(1), Psl2Even(2)))]:
        t = build_table(spec)
        assert (spec_class_count(spec), spec_group_order(spec)) == (t.num_classes, t.group_order)


def test_count_past_reads_the_floor_log2_of_each_count_off_the_parameter():
    for family in (Dihedral, Extraspecial2, Psl2Even):
        for k in range(1, 70):
            spec = family(k)
            for order, count in ((False, spec_class_count(spec)), (True, spec_group_order(spec))):
                # log2_floor is floor(log2) of the count itself
                assert log2_floor(spec, order) == count.bit_length() - 1
    # a product sums its factors' floor(log2): a lower bound, exact for one factor
    assert log2_floor(Product((Dihedral(40),))) == 39
    assert log2_floor(Product((Dihedral(40), Psl2Even(3)))) == 42
    assert log2_floor(Product((Dihedral(40), Product((Psl2Even(3),))))) == 42
    assert log2_floor(Product(())) == 0
    with pytest.raises(InvalidParameterError, match=r"^n must be a positive integer, got 0"):
        log2_floor(Dihedral(0))

    def never():
        raise AssertionError("built the count")

    # from 2^60 > 10^18 on, and past the limit, the count is named by b alone
    assert count_past(60, never, 10**6) == "at least 2^60"
    assert count_past(70, never, (1 << 70) - 1) == "at least 2^70"
    assert count_past(10**9, never, 1) == f"at least 2^{10**9}"
    # below that the count is built, named by describe_count, and past the
    # limit only above it
    for b, count in ((19, 999_999), (19, 10**6 + 1), (59, 10**18 - 1), (59, 10**18),
                     (69, (1 << 70) - 1)):
        for limit in (count - 1, count):
            expected = describe_count(count) if count > limit else None
            assert count_past(b, lambda: count, limit) == expected, (b, count, limit)
    assert count_past(59, lambda: 10**18, 1) == "at least 2^59"
    assert count_past(0, lambda: 1, 1) is None


@pytest.mark.parametrize(
    "spec",
    [Dihedral(0), Extraspecial2(-1), Psl2Even(-1), Product((Dihedral(2), Psl2Even(0)))],
    ids=repr,
)
def test_size_functions_and_realizations_share_the_parameter_rule(spec):
    for entry in (spec_class_count, spec_group_order, builtin_perm_group):
        with pytest.raises(InvalidParameterError, match=r"^[nr] must be a positive integer, got"):
            entry(spec)


def test_spec_json_round_trip():
    assert spec_to_json(Dihedral(5)) == {"kind": "dihedral", "n": 5}
    assert spec_to_json(Extraspecial2(2)) == {"kind": "extraspecial2", "n": 2}
    assert spec_to_json(Psl2Even(3)) == {"kind": "psl2even", "r": 3}
    assert spec_to_json(Product((Dihedral(1), Product((Psl2Even(2), Extraspecial2(1)))))) == {
        "kind": "product",
        "factors": [
            {"kind": "dihedral", "n": 1},
            {
                "kind": "product",
                "factors": [{"kind": "psl2even", "r": 2}, {"kind": "extraspecial2", "n": 1}],
            },
        ],
    }


@pytest.mark.parametrize(
    "bad",
    [Dihedral(0), Extraspecial2(0), Psl2Even(-1)],
)
def test_invalid_parameters(bad):
    with pytest.raises(InvalidParameterError):
        build_table(bad)


# ---------------------------------------------------------------------------
# serialization and validation


def test_validate_trivial():
    assert validate_table(trivial_table()).ok


def perturbed(t: CharacterTable, **overrides) -> CharacterTable:
    base = {
        "group_name": t.group_name,
        "group_order": t.group_order,
        "classes": t.classes,
        "character_names": t.character_names,
        "characters": t.characters,
    }
    base.update(overrides)
    return CharacterTable.from_values(**base)


def test_validate_catches_wrong_order():
    t = perturbed(dihedral_table(2), group_order=10)
    report = validate_table(t)
    assert not report.ok
    assert "class equation" in report.failure


def test_validate_catches_wrong_degree():
    t = dihedral_table(2)
    rows = list(t.characters)
    last = list(rows[-1])
    last[0] = Cyclotomic.one()  # degree 2 -> 1 breaks the degree equation
    rows[-1] = tuple(last)
    report = validate_table(perturbed(t, characters=tuple(rows)))
    assert not report.ok
    assert "degree equation" in report.failure


def test_validate_catches_broken_orthogonality():
    t = dihedral_table(2)
    rows = list(t.characters)
    last = list(rows[-1])
    i = t.class_index("t^2")
    last[i] = -last[i]  # (2, -2, ...) -> (2, 2, ...): degrees survive
    rows[-1] = tuple(last)
    report = validate_table(perturbed(t, characters=tuple(rows)))
    assert not report.ok
    assert "row orthogonality" in report.failure


def test_every_stored_coefficient_is_an_int():
    specs = [*(Dihedral(n) for n in range(1, 9)), *(Extraspecial2(n) for n in range(1, 5)),
             *(Psl2Even(r) for r in range(1, 7)), Product((Dihedral(2), Psl2Even(2)))]
    tables = [build_table(spec) for spec in specs]
    tables.append(dixon_character_table(builtin_perm_group(Psl2Even(2))))
    for t in tables:
        assert all(type(c) is int for v in t.palette for _, c in v.coeffs), t.group_name


def test_validate_catches_misplaced_identity():
    t = dihedral_table(2)
    classes = (t.classes[1], t.classes[0]) + t.classes[2:]
    report = validate_table(perturbed(t, classes=classes))
    assert not report.ok
    assert "identity" in report.failure


def test_validate_reports_a_table_with_no_classes():
    empty = CharacterTable("empty", 1, (), (), (), ())
    assert validate_table(empty) == chartab.tables.ValidationReport(
        False, "first class is not the identity class"
    )


def test_validate_catches_zero_class_size():
    # sizes 1, 1, 0, 4, 2 still sum to the order 8
    t = dihedral_table(2)
    sizes = (1, 1, 0, 4, 2)
    classes = tuple(ClassInfo(c.name, s, c.element_order) for c, s in zip(t.classes, sizes))
    report = validate_table(perturbed(t, classes=classes))
    assert report == chartab.tables.ValidationReport(False, "class t^1 size 0 is not positive")


def test_validate_catches_irrational_degree():
    t = dihedral_table(2)
    rows = list(t.characters)
    rows[-1] = (Cyclotomic.zeta(12, 2),) + rows[-1][1:]
    bad = perturbed(t, characters=tuple(rows))
    with pytest.raises(MalformedTableError, match="identity value z12\\^2 is not"):
        bad.degrees
    report = validate_table(bad)
    assert report.failure == "identity value z12^2 is not a positive integer"


def test_validate_catches_shape_problems():
    t = dihedral_table(2)
    report = validate_table(perturbed(t, characters=t.characters[:-1]))
    assert not report.ok
    ragged = t.characters[:-1] + (t.characters[-1][:-1],)
    report = validate_table(
        perturbed(t, characters=ragged, character_names=t.character_names)
    )
    assert not report.ok
    assert "ragged" in report.failure


def _with_cells(t: CharacterTable, cells: dict[tuple[int, int], Cyclotomic]) -> CharacterTable:
    rows = [list(row) for row in t.characters]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return perturbed(t, characters=tuple(map(tuple, rows)))


def _perturb(t: CharacterTable, rng: random.Random) -> CharacterTable:
    """One seeded perturbation; irrational values stay off the identity
    column, where the reference raises instead of reporting."""
    rows = t.characters
    i, j = rng.randrange(len(rows)), rng.randrange(1, t.num_classes)
    kind = rng.choice(["cell", "degree", "foreign", "swap_rows", "swap_cells", "shift"])
    if kind == "cell":
        return _with_cells(t, {(i, j): rng.choice(t.palette)})
    if kind == "degree":
        return _with_cells(t, {(i, 0): Cyclotomic.from_rational(rng.randint(-2, 3))})
    if kind == "foreign":
        m = rng.choice([3, 5, 7, 9, 12])
        return _with_cells(t, {(i, j): Cyclotomic.zeta(m, rng.randrange(1, m))})
    if kind == "swap_rows":
        i2 = rng.randrange(len(rows))
        swapped = list(rows)
        swapped[i], swapped[i2] = rows[i2], rows[i]
        return perturbed(t, characters=tuple(swapped))
    if kind == "swap_cells":
        j2 = rng.randrange(1, t.num_classes)
        return _with_cells(t, {(i, j): rows[i][j2], (i, j2): rows[i][j]})
    return _with_cells(t, {(i, j): rows[i][j] + Cyclotomic.zeta(7) - Cyclotomic.zeta(7, -1)})


def _reference_cases() -> tuple[list[CharacterTable], list[CharacterTable]]:
    """Valid base tables, and 600 seeded perturbations of them."""
    bases = [build_table(Dihedral(n)) for n in range(1, 5)]
    bases += [build_table(Extraspecial2(n)) for n in (1, 2)]
    bases += [build_table(Psl2Even(r)) for r in range(1, 5)]
    bases += [
        trivial_table(),
        product_table(dihedral_table(2), psl2_even_table(2)),
        build_table(Product((Psl2Even(1), Extraspecial2(1)))),
    ]
    bases += [
        dixon_character_table(builtin_perm_group(spec))
        for spec in (Dihedral(3), Psl2Even(2), Extraspecial2(1))
    ]
    rng = random.Random(20240601)
    seeds = [t for t in bases if t.num_classes > 1]
    return bases, [_perturb(rng.choice(seeds), rng) for _ in range(600)]


def test_validate_matches_the_reference():
    bases, perturbations = _reference_cases()
    tables = bases + perturbations
    failures = []
    for t in tables:
        report = validate_table(t)
        assert report == reference_validate_table(t), t.group_name
        failures.append(report.failure or "")
    # the cases reach every verdict the orthogonality pass can give
    assert all(validate_table(t).ok for t in bases)
    assert any(f.startswith("row orthogonality") and "z" in f.split("got")[1] for f in failures)
    assert any(f.startswith("row orthogonality") and "z" not in f.split("got")[1] for f in failures)
    assert any(f.startswith("identity value") for f in failures)


# The tables of the benchmark's `verify` jobs.
CERTIFY_POOL = (
    *(Dihedral(n) for n in range(2, 7)),
    *(Extraspecial2(n) for n in range(1, 4)),
    *(Psl2Even(r) for r in range(2, 4)),
)


def test_orthogonality_proof_accepts_generated_and_oracle_tables():
    specs = [*(Dihedral(n) for n in range(1, 9)), *(Extraspecial2(n) for n in range(1, 5)),
             *(Psl2Even(r) for r in range(1, 8))]
    tables = [build_table(spec) for spec in specs]
    tables += [dixon_character_table(builtin_perm_group(spec)) for spec in CERTIFY_POOL]
    for t in tables:
        assert _row_orthogonality_proved(t), t.group_name


def test_orthogonality_proof_accepts_only_what_the_reference_accepts():
    reached = Counter()
    bases, perturbations = _reference_cases()
    for t in bases + perturbations:
        report = reference_validate_table(t)
        if report.ok or report.failure.startswith("row orthogonality"):
            # the earlier checks passed, so the proof path runs
            assert _row_orthogonality_proved(t) == report.ok, t.group_name
            reached[report.ok] += 1
    assert reached == {True: 206, False: 326}


def _scale_column(t: CharacterTable, k: int, unit: Cyclotomic) -> CharacterTable:
    return perturbed(t, characters=tuple(row[:k] + (row[k] * unit,) + row[k + 1 :] for row in t.characters))


def test_rows_that_are_not_galois_stable_take_the_exact_path():
    t = dihedral_table(3)
    # a column times a root of unity keeps both orthogonalities, but the
    # trivial row now holds zeta_8 on class t^1, and no row holds zeta_8^3 there
    scaled = _scale_column(t, t.class_index("t^1"), Cyclotomic.zeta(8))
    # rot1 in place of rot3, its Galois image: rows repeat, not orthogonal
    rows = list(t.characters)
    rows[t.character_index("rot3")] = rows[t.character_index("rot1")]
    repeated = perturbed(t, characters=tuple(rows))
    for table, ok in ((scaled, True), (repeated, False)):
        assert not _row_orthogonality_proved(table)
        report = validate_table(table)
        assert report.ok is ok
        assert report == reference_validate_table(table)


# An 85-class rational table of order 2^84: classes of sizes 2^0 .. 2^83
# after the identity; degrees three each of 2^15 .. 2^41 and four of 2^14;
# row i holds its degree and 1 on class i.  |G| (M^2 + 1) is about 2^166.
HUGE_ORDER_TABLE = """
from chartab.exactnum import Cyclotomic
from chartab.tables import CharacterTable, ClassInfo, validate_table
degrees = [2**k for k in range(15, 42) for _ in range(3)] + [2**14] * 4
classes = (ClassInfo("1", 1, 1), *(ClassInfo(f"c{i}", 2**i, 2) for i in range(84)))
rows = [[d] + [int(j == i) for j in range(1, 85)] for i, d in enumerate(degrees)]
t = CharacterTable.from_values(
    "crafted", 2**84, classes, tuple(f"x{i}" for i in range(85)),
    [list(map(Cyclotomic.from_rational, row)) for row in rows],
)
print(validate_table(t).failure)
"""


def test_a_bound_past_the_prime_range_takes_the_exact_path():
    # no split prime above the bound can be proved prime, so the proof
    # declines at once and the exact pass names the first failing pair; a
    # child process, so a search that stalls fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.tables.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", HUGE_ORDER_TABLE], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.stderr == ""
    assert out.stdout == (
        "row orthogonality (x0, x0): got 1073741824, expected 19342813113834066795298816\n"
    )


@pytest.mark.parametrize("spec, seconds", [(Dihedral(9), 4), (Psl2Even(7), 0.3)], ids=repr)
def test_validate_runs_in_seconds(spec, seconds):
    t = build_table(spec)
    start = time.perf_counter()
    assert validate_table(t).ok
    assert time.perf_counter() - start < seconds


# ---------------------------------------------------------------------------
# palette representation


def _from_values(t: CharacterTable) -> CharacterTable:
    return CharacterTable.from_values(
        t.group_name, t.group_order, t.classes, t.character_names, t.characters
    )


REPRESENTED = {
    "dihedral1": lambda: dihedral_table(1),
    "dihedral2": lambda: dihedral_table(2),
    "dihedral6": lambda: dihedral_table(6),
    "extraspecial2": lambda: extraspecial2_table(2),
    "psl2q2": lambda: psl2_even_table(1),
    "psl2q4": lambda: psl2_even_table(2),
    "psl2q16": lambda: psl2_even_table(4),
    "psl2q64": lambda: psl2_even_table(6),
    "product": lambda: product_table(dihedral_table(3), psl2_even_table(2)),
    "product3": lambda: build_table(Product((Psl2Even(3), Extraspecial2(1), Dihedral(2)))),
    "oracle_dihedral3": lambda: dixon_character_table(builtin_perm_group(Dihedral(3))),
    "oracle_psl2q4": lambda: dixon_character_table(builtin_perm_group(Psl2Even(2))),
}


@pytest.mark.parametrize("make", REPRESENTED.values(), ids=REPRESENTED.keys())
def test_palette_is_canonical(make):
    t = make()
    keys = [v.key() for v in t.palette]
    assert len(set(keys)) == len(keys)
    assert all(len(row) == t.num_classes for row in t.rows)
    assert all(0 <= i < len(t.palette) for row in t.rows for i in row)
    # every entry is used, and entries are numbered in row-major first occurrence
    first_seen = dict.fromkeys(i for row in t.rows for i in row)
    assert list(first_seen) == list(range(len(t.palette)))
    # the value rows intern back to the same palette and index rows
    again = _from_values(t)
    assert [v.key() for v in again.palette] == keys
    assert again.rows == t.rows
    assert again == t


@pytest.mark.parametrize("make", REPRESENTED.values(), ids=REPRESENTED.keys())
def test_group_stats_classifies_each_palette_entry_once(make, monkeypatch):
    t = make()
    calls = []

    def counting(v):
        calls.append(v)
        return classify_value(v)

    monkeypatch.setattr(chartab.stats, "classify_value", counting)
    group_stats(t)
    assert len(calls) <= len(t.palette)
    calls.clear()
    char_stats(t, len(t.rows) - 1)
    assert len(calls) <= len(set(t.rows[-1]))


@pytest.mark.parametrize("build", [dihedral_table, psl2_even_table])
def test_generators_build_each_value_once(build, monkeypatch):
    calls = []

    def counting(conductor, coeffs):
        calls.append(conductor)
        return canonicalize(conductor, coeffs)

    monkeypatch.setattr(chartab.tables, "canonicalize", counting)
    t = build(7)
    assert 0 < len(calls) <= len(t.palette)



def test_constructor_merges_equal_values_and_drops_unused():
    one, neg = Cyclotomic.one(), Cyclotomic.from_rational(-1)
    t = CharacterTable(
        "c2", 2, (ClassInfo("1", 1, 1), ClassInfo("g", 1, 2)), ("trivial", "sign"),
        palette=(Cyclotomic.zero(), neg, one, Cyclotomic.one()),
        rows=((2, 3), (3, 1)),
    )
    assert [v.key() for v in t.palette] == [one.key(), neg.key()]
    assert t.rows == ((0, 0), (0, 1))
    assert validate_table(t).ok


@pytest.mark.parametrize(
    "spec",
    [*map(Dihedral, range(2, 10)), *map(Extraspecial2, range(1, 5)), *map(Psl2Even, range(2, 11))],
    ids=repr,
)
def test_generators_hand_the_constructor_a_canonical_table(spec, monkeypatch):
    # the constructor keeps the indices of a canonical table and re-indexes
    # every cell of any other.  Psl2Even(1) is left out: q = 2 has no
    # principal series, so its palette keeps the unused degree q + 1 = 3
    seen = []
    construct = CharacterTable.__post_init__

    def spy(table):
        keys = [v.key() for v in table.palette]
        first_use = list(dict.fromkeys(chain.from_iterable(table.rows)))
        seen.append(len(set(keys)) == len(keys) and first_use == list(range(len(keys))))
        construct(table)

    monkeypatch.setattr(CharacterTable, "__post_init__", spy)
    build_table(spec)
    assert seen == [True]


def _shuffled_duplicated(t: CharacterTable) -> tuple[tuple, tuple]:
    """The cells of t over a shuffled palette with a copy of every value and
    an unused one, as (palette, rows)."""
    rng = random.Random(5)
    slots = list(range(2 * len(t.palette))) + [2 * len(t.palette)]
    rng.shuffle(slots)
    palette = [None] * len(slots)
    for i, v in enumerate(t.palette):
        palette[slots[i]] = palette[slots[i + len(t.palette)]] = v
    palette[slots[-1]] = Cyclotomic.from_rational(7)
    rows = tuple(
        tuple(slots[i + rng.choice((0, len(t.palette)))] for i in row) for row in t.rows
    )
    return tuple(palette), rows


@pytest.mark.parametrize("build", [dihedral_table, extraspecial2_table])
def test_canonical_table_equals_its_shuffled_duplicated_rebuild(build):
    t = build(4)  # these generators emit canonical order, so nothing is renumbered
    again = CharacterTable(t.group_name, t.group_order, t.classes, t.character_names,
                           *_shuffled_duplicated(t))
    assert again == t
    assert [v.key() for v in again.palette] == [v.key() for v in t.palette]


def _full_scan_canonical(palette, rows) -> tuple[list[tuple], tuple]:
    """The canonical (palette keys, rows) of any palette and index rows,
    with every cell read: equal keys merge, unused values drop, and the
    rest are numbered in row-major first-use order."""
    first = {}
    merged = [first.setdefault(v.key(), i) for i, v in enumerate(palette)]
    order = {}
    for i in dict.fromkeys(chain.from_iterable(rows)):
        order.setdefault(merged[i], len(order))
    index = [order.get(m) for m in merged]
    return [palette[m].key() for m in order], tuple(tuple(index[i] for i in row) for row in rows)


@pytest.mark.parametrize("make", REPRESENTED.values(), ids=REPRESENTED.keys())
def test_constructor_matches_a_full_scan(make):
    # the constructor stops reading cells once every distinct key has a
    # place; a palette of one entry per cell stops early, and one with an
    # unused value is read to the end
    t = make()
    cells = tuple(chain.from_iterable(t.characters))
    ends = range(t.num_classes, len(cells) + 1, t.num_classes)
    per_cell = (cells, tuple(range(end - t.num_classes, end) for end in ends))
    for palette, rows in (per_cell, _shuffled_duplicated(t)):
        built = CharacterTable(t.group_name, t.group_order, t.classes, t.character_names,
                               palette, rows)
        keys, expected = _full_scan_canonical(palette, rows)
        assert [v.key() for v in built.palette] == keys
        assert built.rows == expected

