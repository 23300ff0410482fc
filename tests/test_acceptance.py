"""Acceptance gate: nine criteria, one test and one printed PASS/FAIL line each.

Every comparison is exact rational or cyclotomic arithmetic; the only
floating-point appearance is the criterion-9 cross-check, which
discriminates at 1e-9 by construction of the inputs.
"""

import functools
import random
import time
from fractions import Fraction

from chartab.exactnum import ValueClass, classify_value, m_invariant
from chartab.exactnum import Cyclotomic, canonicalize
from chartab.oracle import (
    PermGroup,
    builtin_perm_group,
    compare_tables,
    dixon_character_table,
)
from chartab.stats import (
    StatKind,
    char_stats,
    closed_form_stats,
    group_stats,
    theta_master,
)
from chartab.tables import (
    Dihedral,
    Extraspecial2,
    Psl2Even,
    build_table,
    dihedral_table,
    extraspecial2_table,
    product_table,
    psl2_even_table,
    validate_table,
)
from chartab.witness import (
    verify_witness,
    witness_global,
    witness_local,
    witness_theta_character,
    witness_theta_group,
)


def criterion(num: int, label: str):
    """Guarantee one PASS/FAIL line per criterion, even on blowups."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            ok = False
            try:
                fn()
                ok = True
            finally:
                print(f"CRITERION {num} [{label}]: {'PASS' if ok else 'FAIL'}")

        return run

    return wrap


@criterion(1, "dihedral group statistics match the closed forms")
def test_criterion_1_dihedral_closed_forms():
    for n in range(2, 9):
        assert group_stats(dihedral_table(n)) == closed_form_stats(Dihedral(n)).group
    spot = closed_form_stats(Dihedral(4)).group
    assert spot.u_elem == Fraction(4, 11)
    assert spot.z_elem == Fraction(17, 44)


@criterion(2, "extraspecial group statistics match the closed forms")
def test_criterion_2_extraspecial_closed_forms():
    for n in range(1, 5):
        t = extraspecial2_table(n)
        assert group_stats(t) == closed_form_stats(Extraspecial2(n)).group
    spot = closed_form_stats(Extraspecial2(2)).group
    assert spot.u_elem == Fraction(16, 17)
    assert spot.u_class == Fraction(16, 17)
    assert spot.z_class == Fraction(15, 289)


@criterion(3, "dihedral zero counts match all four counting formulas")
def test_criterion_3_dihedral_zero_counts():
    for n in range(2, 11):
        t = dihedral_table(n)
        half = 2 ** (n - 1)
        total_cells = 0
        total_elems = 0
        for h in range(1, half):
            row = [t.palette[i] for i in t.rows[t.character_index(f"rot{h}")]]
            cells = sum(1 for v in row if v.is_zero)
            elems = sum(c.size for c, v in zip(t.classes, row) if v.is_zero)
            nu = (h & -h).bit_length() - 1
            assert cells == 2**nu + 2, (n, h)
            assert elems == 2 ** (nu + 1) + 2**n, (n, h)
            total_cells += cells
            total_elems += elems
        assert total_cells == 2 ** (n - 2) * (n - 1) + 2**n - 2, n
        assert total_elems == 2 ** (n - 1) * (n - 1) + 2 ** (2 * n - 1) - 2**n, n


@criterion(4, "Steinberg rows vanish once and are units elsewhere")
def test_criterion_4_steinberg_structure():
    for r in (2, 3, 4):
        q = 2**r
        t = psl2_even_table(r)
        row = t.characters[t.character_index("steinberg")]
        zero_classes = [c for c, v in zip(t.classes, row) if v.is_zero]
        assert len(zero_classes) == 1
        assert zero_classes[0].size == (q**3 - q) // q
        for c, v in zip(t.classes[1:], row[1:]):
            if not v.is_zero:
                assert classify_value(v) is ValueClass.ROOT_OF_UNITY, c.name
        rec = char_stats(t, t.character_index("steinberg"))
        assert rec.z_elem == Fraction(1, q)
        assert rec.z_class == Fraction(1, q + 1)
        assert rec.u_elem == 1 - Fraction(1, q) - Fraction(1, q**3 - q)


@criterion(5, "Dixon oracle tables match the generators up to relabeling")
def test_criterion_5_oracle_equivalence():
    specs = [
        Dihedral(2), Dihedral(3), Dihedral(4),
        Extraspecial2(1), Extraspecial2(2),
        Psl2Even(2), Psl2Even(4),
    ]
    for spec in specs:
        generated = build_table(spec)
        oracle = dixon_character_table(builtin_perm_group(spec))
        assert compare_tables(generated, oracle).matched, spec

    # an independent presentation: PSL(2,4) is the alternating group on 5 points
    a5 = PermGroup(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
    assert compare_tables(build_table(Psl2Even(2)), dixon_character_table(a5)).matched

    started = time.perf_counter()
    oracle = dixon_character_table(builtin_perm_group(Psl2Even(3)))
    assert compare_tables(build_table(Psl2Even(3)), oracle).matched
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"order-504 oracle run took {elapsed:.1f}s"


EPS = Fraction(1, 100)
THETA_TARGETS = [Fraction(1, 2) + Fraction(j, 20) for j in range(11)]
UNIT_TARGETS = [Fraction(j, 10) for j in range(11)]
OTHER_KINDS = [
    StatKind.Z_ELEM,
    StatKind.Z_CLASS,
    StatKind.U_ELEM,
    StatKind.U_CLASS,
    StatKind.THETA_CLASS,
]


def _full_grid():
    for target in THETA_TARGETS:
        yield witness_theta_character(target, EPS)
        yield witness_theta_group(target, EPS)
    for kind in OTHER_KINDS:
        for target in UNIT_TARGETS:
            yield witness_local(kind, target, EPS)
            yield witness_global(kind, target, EPS)


@criterion(6, "witness grid lands within 1/100 of every target")
def test_criterion_6_witness_grid():
    started = time.perf_counter()
    count = 0
    for w in _full_grid():
        assert abs(w.value - w.query.target) < EPS, w.query
        count += 1
    elapsed = time.perf_counter() - started
    assert count == 132
    assert elapsed < 60, f"witness grid took {elapsed:.1f}s"


@criterion(7, "explicit product tables reproduce every recurrence value")
def test_criterion_7_recurrence_vs_table():
    table_runs = 0
    for w in _full_grid():
        report = verify_witness(w)  # raises on any disagreement
        assert report.replay_value == w.value
        if report.table_skipped is None:
            assert report.table_value == w.value
            table_runs += 1
        else:
            assert "exceed" in report.table_skipped
    assert table_runs >= 10, f"only {table_runs} witnesses were table-checked"

    # a character-scope witness whose explicit product table is tiny
    w = witness_theta_character(Fraction(9, 10), Fraction(1, 4))
    assert len(w.factors) == 2
    report = verify_witness(w)
    assert report.table_value == w.value
    # same for group scope at a 515-class table
    w = witness_theta_group(Fraction(1, 2), Fraction(1, 4))
    report = verify_witness(w)
    assert report.table_value == w.value

    # the master expression: closed forms against the fully materialized table
    t = product_table(dihedral_table(2), extraspecial2_table(1))
    assert theta_master(2, 1, 1) == group_stats(t).theta_elem == Fraction(367, 400)


def _corpus():
    tables = []
    for n in range(1, 7):
        tables.append((dihedral_table(n), True))
    for n in range(1, 4):
        tables.append((extraspecial2_table(n), True))
    for r in range(1, 4):
        tables.append((psl2_even_table(r), False))
    s3 = PermGroup(3, ((1, 0, 2), (1, 2, 0)))
    s4 = PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0)))
    a5 = PermGroup(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
    q8 = PermGroup(8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)))
    klein = builtin_perm_group(Dihedral(1))
    for group, nilpotent in [(s3, False), (s4, False), (a5, False), (q8, True), (klein, True)]:
        tables.append((dixon_character_table(group), nilpotent))
    return tables


@criterion(8, "corpus-wide character properties hold")
def test_criterion_8_property_suite():
    for table, nilpotent in _corpus():
        assert validate_table(table).ok, table.group_name
        for i, degree in enumerate(table.degrees):
            rec = char_stats(table, i)
            assert rec.theta_elem > Fraction(1, 3), (table.group_name, i)
            if not nilpotent or degree == 1:
                continue
            row = table.characters[i]
            for v in row:
                assert classify_value(v) is not ValueClass.ROOT_OF_UNITY, (
                    table.group_name,
                    table.character_names[i],
                )
                # even degree forces the squared-modulus average to 2+
                if not v.is_zero and degree % 2 == 0:
                    assert m_invariant(v) >= 2, (table.group_name, i)


@criterion(9, "random cyclotomic integers obey the modulus invariants")
def test_criterion_9_exactnum_properties():
    rng = random.Random(487)

    for _ in range(200):
        n = rng.randint(1, 48)
        v = Cyclotomic.zeta(n, rng.randrange(n))
        if rng.random() < 0.5:
            v = -v
        assert m_invariant(v) == 1

    checked = 0
    while checked < 1000:
        n = rng.randint(1, 30)
        raw = {rng.randrange(n): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
        v = canonicalize(n, raw)
        if v.is_zero:
            continue
        checked += 1
        assert m_invariant(v) >= 1
        modulus = abs(v.to_complex())
        expected = (
            ValueClass.ROOT_OF_UNITY
            if abs(modulus - 1) < 1e-9
            else ValueClass.OTHER
        )
        assert classify_value(v) is expected, v
