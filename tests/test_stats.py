"""Zero and root-of-unity statistics: closed forms against tables, recurrences."""

from fractions import Fraction

import pytest

from chartab import stats, tables
from chartab.stats import (
    StatKind,
    char_stats,
    closed_form_stats,
    compose,
    group_stats,
    product_stats,
    render_decimal,
    scan_rows,
    series,
    theta_master,
    u_power,
    z_sequence,
)
from chartab.tables import (
    Dihedral,
    Extraspecial2,
    InvalidParameterError,
    Product,
    Psl2Even,
    TableTooLargeError,
    build_table,
    dihedral_table,
    extraspecial2_table,
    product_table,
    psl2_even_table,
    trivial_table,
)


# ---------------------------------------------------------------------------
# closed forms agree with brute-force table counts


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_closed_form_matches_table(n):
    t = dihedral_table(n)
    cf = closed_form_stats(Dihedral(n))
    assert cf.group == group_stats(t)
    if n == 1:
        assert cf.character is None  # abelian: no planar character
    else:
        assert cf.character_name == "rot1"
        assert cf.character == char_stats(t, t.character_index("rot1"))


@pytest.mark.parametrize("n", range(1, 5))
def test_extraspecial_closed_form_matches_table(n):
    t = extraspecial2_table(n)
    cf = closed_form_stats(Extraspecial2(n))
    assert cf.group == group_stats(t)
    assert cf.character == char_stats(t, t.character_index("faithful"))


@pytest.mark.parametrize("r", range(1, 5))
def test_psl2_closed_form_matches_table(r):
    t = psl2_even_table(r)
    cf = closed_form_stats(Psl2Even(r))
    assert cf.group == group_stats(t)
    assert cf.character_name == "steinberg"
    assert cf.character == char_stats(t, t.character_index("steinberg"))


def _psl2_group_counts_by_loops(r):
    """Reference for the PSL(2, 2^r) group record: the torus pairs counted
    one by one, a pair zeta^e + zeta^(-e) (odd conductor) being a root of
    unity exactly when e has order 3."""
    q = 2**r
    order, ncls = q**3 - q, q + 1
    nsplit, nnonsplit = (q - 2) // 2, q // 2
    split_size, nonsplit_size, inv_size = q * (q + 1), q * (q - 1), q * q - 1
    zero_elems = zero_cells = rou_elems = rou_cells = 0
    rou_elems += order
    rou_cells += ncls
    zero_elems += inv_size
    zero_cells += 1
    rou_elems += nsplit * split_size + nnonsplit * nonsplit_size
    rou_cells += nsplit + nnonsplit
    for j in range(1, nsplit + 1):
        zero_elems += nnonsplit * nonsplit_size
        zero_cells += nnonsplit
        rou_elems += inv_size
        rou_cells += 1
        for l in range(1, nsplit + 1):
            e = l * j % (q - 1)
            if e and 3 * e % (q - 1) == 0:
                rou_elems += split_size
                rou_cells += 1
    for m in range(1, nnonsplit + 1):
        zero_elems += nsplit * split_size
        zero_cells += nsplit
        rou_elems += inv_size
        rou_cells += 1
        if q == 2:
            rou_elems += 1
            rou_cells += 1
        for k in range(1, nnonsplit + 1):
            e = m * k % (q + 1)
            if e and 3 * e % (q + 1) == 0:
                rou_elems += nonsplit_size
                rou_cells += 1
    pair_total, cell_total = order * ncls, ncls * ncls
    return (
        Fraction(zero_elems, pair_total),
        Fraction(zero_cells, cell_total),
        Fraction(rou_elems, pair_total),
        Fraction(rou_cells, cell_total),
    )


@pytest.mark.parametrize("r", range(1, 13))
def test_psl2_group_record_matches_pair_by_pair_count(r):
    rec = closed_form_stats(Psl2Even(r)).group
    assert (rec.z_elem, rec.z_class, rec.u_elem, rec.u_class) == (
        _psl2_group_counts_by_loops(r)
    )


def test_steinberg_frozen_values():
    rec = closed_form_stats(Psl2Even(2)).character
    assert rec.z_elem == Fraction(1, 4)
    assert rec.z_class == Fraction(1, 5)
    assert rec.u_elem == Fraction(11, 15)
    assert rec.u_class == Fraction(3, 5)


def test_dihedral_frozen_group_values():
    rec = closed_form_stats(Dihedral(4)).group
    assert rec.z_elem == Fraction(17, 44)
    assert rec.u_elem == Fraction(4, 11)
    assert rec.theta_elem == Fraction(3, 4)
    assert rec.z_class == Fraction(26, 121)
    assert rec.theta_class == Fraction(70, 121)


def test_closed_form_rejects_products():
    with pytest.raises(InvalidParameterError):
        closed_form_stats(Product((Dihedral(2), Dihedral(2))))


@pytest.mark.parametrize("family, last", [(Dihedral, 8), (Extraspecial2, 4), (Psl2Even, 3)])
def test_closed_forms_refuse_a_group_order_past_the_bit_guard(monkeypatch, family, last):
    # floor(log2 |G|) is n + 1, 2n + 1 and 3r - 1: 9, 9 and 8 at `last`, 10 and more past it
    monkeypatch.setattr(stats, "CLOSED_FORM_BIT_LIMIT", 10)
    assert closed_form_stats(family(last)).group == group_stats(build_table(family(last)))
    with pytest.raises(InvalidParameterError, match=r"above the guard 10$"):
        closed_form_stats(family(last + 1))


def test_psl2_group_record_refuses_past_the_class_guard_on_first_read(monkeypatch):
    table5 = psl2_even_table(5)  # built before the guard is lowered below its 33 classes
    monkeypatch.setattr(tables, "CLASS_LIMIT", 32)
    monkeypatch.setattr(stats, "CLASS_LIMIT", 32)
    assert closed_form_stats(Psl2Even(4)).group == group_stats(psl2_even_table(4))
    cf = closed_form_stats(Psl2Even(5))  # 33 classes: the Steinberg record stays available
    assert cf.character == char_stats(table5, 1)
    with pytest.raises(TableTooLargeError, match=r"walks 33 classes, above the guard 32$"):
        cf.group


def test_closed_form_record_reads_the_factor_character():
    cf = closed_form_stats(Psl2Even(2))
    assert cf.record(None) == cf.group == group_stats(psl2_even_table(2))
    assert cf.record("steinberg") == cf.character
    assert cf.record("trivial") is None
    assert closed_form_stats(Dihedral(1)).record("rot1") is None


# ---------------------------------------------------------------------------
# structural properties of the statistics


@pytest.mark.parametrize(
    "table",
    [dihedral_table(3), extraspecial2_table(2), psl2_even_table(2)],
    ids=["dihedral3", "extraspecial2", "psl2q4"],
)
def test_group_stats_is_mean_of_char_stats(table):
    rows = len(table.characters)
    g = group_stats(table)
    for kind in StatKind:
        mean = sum(char_stats(table, i).get(kind) for i in range(rows)) / rows
        assert g.get(kind) == mean


@pytest.mark.parametrize(
    "table",
    [dihedral_table(4), extraspecial2_table(2), psl2_even_table(3)],
    ids=["dihedral4", "extraspecial2", "psl2q8"],
)
def test_nonlinear_characters_vanish_somewhere(table):
    # Burnside: a character of degree > 1 has a zero, so z_elem > 0
    for i, d in enumerate(table.degrees):
        rec = char_stats(table, i)
        if d > 1:
            assert rec.z_elem > 0
            assert rec.z_class > 0
        else:
            assert rec.z_elem == 0
            assert rec.theta_elem == rec.u_elem


@pytest.mark.parametrize(
    "table",
    [
        dihedral_table(1),
        dihedral_table(5),
        extraspecial2_table(3),
        psl2_even_table(3),
        product_table(dihedral_table(2), psl2_even_table(1)),
    ],
    ids=["klein", "dihedral5", "extraspecial3", "psl2q8", "product"],
)
def test_theta_exceeds_one_third(table):
    assert group_stats(table).theta_elem > Fraction(1, 3)


# ---------------------------------------------------------------------------
# product recurrences


def test_stat_kinds_state_their_field_weighting_and_counts():
    z, zc, u, uc, t, tc = StatKind
    assert [k.field for k in StatKind] == [
        "z_elem", "z_class", "u_elem", "u_class", "theta_elem", "theta_class"
    ]
    assert [k for k in StatKind if k.element_weighted] == [z, u, t]
    assert [k for k in StatKind if k.counts_zeros] == [z, zc, t, tc]
    assert [k for k in StatKind if k.counts_units] == [u, uc, t, tc]


def test_z_sequence_frozen():
    assert z_sequence(0, Fraction(1, 2), 3) == [
        0,
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(7, 8),
    ]


def test_z_sequence_closed_form():
    z0, step = Fraction(1, 3), Fraction(2, 7)
    seq = z_sequence(z0, step, 20)
    for k, z in enumerate(seq):
        assert z == 1 - (1 - z0) * (1 - step) ** k
    # non-decreasing, gaps below the step
    for a, b in zip(seq, seq[1:]):
        assert a <= b < a + step


def test_z_sequence_matches_actual_product_tables():
    # D8 x D8: the recurrence reproduces the group statistic of the square
    t1 = dihedral_table(2)
    z1 = group_stats(t1).z_elem
    z2 = group_stats(product_table(t1, t1)).z_elem
    assert z2 == z_sequence(z1, z1, 1)[-1]


def test_sequence_input_validation():
    with pytest.raises(ValueError):
        z_sequence(Fraction(3, 2), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        z_sequence(0, Fraction(-1, 2), 1)
    with pytest.raises(ValueError):
        z_sequence(0, Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        z_sequence(0, Fraction(1, 2), 10**6 + 1)
    with pytest.raises(InvalidParameterError, match="above the guard 134217728"):
        z_sequence(0, Fraction(3, 20), 10**4)
    # powers of 1 - z_step = 1 stay 1 bit long: no refusal
    assert z_sequence(Fraction(1, 2), 0, 10**4)[-1] == Fraction(1, 2)
    # z0 = 1 leaves no power to take: every row is 1, whatever the step
    assert z_sequence(1, Fraction(3, 20), 10**4) == [1] * (10**4 + 1)
    with pytest.raises(ValueError):
        u_power(Fraction(5, 4), 2)
    with pytest.raises(ValueError):
        u_power(Fraction(1, 2), -1)


@pytest.mark.parametrize("k_max", [-1, 10**6 + 1])
@pytest.mark.parametrize("constants, row0", [((1, -1, 1, 0, 1), 0), ((0, 0, 1, 1, 0), 1)])
def test_scan_rows_refuses_k_max_outside_its_range(k_max, constants, row0):
    # ratios 1 and 0 give constant rows, which the bit guard lets through
    constants = tuple(map(Fraction, constants))
    with pytest.raises(InvalidParameterError) as exc:
        scan_rows(constants, k_max)
    assert str(exc.value) == f"--kmax must lie in [0, 1000000], got {k_max}"
    assert scan_rows(constants, 0) == [row0]


SCANNED = [
    *(Dihedral(n) for n in range(2, 6)),
    *(Extraspecial2(n) for n in range(1, 4)),
    *(Psl2Even(r) for r in range(1, 5)),
]


def test_series_rows_match_compose():
    # the producer (`series`, `scan_rows`) against the checker (`compose`),
    # on every statistic and scope `scan` serves
    for spec in SCANNED:
        cf = closed_form_stats(spec)
        for kind in StatKind:
            records = [cf.character]
            if not (isinstance(spec, Psl2Even) and kind.counts_units):
                records.append(cf.group)  # `scan` refuses these
            for record in records:
                want = [compose([(record, k)], kind) for k in range(41)]
                assert scan_rows(series(kind, None, record), 40) == want, (spec, kind)
    # a base factor, as the witness plans use it
    base, step = closed_form_stats(Dihedral(3)).group, closed_form_stats(Extraspecial2(2)).group
    for kind in StatKind:
        want = [compose([(base, 1), (step, k)], kind) for k in range(21)]
        assert scan_rows(series(kind, base, step), 20) == want, kind


def test_z_sequence_matches_compose():
    values = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]
    for z0 in values:
        for step in values:
            start = stats.StatRecord(z0, z0, Fraction(0), Fraction(0))
            factor = stats.StatRecord(step, step, Fraction(0), Fraction(0))
            want = [compose([(start, 1), (factor, k)], StatKind.Z_ELEM) for k in range(41)]
            assert z_sequence(z0, step, 40) == want, (z0, step)


def test_u_power_on_powers_of_a_2_group():
    # all nonzero dihedral values are roots of unity or +-2; the +-2s sit on
    # a degree-2 character with no units, so u multiplies across factors
    t = dihedral_table(2)
    u1 = group_stats(t).u_elem
    assert group_stats(product_table(t, t)).u_elem == u_power(u1, 2)


def test_u_multiplicativity_fails_in_general():
    # two non-unit torus pairs can multiply to a root of unity
    t = psl2_even_table(2)
    p = product_table(t, t)
    i = p.character_index("discrete1*discrete2")
    got = char_stats(p, i).u_elem
    factor_u = char_stats(t, t.character_index("discrete1")).u_elem
    assert factor_u == Fraction(1, 4)
    assert got == Fraction(57, 400)
    assert got != u_power(factor_u, 1) * u_power(factor_u, 1)


# factored counts against the materialized product table: every family at
# small parameters, one to four factors, powers and mixed families
PRODUCTS = [
    (Dihedral(1),),
    (Dihedral(4),),
    (Extraspecial2(2),),
    (Psl2Even(3),),
    (Dihedral(2), Dihedral(2)),
    (Dihedral(3), Extraspecial2(1)),
    (Psl2Even(2), Psl2Even(3)),
    (Extraspecial2(1), Psl2Even(2)),
    (Dihedral(2), Extraspecial2(1), Psl2Even(2)),
    (Psl2Even(2),) * 3,
    (Psl2Even(1), Dihedral(3), Psl2Even(1)),
    (Extraspecial2(1),) * 4,
    (Dihedral(1), Extraspecial2(1), Dihedral(2), Psl2Even(1)),
]


@pytest.mark.parametrize("specs", PRODUCTS, ids=str)
def test_product_stats_match_the_materialized_table(specs):
    product = build_table(Product(specs))
    factors = [build_table(s) for s in specs]
    assert product_stats([(t, t.rows) for t in factors]) == group_stats(product)
    # one named row per factor: the first, a middle and the last of each
    for pick in (0, 1, -1):
        names = [t.character_names[pick] for t in factors]
        rows = [[t.rows[t.character_index(name)]] for t, name in zip(factors, names)]
        want = char_stats(product, product.character_index("*".join(names)))
        assert product_stats(list(zip(factors, rows))) == want


def test_product_stats_of_no_factors_is_the_trivial_group():
    t = trivial_table()
    assert product_stats([]) == group_stats(t) == char_stats(t, 0)


def test_product_stats_do_not_assume_u_is_multiplicative():
    # in PSL(2, 16)^2, (z5 + z5^-1)(z5^2 + z5^-2) = -1: two non-units
    # multiply to a unit, so the product rule undercounts u
    t = psl2_even_table(4)
    rec = product_stats([(t, t.rows)] * 2)
    assert rec == group_stats(build_table(Product((Psl2Even(4),) * 2)))
    assert rec.u_elem == Fraction(71928043, 1603603200)
    assert u_power(group_stats(t).u_elem, 2) == Fraction(200987329, 4810809600)


def test_theta_master_frozen():
    assert theta_master(2, 1, 0) == Fraction(19, 20)
    assert theta_master(2, 1, 1) == Fraction(367, 400)
    with pytest.raises(InvalidParameterError):
        theta_master(0, 1, 1)
    with pytest.raises(InvalidParameterError):
        theta_master(1, 1, -1)


def test_theta_master_matches_explicit_table():
    t = product_table(dihedral_table(2), extraspecial2_table(1))
    assert group_stats(t).theta_elem == theta_master(2, 1, 1)


def test_theta_master_two_factor_table():
    spec = Product((Dihedral(2), Extraspecial2(1), Extraspecial2(1)))
    assert group_stats(build_table(spec)).theta_elem == theta_master(2, 1, 2)


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_decimal():
    assert render_decimal(Fraction(1, 3)) == "0.333333333333"
    assert render_decimal(Fraction(17, 44)) == "0.386363636364"
    assert render_decimal(Fraction(-1, 4)) == "-0.250000000000"
    assert render_decimal(2) == "2.000000000000"
    # round-half-even on the last kept digit
    assert render_decimal(Fraction(1, 2 * 10**12)) == "0.000000000000"
    assert render_decimal(Fraction(3, 2 * 10**12)) == "0.000000000002"


def test_stat_record_json():
    doc = closed_form_stats(Dihedral(4)).group.to_json()
    assert set(doc) == {
        "z_elem",
        "z_class",
        "u_elem",
        "u_class",
        "theta_elem",
        "theta_class",
    }
    assert doc["z_elem"] == {"fraction": "17/44", "decimal": "0.386363636364"}
    assert doc["theta_elem"]["fraction"] == "3/4"
