"""Permutation-group oracle: classification, Dixon tables, relabeling comparison."""

import hashlib
import random
import sys

import pytest
from compare_reference import reference_compare_tables
from oracle_reference import (
    reference_character_table,
    reference_eigenvalues,
    reference_multiplicities,
)

from chartab import oracle, tables
from chartab.exactnum import factorize, root_of_unity
from chartab.oracle import (
    GroupTooLargeError,
    OracleInconsistencyError,
    PermGroup,
    _class_matrix,
    _cyclic_subgroup_classes,
    _eigenvalues,
    _mul,
    _multiplicities,
    builtin_perm_group,
    compare_tables,
    dixon_character_table,
    enumerate_and_classify,
)
from chartab.stats import group_stats
from chartab.tables import (
    CharacterTable,
    Dihedral,
    Extraspecial2,
    InvalidParameterError,
    Product,
    Psl2Even,
    build_table,
    dihedral_table,
    product_table,
    validate_table,
)

A5 = PermGroup(5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)))
S4 = PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0)))
S3 = PermGroup(3, ((1, 0, 2), (1, 2, 0)))
# quaternion group inside the regular action: i and j as left translations
Q8 = PermGroup(8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)))


def rationals(table: CharacterTable, row: int) -> tuple:
    return tuple(v.as_rational() for v in table.characters[row])


# ---------------------------------------------------------------------------
# enumeration and classification


def test_classify_dihedral16():
    data = enumerate_and_classify(builtin_perm_group(Dihedral(3)))
    assert data.group_order == 16
    assert data.sizes == (1, 1, 2, 2, 2, 4, 4)
    assert data.element_orders == (1, 2, 4, 8, 8, 2, 2)
    assert data.exponent == 8


def test_classify_a5():
    data = enumerate_and_classify(A5)
    assert data.group_order == 60
    assert data.sizes == (1, 12, 12, 15, 20)
    assert data.element_orders == (1, 5, 5, 2, 2 + 1)
    assert data.exponent == 30


def test_classification_ignores_generator_presentation():
    # same group, different generators: canonical classes must agree
    other = PermGroup(5, ((1, 2, 3, 4, 0), (0, 2, 1, 4, 3)))  # 5-cycle + double swap
    a, b = enumerate_and_classify(A5), enumerate_and_classify(other)
    assert a.representatives == b.representatives
    assert a.sizes == b.sizes
    assert _cyclic_subgroup_classes(a) == _cyclic_subgroup_classes(b)


def test_power_maps_a5():
    # classes: identity, two of 5-cycles, involutions, 3-cycles; one entry
    # (classes of g^t, (class, a) for each generator g^a) per cyclic subgroup
    cyclic = _cyclic_subgroup_classes(enumerate_and_classify(A5))
    assert cyclic == [
        ([0], [(0, 0)]),
        ([0, 1, 2, 2, 1], [(1, 1), (2, 2)]),
        ([0, 3], [(3, 1)]),
        ([0, 4, 4], [(4, 1)]),
    ]
    five, involution, three = (seq for seq, _ in cyclic[1:])
    # squaring swaps the two classes of 5-cycles: g^2 in class 2, g^4 in class 1
    assert (five[2], five[4]) == (2, 1)
    # involutions square to the identity: order 2, so g^2 = g^0, class 0
    assert len(involution) == 2 and involution[0] == 0
    # the 3-cycle class is closed under squaring
    assert three[2] == 4


def test_class_of_covers_the_group():
    data = enumerate_and_classify(S4)
    assert len(data.class_of) == 24
    for rep, idx in zip(data.representatives, range(data.num_classes)):
        assert data.class_of[rep] == idx


def test_enumeration_limit(monkeypatch):
    monkeypatch.setattr(oracle, "GROUP_LIMIT", 10)
    with pytest.raises(GroupTooLargeError) as err:
        enumerate_and_classify(A5)
    assert str(err.value) == "group has more than 10 elements"


def test_enumeration_limit_env(monkeypatch):
    monkeypatch.setattr(oracle, "GROUP_LIMIT", 59)
    with pytest.raises(GroupTooLargeError):
        enumerate_and_classify(A5)
    monkeypatch.setattr(oracle, "GROUP_LIMIT", 60)
    assert enumerate_and_classify(A5).group_order == 60


def test_enumeration_decides_the_guard_once_per_layer(monkeypatch):
    counts = []

    def count_past(b, count, limit):
        counts.append(count())
        return tables.count_past(b, count, limit)

    monkeypatch.setattr(oracle, "count_past", count_past)
    assert enumerate_and_classify(A5).group_order == 60
    # the elements seen after each breadth-first layer, the last one empty
    assert counts == [3, 7, 14, 26, 40, 51, 57, 60, 60]


# ---------------------------------------------------------------------------
# the character-table oracle


def test_dixon_s3():
    t = dixon_character_table(S3)
    assert t.group_name == "perm(deg=3, order=6)"
    assert [(c.name, c.size, c.element_order) for c in t.classes] == [
        ("c0", 1, 1),
        ("c1", 2, 3),
        ("c2", 3, 2),
    ]
    rows = {rationals(t, i) for i in range(3)}
    assert rows == {(1, 1, 1), (1, 1, -1), (2, -1, 0)}
    assert validate_table(t).ok


def test_dixon_s4():
    t = dixon_character_table(S4)
    assert [(c.size, c.element_order) for c in t.classes] == [
        (1, 1),
        (3, 2),
        (6, 2),
        (6, 4),
        (8, 3),
    ]
    assert sorted(t.degrees) == [1, 1, 2, 3, 3]
    degree3 = {rationals(t, i) for i, d in enumerate(t.degrees) if d == 3}
    assert degree3 == {(3, -1, 1, -1, 0), (3, -1, -1, 1, 0)}


def test_dixon_a5_matches_psl2_of_4():
    t = dixon_character_table(A5)
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    result = compare_tables(psl2_even := build_table(Psl2Even(2)), t)
    assert result.matched
    assert result.reason is None
    # stats are relabeling invariants, so they must carry over exactly
    assert group_stats(t) == group_stats(psl2_even)


def test_dixon_klein_four():
    t = dixon_character_table(builtin_perm_group(Dihedral(1)))
    assert compare_tables(dihedral_table(1), t).matched


def test_dixon_handles_product_groups():
    spec = Product((Dihedral(1), Psl2Even(1)))
    g = builtin_perm_group(spec)
    assert g.degree == 7
    result = compare_tables(build_table(spec), dixon_character_table(g))
    assert result.matched


def test_dixon_agrees_with_generator_dihedral16():
    t = dixon_character_table(builtin_perm_group(Dihedral(3)))
    reference = dihedral_table(3)
    assert compare_tables(reference, t).matched
    assert group_stats(t) == group_stats(reference)


# ---------------------------------------------------------------------------
# the fast oracle against the dense reference

KLEIN_REGULAR = PermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1)))

DIFFERENTIAL_CORPUS = [
    *(builtin_perm_group(Dihedral(n)) for n in range(1, 7)),
    *(builtin_perm_group(Extraspecial2(n)) for n in range(1, 4)),
    *(builtin_perm_group(Psl2Even(r)) for r in range(1, 4)),
    S3,
    S4,
    A5,
    Q8,
    KLEIN_REGULAR,
    builtin_perm_group(Product((Dihedral(2), Psl2Even(2)))),
    builtin_perm_group(Product((Extraspecial2(1), Dihedral(3)))),
]


def test_mul_matches_the_generator_composition():
    rng = random.Random(11)
    for degree in range(1, 21):
        for _ in range(20):
            p = tuple(rng.sample(range(degree), degree))
            q = tuple(rng.sample(range(degree), degree))
            assert _mul(p, q) == tuple(p[i] for i in q)
            assert type(_mul(p, q)) is tuple
    assert dixon_character_table(PermGroup(1, ((0,),))).rows == ((0,),)


@pytest.mark.parametrize("group", DIFFERENTIAL_CORPUS, ids=lambda g: f"deg{g.degree}")
def test_dixon_matches_the_dense_reference(group):
    fast = dixon_character_table(group)
    slow = reference_character_table(group)
    assert [v.key() for v in fast.palette] == [v.key() for v in slow.palette]
    assert fast.rows == slow.rows
    assert fast == slow


def _trial_division_prime(exponent: int, group_order: int) -> int:
    """The first prime of the search as it stood before the split-prime
    helpers: p = 1 mod exponent with p^2 > 4|G|, tested by factorizing."""
    p = 1
    while True:
        p += exponent
        if p * p > 4 * group_order and factorize(p) == {p: 1}:
            return p


@pytest.mark.parametrize(
    "spec",
    [*(Dihedral(n) for n in range(2, 7)), *(Extraspecial2(n) for n in range(1, 4)),
     *(Psl2Even(r) for r in range(2, 4)), Product((Dihedral(2), Psl2Even(2)))],
    ids=repr,
)
def test_candidate_primes_match_trial_division(spec, monkeypatch):
    # the oracle's one prime is the first candidate of the old search
    primes, table_mod = [], oracle._table_mod

    def recording(data, p):
        primes.append(p)
        return table_mod(data, p)

    monkeypatch.setattr(oracle, "_table_mod", recording)
    group = builtin_perm_group(spec)
    dixon_character_table(group)
    data = enumerate_and_classify(group)
    assert primes == [_trial_division_prime(data.exponent, data.group_order)]


def test_a_failed_check_raises(monkeypatch):
    # with a root of each characteristic polynomial dropped, the split
    # cannot end one-dimensional; no second prime hides the fault
    real = oracle._eigenvalues
    monkeypatch.setattr(oracle, "_eigenvalues", lambda mat, p: real(mat, p)[1:])
    with pytest.raises(OracleInconsistencyError, match="not diagonalizable"):
        dixon_character_table(S4)


@pytest.mark.parametrize(
    "spec, built, classes", [(Extraspecial2(3), 21, 65), (Psl2Even(4), 13, 17)], ids=repr
)
def test_class_matrices_are_built_on_demand(monkeypatch, spec, built, classes):
    calls = []

    def counted(data, i):
        calls.append(i)
        return _class_matrix(data, i)

    monkeypatch.setattr(oracle, "_class_matrix", counted)
    table = dixon_character_table(builtin_perm_group(spec))
    assert table.num_classes == classes
    # classes 1, 2, ... in order, each once, up to the last split
    assert calls == list(range(1, built + 1))


@pytest.mark.parametrize(
    "spec, calls",
    [(Extraspecial2(3), 64), (Dihedral(6), 34), (Psl2Even(4), 6), (Extraspecial2(4), 256)],
    ids=repr,
)
def test_a_scalar_restriction_is_not_split(monkeypatch, spec, calls):
    # most splits meet a restriction that is already scalar; only the
    # others take a characteristic polynomial
    made, real = [], oracle._eigenvalues

    def counted(mat, p):
        made.append(mat)
        return real(mat, p)

    monkeypatch.setattr(oracle, "_eigenvalues", counted)
    table = dixon_character_table(builtin_perm_group(spec))
    assert compare_tables(table, build_table(spec))
    assert len(made) == calls


@pytest.mark.parametrize(
    "o, p",
    [*((1 << e, 257) for e in range(9)), *((o, 127) for o in (1, 3, 7, 9, 21, 63)),
     *((o, 131) for o in (5, 13, 65))],
)
def test_batched_multiplicities_match_the_direct_loop(o, p):
    # one kernel row per j serves every character; the direct loop ran the
    # transform once per character.  127 = 1 mod 63 and 131 = 1 mod 65
    rng = random.Random(o * p)
    rows = [[rng.randrange(p) for _ in range(o)] for _ in range(4)]
    rows.append([0] * o)
    zeta_inv = pow(root_of_unity(o, p), -1, p)
    expected = [reference_multiplicities(row, zeta_inv, p) for row in rows]
    assert _multiplicities(rows, zeta_inv, p) == expected


@pytest.mark.parametrize(
    "spec", [Extraspecial2(3), Dihedral(6), Psl2Even(4), Psl2Even(5)], ids=repr
)
def test_the_lift_canonicalizes_each_distinct_value_once(monkeypatch, spec):
    # one canonicalize per distinct exponent -> multiplicity map, not one
    # per cell (4,225 cells on extraspecial2(3)); equal maps share a value
    calls, real = [], oracle.canonicalize

    def counted(conductor, coeffs):
        calls.append(conductor)
        return real(conductor, coeffs)

    monkeypatch.setattr(oracle, "canonicalize", counted)
    table = dixon_character_table(builtin_perm_group(spec))
    assert len(calls) <= 2 * len(table.palette)


def test_eigenvalues_match_a_lambda_scan():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 13, 17, 97):
        cases = [[[0]], [[5]], [[0, 0], [0, 0]], [[0, 1], [p - 1, 0]]]
        for d in (2, 3, 4, 5):
            cases.append([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
            # diagonalizable with repeated eigenvalues: U diag U^-1 for an
            # upper unitriangular U, whose inverse back substitution gives
            diag = [rng.choice((1, 2, 2, 3)) % p for _ in range(d)]
            upper = [
                [1 if i == j else rng.randrange(p) if j > i else 0 for j in range(d)]
                for i in range(d)
            ]
            inverse = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
            for j in range(d):
                for i in reversed(range(j)):
                    inverse[i][j] = -sum(
                        upper[i][k] * inverse[k][j] for k in range(i + 1, j + 1)
                    ) % p
            cases.append(
                [
                    [
                        sum(upper[i][k] * diag[k] * inverse[k][j] for k in range(d)) % p
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
            )
            # a single Jordan block: one eigenvalue, one eigenvector
            cases.append(
                [[3 % p if i == j else 1 if j == i + 1 else 0 for j in range(d)]
                 for i in range(d)]
            )
        for mat in cases:
            assert _eigenvalues(mat, p) == reference_eigenvalues(mat, p), (p, mat)


# ---------------------------------------------------------------------------
# comparison up to relabeling


def shuffled(t: CharacterTable) -> CharacterTable:
    # deterministic relabeling: rotate classes (identity stays put) and rows
    k = t.num_classes
    class_perm = [0] + [1 + (i + 1) % (k - 1) for i in range(k - 1)]
    row_perm = [(i + 2) % len(t.characters) for i in range(len(t.characters))]
    return CharacterTable.from_values(
        group_name="shuffled",
        group_order=t.group_order,
        classes=tuple(t.classes[i] for i in class_perm),
        character_names=tuple(f"y{i}" for i in range(len(t.characters))),
        characters=tuple(
            tuple(t.characters[x][i] for i in class_perm) for x in row_perm
        ),
    )


def test_compare_recovers_a_shuffle():
    a = build_table(Psl2Even(2))
    b = shuffled(a)
    result = compare_tables(a, b)
    assert result.matched
    for x in range(len(a.characters)):
        for i in range(a.num_classes):
            y, j = result.row_map[x], result.class_map[i]
            assert a.characters[x][i] == b.characters[y][j]
            assert a.classes[i].size == b.classes[j].size


def test_compare_q8_against_dihedral8():
    # same character table over plain values, different element orders
    q8 = dixon_character_table(Q8)
    d8 = dihedral_table(2)
    strict = compare_tables(d8, q8)
    assert not strict.matched
    assert "(size, element order)" in strict.reason
    assert "multisets differ" in strict.reason


def test_compare_reports_structural_mismatches():
    d8 = dihedral_table(2)
    result = compare_tables(d8, dihedral_table(3))
    assert "group orders differ" in result.reason

    d16 = dihedral_table(3)
    klein_sq = product_table(dihedral_table(1), dihedral_table(1))
    result = compare_tables(d16, klein_sq)  # both order 16
    assert "class counts differ" in result.reason

    fewer_rows = CharacterTable.from_values(
        d8.group_name, d8.group_order, d8.classes,
        d8.character_names[:-1], d8.characters[:-1],
    )
    assert "character counts differ" in compare_tables(d8, fewer_rows).reason

    flattened = CharacterTable.from_values(
        d8.group_name, d8.group_order, d8.classes,
        d8.character_names, d8.characters[:-1] + (d8.characters[0],),
    )
    assert "degree multisets differ" in compare_tables(d8, flattened).reason


def test_compare_detects_value_disagreement():
    d8 = dihedral_table(2)
    rows = list(d8.characters)
    i = d8.class_index("s")
    j = d8.class_index("st")
    # swap the two reflection columns on one linear character only; all
    # multiset prechecks still pass, the joint assignment cannot
    x = d8.character_index("sign_rot")
    row = list(rows[x])
    row[i], row[j] = row[j], row[i]
    rows[x] = tuple(row)
    tampered = CharacterTable.from_values(
        d8.group_name, d8.group_order, d8.classes, d8.character_names, tuple(rows)
    )
    result = compare_tables(d8, tampered)
    assert not result.matched
    assert "no class correspondence" in result.reason


def _relabeled(t: CharacterTable, rng: random.Random) -> CharacterTable:
    """t with classes and rows permuted at random; class 0 stays first,
    because `degrees` reads column 0."""
    characters = t.characters
    class_perm = [0, *rng.sample(range(1, t.num_classes), t.num_classes - 1)]
    row_perm = rng.sample(range(len(characters)), len(characters))
    return CharacterTable.from_values(
        "relabeled", t.group_order, tuple(t.classes[i] for i in class_perm),
        tuple(f"y{x}" for x in range(len(characters))),
        tuple(tuple(characters[x][i] for i in class_perm) for x in row_perm),
    )


def _perturbed(t: CharacterTable, rng: random.Random) -> CharacterTable:
    """t with one seeded change off the identity column: two cells swapped
    in a row or in a column, or one cell replaced by another palette value."""
    rows = [list(row) for row in t.characters]
    x, y = rng.randrange(len(rows)), rng.randrange(len(rows))
    i, j = rng.randrange(1, t.num_classes), rng.randrange(1, t.num_classes)
    kind = rng.choice(["row", "column", "cell"])
    if kind == "row":
        rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    elif kind == "column":
        rows[x][i], rows[y][i] = rows[y][i], rows[x][i]
    else:
        rows[x][i] = rng.choice([v for v in t.palette if v != rows[x][i]])
    return CharacterTable.from_values(
        t.group_name, t.group_order, t.classes, t.character_names, tuple(map(tuple, rows))
    )


COMPARE_SPECS = [
    *(Dihedral(n) for n in range(1, 6)),
    *(Extraspecial2(n) for n in (1, 2)),
    *(Psl2Even(r) for r in range(1, 5)),
    Product((Dihedral(2), Psl2Even(2))),
    Product((Extraspecial2(1), Dihedral(3))),
]


def test_compare_matches_the_reference():
    rng = random.Random(20261019)
    outcomes = []
    for spec in COMPARE_SPECS:
        generated = build_table(spec)
        found = dixon_character_table(builtin_perm_group(spec))
        shuffles = [_relabeled(found, rng) for _ in range(31)]
        pairs = [(generated, found), (generated, shuffles[0])]
        pairs += [(generated, _perturbed(s, rng)) for s in shuffles[1:]]
        pairs += [(_perturbed(generated, rng), found) for _ in range(10)]
        for a, b in pairs:
            result = compare_tables(a, b)
            assert result == reference_compare_tables(a, b), spec
            if result:
                assert sorted(result.row_map) == list(range(len(a.rows)))
            outcomes.append(result.reason)
    # the cases reach a match and both search failures
    assert None in outcomes
    assert "no class correspondence: per-class value profiles differ" in outcomes
    assert "no class correspondence aligns the character values" in outcomes


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_compare_does_not_recurse_per_class():
    # 67 classes: a limit 40 frames above this test overflows a search that
    # recurses once per class, as the reference does
    a = dihedral_table(7)
    b = _relabeled(a, random.Random(11))
    want = reference_compare_tables(a, b)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        with pytest.raises(RecursionError):
            reference_compare_tables(a, b)
        got = compare_tables(a, b)
    finally:
        sys.setrecursionlimit(limit)
    assert a.num_classes == 67
    assert got == want and got.matched


def test_compare_maps_equal_rows_to_distinct_rows():
    # row 1 replaced by a copy of row 0: malformed, but still a relabeling
    d8 = dihedral_table(2)
    rows = list(d8.characters)
    rows[1] = rows[0]
    twin = CharacterTable.from_values(
        d8.group_name, d8.group_order, d8.classes, d8.character_names, tuple(rows)
    )
    rng = random.Random(5)
    for b in [twin] + [_relabeled(twin, rng) for _ in range(10)]:
        result = compare_tables(twin, b)
        assert result == reference_compare_tables(twin, b)
        assert sorted(result.row_map) == list(range(5))


@pytest.mark.parametrize(
    "spec",
    [Dihedral(3), Extraspecial2(2), Psl2Even(2), Psl2Even(3),
     Product((Extraspecial2(1), Psl2Even(1)))],
    ids=repr,
)
def test_class_matrices_commute(spec):
    # the eigenspace split relies on this and does not re-check invariance
    data = enumerate_and_classify(builtin_perm_group(spec))
    r = data.num_classes
    dense = []
    for i in range(r):
        mat = [[0] * r for _ in range(r)]
        for j, k, count in _class_matrix(data, i):
            mat[j][k] = count
        dense.append(mat)

    def product(m, n):
        return [[sum(m[j][t] * n[t][k] for t in range(r)) for k in range(r)] for j in range(r)]

    for i, m in enumerate(dense):
        for n in dense[i + 1:]:
            assert product(m, n) == product(n, m)


# ---------------------------------------------------------------------------
# built-in realizations


def test_builtin_degrees():
    assert builtin_perm_group(Dihedral(1)).degree == 4
    assert builtin_perm_group(Dihedral(4)).degree == 16
    assert builtin_perm_group(Extraspecial2(1)).degree == 8
    assert builtin_perm_group(Psl2Even(2)).degree == 5
    assert builtin_perm_group(Psl2Even(3)).degree == 9


@pytest.mark.parametrize(
    "spec",
    [Dihedral(1), Dihedral(3), Extraspecial2(1), Extraspecial2(2), Psl2Even(1), Psl2Even(2)],
)
def test_builtin_realizes_the_right_group(spec):
    data = enumerate_and_classify(builtin_perm_group(spec))
    table = build_table(spec)
    assert data.group_order == table.group_order
    assert sorted(zip(data.sizes, data.element_orders)) == sorted(
        (c.size, c.element_order) for c in table.classes
    )


# sha256 of repr(PermGroup), recorded from the realization that searched for
# an irreducible polynomial and a multiplicative generator: the field built
# from the powers of x must give the same generators on the same labels.
PSL2_REALIZATION_SHA256 = {
    1: "22b49dd3b27183405cd02052f41b129f3809106c7a1578a7ccaf71871eec9b45",
    2: "a1a0d1b2fa9e4a16d78282ed63838941a3a7026fc238d01925977996b41a6102",
    3: "8313d1741f7c3f64aa47c7cfe3750dea9b10ea4bc3dde3735033f68ba5b7e447",
    4: "38b39c905ca3da620e8b138e220588ffe81e04a950bf5a15b1bbfcaa12f9b037",
    5: "fe252d2e6103eebd90fc6880da3faec8d2dd05555de47b4dd797824317b8cadc",
    6: "f3ed5c886b66b9d9064b01f69417a4bc60d2acc453c9c32b8cb7607bf9268524",
    7: "db1ed1c23f70308fe917a8f79a7a95b54a9c18a0763c12072379fbe63dfadf65",
}


@pytest.mark.parametrize("r", sorted(PSL2_REALIZATION_SHA256))
def test_psl2_realization_is_pinned(r):
    # r = 6 and 7 pass the element limit, so they are built directly
    group = builtin_perm_group(Psl2Even(r)) if r <= 5 else oracle._psl2_perm_group(r)
    assert hashlib.sha256(repr(group).encode()).hexdigest() == PSL2_REALIZATION_SHA256[r]


def test_psl2_of_2_realization():
    # z -> z + 1, z -> 1/z and z -> x^2 z on infinity, 0, 1, x, x + 1
    assert builtin_perm_group(Psl2Even(2)) == PermGroup(
        5, ((0, 2, 1, 4, 3), (1, 0, 2, 4, 3), (0, 1, 4, 2, 3))
    )


def test_perm_group_validation():
    with pytest.raises(InvalidParameterError):
        PermGroup(0, ())
    with pytest.raises(InvalidParameterError):
        PermGroup(2, ((1, 2),))
    with pytest.raises(InvalidParameterError):
        PermGroup(3, ((1, 0),))  # wrong length
    with pytest.raises(InvalidParameterError):
        PermGroup(3, ((0, 0, 1),))  # not a bijection
