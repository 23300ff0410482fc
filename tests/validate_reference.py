"""The two-pass validator, kept as the reference for the one-pass one.

A verbatim copy of `chartab.tables.validate_table` as it stood before
the column pass was dropped: row orthogonality and then column
orthogonality, every product term embedded into the lcm of all the
table's conductors.  Slow but plainly correct; the differential test in
`test_tables.py` requires `validate_table` to return the very same
report (verdict and failure message) on generated, product, oracle and
perturbed tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from chartab.exactnum import Cyclotomic, canonicalize
from chartab.tables import CharacterTable, MalformedTableError, ValidationReport


def reference_validate_table(t: CharacterTable) -> ValidationReport:
    """Check the exact defining relations of a character table.

    Verifies, in this order, stopping at the first violation: shape; the
    class equation; identity-column degrees; the degree equation; row
    orthogonality (all pairs, including the norm); column
    orthogonality.  All checks are exact; nothing is approximated.
    """

    def fail(msg: str) -> ValidationReport:
        return ValidationReport(False, msg)

    k = t.num_classes
    rows = t.rows
    if len(rows) != k:
        return fail(f"{len(rows)} characters for {k} classes")
    if len(t.character_names) != len(rows):
        return fail("character_names and characters lengths differ")
    if any(len(row) != k for row in rows):
        return fail("ragged character row")
    if t.classes[0].size != 1 or t.classes[0].element_order != 1:
        return fail("first class is not the identity class")

    if sum(c.size for c in t.classes) != t.group_order:
        return fail(
            f"class equation: sizes sum to {sum(c.size for c in t.classes)}, "
            f"order is {t.group_order}"
        )
    for c in t.classes:
        if t.group_order % c.size != 0:
            return fail(f"class {c.name} size {c.size} does not divide the order")

    try:
        degrees = t.degrees
    except MalformedTableError as e:
        return fail(str(e))
    if sum(d * d for d in degrees) != t.group_order:
        return fail(
            f"degree equation: sum of squares is {sum(d * d for d in degrees)}, "
            f"order is {t.group_order}"
        )

    palette = t.palette

    # Each inner product is accumulated as a raw power-basis coefficient map
    # in the joint conductor: one canonicalize per inner product instead of
    # one Cyclotomic addition per term.  terms[x, y] holds the coefficients
    # of palette[x] * conj(palette[y]), built on first use.
    joint = lcm(*(v.conductor for v in palette))
    conj = [v.conjugate() for v in palette]
    terms: dict[tuple[int, int], tuple] = {}

    def inner(xs, ys, weights) -> Cyclotomic:
        acc: dict[int, object] = {}
        for s, x, y in zip(weights, xs, ys):
            coeffs = terms.get((x, y))
            if coeffs is None:
                coeffs = terms[x, y] = (palette[x] * conj[y]).embed(joint).coeffs
            for e, c in coeffs:
                acc[e] = acc.get(e, 0) + s * c
        return canonicalize(joint, acc)

    sizes = [c.size for c in t.classes]
    names = t.character_names
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            got = inner(rows[i], rows[j], sizes)
            expect = t.group_order if i == j else 0
            if got != expect:
                return fail(
                    f"row orthogonality ({names[i]}, {names[j]}): "
                    f"got {got}, expected {expect}"
                )

    columns = list(zip(*rows))
    ones = [1] * len(rows)
    for ci in range(k):
        for cj in range(ci, k):
            got = inner(columns[ci], columns[cj], ones)
            expect_col = Fraction(t.group_order, sizes[ci]) if ci == cj else Fraction(0)
            if got != expect_col:
                return fail(
                    "column orthogonality "
                    f"({t.classes[ci].name}, {t.classes[cj].name}): "
                    f"got {got}, expected {expect_col}"
                )

    return ValidationReport(True)
