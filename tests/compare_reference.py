"""The tuple-signature table comparison, kept as the reference for the id one.

A verbatim copy of `chartab.oracle.compare_tables` as it stood before it
decided on integer ids: each row carries its history as a growing tuple
of joint-conductor value keys, and the row map is read off a second
pass that rebuilds every row's tuple.  Slow but plainly correct; the
differential test in `test_oracle.py` requires `compare_tables` to return
the very same `TableComparison` (verdict, reason, class map and row map)
on oracle, shuffled and perturbed tables.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

from chartab.oracle import TableComparison
from chartab.tables import CharacterTable


def reference_compare_tables(a: CharacterTable, b: CharacterTable) -> TableComparison:
    """Decide whether b is a relabeling of a.

    Looks for a class bijection and a character bijection under which the
    tables agree entry by entry; matched classes must have the same size
    and the same element order.  On success class_map and row_map send
    indices of a to indices of b.

    Values are compared semantically: both tables are rewritten into the
    smallest common cyclotomic field first, so differing conductors for
    equal values never cause a spurious mismatch.
    """

    def fail(reason: str) -> TableComparison:
        return TableComparison(False, reason, None, None)

    if a.group_order != b.group_order:
        return fail(f"group orders differ: {a.group_order} vs {b.group_order}")
    if a.num_classes != b.num_classes:
        return fail(f"class counts differ: {a.num_classes} vs {b.num_classes}")
    if len(a.rows) != len(b.rows):
        return fail(f"character counts differ: {len(a.rows)} vs {len(b.rows)}")

    profile_a = sorted((c.size, c.element_order) for c in a.classes)
    profile_b = sorted((c.size, c.element_order) for c in b.classes)
    if profile_a != profile_b:
        return fail(
            f"class (size, element order) multisets differ: {profile_a} vs {profile_b}"
        )

    degrees_a, degrees_b = a.degrees, b.degrees
    if sorted(degrees_a) != sorted(degrees_b):
        return fail(
            f"degree multisets differ: {sorted(degrees_a)} vs {sorted(degrees_b)}"
        )

    joint = lcm(*(v.conductor for v in a.palette + b.palette))

    def joint_values(table: CharacterTable) -> list[list[tuple]]:
        keys = [v.embed(joint).key() for v in table.palette]
        return [[keys[i] for i in row] for row in table.rows]

    vals_a = joint_values(a)
    vals_b = joint_values(b)
    r = a.num_classes
    nrows = len(vals_a)

    def column_invariant(table, vals, degrees, j):
        info = table.classes[j]
        profile = (info.size, info.element_order)
        pairs = Counter((degrees[i], vals[i][j]) for i in range(nrows))
        return (profile, tuple(sorted(pairs.items())))

    invariant_a = [column_invariant(a, vals_a, degrees_a, j) for j in range(r)]
    invariant_b = [column_invariant(b, vals_b, degrees_b, j) for j in range(r)]
    if Counter(invariant_a) != Counter(invariant_b):
        return fail("no class correspondence: per-class value profiles differ")

    buckets: dict[tuple, list[int]] = {}
    for j, inv in enumerate(invariant_b):
        buckets.setdefault(inv, []).append(j)
    # small buckets first: forced assignments come free, ambiguity is deferred
    column_order = sorted(
        range(r), key=lambda j: (len(buckets[invariant_a[j]]), invariant_a[j], j)
    )

    used = [False] * r
    assignment = [0] * r

    def search(t, sig_a, sig_b) -> bool:
        # sig_a[i] / sig_b[i]: the row's values along the columns assigned
        # so far; equal multisets are necessary for any completion
        if t == r:
            return True
        i = column_order[t]
        for j in buckets[invariant_a[i]]:
            if used[j]:
                continue
            next_a = tuple(sig_a[x] + (vals_a[x][i],) for x in range(nrows))
            next_b = tuple(sig_b[x] + (vals_b[x][j],) for x in range(nrows))
            if Counter(next_a) != Counter(next_b):
                continue
            used[j] = True
            assignment[i] = j
            if search(t + 1, next_a, next_b):
                return True
            used[j] = False
        return False

    empty = tuple(() for _ in range(nrows))
    if not search(0, empty, empty):
        return fail("no class correspondence aligns the character values")

    signature_to_b_rows: dict[tuple, list[int]] = {}
    for y in range(nrows):
        sig = tuple(vals_b[y][assignment[i]] for i in column_order)
        signature_to_b_rows.setdefault(sig, []).append(y)
    row_map = []
    for x in range(nrows):
        sig = tuple(vals_a[x][i] for i in column_order)
        row_map.append(signature_to_b_rows[sig].pop(0))
    return TableComparison(True, None, tuple(assignment), tuple(row_map))
