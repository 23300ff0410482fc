"""The per-cell Python loops, kept as the reference for the C-builtin passes.

Verbatim copies of three passes as they stood before they moved into
C builtins (`Counter`, `itemgetter`, tuple concatenation, a JSON encoder
run once per palette entry):

* `reference_extraspecial2_table`: `chartab.tables.extraspecial2_table`,
  one `bin(w & v).count("1")` per cell;
* `reference_histogram`: `chartab.stats._histogram`, two list updates per
  cell;
* `reference_table_json`: the text `chartab table --format json` printed,
  `json.dumps` with ``indent=2`` of the whole table document.

Slow but plainly correct; the differential tests in `test_cells.py`
require the fast passes to give the very same tables, histograms and
bytes.
"""

from __future__ import annotations

import json

from chartab.exactnum import Cyclotomic
from chartab.tables import CharacterTable, ClassInfo, _check_positive


def reference_extraspecial2_table(n: int) -> CharacterTable:
    """Extraspecial group of order ``2**(2n+1)``, central product of ``n``
    dihedral groups of order 8.

    Elements are modeled as pairs ``(v, c)`` with ``v`` a ``2n``-bit vector
    (the image in the Frattini quotient) and ``c`` a central bit; the class
    of a noncentral element is ``{(v, 0), (v, 1)}``.  An element squares to
    the central involution exactly when the split quadratic form
    ``Q(v) = x . y`` (with ``v = (x, y)``) is 1, which fixes the element
    orders.  Characters: ``2**(2n)`` linear ones indexed by ``w``, with
    value ``(-1)**(w . v)``, and the single faithful character of degree
    ``2**n`` supported on the center.
    """
    _check_positive(n, "n")
    dim = 2 * n
    classes = [ClassInfo("1", 1, 1), ClassInfo("z", 1, 2)]
    for v in range(1, 2**dim):
        q = bin((v >> n) & v).count("1") & 1
        classes.append(ClassInfo(f"e{v:0{dim}b}", 2, 4 if q else 2))

    deg = Cyclotomic.from_rational(2**n)
    palette = (Cyclotomic.one(), Cyclotomic.from_rational(-1), deg, -deg, Cyclotomic.zero())
    ONE, NEG, DEG, NEG_DEG, ZERO = range(5)
    names = []
    rows = []
    for w in range(2**dim):
        names.append(f"lin{w:0{dim}b}")
        rows.append(
            (ONE, ONE)
            + tuple(NEG if bin(w & v).count("1") & 1 else ONE for v in range(1, 2**dim))
        )
    names.append("faithful")
    rows.append((DEG, NEG_DEG) + (ZERO,) * (2**dim - 1))

    return CharacterTable(
        group_name=f"extraspecial2({n})",
        group_order=2 ** (2 * n + 1),
        classes=tuple(classes),
        character_names=tuple(names),
        palette=palette,
        rows=tuple(rows),
    )


def reference_histogram(t: CharacterTable, rows) -> list[tuple[Cyclotomic, int, int]]:
    """(value, cells, class-size sum) per palette entry the rows use, in one
    pass over their cells."""
    sizes = [c.size for c in t.classes]
    cells = [0] * len(t.palette)
    elems = [0] * len(t.palette)
    for row in rows:
        for x, size in zip(row, sizes):
            cells[x] += 1
            elems[x] += size
    return [(v, n, m) for v, n, m in zip(t.palette, cells, elems) if n]


def reference_table_json(t: CharacterTable) -> str:
    """What `chartab table --format json` printed, before its final newline."""
    return json.dumps(t.to_json(), indent=2)
