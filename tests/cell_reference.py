"""The per-cell Python loops, kept as the reference for the C-builtin passes.

Verbatim copies of five passes as they stood before they moved into
C builtins (`Counter`, `itemgetter`, tuple concatenation, a JSON encoder
run once per palette entry), with the helper `_cosine_pairs` they share:

* `reference_dihedral_table`: `chartab.tables.dihedral_table`, one
  ``at[h * k % rot]`` lookup per planar cell;
* `reference_psl2_even_table`: `chartab.tables.psl2_even_table`, one
  ``at[j * l % (q - 1)]`` or ``at[m * k % (q + 1)]`` lookup per cosine
  cell;
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

from collections.abc import Sequence
from math import gcd

from chartab.exactnum import Cyclotomic, canonicalize
from chartab.tables import (
    CharacterTable,
    ClassInfo,
    Dihedral,
    Psl2Even,
    _check_positive,
    check_table_guard,
)


def _cosine_pairs(
    conductor: int, sign: int, palette: list[Cyclotomic], exponents: Sequence[int]
) -> list[int]:
    """Append ``sign * (zeta**e + zeta**-e)`` for each ``e`` of ``exponents``
    (``0..conductor // 2`` in some order) and ``zeta = zeta_conductor`` to
    ``palette``; return, per exponent mod the conductor, the palette index
    of its value (``-e`` shares ``e``'s)."""
    slot = {e: len(palette) + i for i, e in enumerate(exponents)}
    palette.extend(
        canonicalize(conductor, {e: sign, -e: sign} if e else {0: 2 * sign})
        for e in exponents
    )
    return [slot[min(e, conductor - e)] for e in range(conductor)]


def reference_dihedral_table(n: int) -> CharacterTable:
    """Dihedral group of order ``2**(n+1)``: rotations of order ``2**n`` plus
    reflections.

    Classes, in order: identity; the central rotation half-turn; the rotation
    pairs ``k = 1 .. 2**(n-1)-1`` (size 2); the two reflection classes (size
    ``2**(n-1)`` each).  Characters: four linear ones cut out by the parity
    of the rotation exponent and the rotation/reflection split, then the
    planar characters ``rot1 .. rot{2**(n-1)-1}`` of degree 2 whose value on
    the rotation class ``k`` is ``zeta**(h*k) + zeta**(-h*k)`` for
    ``zeta = zeta_{2**n}``.

    ``n == 1`` is allowed and yields the elementary abelian group of order 4
    (four singleton classes, four linear characters).
    """
    check_table_guard(Dihedral(n))
    order = 2 ** (n + 1)
    rot = 2**n  # order of the rotation subgroup
    half = 2 ** (n - 1)
    classes = [ClassInfo("1", 1, 1), ClassInfo("t" if n == 1 else f"t^{half}", 1, 2)]
    for k in range(1, half):
        classes.append(ClassInfo(f"t^{k}", 2, rot // gcd(rot, k)))
    classes.append(ClassInfo("s", half, 2))
    classes.append(ClassInfo("st", half, 2))

    # exponents of the rotation representative in class order
    rot_exponents = [0, half] + list(range(1, half))
    ONE, NEG = 0, 1
    palette = [Cyclotomic.one(), Cyclotomic.from_rational(-1)]

    def linear(rot_sign: int, refl_sign: int) -> tuple[int, ...]:
        row = [ONE if rot_sign**k == 1 else NEG for k in rot_exponents]
        row.append(ONE if refl_sign == 1 else NEG)
        row.append(ONE if refl_sign * rot_sign == 1 else NEG)
        return tuple(row)

    names = ["trivial", "sign_refl", "sign_rot", "sign_both"]
    rows = [linear(1, 1), linear(1, -1), linear(-1, 1), linear(-1, -1)]

    # e = rot / 4 gives the zero the reflection classes carry.  Row rot1
    # meets the cosines first, in class order, so listing them in that
    # order builds the palette canonical (n >= 2).
    at = _cosine_pairs(rot, 1, palette, rot_exponents)
    zero = at[rot // 4]
    for h in range(1, half):
        names.append(f"rot{h}")
        rows.append(tuple(at[h * k % rot] for k in rot_exponents) + (zero, zero))

    return CharacterTable(
        group_name=f"dihedral({n})",
        group_order=order,
        classes=tuple(classes),
        character_names=tuple(names),
        palette=tuple(palette),
        rows=tuple(rows),
    )


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


def reference_psl2_even_table(r: int) -> CharacterTable:
    """PSL(2, q) for ``q = 2**r`` on its classical class list.

    Classes, in order: identity; the involution class of size ``q**2 - 1``;
    the ``(q - 2) / 2`` split-torus classes (size ``q(q+1)``, element orders
    dividing ``q - 1``); the ``q / 2`` nonsplit-torus classes (size
    ``q(q-1)``, element orders dividing ``q + 1``).  Characters: trivial;
    the Steinberg character of degree ``q``; the ``(q - 2) / 2`` principal
    series of degree ``q + 1`` carrying ``zeta_{q-1}`` cosine pairs on the
    split classes; the ``q / 2`` discrete series of degree ``q - 1``
    carrying negated ``zeta_{q+1}`` cosine pairs on the nonsplit classes.
    """
    check_table_guard(Psl2Even(r))
    q = 2**r
    order = q**3 - q
    n_split = (q - 2) // 2
    n_nonsplit = q // 2

    classes = [ClassInfo("1", 1, 1), ClassInfo("u", q * q - 1, 2)]
    for l in range(1, n_split + 1):
        classes.append(ClassInfo(f"split{l}", q * (q + 1), (q - 1) // gcd(l, q - 1)))
    for m in range(1, n_nonsplit + 1):
        classes.append(ClassInfo(f"nonsplit{m}", q * (q - 1), (q + 1) // gcd(m, q + 1)))

    palette = [
        Cyclotomic.one(),
        Cyclotomic.from_rational(q),
        Cyclotomic.zero(),
        Cyclotomic.from_rational(-1),
        Cyclotomic.from_rational(q + 1),
        Cyclotomic.from_rational(q - 1),
    ]
    ONE, STEINBERG, ZERO, NEG, PRINCIPAL, DISCRETE = range(6)
    names = ["trivial", "steinberg"]
    rows = [
        (ONE,) * (q + 1),
        (STEINBERG, ZERO) + (ONE,) * n_split + (NEG,) * n_nonsplit,
    ]
    at = _cosine_pairs(q - 1, 1, palette, range((q - 1) // 2 + 1))
    for j in range(1, n_split + 1):
        names.append(f"principal{j}")
        block = tuple(at[j * l % (q - 1)] for l in range(1, n_split + 1))
        rows.append((PRINCIPAL, ONE) + block + (ZERO,) * n_nonsplit)
    at = _cosine_pairs(q + 1, -1, palette, range((q + 1) // 2 + 1))
    for m in range(1, n_nonsplit + 1):
        names.append(f"discrete{m}")
        block = tuple(at[m * k % (q + 1)] for k in range(1, n_nonsplit + 1))
        rows.append((DISCRETE, NEG) + (ZERO,) * n_split + block)

    return CharacterTable(
        group_name=f"psl2even({r})",
        group_order=order,
        classes=tuple(classes),
        character_names=tuple(names),
        palette=tuple(palette),
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
