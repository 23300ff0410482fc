"""Character tables for the supported group families.

A `CharacterTable` is a plain immutable container: conjugacy classes (name,
size, element order), a palette of the table's distinct exact `Cyclotomic`
values, and one row of palette indices per irreducible character.
Generators exist for three families plus direct products:

* ``dihedral_table(n)``        dihedral group of order ``2**(n+1)``
  (for ``n == 1`` this degenerates to the abelian group of order 4);
* ``extraspecial2_table(n)``   the extraspecial group of order ``2**(2n+1)``
  obtained as a central product of ``n`` dihedral groups of order 8
  (the "plus type" form, whose squaring map is the split quadratic form);
* ``psl2_even_table(r)``       PSL(2, q) for ``q = 2**r``, where the group
  coincides with SL(2, q);
* ``product_table(a, b)``      the direct product, classes and characters
  in row-major factor order.

Class ordering in each generator follows the construction given in its
docstring; the identity class always comes first.  Generated tables carry
values in the conductor of their construction (a power of two for the
2-groups, ``q - 1`` and ``q + 1`` for the split and nonsplit torus values),
never shrunk to the minimal field.  Every cosine row (a dihedral planar
character, a PSL principal or discrete series) is one `itemgetter` gather
of an earlier row by `_cosine_rows`.

``FAMILIES`` holds one record per single family (kind name, parameter
name, generator, class count, group order); the spec functions and
``build_table`` read it, so a family fact is stated once.

``validate_table`` checks the defining exact relations (class equation,
degree equation, row orthogonality, which implies column orthogonality)
and reports the first violation, which makes it usable as an oracle
against independently computed tables.  Row orthogonality of a table
whose rows are Galois-stable is proved modulo one split prime, exactly
(`_row_orthogonality_proved` holds the proof); every other table, and
every failure, goes through the exact pair loop.

The class guard reads floor(log2) of a count off the parameters: a
single family's from its `FAMILIES` record, a product's as the sum of
its factors', so no count is built to be refused.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Sequence
from itertools import accumulate, chain
from math import gcd, lcm, prod
from operator import itemgetter, mul

from chartab.exactnum import (
    ChartabError,
    Cyclotomic,
    Record,
    canonicalize,
    factorize,
    is_prime,
    prime_1_mod,
    residues,
    root_of_unity,
    unit_generators,
)

CLASS_LIMIT = 10**6


class InvalidParameterError(ChartabError):
    """Raised when a family parameter is outside the supported range."""


class TableTooLargeError(ChartabError):
    """Raised when a requested table exceeds the class-count guard."""


class MalformedTableError(ChartabError):
    """Raised when a table fails a structural lookup (unknown class name, ...)."""


class ClassInfo(Record):
    name: str
    size: int
    element_order: int


class CharacterTable(Record):
    """A table stored as a palette of its distinct values plus index rows.

    ``rows[i][j]`` is the palette index of character i on class j.  A table
    has far fewer distinct values than cells, so readers work per palette
    entry.  Construction accepts any value list with index rows into it and
    brings both to canonical form: values equal by `Cyclotomic.key()` merge,
    unused ones drop, and the rest are numbered in row-major
    first-occurrence order.  Two tables with the same cells therefore
    compare equal.
    """

    group_name: str
    group_order: int
    classes: tuple[ClassInfo, ...]
    character_names: tuple[str, ...]
    palette: tuple[Cyclotomic, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        first: dict[tuple, int] = {}
        merged = [first.setdefault(v.key(), i) for i, v in enumerate(self.palette)]
        # first-use order is fixed once every distinct key has a place, so
        # the cells past that point are never read; a row that brings no
        # new index is passed over by one C-level subset test
        order: dict[int, int] = {}
        seen: set[int] = set()
        for row in self.rows:
            if len(order) == len(first):
                break
            if not seen.issuperset(row):
                for i in dict.fromkeys(row):
                    if i not in seen:
                        seen.add(i)
                        order.setdefault(merged[i], len(order))
        index = [order.get(m) for m in merged]
        if index == list(range(len(index))):
            # already canonical, as the generators emit it: keep the indices
            object.__setattr__(self, "palette", tuple(self.palette))
            object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
            return
        # every cell takes its index object from this list, so equal cells
        # share one int instead of allocating one each
        object.__setattr__(self, "palette", tuple(self.palette[m] for m in order))
        object.__setattr__(
            self, "rows", tuple(tuple(map(index.__getitem__, row)) for row in self.rows)
        )

    @staticmethod
    def from_values(
        group_name: str,
        group_order: int,
        classes: tuple[ClassInfo, ...],
        character_names: tuple[str, ...],
        characters,
    ) -> "CharacterTable":
        """A table from rows of values."""
        ends = accumulate(len(row) for row in characters)
        rows = tuple(range(end - len(row), end) for row, end in zip(characters, ends))
        cells = tuple(chain.from_iterable(characters))
        return CharacterTable(group_name, group_order, classes, character_names, cells, rows)

    @property
    def characters(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        """The value rows, rebuilt from the palette on every read."""
        return tuple(tuple(map(self.palette.__getitem__, row)) for row in self.rows)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def degrees(self) -> tuple[int, ...]:
        # The identity class is first, so degrees are the first column.
        out = []
        for row in self.rows:
            v = self.palette[row[0]]
            d = v.as_rational() if v.is_rational else 0  # 0: refused just below
            if d <= 0:
                raise MalformedTableError(f"identity value {v} is not a positive integer")
            out.append(int(d))
        return tuple(out)

    def class_index(self, name: str) -> int:
        for i, c in enumerate(self.classes):
            if c.name == name:
                return i
        raise MalformedTableError(f"{self.group_name}: no class named {name!r}")

    def character_index(self, name: str) -> int:
        for i, c in enumerate(self.character_names):
            if c == name:
                return i
        raise MalformedTableError(f"{self.group_name}: no character named {name!r}")

    def to_json(self) -> dict:
        rendered = [v.to_json() for v in self.palette]
        return {
            "group": self.group_name,
            "order": self.group_order,
            "classes": [
                {"name": c.name, "size": c.size, "order": c.element_order}
                for c in self.classes
            ],
            "characters": [
                {"name": name, "values": [rendered[i] for i in row]}
                for name, row in zip(self.character_names, self.rows)
            ],
        }

    def to_json_text(self) -> str:
        """`json.dumps(self.to_json(), indent=2)`, byte for byte, with the
        JSON encoder run once per palette entry rather than once per cell.

        A value of a character sits at depth 4 (document, "characters",
        character, "values"), so its indented text is the palette entry's own
        indented text with every line shifted by 8 spaces; a row is those
        texts joined as the encoder joins list items.  The fields above
        "characters" are dumped from `to_json`."""
        doc = self.to_json()
        if not self.rows:
            return json.dumps(doc, indent=2)
        del doc["characters"]
        pad = "\n" + " " * 8
        text = [json.dumps(v.to_json(), indent=2).replace("\n", pad) for v in self.palette]
        sep = "," + pad
        body = ",\n".join(
            f'    {{\n      "name": {json.dumps(name)},\n      "values": '
            + (f"[{pad}{sep.join(map(text.__getitem__, row))}\n      ]" if row else "[]")
            + "\n    }"
            for name, row in zip(self.character_names, self.rows)
        )
        head = json.dumps(doc, indent=2)[: -len("\n}")]
        return f'{head},\n  "characters": [\n{body}\n  ]\n}}'


# ---------------------------------------------------------------------------
# family specs


class Dihedral(Record):
    n: int


class Extraspecial2(Record):
    n: int


class Psl2Even(Record):
    r: int


class Product(Record):
    factors: tuple["FamilySpec", ...]


FamilySpec = Dihedral | Extraspecial2 | Psl2Even | Product


class Family(Record):
    """What the package knows of a single family, as functions of its
    parameter: the class count and the group order, each with its
    floor(log2) read off the parameter, and the table generator."""

    kind: str  # the name the CLI and JSON use
    param: str
    generate: Callable[[int], "CharacterTable"]
    class_count: Callable[[int], int]
    class_count_log2: Callable[[int], int]
    group_order: Callable[[int], int]
    group_order_log2: Callable[[int], int]


def single_family(spec: FamilySpec) -> tuple[Family, int]:
    """The `FAMILIES` record of a single-family spec and its parameter,
    checked positive."""
    family = FAMILIES.get(type(spec))
    if family is None:
        raise InvalidParameterError(f"unknown family spec {spec!r}")
    value = getattr(spec, family.param)
    _check_positive(value, family.param)
    return family, value


def spec_to_json(spec: FamilySpec) -> dict:
    if isinstance(spec, Product):
        return {"kind": "product", "factors": [spec_to_json(f) for f in spec.factors]}
    family, value = single_family(spec)
    return {"kind": family.kind, family.param: value}


def spec_class_count(spec: FamilySpec) -> int:
    """Number of conjugacy classes, computed without building the table."""
    if isinstance(spec, Product):
        return prod(map(spec_class_count, spec.factors))
    family, value = single_family(spec)
    return family.class_count(value)


def spec_group_order(spec: FamilySpec) -> int:
    """Group order, computed without building anything."""
    if isinstance(spec, Product):
        return prod(map(spec_group_order, spec.factors))
    family, value = single_family(spec)
    return family.group_order(value)


def log2_floor(spec: FamilySpec, order: bool = False) -> int:
    """A lower bound on floor(log2) of the class count of ``spec`` (or of
    its group order), read off the parameters: exact for a single family,
    the sum of the factors' bounds for a product, since
    floor(log2(xy)) >= floor(log2 x) + floor(log2 y)."""
    if isinstance(spec, Product):
        return sum(log2_floor(f, order) for f in spec.factors)
    family, value = single_family(spec)
    return (family.group_order_log2 if order else family.class_count_log2)(value)


def check_table_guard(spec: FamilySpec) -> None:
    """The class guard `build_table` applies before anything is built:
    `count_past` with the floor(log2) bound the parameters give, so a
    count past both the limit and 10^18 by that bound is never built."""
    _check_class_count("table", log2_floor(spec), lambda: spec_class_count(spec))


def build_table(spec: FamilySpec) -> CharacterTable:
    """The generated table of a family spec.

    Every spec is checked against the class-count guard before anything is
    built, so an oversized request fails fast instead of exhausting memory:
    a product here, before any factor, and a single family by its generator.
    """
    if isinstance(spec, Product):
        check_table_guard(spec)
        if not spec.factors:
            return trivial_table()
        table = build_table(spec.factors[0])
        for f in spec.factors[1:]:
            table = product_table(table, build_table(f))
        return table
    family, value = single_family(spec)
    return family.generate(value)


def _check_positive(value: int, name: str) -> None:
    if not isinstance(value, int) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")


# ---------------------------------------------------------------------------
# generators


def trivial_table() -> CharacterTable:
    return CharacterTable(
        group_name="trivial",
        group_order=1,
        classes=(ClassInfo("1", 1, 1),),
        character_names=("trivial",),
        palette=(Cyclotomic.one(),),
        rows=((0,),),
    )


def _cosine_rows(
    conductor: int, sign: int, palette: list[Cyclotomic], columns: Sequence[int], tail: tuple
) -> list[tuple[int, ...]]:
    """Rows ``h = 1 .. (c - 1) // 2`` for ``c = conductor``: row ``h`` holds
    ``sign * (zeta_c**(h*k) + zeta_c**(-h*k))`` on each residue ``k`` of
    ``columns`` (``0 .. c // 2`` in some order; residue 0 may be left out
    when ``c`` is prime, as no gather reaches it), then the indices ``tail``.
    Row 1's values join ``palette`` in column order, so row 1 is a run.

    Every other row is one gather and no Python step per cell: row ``h``
    depends on ``h`` up to sign mod ``c``, so row ``m*h`` is row ``h`` read
    at the column of ``+-m*k`` for each ``k``, the tail in place; one
    `itemgetter` per multiplier ``m`` is built once.  The multipliers are the
    unit generators and the primes of ``c``.  Every ``h`` is ``gcd(h, c)``
    times a unit, so a walk from row 1 by units, then primes, reaches row
    ``h``; each row ``x`` on the way has ``gcd(x, c)`` dividing ``gcd(h,
    c)``, so it is neither 0 nor ``c / 2`` when ``0 < 2h < c``.
    """
    c = conductor
    start = len(palette)
    palette.extend(canonicalize(c, {k: sign, -k: sign} if k else {0: 2 * sign}) for k in columns)
    column = {k: j for j, k in enumerate(columns)}
    fixed = range(len(columns), len(columns) + len(tail))
    # 0 and +-1 reach no new row
    steps = {min(g % c, -g % c) for g in (*unit_generators(c), *factorize(c))} - {0, 1}
    gathers = [
        (m, itemgetter(*[column[min(m * k % c, -m * k % c)] for k in columns], *fixed))
        for m in steps
    ]
    rows = {1: tuple(range(start, start + len(columns))) + tail}
    walk = [1]
    for h in walk:
        for m, gather in gathers:
            x = min(m * h % c, -m * h % c)
            if 0 < 2 * x < c and x not in rows:
                rows[x] = gather(rows[h])
                walk.append(x)
    return [rows[h] for h in range(1, (c + 1) // 2)]


def dihedral_table(n: int) -> CharacterTable:
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
    (four singleton classes, four linear characters, no planar ones);
    ``n == 2`` has the single planar character ``rot1``.  The planar rows
    are gathers (`_cosine_rows`), the two reflection zeros a fixed tail.
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

    # e = rot / 4 gives the reflections' zero.  Row rot1 meets the cosines
    # first, in class order, so that order builds the palette canonical (n >= 2).
    zero = len(palette) + rot_exponents.index(rot // 4)
    names.extend(f"rot{h}" for h in range(1, half))
    rows.extend(_cosine_rows(rot, 1, palette, rot_exponents, (zero, zero)))

    return CharacterTable(
        group_name=f"dihedral({n})",
        group_order=order,
        classes=tuple(classes),
        character_names=tuple(names),
        palette=tuple(palette),
        rows=tuple(rows),
    )


def extraspecial2_table(n: int) -> CharacterTable:
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

    The linear rows are the Sylvester-Hadamard matrix, built by doubling
    and never per cell: if ``S_d[w][v] = (-1)**(w . v)`` over ``d`` bits,
    then adding a top bit ``b`` to ``w`` and ``c`` to ``v`` multiplies the
    sign by ``(-1)**(b c)``, so ``S_(d+1)`` is ``[[S_d, S_d], [S_d, -S_d]]``:
    row ``s`` of ``S_d`` becomes ``s + s`` and ``s + flip(s)``.  The
    negated rows double alongside, ``flip(s + s) = flip(s) + flip(s)`` and
    ``flip(s + flip(s)) = flip(s) + s``, so no cell is mapped.  Column
    ``v = 0`` of ``S_(2n)`` is the class ``z``, on which every linear
    character is 1.
    """
    check_table_guard(Extraspecial2(n))
    dim = 2 * n
    classes = [ClassInfo("1", 1, 1), ClassInfo("z", 1, 2)]
    for v in range(1, 2**dim):
        q = bin((v >> n) & v).count("1") & 1
        classes.append(ClassInfo(f"e{v:0{dim}b}", 2, 4 if q else 2))

    deg = Cyclotomic.from_rational(2**n)
    palette = (Cyclotomic.one(), Cyclotomic.from_rational(-1), deg, -deg, Cyclotomic.zero())
    ONE, NEG, DEG, NEG_DEG, ZERO = range(5)

    def double(rows, negated):
        return [s + s for s in rows] + [s + f for s, f in zip(rows, negated)]

    # the negated rows double alongside: -(s + s) = f + f, -(s + f) = f + s
    signs, flips = [(ONE,)], [(NEG,)]
    for _ in range(dim - 1):
        signs, flips = double(signs, flips), double(flips, signs)
    signs = double(signs, flips)
    names = [f"lin{w:0{dim}b}" for w in range(2**dim)]
    rows = [(ONE,) + s for s in signs]
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


def psl2_even_table(r: int) -> CharacterTable:
    """PSL(2, q) for ``q = 2**r`` on its classical class list.

    Classes, in order: identity; the involution class of size ``q**2 - 1``;
    the ``(q - 2) / 2`` split-torus classes (size ``q(q+1)``, element orders
    dividing ``q - 1``); the ``q / 2`` nonsplit-torus classes (size
    ``q(q-1)``, element orders dividing ``q + 1``).  Characters: trivial;
    the Steinberg character of degree ``q``; the ``(q - 2) / 2`` principal
    series of degree ``q + 1`` carrying ``zeta_{q-1}`` cosine pairs on the
    split classes; the ``q / 2`` discrete series of degree ``q - 1``
    carrying negated ``zeta_{q+1}`` cosine pairs on the nonsplit classes.
    Both series are gathers (`_cosine_rows`) with no tail.
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

    # the palette grows in first-use order, so the constructor keeps its indices
    palette = list(map(Cyclotomic.from_rational, (1, q, 0, -1, q + 1)))
    ONE, STEINBERG, ZERO, NEG, PRINCIPAL = range(5)
    names = ["trivial", "steinberg"]
    rows = [
        (ONE,) * (q + 1),
        (STEINBERG, ZERO) + (ONE,) * n_split + (NEG,) * n_nonsplit,
    ]

    def series(c: int, sign: int, count: int) -> list[tuple[int, ...]]:
        # residue 0 rides last in the gathers of a composite c, where a prime
        # multiplier reaches it, and row[:count] drops it; a prime c never
        # reaches it, so its value 2 * sign stays out of the palette
        zero = (0,) if c > 1 and not is_prime(c) else ()
        columns = (*range(1, count + 1), *zero)
        return [row[:count] for row in _cosine_rows(c, sign, palette, columns, ())]

    names.extend(f"principal{j}" for j in range(1, n_split + 1))
    rows.extend(
        (PRINCIPAL, ONE) + row + (ZERO,) * n_nonsplit for row in series(q - 1, 1, n_split)
    )
    DISCRETE = len(palette)
    palette.append(Cyclotomic.from_rational(q - 1))
    names.extend(f"discrete{m}" for m in range(1, n_nonsplit + 1))
    rows.extend(
        (DISCRETE, NEG) + (ZERO,) * n_split + row for row in series(q + 1, -1, n_nonsplit)
    )

    return CharacterTable(
        group_name=f"psl2even({r})",
        group_order=order,
        classes=tuple(classes),
        character_names=tuple(names),
        palette=tuple(palette),
        rows=tuple(rows),
    )


# One record per single family; the spec class is the key.
FAMILIES: dict[type, Family] = {
    # kind, parameter, generator; class count and its floor(log2); order and its floor(log2)
    Dihedral: Family("dihedral", "n", dihedral_table,
                     lambda n: (1 << (n - 1)) + 3, lambda n: max(n - 1, 2),
                     lambda n: 1 << (n + 1), lambda n: n + 1),
    Extraspecial2: Family("extraspecial2", "n", extraspecial2_table,
                          lambda n: (1 << (2 * n)) + 1, lambda n: 2 * n,
                          lambda n: 1 << (2 * n + 1), lambda n: 2 * n + 1),
    Psl2Even: Family("psl2even", "r", psl2_even_table,
                     lambda r: (1 << r) + 1, lambda r: r,
                     lambda r: (1 << (3 * r)) - (1 << r), lambda r: 3 * r - 1),
}
# The spec class of each kind name.
KINDS: dict[str, type] = {family.kind: spec for spec, family in FAMILIES.items()}


# ---------------------------------------------------------------------------
# products


# Counts from here up are named by their size (`describe_count`).
DECIMAL_BELOW = 10**18


def describe_count(n: int) -> str:
    """n in decimal when short, else by its size as ``at least 2^b``: the
    decimal digits of a guard-busting count can run to hundreds of
    thousands, past Python's int-to-string limit."""
    if n < DECIMAL_BELOW:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


def count_past(b: int, count, limit: int) -> str | None:
    """The one size-guard rule: the name of a count past ``limit``, or None.

    ``b`` is a lower bound on floor(log2) of the count (`log2_floor`) and
    ``count()`` builds it.  Once 2^b alone is past both the limit and 10^18
    the count is ``at least 2^b`` and is never built; below, it is built
    and named by `describe_count`."""
    if b >= max(limit, DECIMAL_BELOW).bit_length():
        return f"at least 2^{b}"
    n = count()
    return describe_count(n) if n > limit else None


def _check_class_count(what: str, b: int, count) -> None:
    if named := count_past(b, count, CLASS_LIMIT):
        raise TableTooLargeError(
            f"{what} would have {named} classes, above the guard {CLASS_LIMIT}; "
            f"use closed-form statistics and recurrences for {what}s this size"
        )


def product_table(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Direct product table; classes and characters in row-major factor order.

    Class sizes multiply, element orders take the lcm, and every product
    value is materialized exactly and re-classified by later consumers (no
    shortcut is taken for whether a product of two non-roots of unity is a
    root of unity, because it sometimes is).  Each pair of palette entries
    is multiplied once.  Guarded by a class-count limit; oversized requests
    get an error pointing at the closed-form statistics instead.
    """
    n = a.num_classes * b.num_classes
    _check_class_count("product", n.bit_length() - 1, lambda: n)

    classes = tuple(
        ClassInfo(
            f"({ca.name},{cb.name})",
            ca.size * cb.size,
            lcm(ca.element_order, cb.element_order),
        )
        for ca in a.classes
        for cb in b.classes
    )

    # segments[j][x]: b's row j times a's entry x, as positions in the list
    # of all palette products; every a row repeats it where it holds x
    width = len(b.palette)
    at = [list(range(x * width, (x + 1) * width)) for x in range(len(a.palette))]
    segments = [[tuple(map(at_x.__getitem__, rb)) for at_x in at] for rb in b.rows]

    return CharacterTable(
        group_name=f"{a.group_name} x {b.group_name}",
        group_order=a.group_order * b.group_order,
        classes=classes,
        character_names=tuple(
            f"{na}*{nb}" for na in a.character_names for nb in b.character_names
        ),
        palette=tuple(x * y for x in a.palette for y in b.palette),
        rows=tuple(
            tuple(chain.from_iterable(map(seg.__getitem__, ra)))
            for ra in a.rows
            for seg in segments
        ),
    )


# ---------------------------------------------------------------------------
# validation


class ValidationReport(Record):
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_table(t: CharacterTable) -> ValidationReport:
    """Check the exact defining relations of a character table.

    Verifies, in this order, stopping at the first violation: shape; the
    class equation; class sizes positive and dividing the order; identity
    column degrees; the degree equation; row orthogonality (all pairs,
    including the norm).  All checks are exact.  Entries are integral by
    construction: a `Cyclotomic` holds a cyclotomic integer.

    Column orthogonality needs no pass: with X the square value matrix and
    D the diagonal of class sizes, X·D·X* = |G|·I means D·X*/|G| is the
    inverse of X, so X*·X = |G|·D⁻¹.

    Row orthogonality is first proved modulo one prime
    (`_row_orthogonality_proved`); a table it cannot prove valid takes
    the exact pass, which finds and reports the first failing pair.  Per
    pair of rows that pass weights each palette pair (x, y) by the sizes
    of the classes where it occurs, multiplies each
    ``palette[x] * conj(palette[y])`` once per table in its own conductor,
    and sums and canonicalizes the weighted coefficients once per
    conductor.
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
    if not t.classes or t.classes[0].size != 1 or t.classes[0].element_order != 1:
        return fail("first class is not the identity class")

    if sum(c.size for c in t.classes) != t.group_order:
        return fail(
            f"class equation: sizes sum to {sum(c.size for c in t.classes)}, "
            f"order is {t.group_order}"
        )
    for c in t.classes:
        if c.size < 1:
            return fail(f"class {c.name} size {c.size} is not positive")
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

    if _row_orthogonality_proved(t):
        return ValidationReport(True)

    palette = t.palette
    conj = [v.conjugate() for v in palette]
    products: dict[tuple[int, int], Cyclotomic] = {}
    sizes = [c.size for c in t.classes]
    names = t.character_names
    for i, ri in enumerate(rows):
        for j in range(i, len(rows)):
            sums: dict[int, dict[int, int]] = {}
            for (x, y, s), count in Counter(zip(ri, rows[j], sizes)).items():
                p = products.get((x, y))
                if p is None:
                    p = products[x, y] = palette[x] * conj[y]
                acc = sums.setdefault(p.conductor, {})
                for e, c in p.coeffs:
                    acc[e] = acc.get(e, 0) + count * s * c
            got = sum(canonicalize(n, acc) for n, acc in sums.items())
            expect = t.group_order if i == j else 0
            if got != expect:
                joint = lcm(*(v.conductor for v in palette))
                return fail(
                    f"row orthogonality ({names[i]}, {names[j]}): "
                    f"got {got.embed(joint)}, expected {expect}"
                )

    return ValidationReport(True)


def _row_orthogonality_proved(t: CharacterTable) -> bool:
    """True when row orthogonality of ``t`` is proved by residues mod a
    split prime; False leaves the decision to the exact pass.

    It assumes what `validate_table` checks before it: the table is
    square and its class sizes are positive and sum to |G|; every entry
    is an algebraic integer, as every `Cyclotomic` is by construction.
    Let N be the lcm of the palette's conductors and, for rows i and j,

        a_ij = sum over classes k of s_k * x_ik * conj(x_jk) - |G| * [i = j],

    an algebraic integer of Q(zeta_N).  Three checks:

    1. Galois stability.  The rows are distinct, and for each generator g
       of (Z/N)^x, sigma_g (zeta_N -> zeta_N^g) maps the palette into
       itself and each row to a row.  sigma_g is injective, so it permutes
       the rows; the generators generate the Galois group, so every sigma
       permutes the rows by some bijection pi.  It commutes with complex
       conjugation (the group is abelian), so sigma(a_ij) = a_pi(i),pi(j).
    2. A bound.  With M the largest sum of |coefficients| over the
       palette, every embedding sends a palette value to at most M in
       absolute value, so every conjugate of a_ij is at most
       B = |G| * (M^2 + 1).  Take the least prime p = 1 mod N above B;
       past `is_prime`'s exact range there is none to take, and the
       exact pass decides.
    3. Residues.  zeta_N -> omega, a primitive N-th root of unity mod p,
       is a ring map Z[zeta_N] -> F_p whose kernel P is a prime above p.
       Every a_ij, over all ordered pairs, maps to 0.

    Then a_ij lies in sigma^-1(P) for every sigma, by 1 and 3.  As p = 1
    mod N, p splits completely and these are all the primes above p, each
    once, so a_ij lies in their product p * Z[zeta_N].  A nonzero a_ij
    would then have a norm divisible by p^phi(N), so some conjugate at
    least p > B, against 2.  Hence every a_ij = 0.

    The residue sums are integer dot products: the conjugate residues of
    column k are packed over the rows j into one integer, a field wide
    enough for a sum of r products below p^2, so row i times the packed
    columns yields the sums of row i with every row at once.
    """
    palette, rows = t.palette, t.rows
    distinct = set(rows)
    if len(distinct) < len(rows):
        return False  # two equal rows are never orthogonal
    n = lcm(*(v.conductor for v in palette))
    index = {v.key(): i for i, v in enumerate(palette)}
    for g in unit_generators(n):
        image = [
            i if v.is_rational else index.get(v.galois(g % v.conductor).key())
            for i, v in enumerate(palette)
        ]
        if None in image or any(tuple(map(image.__getitem__, row)) not in distinct for row in rows):
            return False

    m = max(sum(abs(c) for _, c in v.coeffs) for v in palette)
    try:
        p = prime_1_mod(n, t.group_order * (m * m + 1))
    except ValueError:  # past is_prime's exact range
        return False
    omega = root_of_unity(n, p)
    value = residues(palette, p, omega, n)
    r = len(rows)
    width = (r * (p - 1) ** 2).bit_length() + 7 >> 3  # bytes per field
    conj = [x.to_bytes(width, "little") for x in residues(palette, p, pow(omega, -1, p), n)]
    columns = [int.from_bytes(b"".join(map(conj.__getitem__, col)), "little") for col in zip(*rows)]
    sizes = [c.size for c in t.classes]
    for i, row in enumerate(rows):
        weighted = [s * value[x] % p for s, x in zip(sizes, row)]
        sums = sum(map(mul, weighted, columns)).to_bytes(r * width, "little")
        fields = [int.from_bytes(sums[j : j + width], "little") for j in range(0, r * width, width)]
        fields[i] -= t.group_order
        if any(f % p for f in fields):
            return False
    return True
