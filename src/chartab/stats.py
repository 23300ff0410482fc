"""Exact denseness statistics of character values.

Every entry of a character table is zero, a root of unity, or neither.
The six statistics here measure how much of one row, or of a whole
table, the first two cases cover: z for zeros, u for roots of unity,
theta for their union.  The *_elem forms weight each conjugacy class by
its size (proportions of (character, element) pairs); the *_class forms
count table cells.  theta = z + u in both weightings, and everything is
a Fraction computed from the exact value trichotomy; no floats.

`product_stats` is the one table evaluator: it counts the statistics of a
direct product of (table, rows) factors from per-factor value histograms,
without building the product table, and `group_stats` and `char_stats`
are its one-factor calls.  It is a count per factor (`count_factor`) then
a fold (`fold_counts`), so a caller can keep a factor's counts and not its
table.

Closed forms are provided for the three generated families and are
cross-checked against the generated tables in the test suite.  Two
composition rules cover direct products, stated here only: `series`
solves them for base * step^k, and `compose`, which evaluates any product
of powers, is how `verify_witness` checks what `series` produced:

* zero fractions always compose as 1 - z(a x b) = (1 - z(a))(1 - z(b)),
  because a product entry vanishes exactly when a factor does;
* root-of-unity fractions multiply only under a hypothesis on the
  factors (all nonzero values on the unit circle up to zeros), which
  holds for the 2-group families and for the degree-q character of
  PSL(2, q) but NOT for general tables; `u_power` documents the burden.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from math import gcd
from operator import itemgetter

from chartab.exactnum import Cyclotomic, Rational, Record, ValueClass, classify_value
from chartab.tables import (
    CLASS_LIMIT,
    CharacterTable,
    Dihedral,
    Extraspecial2,
    FamilySpec,
    InvalidParameterError,
    Product,
    Psl2Even,
    TableHead,
    TableTooLargeError,
    count_past,
    log2_floor,
    single_family,
    spec_class_count,
)

K_MAX_LIMIT = 10**6
# bits a scan of rows 0..k_max may print, about 7 s of CSV on two cores
SCAN_BIT_LIMIT = 2**27
# floor(log2 |G|) from which closed forms are refused: at n = 10^6 a
# dihedral scan row already takes seconds, and the time grows as n^2
CLOSED_FORM_BIT_LIMIT = 10**6
DECIMAL_PLACES = 12
_ZERO = Fraction(0)
_ONE = Fraction(1)


class StatKind(Enum):
    """A statistic, named after the `StatRecord` field it reads."""

    Z_ELEM = "zI"
    Z_CLASS = "zII"
    U_ELEM = "uI"
    U_CLASS = "uII"
    THETA_ELEM = "theta"
    THETA_CLASS = "thetaII"

    @property
    def field(self) -> str:
        return self.name.lower()

    @property
    def element_weighted(self) -> bool:
        return self.name.endswith("_ELEM")

    @property
    def counts_zeros(self) -> bool:
        return self.name.startswith(("Z_", "THETA_"))

    @property
    def counts_units(self) -> bool:
        return self.name.startswith(("U_", "THETA_"))


def render_decimal(value: Rational) -> str:
    """Fixed-point rendering to `DECIMAL_PLACES`, round-half-even; an
    annotation, never an input."""
    x = Fraction(value)
    sign = "-" if x < 0 else ""
    scaled = round(abs(x) * 10**DECIMAL_PLACES)
    whole, frac = divmod(scaled, 10**DECIMAL_PLACES)
    return f"{sign}{whole}.{frac:0{DECIMAL_PLACES}d}"


class StatRecord(Record):
    z_elem: Fraction
    z_class: Fraction
    u_elem: Fraction
    u_class: Fraction

    # theta = z + u is derived, and summed only when read: the sum of two
    # deep product values costs big-integer gcds that z and u alone do not
    @property
    def theta_elem(self) -> Fraction:
        return self.z_elem + self.u_elem

    @property
    def theta_class(self) -> Fraction:
        return self.z_class + self.u_class

    def get(self, kind: StatKind) -> Fraction:
        return getattr(self, kind.field)

    def weighted(self, kind: StatKind) -> tuple[Fraction, Fraction]:
        """(z, u) in the weighting of kind: the one place it is chosen."""
        if kind.element_weighted:
            return self.z_elem, self.u_elem
        return self.z_class, self.u_class

    def to_json(self) -> dict:
        values = {kind.field: self.get(kind) for kind in StatKind}
        return {f: {"fraction": str(v), "decimal": render_decimal(v)} for f, v in values.items()}


def _record(z_elem, z_class, u_elem, u_class) -> StatRecord:
    return StatRecord(Fraction(z_elem), Fraction(z_class), Fraction(u_elem), Fraction(u_class))


def _histogram(t: CharacterTable | TableHead, weighted) -> list[tuple[Cyclotomic, int, int]]:
    """(value, cells, class-size sum) per palette entry the rows use, in
    palette order, in one pass over any iterable of (index row, weight)
    pairs, a row of weight w counted as w rows.

    The columns of one class size (two to four per family, each one run; a
    product has more) are one gather of every row, counted into the size's
    `Counter` row by row, in C: Python never works per cell.  A heavier row
    adds its gather's own `Counter` times its weight."""
    by_size: dict[int, list[int]] = {}
    for j, c in enumerate(t.classes):
        by_size.setdefault(c.size, []).append(j)
    # a run is a slice: fast, and a tuple even of one column, where itemgetter(j) is the cell
    gathers = [
        (itemgetter(*js) if js[-1] - js[0] >= len(js) else itemgetter(slice(js[0], js[-1] + 1)),
         Counter(), size)
        for size, js in by_size.items()
    ]
    for row, w in weighted:
        for gather, counter, _ in gathers:
            values = gather(row)
            counter.update(values if w == 1 else {x: w * n for x, n in Counter(values).items()})
    cells = [0] * len(t.palette)
    elems = [0] * len(t.palette)
    for _, counter, size in gathers:
        for x, n in counter.items():
            cells[x] += n
            elems[x] += n * size
    return [(v, n, m) for v, n, m in zip(t.palette, cells, elems) if n]


Counts = tuple[int, int, tuple[tuple[Cyclotomic, int, int], ...]]


def count_factor(t: CharacterTable | TableHead, rows: Iterable[Sequence[int]]) -> Counts:
    """One factor of `product_stats`: (pairs, cells, entries), entries the
    `_histogram` of a table's or a stream's rows, pairs and cells its sums
    (|G| and the class count per row).  It keeps no table and no row."""
    return count_weighted(t, zip(rows, repeat(1)))


def count_weighted(t: CharacterTable | TableHead, weighted: Iterable[tuple]) -> Counts:
    """`count_factor` of (index row, weight) pairs, a row of weight w as w
    rows, such as a row stream's orbit reading (`tables.stream_table`)."""
    entries = tuple(_histogram(t, weighted))
    return sum(m for _, _, m in entries), sum(n for _, n, _ in entries), entries


def fold_counts(counted: Iterable[Counts]) -> StatRecord:
    """Statistics of the direct product of counted factors (`count_factor`),
    every product row weighing the same.  No factors is the trivial group."""
    counts = None
    pair_total = cell_total = 1
    for pairs, cells, entries in counted:
        pair_total *= pairs
        cell_total *= cells
        if counts is None:
            counts = entries  # one table: never multiplied by 1
            continue
        merged: dict[tuple, list] = {}
        for v, n, m in counts:
            for x, nx, mx in entries:
                p = v * x
                slot = merged.setdefault(p.key(), [p, 0, 0])
                slot[1] += n * nx
                slot[2] += m * mx
        counts = list(merged.values())
    if counts is None:
        counts = [(Cyclotomic.one(), 1, 1)]
    zero_elems = zero_cells = rou_elems = rou_cells = 0
    for v, n, m in counts:
        cls = classify_value(v)
        if cls is ValueClass.ZERO:
            zero_cells += n
            zero_elems += m
        elif cls is ValueClass.ROOT_OF_UNITY:
            rou_cells += n
            rou_elems += m
    return _record(
        Fraction(zero_elems, pair_total),
        Fraction(zero_cells, cell_total),
        Fraction(rou_elems, pair_total),
        Fraction(rou_cells, cell_total),
    )


def product_stats(factors: Iterable[tuple[CharacterTable, Sequence[Sequence[int]]]]) -> StatRecord:
    """Statistics of the direct product of some index rows of each factor
    table, every product row weighing the same; the product table is never
    built.

    A product cell is one cell per factor: its value is the product of
    theirs, its class size the product of theirs.  By distributivity the
    product's cells holding a value v number the sum, over the tuples of
    factor entries whose product is v, of the product of their cell counts,
    and likewise for class-size sums.  So each factor is first counted on
    its own (`count_factor`: its `_histogram`, whose per-cell counting runs
    in C builtins), and the counts are then folded (`fold_counts`), which
    multiplies each distinct partial value by each entry of the next factor
    once, exactly, merging equal products by `Cyclotomic.key()`.  A caller
    that meets one factor many times can count it once and fold the counts.
    Each distinct final value is classified once: no multiplicativity of u
    is assumed, and it fails in general (in PSL(2, 16)^2,
    (z5 + z5^-1)(z5^2 + z5^-2) = -1).  No factors is the trivial group.
    """
    return fold_counts(count_factor(t, rows) for t, rows in factors)


def char_stats(t: CharacterTable, row: int) -> StatRecord:
    """Statistics of a single character (one table row)."""
    return product_stats([(t, [t.rows[row]])])


def group_stats(t: CharacterTable) -> StatRecord:
    """Whole-table statistics by pair counting.

    Element-weighted forms count (character, group element) pairs,
    class-weighted forms count table cells.  Because every character
    carries the same total weight, this equals the mean of `char_stats`
    over rows; the test suite checks that coincidence explicitly.
    """
    return product_stats([(t, t.rows)])


# ---------------------------------------------------------------------------
# closed forms


class ClosedFormStats(Record):
    """A family's closed forms.  `group` is computed on its first read from
    `group_record`: PSL(2, q)'s takes O(q) steps, and character-scope
    readers never need it."""

    group_record: Callable[[], StatRecord]
    character_name: str | None
    character: StatRecord | None

    @cached_property
    def group(self) -> StatRecord:
        return self.group_record()

    def record(self, character: str | None) -> StatRecord | None:
        """The group's record for None, the distinguished character's for its name, else None."""
        if character is None:
            return self.group
        return self.character if character == self.character_name else None


def _dihedral_group_record(n: int) -> StatRecord:
    u = Fraction(4, 2 ** (n - 1) + 3)
    z_elem = Fraction(2**n + n - 3, 2 * (2**n + 6))
    # numerator 2^(n-2)(n+3) - 2 written over 4 so n = 1 stays integral
    z_class = Fraction(2**n * (n + 3) - 8, 4 * (2 ** (n - 1) + 3) ** 2)
    return _record(z_elem, z_class, u, u)


def _dihedral_char_record(n: int) -> StatRecord:
    # the first planar character: zeros cover half the rotations plus all
    # reflections, and no value is a root of unity (degree 2 in a 2-group)
    z_elem = Fraction(1, 2) + Fraction(1, 2**n)
    z_class = Fraction(3, 2 ** (n - 1) + 3)
    return _record(z_elem, z_class, 0, 0)


def _extraspecial_group_record(n: int) -> StatRecord:
    big = 2 ** (2 * n)
    chars = big + 1
    u = Fraction(big, chars)
    z_elem = Fraction(2 ** (2 * n + 1) - 2, chars * 2 ** (2 * n + 1))
    z_class = Fraction(big - 1, chars * chars)
    return _record(z_elem, z_class, u, u)


def _extraspecial_faithful_record(n: int) -> StatRecord:
    big = 2 ** (2 * n)
    return _record(Fraction(big - 1, big), Fraction(big - 1, big + 1), 0, 0)


def _steinberg_record(r: int) -> StatRecord:
    q = 2**r
    return _record(
        Fraction(1, q),
        Fraction(1, q + 1),
        1 - Fraction(1, q) - Fraction(1, q**3 - q),
        Fraction(q - 1, q + 1),
    )


def _order_three_pairs(c: int, n: int) -> int:
    """How many (j, l) in 1..n x 1..n make l*j a nonzero exponent of order
    3 mod c.

    For each j, with m = c / gcd(j, c): c divides 3*l*j exactly when m
    divides 3*l, and l*j vanishes mod c exactly when m divides l; so j
    contributes floor(n / (m/3)) - floor(n / m) when 3 divides m, else 0.
    """
    ms = (c // gcd(j, c) for j in range(1, n + 1))
    return sum(n // (m // 3) - n // m for m in ms if m % 3 == 0)


def _psl2_group_record(r: int) -> StatRecord:
    """PSL(2, 2^r) statistics counted from the table's structure.

    A torus value is a cosine pair zeta^e + zeta^(-e) in an odd conductor
    c (c = q-1 split, c = q+1 nonsplit), so it never vanishes, and it is a
    root of unity exactly when e has order 3 mod c, where the pair sums
    to -1.  Everything else is counting.
    """
    spec = Psl2Even(r)
    if walks := count_past(log2_floor(spec), lambda: spec_class_count(spec), CLASS_LIMIT):
        raise TableTooLargeError(
            f"the group record of psl2even({r}) walks {walks} classes, "
            f"above the guard {CLASS_LIMIT}"
        )
    q = 2**r
    order = q**3 - q
    ncls = q + 1
    nsplit = (q - 2) // 2
    nnonsplit = q // 2
    split_size = q * (q + 1)
    nonsplit_size = q * (q - 1)
    inv_size = q * q - 1

    zero_elems = zero_cells = rou_elems = rou_cells = 0

    # trivial character
    rou_elems += order
    rou_cells += ncls

    # degree-q character: one vanishing class, +-1 across both tori
    zero_elems += inv_size
    zero_cells += 1
    rou_elems += nsplit * split_size + nnonsplit * nonsplit_size
    rou_cells += nsplit + nnonsplit

    # principal series (degree q+1): zero on the whole nonsplit block
    hits = _order_three_pairs(q - 1, nsplit)
    zero_elems += nsplit * nnonsplit * nonsplit_size
    zero_cells += nsplit * nnonsplit
    rou_elems += nsplit * inv_size + hits * split_size
    rou_cells += nsplit + hits

    # discrete series (degree q-1): zero on the whole split block
    hits = _order_three_pairs(q + 1, nnonsplit)
    zero_elems += nnonsplit * nsplit * split_size
    zero_cells += nnonsplit * nsplit
    rou_elems += nnonsplit * inv_size + hits * nonsplit_size
    rou_cells += nnonsplit + hits
    if q == 2:
        # degree q-1 = 1: the identity value itself is a root of unity
        rou_elems += 1
        rou_cells += 1

    pair_total = order * ncls
    cell_total = ncls * ncls
    return _record(
        Fraction(zero_elems, pair_total),
        Fraction(zero_cells, cell_total),
        Fraction(rou_elems, pair_total),
        Fraction(rou_cells, cell_total),
    )


def closed_form_stats(spec: FamilySpec) -> ClosedFormStats:
    """Closed-form group statistics plus the family's distinguished character.

    Computed without building any table.  The distinguished characters are
    the ones the witness searches use: the first planar character of the
    dihedral family (absent for n = 1, where the group is abelian), the
    degree-2^n character of the extraspecial family, and the degree-q
    character of PSL(2, q).  Products have no closed form here; compose
    single-family records with the product rules instead.

    The records are fractions of integers about as long as |G|, so a
    family with floor(log2 |G|) at `CLOSED_FORM_BIT_LIMIT` or past it is
    refused from its parameter, before any of them is built.
    """
    if isinstance(spec, Product):
        raise InvalidParameterError(
            "closed forms cover single families; compose product statistics "
            "with the z/u recurrences"
        )
    family, p = single_family(spec)
    bits = family.group_order_log2(p)
    if bits >= CLOSED_FORM_BIT_LIMIT:
        raise InvalidParameterError(
            f"closed forms of {family.kind}({p}) would take integers of at least "
            f"{bits} bits, above the guard {CLOSED_FORM_BIT_LIMIT}"
        )
    if isinstance(spec, Dihedral):
        group = partial(_dihedral_group_record, p)
        if p == 1:
            return ClosedFormStats(group, None, None)
        return ClosedFormStats(group, "rot1", _dihedral_char_record(p))
    if isinstance(spec, Extraspecial2):
        return ClosedFormStats(
            partial(_extraspecial_group_record, p), "faithful", _extraspecial_faithful_record(p)
        )
    return ClosedFormStats(partial(_psl2_group_record, p), "steinberg", _steinberg_record(p))


# ---------------------------------------------------------------------------
# product recurrences


def _check_unit_interval(value: Fraction, name: str) -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def compose(terms: Iterable[tuple[StatRecord, int]], kind: StatKind) -> Fraction:
    """The statistic kind of a direct product of factors raised to powers.

    The product rule: 1 - z multiplies across factors, and so does u.  The
    zero rule always holds; the unit rule carries the hypothesis `u_power`
    documents.  Only what kind counts is multiplied.  The empty product is
    the trivial group: z = 0, u = 1.
    """
    nonzero = units = _ONE
    for rec, power in terms:
        if power < 0:
            raise InvalidParameterError(f"powers must be >= 0, got {power}")
        z, u = rec.weighted(kind)
        if kind.counts_zeros:
            nonzero *= (1 - z) ** power
        if kind.counts_units:
            units *= u**power
    return (1 - nonzero if kind.counts_zeros else _ZERO) + (units if kind.counts_units else _ZERO)


def series(kind: StatKind, base: StatRecord | None, step: StatRecord) -> tuple[Fraction, ...]:
    """(c0, c1, r1, c2, r2): the statistic kind of base * step^k is
    c0 + c1*r1^k + c2*r2^k, by the product rule of `compose`, with a base
    of None the trivial group.  c1 <= 0 <= c2, the ratios lie in [0, 1],
    and a term of coefficient zero keeps ratio 1, so nothing is powered.
    """
    z_b, u_b = (_ZERO, _ONE) if base is None else base.weighted(kind)
    z_s, u_s = step.weighted(kind)
    c0, c1, r1, c2, r2 = _ZERO, _ZERO, _ONE, _ZERO, _ONE
    if kind.counts_zeros:
        c0, c1, r1 = _ONE, -(1 - z_b), 1 - z_s
    if kind.counts_units:
        c2, r2 = u_b, u_s
    return c0, c1, r1 if c1 else _ONE, c2, r2 if c2 else _ONE


def scan_rows(constants: Sequence[Fraction], k_max: int) -> list[Fraction]:
    """c0 + c1*r1^k + c2*r2^k for k = 0..k_max (constants from `series`),
    each power one product from the one before.  Row k takes about k * b
    bits, b the numerator and denominator bit lengths of the ratios inside
    (0, 1); rows past `SCAN_BIT_LIMIT` bits in all, or a k_max outside
    [0, `K_MAX_LIMIT`], are refused up front.
    """
    if not 0 <= k_max <= K_MAX_LIMIT:
        raise InvalidParameterError(f"--kmax must lie in [0, {K_MAX_LIMIT}], got {k_max}")
    c0, c1, r1, c2, r2 = constants
    b = sum(r.numerator.bit_length() + r.denominator.bit_length() for r in (r1, r2) if 0 < r < 1)
    bits = b * k_max * (k_max + 1) // 2
    if bits > SCAN_BIT_LIMIT:
        raise InvalidParameterError(
            f"a scan to k = {k_max} would print about {bits} bits, "
            f"above the guard {SCAN_BIT_LIMIT}"
        )
    terms = [[c, r] for c, r in ((c1, r1), (c2, r2)) if c]  # [c * r^k, r], c != 0
    rows = []
    for _ in range(k_max + 1):
        rows.append(sum((term[0] for term in terms), c0))
        for term in terms:
            term[0] *= term[1]
    return rows


def z_sequence(z0: Rational, z_step: Rational, k_max: int) -> list[Fraction]:
    """z(k) = 1 - (1 - z0)(1 - z_step)^k for k = 0..k_max, by `scan_rows`.

    This is the exact zero statistic of x * y^k given z(x) = z0 and
    z(y) = z_step.  It obeys z(k+1) = z(k) + (1 - z(k)) * z_step, so the
    sequence is non-decreasing with consecutive gaps below z_step.
    """
    z = _check_unit_interval(z0, "z0")
    step = _check_unit_interval(z_step, "z_step")
    start, factor = _record(z, z, 0, 0), _record(step, step, 0, 0)
    return scan_rows(series(StatKind.Z_ELEM, start, factor), k_max)


def u_power(u0: Rational, k: int) -> Fraction:
    """u0^k, the root-of-unity fraction of a k-fold product, by `compose`.

    Caller asserts the multiplicativity hypothesis: every factor's nonzero
    values away from the identity lie on the unit circle.  That holds for
    the 2-group families (all of them, by the degree-1 dichotomy) and for
    powers of the degree-q PSL(2, q) character (values 0 and +-1), but it
    FAILS for general tables; products of two non-unit values can land on
    a root of unity.  The test suite pins a counterexample.
    """
    u = _check_unit_interval(u0, "u0")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return compose([(_record(0, 0, u, u), k)], StatKind.U_ELEM)


def theta_master(l: int, m: int, k: int) -> Fraction:
    """Element-weighted theta of the product group: dihedral parameter l
    times k copies of extraspecial parameter m.

    All factors are 2-groups, so the u product rule applies.
    """
    if l < 1 or m < 1 or k < 0:
        raise InvalidParameterError(f"need l, m >= 1 and k >= 0, got {l}, {m}, {k}")
    g = closed_form_stats(Dihedral(l)).group
    h = closed_form_stats(Extraspecial2(m)).group
    return compose([(g, 1), (h, k)], StatKind.THETA_ELEM)
