"""Constructive witness search for the six statistics.

`find_witness` takes a statistic, a scope, a target and a positive epsilon
and returns an explicit product expression (family parameters, a
distinguished character at character scope, and a product exponent k)
whose exact statistic lies strictly within epsilon of the target.

Every witness is a base factor (absent for pure powers) times the k-th
power of a step factor, so its statistic is c0 + c1*r1^k + c2*r2^k with
the constants of `chartab.stats.series`.  The plan table `_PLANS` holds,
per (statistic, scope), the base and step families, the rule that picks
each parameter (the smallest value from a start that a predicate
accepts), the first k, and the trail texts.  The rules make the
sequence start next to one end of the target range and move toward the
other in steps below epsilon, so it cannot jump over the band; the first k
inside it is returned.  Minimal parameters and first hits make the output
a pure function of the query.

The scanner does not try each k.  The c1 term never decreases and the c2
term never increases, so each bounds every later value from one side; it
jumps to the first k that both bounds allow, and stops when k stays put.
Each jump is a monotone test on one power, located by logarithms and
decided exactly on cross-multiplied integers, first on 128-bit bounds of
the powers and on the exact powers only when the bounds cannot tell; the
exact Fraction is built once, for the accepted k.

`verify_witness` recomputes a witness two ways: replaying the closed forms
through `chartab.stats.compose`, and, when the expression is small enough,
counting the explicit product table from its factor tables, as
`chartab.stats.product_stats` does, without building it or any factor
table: each factor is counted off its row stream (`stream_table`), a
whole factor at one cosine row per unit orbit, and its counts are
remembered per process.  Disagreement raises.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from chartab.exactnum import ChartabError, Record
from chartab.stats import (
    ClosedFormStats,
    Counts,
    StatKind,
    StatRecord,
    closed_form_stats,
    compose,
    count_factor,
    count_weighted,
    fold_counts,
    render_decimal,
    series,
)
from chartab.tables import (
    Dihedral,
    Extraspecial2,
    FamilySpec,
    Psl2Even,
    count_past,
    log2_floor,
    spec_class_count,
    spec_to_json,
    stream_table,
)

K_GUARD = 10**7
PARAM_GUARD = 10**4
VERIFY_CLASS_LIMIT = 2828  # the largest class count whose table has at most 8 * 10**6 cells
FACTOR_MEMO_SIZE = 64


class Scope(Enum):
    CHARACTER = "character"
    GROUP = "group"


class WitnessDomainError(ChartabError):
    """Raised when a query's target or epsilon is outside the valid range."""


class WitnessInconsistencyError(ChartabError):
    """Raised when a witness fails independent re-verification."""


class WitnessQuery(Record):
    kind: StatKind
    scope: Scope
    target: Fraction
    epsilon: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Fraction(self.target))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise WitnessDomainError(f"epsilon must be positive, got {self.epsilon}")
        low = Fraction(1, 2) if self.kind is StatKind.THETA_ELEM else Fraction(0)
        if not low <= self.target <= 1:
            raise WitnessDomainError(
                f"{self.kind.value} targets must lie in [{low}, 1], got {self.target}"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "scope": self.scope.value,
            "target": str(self.target),
            "epsilon": str(self.epsilon),
        }


class TrailStep(Record):
    choice: str
    rule: str
    value: Fraction


class WitnessFactor(Record):
    family: FamilySpec
    character: str | None
    power: int

    def to_json(self) -> dict:
        return {
            "family": spec_to_json(self.family),
            "character": self.character,
            "power": self.power,
        }


class Witness(Record):
    query: WitnessQuery
    factors: tuple[WitnessFactor, ...]
    k: int
    value: Fraction
    trail: tuple[TrailStep, ...]

    def to_json(self) -> dict:
        # a deep value takes seconds to print: the trail step that holds the
        # value itself reuses its text
        value = str(self.value)
        return {
            "query": self.query.to_json(),
            "expression": {"factors": [f.to_json() for f in self.factors]},
            "k": self.k,
            "value": value,
            "decimal": render_decimal(self.value),
            "trail": [
                {"choice": s.choice, "rule": s.rule,
                 "value": value if s.value is self.value else str(s.value)}
                for s in self.trail
            ],
        }


_BOUND_BITS = 128


def _pow_bound(x: int, j: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2^e <= x^j, or >= x^j when up; x >= 1.

    Binary exponentiation that cuts every intermediate back to about
    _BOUND_BITS bits, rounding down or up, so each cut keeps the bound on
    its side and the cost does not grow with the bits of x^j.
    """

    def cut(m: int, e: int) -> tuple[int, int]:
        shift = m.bit_length() - _BOUND_BITS
        if shift <= 0:
            return m, e
        return (-(-m >> shift) if up else m >> shift), e + shift

    m, e = 1, 0
    base, be = cut(x, 0)
    while j:
        if j & 1:
            m, e = cut(m * base, e + be)
        j >>= 1
        if j:
            base, be = cut(base * base, 2 * be)
    return m, e


def _below(x: int, ex: int, y: int, ey: int) -> bool:
    """x * 2^ex < y * 2^ey for x, y >= 1, shifting by at most a bit length."""
    if ex >= ey:
        d = ex - ey
        return d < y.bit_length() and x << d < y
    d = ey - ex
    return d >= x.bit_length() or x < y << d


def _first_below(c: int, r: int, a: int, b: int, k: int) -> int | None:
    """First j in [k, K_GUARD] with c*a^j < r*b^j, or None; k itself is
    always tried.  Needs c >= 0 and 0 <= a <= b, so c*(a/b)^j never grows
    with j and the test is monotone.

    Every answer is decided on integers.  A guess by logarithms only says
    where to look: gallop away from it until the first hit is bracketed,
    then bisect.  Each test first compares bounds on both powers
    (`_pow_bound`) and builds the exact powers only when the bounds
    overlap, so a probe near K_GUARD costs no K_GUARD-sized power.
    """

    def holds(j: int) -> bool:
        if c > 0 and r > 0 and a > 0:
            (ah, eah), (bl, ebl) = _pow_bound(a, j, True), _pow_bound(b, j, False)
            if _below(c * ah, eah, r * bl, ebl):
                return True
            (al, eal), (bh, ebh) = _pow_bound(a, j, False), _pow_bound(b, j, True)
            if not _below(c * al, eal, r * bh, ebh):
                return False
        return c * a**j < r * b**j

    if holds(k):
        return k
    if r <= 0 or c == 0 or a == b or k >= K_GUARD:
        return None  # no later j can pass, or k is already at the guard
    if a == 0:
        return k + 1  # a^j = 0 from j = 1 on, and r > 0
    # log(b/a), kept accurate when a/b is near 1; 0 if it underflows
    drop = math.log(b) - math.log(a) if b > 2 * a else math.log1p((b - a) / a)
    x = (math.log(c) - math.log(r)) / drop if drop else 0.0
    guess = min(max(int(min(x, K_GUARD)) + 1, k + 1), K_GUARD)
    # holds(lo) is false; hi is a hit, or K_GUARD + 1 when none is known
    lo, hi, step = k, K_GUARD + 1, 1
    if holds(guess):
        hi = guess
        while hi - step > lo and holds(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = guess
        while lo + step < hi and not holds(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi if hi <= K_GUARD else None


def _scan_sequence(
    c0: Fraction,
    c1: Fraction,
    r1: Fraction,
    c2: Fraction,
    r2: Fraction,
    k_start: int,
    target: Fraction,
    epsilon: Fraction,
) -> tuple[int, Fraction]:
    """First k >= k_start with |c0 + c1*r1^k + c2*r2^k - target| < epsilon.

    With c1 <= 0 <= c2 and 0 <= r1, r2 <= 1, A(k) = c0 + c1*r1^k never
    decreases and B(k) = c2*r2^k never increases, so for every j >= k

        A(k) + B(j) <= value(j) <= A(j) + B(k).

    No j before k_A, the first j >= k with A(j) > target - epsilon - B(k),
    can lie above the band's floor, and no j before k_B, the first j >= k
    with B(j) < target + epsilon - A(k), can lie below its ceiling.  So the
    scan jumps to max(k_A, k_B) and repeats.  When k stops moving, both
    bounds hold at k itself: value(k) is inside the band, and no earlier k
    was.  Each of k_A, k_B is a monotone test on one power (`_first_below`).
    """
    assert c1 <= 0 <= c2 and 0 <= r1 <= 1 and 0 <= r2 <= 1
    p1, q1, p2, q2 = c1.numerator, c1.denominator, c2.numerator, c2.denominator
    a, b, e, f = r1.numerator, r1.denominator, r2.numerator, r2.denominator
    # value - (target - epsilon) = floor + c1*r1^k + c2*r2^k, and
    # (target + epsilon) - value = ceiling - c1*r1^k - c2*r2^k
    floor, ceiling = c0 - target + epsilon, target + epsilon - c0
    ln, ld, hn, hd = floor.numerator, floor.denominator, ceiling.numerator, ceiling.denominator
    k = k_start
    while True:
        # a power of a reduced fraction is built reduced, with no gcd
        s1, s2 = r1**k, r2**k
        ak, bk, ek, fk = s1.numerator, s1.denominator, s2.numerator, s2.denominator
        # A(j) > target - epsilon - B(k), cross-multiplied by ld*q1*q2*b^j*f^k
        k_a = _first_below(-p1 * ld * q2 * fk, (ln * q2 * fk + p2 * ek * ld) * q1, a, b, k)
        # B(j) < target + epsilon - A(k), cross-multiplied by hd*q1*q2*b^k*f^j
        k_b = _first_below(p2 * hd * q1 * bk, (hn * q1 * bk - p1 * ak * hd) * q2, e, f, k)
        if k_a is None or k_b is None:
            raise WitnessDomainError(
                f"witness scan passed the k guard {K_GUARD}; epsilon is too small"
            )
        if max(k_a, k_b) == k:
            return k, c0 + c1 * s1 + c2 * s2
        k = max(k_a, k_b)


def _smallest(start: int, make: Callable[[int], _Pick], accept: Callable[[_Pick], bool]) -> _Pick:
    """The first make(p), p >= start, that accept takes; at most PARAM_GUARD tries."""
    for p in range(start, start + PARAM_GUARD):
        if accept(candidate := make(p)):
            return candidate
    raise WitnessDomainError("parameter scan exceeded its guard; epsilon is too small")


def _exceeds(power: int, bound: int, epsilon: Fraction) -> bool:
    """2^power > bound/epsilon, decided on integers."""
    return epsilon.numerator << power > bound * epsilon.denominator


class _Pick(Record):
    """A plan factor at parameter p; its closed forms are computed on first use."""

    spec: FamilySpec
    p: int
    scope: Scope
    kind: StatKind

    @cached_property
    def closed_form(self) -> ClosedFormStats:
        return closed_form_stats(self.spec)

    @cached_property
    def character(self) -> str | None:
        """What the factor measures, as `WitnessFactor.character` names it."""
        return self.closed_form.character_name if self.scope is Scope.CHARACTER else None

    @property
    def record(self) -> StatRecord:
        return self.closed_form.record(self.character)

    @property
    def z(self) -> Fraction:
        return self.record.weighted(self.kind)[0]

    @property
    def u(self) -> Fraction:
        return self.record.weighted(self.kind)[1]

    def factor(self, power: int) -> WitnessFactor:
        return WitnessFactor(self.spec, self.character, power)


class _Rule(Record):
    """A factor's family, and its parameter: the smallest p >= start whose
    pick satisfies accept(pick, epsilon)."""

    family: Callable[[int], FamilySpec]
    start: int
    accept: Callable[[_Pick, Fraction], bool]


class _Plan(Record):
    """Base (power 1, or absent) times step^k, k from k_start; trail(base,
    step, k, hit) lists the (choice, rule, value) lines, hit the line of k."""

    base: _Rule | None
    step: _Rule
    k_start: int
    trail: Callable[[_Pick, _Pick, int, tuple], list[tuple[str, str, Fraction]]]


_PLANS = {
    # Element-weighted theta of a character: a planar dihedral character times a
    # power of the degree-q PSL(2, q) character.  The base contributes
    # theta = 1/2 + 2^-n (zeros only), and each PSL factor multiplies the nonzero
    # fraction by exactly 1 - 1/q while contributing no roots of unity, so the
    # sequence climbs from just above 1/2 toward 1 in steps below epsilon.
    (StatKind.THETA_ELEM, Scope.CHARACTER): _Plan(
        _Rule(Dihedral, 2, lambda b, eps: _exceeds(b.p, 1, eps)),
        _Rule(Psl2Even, 1, lambda s, eps: _exceeds(s.p, 1, eps)), 0,
        lambda b, s, k, hit: [
            (f"n = {b.p}", "smallest n >= 2 with 2^n > 1/epsilon", Fraction(2**b.p)),
            (f"r = {s.p}", "smallest r >= 1 with q = 2^r > 1/epsilon", Fraction(2**s.p)),
            ("start", "value at k = 0 is 1/2 + 2^-n (zeros only, no unit values)", b.z),
            ("step", "each factor scales the nonzero fraction by 1 - 1/q", s.z),
            hit,
        ],
    ),
    # The other character-scope plans are powers of one character, from k = 1 so
    # that a witness is always a concrete character.  z statistics ride the zero
    # recurrence of the degree-q PSL(2, q) character, u statistics the geometric
    # decay of its unit fraction.
    (StatKind.Z_ELEM, Scope.CHARACTER): _Plan(
        None, _Rule(Psl2Even, 1, lambda s, eps: _exceeds(s.p, 1, eps)), 1,
        lambda b, s, k, hit: [
            (f"r = {s.p}", "smallest r >= 1 with q = 2^r > 1/epsilon", Fraction(2**s.p)),
            ("step", "zero fraction of one factor, below epsilon", s.z),
            hit,
        ],
    ),
    (StatKind.U_ELEM, Scope.CHARACTER): _Plan(
        None, _Rule(Psl2Even, 1, lambda s, eps: _exceeds(s.p, 2, eps)), 1,
        lambda b, s, k, hit: [
            (f"r = {s.p}", "smallest r >= 1 with q = 2^r > 2/epsilon", Fraction(2**s.p)),
            ("ratio", "unit fraction of one factor; the gap to 1 stays below epsilon", s.u),
            hit,
        ],
    ),
    # Class-weighted theta rides the planar dihedral character, whose unit
    # fraction is 0.  Its step is 3/(2^(n-1) + 3), so the inequality is on
    # 2^(n-1), not 2^n.
    (StatKind.THETA_CLASS, Scope.CHARACTER): _Plan(
        None, _Rule(Dihedral, 2, lambda s, eps: _exceeds(s.p - 1, 3, eps)), 1,
        lambda b, s, k, hit: [
            (f"n = {s.p}", "smallest n >= 2 with 2^(n-1) > 3/epsilon",
             Fraction(2 ** (s.p - 1))),
            ("step", "class-weighted zero fraction of one factor; unit fraction is 0", s.z),
            hit,
        ],
    ),
    # Element-weighted theta of a group: a dihedral group times a power of an
    # extraspecial group.  The dihedral parameter is the smallest whose unit
    # fraction is below epsilon/2 while its zero fraction sits strictly inside
    # (1/2, 1/2 + epsilon/2); the extraspecial parameter is the smallest whose
    # zero fraction is below epsilon.
    (StatKind.THETA_ELEM, Scope.GROUP): _Plan(
        _Rule(Dihedral, 1, lambda g, eps: g.u < eps / 2 and 0 < 2 * g.z - 1 < eps),
        _Rule(Extraspecial2, 1, lambda h, eps: h.z < eps), 0,
        lambda b, s, k, hit: [
            (f"l = {b.p}", "smallest l with u(G) < epsilon/2", b.u),
            ("z(G) check", "1/2 < z(G) < 1/2 + epsilon/2 at the same l", b.z),
            (f"m = {s.p}", "smallest m with z(H) < epsilon", s.z),
            hit,
            ("u part", "u(G) * u(H)^k at the accepted k",
             compose([(b.record, 1), (s.record, k)], StatKind.U_ELEM)),
        ],
    ),
    # The other group-scope plans are powers of one 2-group, from k = 1.  z
    # statistics and class-weighted theta ride a group whose per-factor fractions
    # are small (theta needs its u and z fractions each below epsilon/2); u
    # statistics ride an extraspecial group whose unit fraction is within
    # epsilon of 1.
    (StatKind.THETA_CLASS, Scope.GROUP): _Plan(
        None, _Rule(Dihedral, 1, lambda g, eps: g.u < eps / 2 and g.z < eps / 2), 1,
        lambda b, s, k, hit: [
            (f"l = {s.p}", "smallest l with u(G) < epsilon/2", s.u),
            ("z(G) check", "z(G) < epsilon/2 at the same l", s.z),
            hit,
        ],
    ),
    (StatKind.Z_ELEM, Scope.GROUP): _Plan(
        None, _Rule(Extraspecial2, 1, lambda h, eps: h.z < eps), 1,
        lambda b, s, k, hit: [(f"m = {s.p}", "smallest m with z(H) < epsilon", s.z), hit],
    ),
    (StatKind.U_ELEM, Scope.GROUP): _Plan(
        None, _Rule(Extraspecial2, 1, lambda h, eps: 1 - h.u < eps), 1,
        lambda b, s, k, hit: [(f"m = {s.p}", "smallest m with 1 - u(H) < epsilon", s.u), hit],
    ),
}
# the class-weighted z and u statistics share the element-weighted plans
_PLANS |= {
    (cls, scope): _PLANS[elem, scope]
    for elem, cls in ((StatKind.Z_ELEM, StatKind.Z_CLASS), (StatKind.U_ELEM, StatKind.U_CLASS))
    for scope in Scope
}


def find_witness(kind: StatKind, scope: Scope, target, epsilon) -> Witness:
    """A product expression whose exact statistic lies within epsilon of target.

    The plan for (kind, scope) names the base and step families; each
    parameter is the smallest its rule accepts, and k is the first index
    from the plan's k_start whose value lies in the band.
    """
    query = WitnessQuery(kind, scope, target, epsilon)
    plan = _PLANS[kind, scope]
    eps = query.epsilon

    def pick(rule: _Rule) -> _Pick:
        # the accepted candidate keeps the closed forms its rule read
        return _smallest(
            rule.start,
            lambda p: _Pick(rule.family(p), p, scope, kind),
            lambda candidate: rule.accept(candidate, eps),
        )

    base = None if plan.base is None else pick(plan.base)
    step = pick(plan.step)
    constants = series(kind, base and base.record, step.record)
    k, value = _scan_sequence(*constants, plan.k_start, query.target, eps)
    hit = (f"k = {k}", "first k with |value - target| < epsilon", value)
    trail = tuple(TrailStep(*line) for line in plan.trail(base, step, k, hit))
    factors = [] if base is None else [base.factor(1)]
    if k:
        factors.append(step.factor(k))
    return Witness(query, tuple(factors), k, value, trail)


def witness_theta_character(target, epsilon) -> Witness:
    """Character-scope element-weighted theta; see `find_witness`."""
    return find_witness(StatKind.THETA_ELEM, Scope.CHARACTER, target, epsilon)


def witness_local(kind: StatKind, target, epsilon) -> Witness:
    """Character-scope witness for the five other statistics; see `find_witness`."""
    if kind is StatKind.THETA_ELEM:
        raise WitnessDomainError("element-weighted theta uses witness_theta_character")
    return find_witness(kind, Scope.CHARACTER, target, epsilon)


def witness_theta_group(target, epsilon) -> Witness:
    """Group-scope element-weighted theta; see `find_witness`."""
    return find_witness(StatKind.THETA_ELEM, Scope.GROUP, target, epsilon)


def witness_global(kind: StatKind, target, epsilon) -> Witness:
    """Group-scope witness for the five other statistics; see `find_witness`."""
    if kind is StatKind.THETA_ELEM:
        raise WitnessDomainError("element-weighted theta uses witness_theta_group")
    return find_witness(kind, Scope.GROUP, target, epsilon)


# ---------------------------------------------------------------------------
# verification


class VerificationReport(Record):
    replay_value: Fraction
    table_value: Fraction | None
    table_skipped: str | None


@lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _factor_counts(family: FamilySpec, character: str | None) -> Counts:
    """The counts of a family's row stream (`stream_table`): all rows when
    character is None, off its orbit reading (`count_weighted`), else the
    named row, where the stream stops, so a few rows are held at a time,
    never the table.  Remembered per process; the memo holds counts, at
    most one triple per palette entry."""
    head, pairs, orbits = stream_table(family)
    if character is None:
        return count_weighted(head, orbits)
    head.character_index(character)  # an unknown name raises here
    return count_factor(head, [next(row for name, row in pairs if name == character)])


def verify_witness(w: Witness) -> VerificationReport:
    """Recompute a witness value two independent ways, both reading what
    each factor's `character` names (the whole group when None).

    (a) Replay the closed forms through the product rule (`compose`): the
    nonzero fraction of the expression is the product of per-factor
    nonzero fractions, the unit fraction is the product of per-factor unit
    fractions (all witness factors satisfy the multiplicativity
    hypothesis).  (b) When the expression has at most `VERIFY_CLASS_LIMIT`
    classes, so at most 8 * 10**6 table cells, count its explicit
    product table from the factor tables (`count_factor`, then
    `fold_counts`): every product value is computed and classified exactly,
    so no multiplicativity is assumed, but the product table is never
    built, nor is a factor table: it is counted off its row stream, a whole
    factor at one cosine row per unit orbit (`_factor_counts`).  Counts are
    remembered per process, keyed by family and character, so a long-lived
    process generates each factor once.  A factor of at most `VERIFY_CLASS_LIMIT`
    classes is far below the class guard, which its stream checks first.
    Any disagreement with the stored value raises; path (b) reports which
    guard fired when skipped.
    """
    kind = w.query.kind
    if not w.factors:
        raise WitnessInconsistencyError("witness has no factors")
    terms = []
    for fct in w.factors:
        if fct.power < 1:
            raise WitnessInconsistencyError(f"factor power {fct.power} is not >= 1")
        cf = closed_form_stats(fct.family)
        record = cf.record(fct.character)
        if record is None:
            raise WitnessInconsistencyError(
                f"no closed form for character {fct.character!r} of {fct.family!r} "
                f"(distinguished character is {cf.character_name!r})"
            )
        terms.append((record, fct.power))
    replay = compose(terms, kind)
    if replay != w.value:
        raise WitnessInconsistencyError(
            f"recurrence replay gives {replay}, witness records {w.value}"
        )

    table_value = None
    skipped = None
    b = sum(fct.power * log2_floor(fct.family) for fct in w.factors)

    def class_count() -> int:
        return math.prod(spec_class_count(fct.family) ** fct.power for fct in w.factors)

    if named := count_past(b, class_count, VERIFY_CLASS_LIMIT):
        skipped = f"explicit table skipped: {named} classes exceed the guard {VERIFY_CLASS_LIMIT}"
    else:
        counted = []
        for fct in w.factors:
            counted += [_factor_counts(fct.family, fct.character)] * fct.power
        table_value = fold_counts(counted).get(kind)
        if table_value != w.value:
            raise WitnessInconsistencyError(
                f"explicit table gives {table_value}, witness records {w.value}"
            )
    return VerificationReport(replay, table_value, skipped)
