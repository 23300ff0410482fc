"""Exact arithmetic in cyclotomic fields.

A value of ``Z[zeta_n]`` is stored against a fixed conductor ``n`` as a
sparse collection of power-basis coordinates: exponent ``e`` maps to an
integer coefficient of ``zeta_n**e``, with every exponent strictly below
``phi(n)``.  Inputs with larger (or negative) exponents are first folded
modulo ``n`` and then rewritten modulo the n-th cyclotomic polynomial, so
each field element has exactly one stored form per conductor.  Conductors
are never shrunk behind the caller's back: a value keeps the conductor it
was built with, and mixed-conductor arithmetic lands in the lcm field.

The rewrite rows of a conductor n (zeta_n^e in the power basis for each e
from phi(n) to n - 1) are one immutable table, built whole by
``_reduction_rows`` the first time a value of conductor n needs one and
shared from then on.  Each row is the canonical form of a root of unity,
and ``classify_value`` looks values up among the rows.  The module holds
no mutable state, so threads may reduce values concurrently (two
threads that miss a cold table at once each build an equal copy).  It is
a table rather than a polynomial remainder per reduction because the
remainder costs more on every call:
``stats psl2even 9`` took 0.20-0.35 s with it against 0.13-0.20 s with
the table (in-process, six runs each, on a 2-core VM).

Arithmetic is exposed through the usual operators (``+``, ``-``, ``*``,
unary ``-``) plus ``conjugate()``; there is no division.  Values are
cyclotomic integers (character values are), so every coefficient is an
``int``: every constructor goes through ``canonicalize``, which decides
integrality once, and ring operations on ints stay ints.

The residues at a split prime p = 1 mod N (``prime_1_mod``,
``root_of_unity``, ``unit_generators``, ``residues``) map the algebraic
integers of Q(zeta_N) to F_p by a ring homomorphism; the oracle computes
in that field, and ``validate_table`` proves row orthogonality there.

`Record` is the base of every record class of the package: a frozen
class whose fields are its annotations.
"""

from __future__ import annotations

import cmath
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter

Rational = Fraction


class ChartabError(ValueError):
    """Base of every domain error: the command line reports these as one line."""


class InvalidConductorError(ChartabError):
    """Raised when a conductor is not a positive integer."""


class NotAlgebraicIntegerError(ChartabError):
    """Raised when a value is built with a non-integer power-basis coordinate."""


class Record:
    """A frozen record whose fields are its class's own annotations, in order.

    Equal records are of one class with equal fields; a record of another
    class is never equal, so two record kinds with the same fields never
    share a dict key.  The hash is that of the fields, `repr` reads
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises `AttributeError`.  Instances keep a ``__dict__``, so
    `functools.cached_property` and `copy.deepcopy` work on them.

    The one constructor takes the fields positionally or by name, with a
    class attribute as a field's default, then runs the class's
    ``__post_init__`` (read off the class on every call).  Fields are
    stored with `object.__setattr__`, never through ``self.__dict__``: on
    CPython 3.11 reading ``__dict__`` moves an instance's attribute values
    into a dict, and every later read of a field then takes about three
    times as long.  No class is built by generating code, which took most
    of ``import chartab.cli`` (README, "Design notes").
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif hasattr(cls, name):
                object.__setattr__(self, name, getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        cls.__post_init__(self)

    def __post_init__(self) -> None:
        """Check or normalize the fields once they are set; a record class
        with such a rule overrides this."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class ValueClass(Enum):
    """Trichotomy for a cyclotomic integer: zero, root of unity, or neither."""

    ZERO = "zero"
    ROOT_OF_UNITY = "root_of_unity"
    OTHER = "other"


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the sizes used here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    if n < 1:
        raise InvalidConductorError(f"conductor must be a positive integer, got {n}")
    result = 1
    for p, a in factorize(n).items():
        result *= (p - 1) * p ** (a - 1)
    return result


def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    By Moebius inversion of x^n - 1 = prod over d | n of Phi_d(x),
    Phi_n(x) is the product over the squarefree m | n of
    (x^(n/m) - 1)^mu(m).  The factors with mu(m) = 1 are multiplied in
    first, so each division by one with mu(m) = -1 is exact.
    """
    if n < 1:
        raise InvalidConductorError(f"conductor must be a positive integer, got {n}")
    mu = {1: 1}  # squarefree divisor -> Moebius value
    for p in factorize(n):
        mu.update({m * p: -s for m, s in mu.items()})
    poly = [1]
    for m in sorted(mu, key=mu.get, reverse=True):
        d = n // m
        if mu[m] > 0:  # times x^d - 1
            low = poly
            poly = [-c for c in low] + [0] * d
            for i, c in enumerate(low):
                poly[i + d] += c
        else:  # q (x^d - 1) = poly gives q[i] = q[i - d] - poly[i]
            q: list[int] = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rewrite table of conductor n: row j is zeta_n^(phi(n)+j) in the
    power basis, as sorted (exponent, coefficient) pairs (its canonical
    form), for j < n - phi(n)."""
    phi = totient(n)
    rows: list[tuple[tuple[int, int], ...]] = []
    while len(rows) < n - phi:
        if not rows:
            poly = cyclotomic_coeffs(n)
            rows.append(tuple((i, -c) for i, c in enumerate(poly[:-1]) if c))
        else:
            nxt: dict[int, int] = {}
            for exp, c in rows[-1]:
                if exp + 1 == phi:
                    for e2, m in rows[0]:
                        nxt[e2] = nxt.get(e2, 0) + c * m
                else:
                    nxt[exp + 1] = nxt.get(exp + 1, 0) + c
            rows.append(tuple(sorted((k, v) for k, v in nxt.items() if v)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduced_roots(n: int) -> frozenset:
    """The rows of `_reduction_rows(n)`, by reference, as a set."""
    return frozenset(_reduction_rows(n))


def _build(n: int, raw) -> "Cyclotomic":
    """Fold exponents mod n, rewrite mod Phi_n, drop zeros, sort."""
    phi = totient(n)
    acc: dict[int, int] = {}
    items = raw.items() if isinstance(raw, dict) else raw
    for e, c in items:
        if not c:
            continue
        e %= n
        if e < phi:
            acc[e] = acc.get(e, 0) + c
        else:
            for e2, m in _reduction_rows(n)[e - phi]:
                acc[e2] = acc.get(e2, 0) + c * m
    coeffs = tuple(sorted((e, c) for e, c in acc.items() if c))
    return Cyclotomic(n, coeffs)


def canonicalize(conductor: int, coeffs) -> "Cyclotomic":
    """Build a value of Z[zeta_conductor] from any exponent -> integer map.

    Exponents may be arbitrary integers (they are taken modulo the
    conductor); the result is in reduced power-basis form.  This is the
    one place integrality is decided: an integral ``Fraction`` is stored
    as an ``int``, and any other raises `NotAlgebraicIntegerError`.
    """
    if not isinstance(conductor, int) or conductor < 1:
        raise InvalidConductorError(
            f"conductor must be a positive integer, got {conductor!r}"
        )
    checked = {}
    for e, c in dict(coeffs).items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient for exponent {e} must be an integer, got {c!r}")
        if c.denominator != 1:
            raise NotAlgebraicIntegerError(f"coefficient {c} of zeta^{e} is not an integer")
        checked[int(e)] = int(c)
    return _build(conductor, checked)


class Cyclotomic(Record):
    """A cyclotomic integer of Z[zeta_conductor] in reduced power-basis form.

    Instances are immutable.  Equality is semantic: values with different
    conductors compare equal exactly when they agree after embedding into
    the lcm field.  Instances are deliberately unhashable (a semantic hash
    would have to be conductor-independent); use ``key()`` where a dict key
    is needed.
    """

    conductor: int
    coeffs: tuple[tuple[int, int], ...]

    # -- basic constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Cyclotomic":
        return canonicalize(1, {})

    @staticmethod
    def one() -> "Cyclotomic":
        return canonicalize(1, {0: 1})

    @staticmethod
    def zeta(conductor: int, exponent: int = 1) -> "Cyclotomic":
        """The root of unity zeta_conductor**exponent."""
        return canonicalize(conductor, {exponent: 1})

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        """The integer ``value``; a non-integer raises `NotAlgebraicIntegerError`."""
        return canonicalize(1, {0: Fraction(value)})

    # -- structure ----------------------------------------------------------

    def key(self) -> tuple:
        """Structural identity (conductor plus reduced coefficients)."""
        return (self.conductor, self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_rational(self) -> bool:
        return not self.coeffs or (len(self.coeffs) == 1 and self.coeffs[0][0] == 0)

    def as_rational(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if self.is_rational:
            return Fraction(self.coeffs[0][1])
        raise ValueError(f"{self} is not rational")

    # -- conductor handling ---------------------------------------------------

    def embed(self, conductor: int) -> "Cyclotomic":
        """Rewrite the value in Q(zeta_conductor); the current conductor must divide it."""
        if conductor % self.conductor != 0:
            raise InvalidConductorError(
                f"cannot embed conductor {self.conductor} into {conductor}"
            )
        if conductor == self.conductor:
            return self
        step = conductor // self.conductor
        return _build(conductor, [(e * step, c) for e, c in self.coeffs])

    @staticmethod
    def _aligned(a: "Cyclotomic", b: "Cyclotomic"):
        if a.conductor == b.conductor:
            return a, b
        n = lcm(a.conductor, b.conductor)
        return a.embed(n), b.embed(n)

    @staticmethod
    def _coerce(value) -> "Cyclotomic | None":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(self, o)
        raw = dict(a.coeffs)
        for e, c in b.coeffs:
            raw[e] = raw.get(e, 0) + c
        return _build(a.conductor, raw)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(self, o)
        n = a.conductor
        raw: dict[int, int] = {}
        for e1, c1 in a.coeffs:
            for e2, c2 in b.coeffs:
                e = e1 + e2
                if e >= n:
                    e -= n
                raw[e] = raw.get(e, 0) + c1 * c2
        return _build(n, raw)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, i.e. zeta_n -> zeta_n**(n-1)."""
        n = self.conductor
        return _build(n, [(-e % n, c) for e, c in self.coeffs])

    def galois(self, j: int) -> "Cyclotomic":
        """Apply the automorphism zeta_n -> zeta_n**j; j must be coprime to n."""
        n = self.conductor
        if gcd(j, n) != 1:
            raise ValueError(f"{j} is not coprime to the conductor {n}")
        return _build(n, [(e * j, c) for e, c in self.coeffs])

    def abs_squared(self) -> "Cyclotomic":
        """The product of the value with its complex conjugate."""
        return self * self.conjugate()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_rational() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        if self.is_rational or other.is_rational:
            return (
                self.is_rational
                and other.is_rational
                and self.as_rational() == other.as_rational()
            )
        a, b = self._aligned(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # semantic equality crosses conductors; use key()

    # -- conversions ----------------------------------------------------------

    def to_complex(self) -> complex:
        """Floating-point evaluation; for cross-checks only, never statistics."""
        n = self.conductor
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in self.coeffs),
            complex(0),
        )

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[e, str(c)] for e, c in self.coeffs],
        }

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            mono = "1" if e == 0 else f"z{self.conductor}" + (f"^{e}" if e > 1 else "")
            if e == 0:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self})"


def m_invariant(a: Cyclotomic) -> Fraction:
    """Mean squared modulus of a cyclotomic integer over its Galois orbit.

    Every automorphism zeta_n -> zeta_n**j (j coprime to n) is applied to
    the value, the squared modulus of each image is taken exactly, and the
    results are averaged.  The outcome is always rational.  For a nonzero
    cyclotomic integer the invariant is at least 1, with equality exactly
    on roots of unity.
    """
    n = a.conductor
    total: dict[int, int] = {}
    count = 0
    for j in range(1, n + 1):
        if gcd(j, n) != 1:
            continue
        count += 1
        sq = a.galois(j).abs_squared()
        for e, c in sq.coeffs:
            total[e] = total.get(e, 0) + c
    summed = _build(n, total)
    if not summed.is_rational:
        raise ArithmeticError(
            f"Galois-orbit sum of |{a}|^2 failed to collapse to a rational"
        )
    return summed.as_rational() / count


def classify_value(a: Cyclotomic) -> ValueClass:
    """Classify a cyclotomic integer as zero, a root of unity, or other.

    The roots of unity of Q(zeta_n) are exactly +-zeta_n^e, and a value
    has one canonical form per conductor: a value is a root of unity
    exactly when it, or its negation, is the single term zeta_n^e with
    e < phi(n) or a row of `_reduction_rows`.  That is a lookup with no
    multiplication (``m_invariant`` equals 1 on the same values).
    """
    coeffs = a.coeffs
    if not coeffs:
        return ValueClass.ZERO
    if len(coeffs) == 1:  # c*zeta_n^e has squared modulus c^2
        return ValueClass.ROOT_OF_UNITY if coeffs[0][1] in (1, -1) else ValueClass.OTHER
    roots = _reduced_roots(a.conductor)
    if coeffs in roots or tuple((e, -c) for e, c in coeffs) in roots:
        return ValueClass.ROOT_OF_UNITY
    return ValueClass.OTHER


# ---------------------------------------------------------------------------
# residues at a split prime

# No composite below _MR_EXACT_BELOW is a strong pseudoprime to all of these
# bases (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.3·10^24 (`_MR_EXACT_BELOW`), by
    Miller-Rabin on the first 13 prime bases, which is deterministic there.
    A larger n raises ValueError: no exact test past the range is cheap."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is past the exact primality range, {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_1_mod(n: int, bound: int) -> int:
    """The least prime p = 1 mod n with p > bound; ValueError where the
    search passes `is_prime`'s range."""
    p = bound + 1 + (-bound) % n
    while not is_prime(p):
        p += n
    return p


def root_of_unity(n: int, p: int) -> int:
    """A primitive n-th root of unity mod the prime p = 1 mod n.

    It is w^((p-1)/n) for the least w >= 1 whose power has order exactly
    n.  Any such power x has x^n = 1, so its order is n exactly when
    x^(n/q) != 1 for every prime q of n: p - 1 is never factorized.
    """
    if n < 1 or (p - 1) % n:
        raise ValueError(f"{p} is not 1 mod {n}")
    step = (p - 1) // n
    cofactors = [n // q for q in factorize(n)]
    for w in range(1, p):
        x = pow(w, step, p)
        if all(pow(x, c, p) != 1 for c in cofactors):
            return x
    raise ValueError(f"{p} is not prime")


def unit_generators(n: int) -> tuple[int, ...]:
    """Generators of the units mod n, one per cyclic factor.

    (Z/n)^x is the product over the prime powers q^a of n of (Z/q^a)^x.
    That factor is generated by -1 and 5 for 2^a with a >= 3, by -1 for 4,
    is trivial for 2, and is cyclic for odd q, generated by a primitive
    root g mod q with g^(q-1) != 1 mod q^2 (g or g + q is one).  Each local
    generator is lifted to the unit that is 1 mod the other prime powers.
    """
    gens = []
    for q, a in factorize(n).items():
        m = q**a
        if q == 2:
            local = [m - 1, 5][: max(a - 1, 0)]
        else:
            g = root_of_unity(q - 1, q)
            local = [g + q if pow(g, q - 1, q * q) == 1 else g]
        rest = n // m
        for g in local:
            gens.append((g + m * ((1 - g) * pow(m, -1, rest) % rest)) % n)
    return tuple(gens)


def residues(values, p: int, omega: int, n: int) -> list[int]:
    """The image in F_p of each algebraic integer of Q(zeta_n) under the
    ring map zeta_n -> omega, for omega a primitive n-th root of unity
    mod the prime p.

    A value of conductor m (m divides n) sends zeta_m to omega^(n/m).
    The map is a ring homomorphism Z[zeta_n] -> F_p, and its kernel is a
    prime of Z[zeta_n] above p.
    """
    powers: dict[int, list[int]] = {}
    out = []
    for v in values:
        m = v.conductor
        pw = powers.get(m)
        if pw is None:
            if n % m:
                raise InvalidConductorError(f"conductor {m} does not divide {n}")
            step = pow(omega, n // m, p)
            pw = powers[m] = [1] * m
            for e in range(1, m):
                pw[e] = pw[e - 1] * step % p
        out.append(sum(c * pw[e] for e, c in v.coeffs) % p)
    return out
