"""Exact cyclotomic arithmetic: reduction, Galois action, the value trichotomy."""

import cmath
import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import pytest
import sympy
from classify_reference import reference_classify_value

from chartab.exactnum import (
    ChartabError,
    Cyclotomic,
    InvalidConductorError,
    NotAlgebraicIntegerError,
    ValueClass,
    _reduction_rows,
    canonicalize,
    classify_value,
    cyclotomic_coeffs,
    is_prime,
    m_invariant,
    prime_1_mod,
    residues,
    root_of_unity,
    totient,
    unit_generators,
)
from chartab.tables import (
    Dihedral,
    Extraspecial2,
    Product,
    Psl2Even,
    build_table,
    psl2_even_table,
)

zeta = Cyclotomic.zeta
one = Cyclotomic.one()
zero = Cyclotomic.zero()


def rat(x) -> Cyclotomic:
    return Cyclotomic.from_rational(Fraction(x))


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    # 105 is the first conductor with a coefficient outside {-1, 0, 1}; 63
    # and 65 are PSL(2, 64) tori, 1155 and 4095 have four odd primes, 2046 is
    # an oracle exponent and 4096 the largest dihedral conductor in use
    for n in [*range(1, 41), 48, 60, 63, 65, 105, 1155, 2046, 4095, 4096]:
        ours = cyclotomic_coeffs(n)
        ref = sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in ref], n
        assert len(ours) == totient(n) + 1


def test_conductor_must_be_positive():
    with pytest.raises(InvalidConductorError):
        cyclotomic_coeffs(0)
    with pytest.raises(InvalidConductorError):
        canonicalize(-3, {0: 1})
    with pytest.raises(InvalidConductorError):
        zeta(0)


# ---------------------------------------------------------------------------
# canonical form


def test_reduction_folds_high_powers():
    # zeta_4^2 = -1, zeta_3^2 = -1 - zeta_3
    assert canonicalize(4, {2: 1}) == rat(-1)
    assert canonicalize(3, {2: 1}).coeffs == ((0, -1), (1, -1))
    # exponents are taken mod the conductor
    assert canonicalize(5, {7: 1}) == zeta(5, 2)
    assert canonicalize(6, {6: 1}) == one


def _remainder_of_power(m: int, poly: list[int]) -> list[int]:
    """x^m mod the monic poly (low degree first), by schoolbook long division."""
    deg = len(poly) - 1
    rem = [0] * m + [1]
    for top in range(m, deg - 1, -1):
        c = rem[top]
        if c:
            for i, q in enumerate(poly):
                rem[top - deg + i] -= c * q
    return rem[:deg]


def test_reduction_rows_are_the_remainders_of_powers():
    x = sympy.Symbol("x")
    for n in range(1, 121):
        phi = totient(n)
        poly = [int(c) for c in sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs()[::-1]]
        rows = _reduction_rows(n)
        assert isinstance(rows, tuple) and len(rows) == n - phi, n
        for j, row in enumerate(rows):
            assert isinstance(row, tuple)
            rem = _remainder_of_power(phi + j, poly)
            assert dict(row) == {e: c for e, c in enumerate(rem) if c}, (n, j)


# no other test reduces in these conductors, so their tables start cold here
THREAD_CONDUCTORS = (2805, 3003)


def _reduce_descending() -> list[tuple[int, int, Cyclotomic]]:
    # the highest exponent first: one call needs the last row of the table
    return [
        (n, e, zeta(n, e))
        for n in THREAD_CONDUCTORS
        for e in range(n - 1, totient(n) - 1, -37)
    ]


def test_threads_reducing_a_cold_conductor_get_exact_values():
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(_reduce_descending) for _ in range(2)]
        reduced = [item for run in runs for item in run.result()]
    wrong = []
    for n in THREAD_CONDUCTORS:
        p = prime_1_mod(n, 2**61)
        omega = root_of_unity(n, p)
        wrong += [
            (n, e)
            for m, e, value in reduced
            if m == n and residues([value], p, omega, n) != [pow(omega, e, p)]
        ]
    assert wrong == []


def test_canonicalize_is_idempotent():
    v = canonicalize(12, {0: 2, 5: 3, 11: -4})
    again = canonicalize(v.conductor, dict(v.coeffs))
    assert again.key() == v.key()


def test_cancellation_yields_zero():
    assert (zeta(5) - zeta(5)).is_zero
    total = sum((zeta(5, k) for k in range(1, 5)), rat(1))
    assert total.is_zero  # 1 + zeta + ... + zeta^4 = 0


def test_equality_is_semantic_across_conductors():
    assert zeta(3).embed(12) == zeta(3)
    assert zeta(12, 4) == zeta(3)
    assert canonicalize(7, {0: 1}) == one
    assert zeta(12, 4).key() != zeta(3).key()  # structurally distinct
    with pytest.raises(InvalidConductorError):
        zeta(3).embed(8)  # 3 does not divide 8


# ---------------------------------------------------------------------------
# arithmetic and the Galois action


def test_ring_operations():
    a = rat(1) + zeta(3)
    b = rat(1) + zeta(3, 2)
    assert a * b == one  # (1 + w)(1 + w^2) = 2 + w + w^2 = 1
    assert a + b == one
    assert -(a - a) == zero
    assert (zeta(4) * zeta(4)) == rat(-1)
    assert 2 * zeta(6) == zeta(6) + zeta(6)
    assert (1 - zeta(6)) == rat(1) - zeta(6)


def test_conjugation():
    assert zeta(5).conjugate() == zeta(5, 4)
    assert (rat(1) + zeta(3)).conjugate() == -zeta(3)
    v = canonicalize(8, {1: 1, 3: -2, 0: 5})
    assert v.conjugate().conjugate() == v


def test_galois_action_composes():
    v = rat(2) + zeta(7) - zeta(7, 3)
    assert v.galois(2).galois(4) == v.galois(8 % 7)
    assert v.galois(1) == v
    with pytest.raises(ValueError):
        v.galois(7)  # not invertible mod 7


def test_abs_squared():
    root2 = zeta(8) + zeta(8, -1)
    assert root2.abs_squared() == rat(2)
    assert zeta(12, 5).abs_squared() == one
    assert zero.abs_squared() == zero


def test_to_complex_matches_exact_arithmetic():
    v = zeta(3) + zeta(4)  # lands in conductor 12
    assert v.conductor == 12
    expect = cmath.exp(2j * cmath.pi / 3) + 1j
    assert abs(v.to_complex() - expect) < 1e-9


# ---------------------------------------------------------------------------
# integrality


def test_algebraic_integer_detection():
    # integrality is decided where a value is built: an integral Fraction
    # is stored as an int, a non-integral one is refused at every entry
    v = canonicalize(9, {1: Fraction(4, 2), 0: -3})
    assert v.coeffs == ((0, -3), (1, 2)) and all(type(c) is int for _, c in v.coeffs)
    assert type(rat(Fraction(6, 3)).coeffs[0][1]) is int
    assert issubclass(NotAlgebraicIntegerError, ChartabError)
    with pytest.raises(NotAlgebraicIntegerError):
        canonicalize(5, {1: Fraction(1, 2)})
    with pytest.raises(NotAlgebraicIntegerError):
        Cyclotomic.from_rational("1/2")


def test_m_invariant_frozen_values():
    assert m_invariant(rat(1) + zeta(4)) == 2  # |1 + i|^2 = 2 at both embeddings
    assert m_invariant(rat(2)) == 4
    assert m_invariant(zeta(8) + zeta(8, -1)) == 2  # sqrt(2) and -sqrt(2)
    assert m_invariant(zero) == 0
    assert m_invariant(-zeta(45, 7)) == 1


def test_m_invariant_rejects_non_integers():
    with pytest.raises(NotAlgebraicIntegerError):
        m_invariant(Cyclotomic.from_rational(Fraction(1, 2)))
    with pytest.raises(NotAlgebraicIntegerError):
        m_invariant(canonicalize(3, {1: Fraction(2, 3)}))


def test_m_invariant_multiplicative_for_coprime_conductors():
    rng = random.Random(7)
    for m, n in ((3, 4), (5, 8)):
        for _ in range(10):
            a = canonicalize(m, {e: rng.randint(-2, 2) for e in range(totient(m))})
            b = canonicalize(n, {e: rng.randint(-2, 2) for e in range(totient(n))})
            if a.is_zero or b.is_zero:
                continue
            assert m_invariant(a * b) == m_invariant(a) * m_invariant(b)


# ---------------------------------------------------------------------------
# the trichotomy


def test_classify_frozen_values():
    assert classify_value(zero) is ValueClass.ZERO
    assert classify_value(zeta(7, 3)) is ValueClass.ROOT_OF_UNITY
    assert classify_value(-zeta(7, 3)) is ValueClass.ROOT_OF_UNITY
    assert classify_value(rat(1) + zeta(3)) is ValueClass.ROOT_OF_UNITY  # = -zeta_3^2
    assert classify_value(rat(-1)) is ValueClass.ROOT_OF_UNITY
    assert classify_value(rat(2)) is ValueClass.OTHER
    assert classify_value(zeta(8) + zeta(8, -1)) is ValueClass.OTHER
    assert classify_value(rat(1) + zeta(5)) is ValueClass.OTHER
    with pytest.raises(NotAlgebraicIntegerError):
        classify_value(rat(Fraction(1, 2)))  # trichotomy is for integers only


def test_root_of_unity_iff_unit_m_invariant():
    # spot checks both ways on integral values
    for v in (zeta(16, 5), -zeta(9), rat(1) + zeta(3), zeta(8) + zeta(8, 3)):
        is_rou = classify_value(v) is ValueClass.ROOT_OF_UNITY
        assert (m_invariant(v) == 1) == is_rou


def test_classify_matches_float_modulus_oracle():
    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randint(1, 24)
        raw = {rng.randrange(n): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
        v = canonicalize(n, raw)
        modulus = abs(v.to_complex())
        got = classify_value(v)
        if modulus < 1e-9:
            assert got is ValueClass.ZERO
        elif abs(modulus - 1) < 1e-9:
            assert got is ValueClass.ROOT_OF_UNITY
        else:
            assert got is ValueClass.OTHER
        if not v.is_zero:
            assert m_invariant(v) >= 1


def test_random_roots_of_unity_have_unit_m_invariant():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 48)
        v = zeta(n, rng.randrange(n))
        if rng.random() < 0.5:
            v = -v
        assert m_invariant(v) == 1
        assert classify_value(v) is ValueClass.ROOT_OF_UNITY


# the witness expressions of the benchmark's product queries
# (`PRODUCT_CERTIFY` in perfbench/jobs.py)
PRODUCT_TABLES = (
    Product((Psl2Even(3),) * 3),
    Product((Extraspecial2(1),) * 4),
    Product((Dihedral(3), Psl2Even(3))),
    Product((Dihedral(5),) * 2),
)
PALETTE_SPECS = (
    *(Dihedral(k) for k in range(1, 10)),
    *(Extraspecial2(k) for k in range(1, 5)),
    *(Psl2Even(k) for k in range(1, 10)),
    *PRODUCT_TABLES,
)


@pytest.mark.parametrize("spec", PALETTE_SPECS, ids=repr)
def test_classify_matches_the_squared_modulus_on_every_palette(spec):
    palette = build_table(spec).palette
    assert [classify_value(v) for v in palette] == [reference_classify_value(v) for v in palette]


def test_classify_matches_the_squared_modulus_in_every_conductor():
    rng = random.Random(20261019)
    for n in range(1, 301):
        for _ in range(3):
            v = zeta(n, rng.randrange(n))
            for value in (v, -v):
                assert classify_value(value) is ValueClass.ROOT_OF_UNITY, (n, value)
                assert reference_classify_value(value) is ValueClass.ROOT_OF_UNITY
            pair = zeta(n, rng.randrange(n)) + (-1) ** rng.randrange(2) * zeta(n, rng.randrange(n))
            assert classify_value(pair) is reference_classify_value(pair), (n, pair)
    # rationals in large conductors: only +-1 are roots of unity
    for n in (997, 1001, 2048, 3003, 4095):
        for c in (-2, -1, 1, 2, 3):
            value = canonicalize(n, {0: c})
            assert classify_value(value) is reference_classify_value(value), (n, c)
    with pytest.raises(NotAlgebraicIntegerError):
        classify_value(canonicalize(9, {1: Fraction(1, 2), 5: 1}))


def test_classify_psl2even_10_palette_under_half_a_second():
    # 1,031 values, most of them dense cosines in conductors 1023 and 1025:
    # the squared modulus took 2.2 s on a 2-core VM, the lookup 0.008 s
    palette = psl2_even_table(10).palette
    start = time.perf_counter()
    for v in palette:
        classify_value(v)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# serialization and text


def test_json_round_trip():
    v = canonicalize(20, {0: -7, 3: 1, 7: -2})
    doc = v.to_json()
    assert doc == {"conductor": 20, "coeffs": [[0, "-7"], [3, "1"], [7, "-2"]]}
    assert rat(5).to_json() == {"conductor": 1, "coeffs": [[0, "5"]]}


def test_str_is_readable():
    assert str(zero) == "0"
    assert str(rat(-3)) == "-3"
    s = str(zeta(8) - 2 * zeta(8, 3))
    assert "z8" in s and "z8^3" in s


# ---------------------------------------------------------------------------
# residues at a split prime

# 63 * 65 and 127 * 129 are the PSL(2, 64) and PSL(2, 128) table conductors,
# 4096 the largest dihedral one in use, 30030 and 65535 have five and four
# odd primes
LARGE_N = (4096, 63 * 65, 127 * 129, 30030, 65535)


def test_is_prime_matches_sympy():
    assert [n for n in range(-3, 20000) if is_prime(n)] == list(sympy.primerange(20000))
    rng = random.Random(17)
    for bits in (40, 64, 81):
        for _ in range(300):
            n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to every prime base up to 7, 23 and 37: only
    # the later bases unmask them
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    # past the Miller-Rabin range the test refuses
    with pytest.raises(ValueError):
        is_prime(43 * 10**24 + 43 * 7)


@pytest.mark.parametrize("n", [*range(1, 301), *LARGE_N])
def test_split_prime_root_and_unit_generators(n):
    bound = 1000 * n
    p = prime_1_mod(n, bound)
    assert sympy.isprime(p) and p % n == 1 % n and p > bound
    assert not any(sympy.isprime(q) for q in range(bound + 1, p) if q % n == 1 % n)
    omega = root_of_unity(n, p)
    assert sympy.n_order(omega, p) == n
    gens = unit_generators(n)
    assert all(gcd(g, n) == 1 for g in gens)
    reached = frontier = {1 % n}
    while frontier:
        frontier = {x * g % n for x in frontier for g in gens} - reached
        reached |= frontier
    assert len(reached) == totient(n)


def _random_integer(rng: random.Random, n: int) -> Cyclotomic:
    m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    return canonicalize(m, {rng.randrange(m): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))})


# products in conductors 30030 and 65535 first build tens of thousands of
# reduction rows, which takes seconds; the ring map is checked below them
@pytest.mark.parametrize("n", [*range(1, 301), *LARGE_N[:3]])
def test_residues_are_a_ring_map(n):
    p = prime_1_mod(n, 10**6)
    omega = root_of_unity(n, p)
    omega_bar = pow(omega, -1, p)
    rng = random.Random(n)
    assert residues([one, zeta(n), zero], p, omega, n) == [1, omega % p, 0]
    for _ in range(6):
        a, b = _random_integer(rng, n), _random_integer(rng, n)
        ra, rb, rsum, rprod = residues([a, b, a + b, a * b], p, omega, n)
        assert rsum == (ra + rb) % p
        assert rprod == ra * rb % p
        # complex conjugation is the map at omega^-1
        assert residues([a.conjugate()], p, omega, n) == residues([a], p, omega_bar, n)


def test_residues_refuse_a_foreign_conductor_and_a_fraction():
    p = prime_1_mod(4, 100)
    with pytest.raises(InvalidConductorError):
        residues([zeta(3)], p, root_of_unity(4, p), 4)
    with pytest.raises(NotAlgebraicIntegerError):
        residues([rat(Fraction(1, 2))], p, root_of_unity(4, p), 4)
